import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import permlab

from permlab.perm import Permutation, all_permutations, inverse_entries
from permlab import stats

from oracles import (
    ainv_oracle,
    incsub_dp_oracle,
    incsub_oracle,
    inv_oracle,
    las_oracle,
    locmax_oracle,
    m_asc_oracle,
    m_desc_oracle,
    rising_oracle,
)


def _ev(sel, t):
    return stats.evaluate(stats.parse_statistic(sel), t)


def _random_perms(rng, count, n_max):
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        yield tuple(int(v) + 1 for v in rng.permutation(n))


# ---------------------------------------------------------------------------
# parsing

def test_parse_statistic():
    assert stats.parse_statistic("inv") == stats.StatisticKind("inv")
    assert stats.parse_statistic(" desc:3 ") == stats.StatisticKind("desc", 3)
    assert str(stats.StatisticKind("incsub", 2)) == "incsub:2"
    with pytest.raises(ValueError):
        stats.parse_statistic("desc")  # missing window
    with pytest.raises(ValueError):
        stats.parse_statistic("inv:2")  # unwanted parameter
    with pytest.raises(ValueError):
        stats.parse_statistic("desc:x")
    with pytest.raises(ValueError):
        stats.parse_statistic("nope")
    with pytest.raises(ValueError):
        stats.StatisticKind("desc", 0)
    # m is an integer: a bool, a float or text is refused in one line, by
    # the selector and by every kernel taking a window
    assert stats.StatisticKind("desc", np.int64(3)) == stats.StatisticKind("desc", 3)
    x = np.array([[3, 1, 2]])
    for bad in (2.5, 2.0, True, "3"):
        with pytest.raises(ValueError, match="needs a parameter m >= 1"):
            stats.StatisticKind("desc", bad)
        for kernel in (stats.m_descents_batch, stats.m_ascents_batch,
                       stats.rising_sequences_batch):
            with pytest.raises(ValueError):
                kernel(x, bad)


# ---------------------------------------------------------------------------
# single-permutation kernels vs brute force

def test_kernels_match_oracles_exhaustive_s5():
    for n in range(1, 6):
        for t in all_permutations(n):
            assert stats.inversions(t) == inv_oracle(t)
            assert _ev("ainv", t) == ainv_oracle(t)
            assert stats.local_maxima(t) == locmax_oracle(t)
            assert _ev("las", t) == las_oracle(t)
            for m in range(1, n + 1):
                assert stats.m_descents(t, m) == m_desc_oracle(t, m)
                assert _ev(f"asc:{m}", t) == m_asc_oracle(t, m)
                assert _ev(f"rising:{m}", t) == rising_oracle(t, m)
                assert stats.increasing_subsequences(t, m) == incsub_oracle(t, m)


def test_kernels_match_oracles_random():
    rng = np.random.default_rng(2024)
    for t in _random_perms(rng, 300, 40):
        n = len(t)
        assert stats.inversions(t) == inv_oracle(t)
        m = int(rng.integers(1, n + 1))
        assert stats.m_descents(t, m) == m_desc_oracle(t, m)
        assert _ev(f"asc:{m}", t) == m_asc_oracle(t, m)
        assert stats.local_maxima(t) == locmax_oracle(t)
        assert _ev(f"rising:{m}", t) == rising_oracle(t, m)
        assert stats.increasing_subsequences(t, min(m, 6)) == incsub_dp_oracle(
            t, min(m, 6)
        )


def test_inversions_large_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(150, 400))
        t = tuple(int(v) + 1 for v in rng.permutation(n))
        assert stats.inversions(t) == inv_oracle(t)


def test_las_convention_cases():
    # descent-first: the identity has no descent to start with
    assert _ev("las", (1, 2, 3, 4)) == 1
    assert _ev("las", (4, 3, 2, 1)) == 2
    assert _ev("las", (1,)) == 1
    assert _ev("las", (2, 1)) == 2
    assert _ev("las", (1, 2)) == 1
    # 4 > 1 < 5 > 2 < 6 > 3 alternates fully
    assert _ev("las", (4, 1, 5, 2, 6, 3)) == 6


def test_las_mean_formula_small_n():
    # exhaustive mean over S_n is (4n + 1)/6 for n >= 2 (uniform average)
    for n in (2, 3, 4, 5, 6):
        vals = stats.longest_alternating_batch(_stack_perms(all_permutations(n)))
        mean = vals.mean()
        assert mean == pytest.approx((4 * n + 1) / 6, abs=1e-12)


def test_m_descents_equals_inversions_for_wide_window():
    for t in all_permutations(5):
        assert stats.m_descents(t, 4) == stats.inversions(t)
        assert stats.m_descents(t, 9) == stats.inversions(t)


@pytest.mark.parametrize("n", [17, 40, 300])
def test_wide_windows_equal_the_window_count(n):
    # m from ceil((n - 1) / 2) to n - 2 counts every pair less the distances
    # past m; the reference sums the rank rows' pairs distance by distance
    rng = np.random.default_rng(n)
    scores = rng.random((6, n))
    for x in (scores, stats.ranks_matrix(scores), np.floor(scores * 3)):
        r = stats.ranks_matrix(x)
        by_d = [r[:, :n - d] > r[:, d:] for d in range(1, n)]
        desc = np.cumsum([np.count_nonzero(v, axis=1) for v in by_d], axis=0)
        asc = np.cumsum([np.count_nonzero(~v, axis=1) for v in by_d], axis=0)
        for m in range(n // 2, n - 1):
            assert stats.m_descents_batch(x, m).tolist() == desc[m - 1].tolist(), m
            assert stats.m_ascents_batch(x, m).tolist() == asc[m - 1].tolist(), m


def test_desc_asc_pair_identity():
    # windows partition ordered pairs: desc + asc = total near pairs
    for t in all_permutations(5):
        for m in range(1, 5):
            pairs = sum(min(m, 5 - i) for i in range(1, 5))
            assert stats.m_descents(t, m) + _ev(f"asc:{m}", t) == pairs


def test_inv_invariant_under_inverse():
    for n in range(1, 7):
        for t in all_permutations(n):
            assert stats.inversions(t) == stats.inversions(inverse_entries(t))


def test_incsub_invariant_under_inverse():
    # chains of the point set {(i, p(i))} survive coordinate swap
    for t in all_permutations(6):
        for m in (2, 3, 4):
            assert stats.increasing_subsequences(t, m) == stats.increasing_subsequences(
                inverse_entries(t), m
            )


def test_incsub_identity_binomial():
    import math

    for n in (3, 8, 30):
        t = tuple(range(1, n + 1))
        for m in (1, 2, n // 2, n):
            assert stats.increasing_subsequences(t, m) == math.comb(n, m)


def test_incsub_no_overflow():
    # C(80, 40) is far beyond int64; the count must stay exact
    import math

    n = 80
    t = tuple(range(1, n + 1))
    assert stats.increasing_subsequences(t, 40) == math.comb(80, 40)


def test_range_errors():
    with pytest.raises(ValueError):
        _ev("rising:4", (2, 1, 3))
    with pytest.raises(ValueError):
        stats.rising_sequences_batch(np.array([[2, 1, 3]]), 0)
    with pytest.raises(ValueError):
        stats.increasing_subsequences((2, 1, 3), 0)
    with pytest.raises(ValueError):
        stats.m_descents((2, 1, 3), 0)


def test_incsub_on_entries_outside_1_to_n_ends():
    # run apart with a time limit, so a Fenwick loop that never ends fails
    # the test instead of hanging the suite: evaluate ranks the row first,
    # and the exact count refuses entries it cannot index
    code = """if True:
        from permlab import stats
        assert stats.evaluate(stats.parse_statistic("incsub:2"), (0, 1)) == 1
        assert stats.evaluate(stats.parse_statistic("incsub:2"), (5, 9, 7)) == 2
        for bad in ((0, 1), (1, 3), (-2, 1, 2)):
            try:
                stats.increasing_subsequences(bad, 2)
            except ValueError:
                continue
            raise AssertionError(bad)
    """
    src = str(Path(permlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert out.returncode == 0, out.stderr


def test_evaluate_dispatch():
    p = Permutation((4, 3, 1, 2))
    assert stats.evaluate(stats.parse_statistic("inv"), p) == 5
    assert stats.evaluate(stats.parse_statistic("ainv"), p) == 1
    assert stats.evaluate(stats.parse_statistic("desc:1"), p) == 2
    assert stats.evaluate(stats.parse_statistic("asc:1"), p) == 1
    assert stats.evaluate(stats.parse_statistic("locmax"), p) == 0
    assert stats.evaluate(stats.parse_statistic("las"), p) == 3
    assert stats.evaluate(stats.parse_statistic("rising:2"), p) == 1
    assert stats.evaluate(stats.parse_statistic("incsub:2"), p) == 1


# ---------------------------------------------------------------------------
# batch kernels vs single kernels and brute force

def _stack_perms(perms):
    return np.asarray([list(t) for t in perms], dtype=np.int64)


def test_batch_matches_single_exhaustive():
    # every kernel on all of S_5 at once: row for row its batch of one and
    # the oracle's value
    perms = list(all_permutations(5))
    x = _stack_perms(perms)
    oracles = {"inv": inv_oracle, "ainv": ainv_oracle, "locmax": locmax_oracle,
               "las": las_oracle}
    for m in (1, 2, 3, 4):
        oracles[f"desc:{m}"] = lambda t, m=m: m_desc_oracle(t, m)
        oracles[f"asc:{m}"] = lambda t, m=m: m_asc_oracle(t, m)
        oracles[f"rising:{m}"] = lambda t, m=m: rising_oracle(t, m)
    for sel, oracle in oracles.items():
        got = stats.evaluate_batch(stats.parse_statistic(sel), x).tolist()
        assert got == [_ev(sel, t) for t in perms] == [oracle(t) for t in perms], sel


def test_batch_on_scores_equals_batch_on_ranks():
    # exact ties count as in the stable ranks: floor(x * 3) rows, two -inf
    # and an all-equal row
    rng = np.random.default_rng(11)
    scores = rng.random((50, 23))
    ties = scores.copy()
    ties[:20] = np.floor(ties[:20] * 3)
    ties[20, [4, 9]] = -np.inf
    ties[21] = 0.5
    wide = str(10 ** 30)
    for x in (scores, ties):
        r = stats.ranks_matrix(x)
        for sel in ("inv", "ainv", "desc:2", "desc:" + wide, "asc:1", "asc:" + wide, "locmax",
                    "las", "rising:2", "rising:3", "incsub:3"):
            kind = stats.parse_statistic(sel)
            got = stats.evaluate_batch(kind, x)
            want = stats.evaluate_batch(kind, r)
            assert np.array_equal(got, want), sel
        ainv = stats.evaluate_batch(stats.parse_statistic("ainv"), x)
        assert np.array_equal(stats.evaluate_batch(stats.parse_statistic("asc:22"), x), ainv)


def test_ranks_matrix_values_and_ties():
    r = stats.ranks_matrix(np.array([[0.3, 0.1, 0.9, 0.5]]))
    assert r.tolist() == [[2, 1, 4, 3]]
    # exact ties break by column index (stable sort)
    r = stats.ranks_matrix(np.array([[0.5, 0.5, 0.1]]))
    assert r.tolist() == [[2, 3, 1]]


def _stable_ranks(x: np.ndarray) -> np.ndarray:
    return np.argsort(np.argsort(x, axis=1, kind="stable"), axis=1) + 1


def _edge_rows(n: int, rng) -> list:
    """(rows, pairwise) of every dtype ``ranks_matrix`` takes: float rows
    with exact ties, -0.0 against +0.0 and infinities, int64 past 2^53,
    uint64 past 2^63 and bool rows; 512 of each, and pairwise is whether
    the block is ranked pair by pair, where n <= 16."""
    rows = 512
    x = np.log(rng.random((rows, n)))
    x[:20] = np.floor(x[:20] * 2)  # exact ties
    if n:
        x[20, ::2], x[21] = -0.0, -0.0
        x[22, 1::2] = 0.0
        x[23, ::3], x[24, -1] = -np.inf, np.inf
        x[25] = -np.inf
        x[26, 0], x[27, -1] = np.inf, -np.inf
    perms = np.argsort(rng.random((rows, n)), axis=1)
    ints = (1 << 53) + perms  # one apart past 2^53: ties as float64
    ints[:rows // 2] = (1 << 62) - 3 * perms[:rows // 2]
    ints[-3:] = 1 << 60
    uints = np.uint64(2 ** 64 - 1) - perms.astype(np.uint64)
    uints[:5] = 2 ** 63
    small = n <= 16
    return [(x, small), (ints, small), (uints, small), (rng.random((rows, n)) < 0.5, small)]


@pytest.mark.parametrize("n", range(18))
def test_pairwise_ranks_equal_the_stable_argsort(monkeypatch, n):
    # rows of at most 16 rank pair by pair at any row count, one row and
    # bool rows included
    pairwise = []
    real = stats._pairwise_ranks
    monkeypatch.setattr(stats, "_pairwise_ranks", lambda x: pairwise.append(x) or real(x))
    for rows, pair_route in _edge_rows(n, np.random.default_rng(n)):
        for block in (rows, rows[1:], rows[:1]):
            pairwise.clear()
            got = stats.ranks_matrix(block)
            assert got.dtype == np.int64 and got.flags.c_contiguous
            assert np.array_equal(got, _stable_ranks(block)), (n, block.dtype)
            assert len(pairwise) == (pair_route and n > 0), (n, block.dtype)


def test_ranks_route_pairwise_on_many_short_rows(monkeypatch):
    # the routes are pinned: every row of at most 16 pairwise, from the n = 4
    # fidelity rows to one row, and every row past 16 by the sort
    ran = []
    for name in ("_pairwise_ranks", "_order"):
        real = getattr(stats, name)
        monkeypatch.setattr(stats, name, lambda x, real=real, name=name: ran.append(name) or real(x))
    cases = (
        (8000, 4, "_pairwise_ranks"), (4096, 4, "_pairwise_ranks"),
        (20000, 16, "_pairwise_ranks"), (512, 16, "_pairwise_ranks"),
        (512, 1, "_pairwise_ranks"),
        (511, 16, "_pairwise_ranks"), (511, 2, "_pairwise_ranks"), (1, 4, "_pairwise_ranks"),
        (1, 16, "_pairwise_ranks"),
        (8000, 17, "_order"), (20000, 100, "_order"), (400, 2000, "_order"),
    )
    for rows, n, route in cases:
        ran.clear()
        stats.ranks_matrix(np.random.default_rng(rows).random((rows, n)))
        assert ran == [route], (rows, n)
    ran.clear()
    stats.ranks_matrix(np.zeros((8000, 0)))  # rows of no entries take neither route
    assert ran == []


def test_inverse_scatter_blocks(monkeypatch):
    # blocks of one row, of three rows and past the last row give the
    # inverse of every row, from 0-based and from 1-based rows
    rng = np.random.default_rng(5)
    order = np.argsort(rng.random((10, 7)), axis=1)
    want = np.argsort(order, axis=1) + 1
    for keys in (1, 21, 22, 1 << 15):
        monkeypatch.setattr(stats, "_SCATTER_KEYS", keys)
        assert np.array_equal(stats._inverse_rows(order), want)
        assert np.array_equal(stats._inverse_rows(order + 1, 1), want)
    assert stats._inverse_rows(np.empty((3, 0), dtype=np.int64)).shape == (3, 0)


def test_inversions_batch_chunking(monkeypatch):
    # 37 columns pad to 64 keys, so chunks of 7 * 64 keys hold 7 rows
    rng = np.random.default_rng(3)
    x = rng.random((64, 37))
    full = stats.inversions_batch(x)
    chunk_rows = []
    merge = stats._inversions_chunk

    def counted(y):
        chunk_rows.append(len(y))
        return merge(y)

    monkeypatch.setattr(stats, "_inversions_chunk", counted)
    monkeypatch.setattr(stats, "_MERGE_KEYS", 64 * 7)
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 1)  # one thread, full chunks
    chunked = stats.inversions_batch(x)
    assert np.array_equal(full, chunked)
    assert chunk_rows == [7] * 9 + [1]


def _fallback_spy(monkeypatch):
    """Record every row the stable-argsort fallback of ``stats._order`` sorts."""
    rows = []
    real = stats._stable_order
    monkeypatch.setattr(stats, "_stable_order", lambda x: rows.extend(x) or real(x))
    return rows


def test_inversions_batch_repairs_ties_of_the_fast_argsort(monkeypatch):
    # one chunk of untied rows, rows with exact ties, two -inf scores, a
    # lone -inf and an all-equal row: every count is the oracle's, and only
    # the tied rows take the stable argsort
    rng = np.random.default_rng(17)
    x = rng.random((12, 300))
    x[1:4] = np.floor(x[1:4] * 6)
    x[5, [3, 40, 41]] = -np.inf
    x[6, 7] = -np.inf
    x[8] = 0.5
    want = [inv_oracle(row.tolist()) for row in x]
    fallback = _fallback_spy(monkeypatch)
    assert stats.inversions_batch(x).tolist() == want
    assert want[8] == 0
    assert np.array_equal(fallback, x[[1, 2, 3, 5, 8]])


def test_untied_score_rows_skip_the_stable_argsort(monkeypatch):
    # a fallback taken by every row would still count right, only slower
    n = 2000
    x = np.log(np.random.default_rng(4).random((400, n))) / np.arange(1, n + 1)
    fallback = _fallback_spy(monkeypatch)
    order = stats._order(x)
    assert fallback == []
    assert np.array_equal(order, np.argsort(x, axis=1, kind="stable"))


def _inv_quadratic(row: np.ndarray) -> int:
    # the O(n^2) oracle as one comparison matrix, for rows too long to loop
    return int(np.count_nonzero(np.triu(row[:, None] > row[None, :], 1)))


def _near_key_rows(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Float rows and int64 rows whose order a key truncated by ceil(log2 n)
    bits can get wrong, each at least 16 wide."""
    x = np.log(rng.random((10, n))) / np.arange(1, n + 1)
    up = lambda v: np.nextafter(v, np.inf)  # noqa: E731
    x[1, 1], x[1, 2] = up(x[1, 0]), up(up(x[1, 0]))  # adjacent neighbours
    x[2, n - 1], x[2, n // 2] = up(x[2, 0]), np.nextafter(x[2, 0], -np.inf)  # far apart
    x[3, [1, n - 2]], x[3, [4, n - 1]] = -0.0, 0.0
    x[4, 0], x[4, n - 1] = 0.0, -0.0
    x[5, 3] = -np.inf  # lone infinities, untied
    x[6, n - 3] = np.inf
    x[7, [2, 9]] = -np.inf
    x[8, ::3] = np.round(x[8, ::3], 1)  # many exact ties
    x[9] = -0.0
    perms = np.argsort(rng.random((3, n)), axis=1).astype(np.int64)
    ints = np.vstack([perms + 1, (1 << 53) + perms, (1 << 62) - 3 * perms,
                      -(1 << 62) + (perms << 8), np.full((1, n), 1 << 60)])
    return x, ints


@pytest.mark.parametrize("n", [16, 17, 31, 33, 2047, 2049, 4097])
def test_order_and_inversions_past_the_truncated_key(monkeypatch, n):
    # nextafter neighbours, -0.0 against +0.0, int64 past 2^53 and rank rows:
    # ranks are the stable argsort's and counts the oracle's, on 1 to 3 CPUs,
    # one-row chunks and order blocks of three rows
    monkeypatch.setattr(stats, "_MERGE_KEYS", 1)
    monkeypatch.setattr(stats, "_ORDER_KEYS", 3 * n)
    x, ints = _near_key_rows(n, np.random.default_rng(n))
    ranks = stats.ranks_matrix(x)
    for rows in (x, ints, ranks):
        stable = np.argsort(rows, axis=1, kind="stable")
        want_ranks = np.argsort(stable, axis=1) + 1
        want = [_inv_quadratic(r) for r in rows]
        for cpus in (1, 2, 3):
            _pool_spy(monkeypatch, cpus)
            assert np.array_equal(stats.ranks_matrix(rows), want_ranks)
            assert stats.inversions_batch(rows).tolist() == want
    assert ranks[9].tolist() == list(range(1, n + 1))  # all -0.0: column order


@pytest.mark.parametrize("n", range(2, 18))
def test_short_rows_count_ties_as_the_stable_argsort(n):
    # rows of at most 16 are compared as given, with no argsort: exact ties,
    # two -inf, an all-equal row and rank rows still count as the oracle
    rng = np.random.default_rng(n)
    x = rng.random((40, n))
    x[:10] = np.floor(x[:10] * 3)
    x[10, [0, n - 1]] = -np.inf
    x[11, : (n + 1) // 2] = -np.inf
    x[12] = 0.25
    x[13:20] = stats.ranks_matrix(x[13:20])
    want = [inv_oracle(row.tolist()) for row in x]
    assert stats.inversions_batch(x).tolist() == want
    assert want[12] == 0


def _pool_spy(monkeypatch, cpus):
    """Record the thread count of every pool ``inversions_batch`` opens, on a
    host of ``cpus`` CPUs."""
    pools = []
    real = stats.ThreadPoolExecutor
    monkeypatch.setattr(stats, "ThreadPoolExecutor", lambda k: pools.append(k) or real(k))
    monkeypatch.setattr(stats.os, "cpu_count", lambda: cpus)
    return pools


def test_inversions_batch_equal_for_any_thread_count(monkeypatch):
    # chunks of 2 to 7 rows at n = 37 (64 keys): score rows, rank rows and
    # tied rows (exact ties, two -inf) count the same on 1, 2 and 3 threads
    monkeypatch.setattr(stats, "_MERGE_KEYS", 64 * 7)
    rng = np.random.default_rng(11)
    x = rng.random((50, 37))
    x[10:20] = np.floor(x[10:20] * 5)
    x[30, [2, 9]] = -np.inf
    ranks = stats.ranks_matrix(x)
    want = [inv_oracle(row.tolist()) for row in x]
    for cpus in (1, 2, 3):
        pools = _pool_spy(monkeypatch, cpus)
        assert stats.inversions_batch(x).tolist() == want
        assert stats.inversions_batch(ranks).tolist() == want
        assert pools == ([cpus, cpus] if cpus > 1 else [])


def test_inversions_pool_runs_only_above_one_chunk(monkeypatch):
    # two threads take chunks of 2^17 padded keys: 256 rows at n = 300 (512
    # keys a row), so 256 rows stay on the calling thread and 257 do not
    x = np.random.default_rng(3).random((1000, 300))
    rows = (stats._MERGE_KEYS // 2) // 512
    pools = _pool_spy(monkeypatch, 2)
    below = stats.inversions_batch(x[:rows])
    assert pools == []
    above = stats.inversions_batch(x[:rows + 1])
    assert pools == [2] and np.array_equal(above[:-1], below)
    # a pool of min(threads, chunks): 3 CPUs, 2 chunks, then 6 chunks
    pools = _pool_spy(monkeypatch, 3)
    stats.inversions_batch(x[:2 * ((stats._MERGE_KEYS // 3) // 512)])
    stats.inversions_batch(x)
    assert pools == [2, 3]
    # one CPU: no pool, whatever the chunk count
    pools = _pool_spy(monkeypatch, 1)
    stats.inversions_batch(x)
    assert pools == []


def test_inversions_chunks_bound_keys_in_flight(monkeypatch):
    # each chunk holds at most _MERGE_KEYS // threads padded keys
    _pool_spy(monkeypatch, 3)
    seen = []
    real = stats._inversions_chunk

    def spy(y):
        seen.append(len(y))
        return real(y)

    monkeypatch.setattr(stats, "_inversions_chunk", spy)
    stats.inversions_batch(np.random.default_rng(2).random((700, 1000)))
    assert len(seen) > 1 and max(seen) * 1024 <= stats._MERGE_KEYS // 3 and sum(seen) == 700


def test_inversions_batch_under_stress(monkeypatch):
    # more threads than cores, one-row chunks and a short switch interval:
    # every chunk still lands in its own rows, within a time bound
    import sys
    import threading

    x = np.random.default_rng(9).random((300, 60))
    want = [inv_oracle(row.tolist()) for row in x]
    monkeypatch.setattr(stats, "_MERGE_KEYS", 16 * 64)
    pools = _pool_spy(monkeypatch, 16)
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: got.update(v=stats.inversions_batch(x)))
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and got["v"].tolist() == want and pools == [16]


def test_sizebias_records_equal_for_any_thread_count(monkeypatch):
    # the size-bias checks count their inversions through the same kernel
    from permlab import sizebias

    monkeypatch.setattr(stats, "_MERGE_KEYS", 32 * 30)  # 32-row chunks, counted pair by pair
    got = {}
    for cpus in (1, 3):
        pools = _pool_spy(monkeypatch, cpus)
        draws = sizebias.couple_batch(30, 90, 5)
        bound = sizebias.stein_bound(30, 200, 16, 6)
        ident = sizebias.verify_size_bias_identity(30, "square", 50, 7)
        got[cpus] = ({k: v.tobytes() for k, v in draws.items()}, bound, ident)
        assert pools == []  # rows of 30 count on the calling thread
    assert got[1] == got[3]


def test_batch_single_row_and_single_column():
    assert stats.inversions_batch(np.array([[1]])).tolist() == [0]
    assert stats.inversions_batch(np.zeros((3, 0))).tolist() == [0, 0, 0]
    assert stats.local_maxima_batch(np.array([[1, 2]])).tolist() == [0]
    assert stats.longest_alternating_batch(np.array([[1]])).tolist() == [1]
    # a scalar is one row of one entry
    for kernel in (stats.inversions_batch, stats.anti_inversions_batch, stats.local_maxima_batch):
        assert kernel(3.0).tolist() == [0], kernel


@pytest.mark.parametrize("shape", [(0, 1), (0, 4), (0, 16), (0, 17), (0, 40), (3, 0)])
def test_empty_batches_keep_their_shape(shape):
    # no rows, on each side of the 16- and 32-column rules, and rows of no
    # entries: the block views take them, and every count is an int64 zero
    reps, n = shape
    x = np.random.default_rng(0).random(shape)
    ranks = stats.ranks_matrix(x)
    assert ranks.shape == shape and ranks.dtype == np.int64
    zeros = np.zeros(reps, dtype=np.int64)
    sels = ["inv", "ainv", "desc:1", "desc:3", "asc:1", "locmax", "las"]
    sels += ["rising:1", "incsub:1"] if reps == 0 else []  # each needs n >= 1
    for rows in (x, ranks):
        assert np.array_equal(stats.inversions_batch(rows), zeros)
        assert np.array_equal(stats.m_descents_batch(rows, 3), zeros)
        for sel in sels:
            got = stats.evaluate_batch(stats.parse_statistic(sel), rows)
            assert got.dtype == np.int64 and np.array_equal(got, zeros), sel


def test_evaluate_batch_incsub_matches_loop():
    rng = np.random.default_rng(5)
    x = rng.random((20, 12))
    kind = stats.parse_statistic("incsub:4")
    got = stats.evaluate_batch(kind, x)
    r = stats.ranks_matrix(x)
    want = [stats.increasing_subsequences(tuple(int(v) for v in row), 4) for row in r]
    assert got.tolist() == want


def test_evaluate_batch_incsub_counts_past_int64():
    import math

    x = np.array([np.arange(80), np.arange(80)[::-1]])
    got = stats.evaluate_batch(stats.parse_statistic("incsub:40"), x)
    assert got.dtype == object and got.tolist() == [math.comb(80, 40), 0]


_MERGE_GRID = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129]


@pytest.mark.parametrize("n", _MERGE_GRID)
def test_inversions_batch_matches_oracle_on_padded_widths(n):
    # widths at, below and above powers of two exercise the pad
    rng = np.random.default_rng(n)
    scores = rng.random((6, n))
    ranks = stats.ranks_matrix(scores)
    ties = np.floor(rng.random((6, n)) * 4)  # few distinct values: many ties
    want = [inv_oracle(row) for row in scores]
    assert stats.inversions_batch(scores).tolist() == want
    assert stats.inversions_batch(ranks).tolist() == want
    assert stats.inversions_batch(ties).tolist() == [inv_oracle(row) for row in ties]


def test_inversions_batch_matches_oracle_at_n_2000():
    rng = np.random.default_rng(2000)
    scores = rng.random((2, 2000))
    want = [inv_oracle(row.tolist()) for row in scores]
    assert stats.inversions_batch(scores).tolist() == want
    ranks = stats.ranks_matrix(scores)
    assert stats.inversions_batch(ranks).tolist() == want


def _inv_by_halving(e: np.ndarray) -> int:
    # each half's inversions plus the pairs across, by binary search in the
    # sorted left half; short pieces go to the quadratic oracle
    if len(e) <= 64:
        return inv_oracle(e.tolist())
    h = len(e) // 2
    cross = int(np.sum(h - np.searchsorted(np.sort(e[:h]), e[h:], side="right")))
    return _inv_by_halving(e[:h]) + _inv_by_halving(e[h:]) + cross


def test_inversions_batch_past_2_16_padded_columns():
    # rows of 2^16 keys are the widest whose position sums the merge takes in
    # int32, and the identity reaches the largest sums; wider rows use int64
    n = 1 << 16
    rows = np.array([np.arange(n), np.arange(n)[::-1]])
    assert stats.inversions_batch(rows).tolist() == [0, n * (n - 1) // 2]
    x = np.random.default_rng(7).random((2, 70_000))
    x[1, ::2] = np.floor(x[1, ::2] * 50)
    assert stats.inversions_batch(x).tolist() == [_inv_by_halving(row) for row in x]


@pytest.mark.parametrize("n", [16, 17, stats._PAIRWISE_COLS, stats._PAIRWISE_COLS + 1])
def test_inversions_at_the_route_edges(n):
    # 512 rows and one fewer, on both sides of the width rule:
    # exact ties, -0.0 against +0.0, infinities, int64 past 2^53, uint64
    # past 2^63 and bool rows count as the oracle on the row itself and as
    # their ranks_matrix rows
    for rows, _ in _edge_rows(n, np.random.default_rng(n)):
        want = [inv_oracle(r) for r in rows.tolist()]
        for block, w in ((rows, want), (rows[1:], want[1:])):
            assert stats.inversions_batch(block).tolist() == w, (n, rows.dtype, len(block))
            assert stats.inversions_batch(stats.ranks_matrix(block)).tolist() == w


def _refused_rows(n: int) -> list:
    """Blocks every batch kernel refuses: a NaN first, last, everywhere, as
    -nan, and in one row of 512; object and complex rows."""
    rng = np.random.default_rng(n)
    x = np.log(rng.random((3, n)))
    nans = [x.copy() for _ in range(4)] + [np.log(rng.random((512, n)))]
    nans[0][:, 0] = np.nan
    nans[1][1, -1] = np.nan
    nans[2][:] = np.nan
    nans[3][2, n // 2] = -np.nan
    nans[4][300, n // 3] = np.nan
    return nans + [x.astype(object), x.astype(complex)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 17, 33, 2049])
def test_batch_kernels_refuse_nan_and_non_number_rows(n):
    # one input rule: every public batch kernel, and evaluate_batch for every
    # tag and desc:m on both sides of 2m < n, refuses a block holding a NaN
    # or of a dtype that is not bool, integer or float, in one line
    kernels = [stats.ranks_matrix, stats.inversions_batch, stats.anti_inversions_batch,
               stats.local_maxima_batch, stats.longest_alternating_batch]
    for m in sorted({1, n - 1}):
        kernels += [lambda x, m=m: stats.m_descents_batch(x, m),
                    lambda x, m=m: stats.m_ascents_batch(x, m),
                    lambda x, m=m: stats.rising_sequences_batch(x, m)]
    for sel in ("inv", "ainv", "desc:1", f"desc:{n - 1}", "asc:1", f"asc:{n}", "locmax",
                "las", "rising:2", "incsub:2"):
        kernels.append(lambda x, kind=stats.parse_statistic(sel): stats.evaluate_batch(kind, x))
    for x in _refused_rows(n):
        for kernel in kernels:
            with pytest.raises(ValueError) as err:
                kernel(x)
            assert "\n" not in str(err.value), (n, x.dtype)


def test_pairwise_route_starts_no_pool(monkeypatch):
    # the routes are pinned, on 3 CPUs: rows of at most _PAIRWISE_COLS count
    # pair by pair with no merge chunk and no pool at any row count, past one
    # block of _MERGE_KEYS entries too; longer rows merge
    merged = []
    real = stats._inversions_chunk
    monkeypatch.setattr(stats, "_inversions_chunk", lambda x: merged.append(len(x)) or real(x))
    block = stats._MERGE_KEYS
    cases = (
        (4000, 30, "pairwise"), (1, 17, "pairwise"), (1, 32, "pairwise"),
        (block // 32, 32, "pairwise"), (block // 32 + 1, 32, "pairwise"),
        (3 * block // 16, 16, "pairwise"), (40_000, 30, "pairwise"),
        (1, 33, "merge"), (1500, 100, "merge"), (3, 2000, "merge"),
    )
    for reps, n, route in cases:
        x = np.random.default_rng(reps).random((reps, n))
        merged.clear()
        pools = _pool_spy(monkeypatch, 3)
        got = stats.inversions_batch(x)
        assert sum(merged) == (reps if route == "merge" else 0), (reps, n)
        if route == "pairwise":
            assert pools == [], (reps, n)
        assert np.array_equal(got, stats.inversions_batch(stats.ranks_matrix(x)))


@pytest.mark.parametrize("n", [2, 17, stats._PAIRWISE_COLS, stats._PAIRWISE_COLS + 1])
def test_short_row_descents_count_in_blocks(monkeypatch, n):
    # windows with 2m < n count row by row, with no block count, at any row
    # count and width; wider windows subtract from the inversion count in
    # blocks of three rows; all give the oracle's m-descents, ties as given
    monkeypatch.setattr(stats, "_MERGE_KEYS", 3 * n)
    blocks = []
    real = stats._block_descents
    monkeypatch.setattr(stats, "_block_descents", lambda x, w: blocks.append(w) or real(x, w))
    rng = np.random.default_rng(n)
    x = rng.random((512, n))
    x[:4] = np.floor(x[:4] * 3)
    for m in sorted({1, 3, max(1, (n - 1) // 2)}):
        want = [m_desc_oracle(r, m) for r in x.tolist()]
        for rows in (x, x[1:]):
            blocks.clear()
            assert stats.m_descents_batch(rows, m).tolist() == want[-len(rows):], m
            assert (blocks == []) == (2 * m < n), (m, blocks)


def test_mean_inversions_exact_is_the_rounded_fraction_sum():
    from fractions import Fraction

    from permlab import exact

    total = Fraction(0)
    for n in range(1, 41):
        total += sum(Fraction(i, i + n) for i in range(1, n))
        assert exact.mean_inversions_exact(n) == float(total)
