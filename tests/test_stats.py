import numpy as np
import pytest

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


# ---------------------------------------------------------------------------
# single-permutation kernels vs brute force

def test_kernels_match_oracles_exhaustive_s5():
    for n in range(1, 6):
        for t in all_permutations(n):
            assert stats.inversions(t) == inv_oracle(t)
            assert stats.anti_inversions(t) == ainv_oracle(t)
            assert stats.local_maxima(t) == locmax_oracle(t)
            assert stats.longest_alternating(t) == las_oracle(t)
            assert stats.longest_alternating(t, ascent_first=True) == las_oracle(
                t, ascent_first=True
            )
            for m in range(1, n + 1):
                assert stats.m_descents(t, m) == m_desc_oracle(t, m)
                assert stats.m_ascents(t, m) == m_asc_oracle(t, m)
                assert stats.rising_sequences(t, m) == rising_oracle(t, m)
                assert stats.increasing_subsequences(t, m) == incsub_oracle(t, m)


def test_kernels_match_oracles_random():
    rng = np.random.default_rng(2024)
    for t in _random_perms(rng, 300, 40):
        n = len(t)
        assert stats.inversions(t) == inv_oracle(t)
        m = int(rng.integers(1, n + 1))
        assert stats.m_descents(t, m) == m_desc_oracle(t, m)
        assert stats.m_ascents(t, m) == m_asc_oracle(t, m)
        assert stats.local_maxima(t) == locmax_oracle(t)
        assert stats.rising_sequences(t, m) == rising_oracle(t, m)
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
    assert stats.longest_alternating((1, 2, 3, 4)) == 1
    assert stats.longest_alternating((1, 2, 3, 4), ascent_first=True) == 2
    assert stats.longest_alternating((4, 3, 2, 1)) == 2
    assert stats.longest_alternating((1,)) == 1
    assert stats.longest_alternating((2, 1)) == 2
    assert stats.longest_alternating((1, 2)) == 1
    # 4 > 1 < 5 > 2 < 6 > 3 alternates fully
    assert stats.longest_alternating((4, 1, 5, 2, 6, 3)) == 6


def test_las_mean_formula_small_n():
    # exhaustive mean over S_n is (4n + 1)/6 for n >= 2 (uniform average)
    for n in (2, 3, 4, 5, 6):
        vals = [stats.longest_alternating(t) for t in all_permutations(n)]
        mean = sum(vals) / len(vals)
        assert mean == pytest.approx((4 * n + 1) / 6, abs=1e-12)


def test_m_descents_equals_inversions_for_wide_window():
    for t in all_permutations(5):
        assert stats.m_descents(t, 4) == stats.inversions(t)
        assert stats.m_descents(t, 9) == stats.inversions(t)


def test_desc_asc_pair_identity():
    # windows partition ordered pairs: desc + asc = total near pairs
    for t in all_permutations(5):
        for m in range(1, 5):
            pairs = sum(min(m, 5 - i) for i in range(1, 5))
            assert stats.m_descents(t, m) + stats.m_ascents(t, m) == pairs


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
        stats.rising_sequences((2, 1, 3), 4)
    with pytest.raises(ValueError):
        stats.rising_sequences((2, 1, 3), 0)
    with pytest.raises(ValueError):
        stats.increasing_subsequences((2, 1, 3), 0)
    with pytest.raises(ValueError):
        stats.m_descents((2, 1, 3), 0)


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
# batch kernels vs single kernels

def _stack_perms(perms):
    return np.asarray([list(t) for t in perms], dtype=np.int64)


def test_batch_matches_single_exhaustive():
    perms = list(all_permutations(5))
    x = _stack_perms(perms)
    assert np.array_equal(
        stats.inversions_batch(x, assume_ranks=True),
        [stats.inversions(t) for t in perms],
    )
    assert np.array_equal(
        stats.anti_inversions_batch(x, assume_ranks=True),
        [stats.anti_inversions(t) for t in perms],
    )
    for m in (1, 2, 3, 4):
        assert np.array_equal(
            stats.m_descents_batch(x, m, assume_ranks=True),
            [stats.m_descents(t, m) for t in perms],
        )
        assert np.array_equal(
            stats.m_ascents_batch(x, m), [stats.m_ascents(t, m) for t in perms]
        )
        assert np.array_equal(
            stats.rising_sequences_batch(x, m),
            [stats.rising_sequences(t, m) for t in perms],
        )
    assert np.array_equal(
        stats.local_maxima_batch(x), [stats.local_maxima(t) for t in perms]
    )
    assert np.array_equal(
        stats.longest_alternating_batch(x),
        [stats.longest_alternating(t) for t in perms],
    )
    assert np.array_equal(
        stats.longest_alternating_batch(x, ascent_first=True),
        [stats.longest_alternating(t, ascent_first=True) for t in perms],
    )


def test_batch_on_scores_equals_batch_on_ranks():
    rng = np.random.default_rng(11)
    scores = rng.random((50, 23))
    r = stats.ranks_matrix(scores)
    for sel in ("inv", "desc:2", "asc:1", "locmax", "las", "rising:3", "incsub:3"):
        kind = stats.parse_statistic(sel)
        got = stats.evaluate_batch(kind, scores)
        want = stats.evaluate_batch(kind, r, assume_ranks=True)
        assert np.array_equal(got, want), sel


def test_ranks_matrix_values_and_ties():
    r = stats.ranks_matrix(np.array([[0.3, 0.1, 0.9, 0.5]]))
    assert r.tolist() == [[2, 1, 4, 3]]
    # exact ties break by column index (stable sort)
    r = stats.ranks_matrix(np.array([[0.5, 0.5, 0.1]]))
    assert r.tolist() == [[2, 3, 1]]


def test_inversions_batch_chunking(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.random((64, 37))
    full = stats.inversions_batch(x)
    monkeypatch.setattr(stats, "_CHUNK_ELEMENTS", 37 * 7)
    chunked = stats.inversions_batch(x)
    assert np.array_equal(full, chunked)


def test_batch_single_row_and_single_column():
    assert stats.inversions_batch(np.array([[1]]), assume_ranks=True).tolist() == [0]
    assert stats.local_maxima_batch(np.array([[1, 2]])).tolist() == [0]
    assert stats.longest_alternating_batch(np.array([[1]])).tolist() == [1]


def test_evaluate_batch_incsub_matches_loop():
    rng = np.random.default_rng(5)
    x = rng.random((20, 12))
    kind = stats.parse_statistic("incsub:4")
    got = stats.evaluate_batch(kind, x)
    r = stats.ranks_matrix(x)
    want = [stats.increasing_subsequences(tuple(int(v) for v in row), 4) for row in r]
    assert got.tolist() == want


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
    assert stats.inversions_batch(ranks, assume_ranks=True).tolist() == want
    assert stats.inversions_batch(ties).tolist() == [inv_oracle(row) for row in ties]


def test_inversions_batch_matches_oracle_at_n_2000():
    rng = np.random.default_rng(2000)
    scores = rng.random((2, 2000))
    want = [inv_oracle(row.tolist()) for row in scores]
    assert stats.inversions_batch(scores).tolist() == want
    ranks = stats.ranks_matrix(scores)
    assert stats.inversions_batch(ranks, assume_ranks=True).tolist() == want


def test_mean_inversions_exact_is_the_rounded_fraction_sum():
    from fractions import Fraction

    from permlab import exact

    total = Fraction(0)
    for n in range(1, 41):
        total += sum(Fraction(i, i + n) for i in range(1, n))
        assert exact.mean_inversions_exact(n) == float(total)
