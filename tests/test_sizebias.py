import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from permlab import exact, models, montecarlo, rng, sizebias
from permlab.models import ModelSpec, sample_score_matrix, sample_scores
from permlab.montecarlo import BudgetExceeded
from permlab.rng import StreamBlock, make_generator
from permlab.stats import inversions_batch

from oracles import inv_oracle


# ---------------------------------------------------------------------------
# index distribution

def _index_weights(n):
    """{s: c_s / s}: the weight i/(i+j) of the pairs i < j <= n with i + j = s."""
    weights = {}
    for j in range(2, n + 1):
        for i in range(1, j):
            weights[i + j] = weights.get(i + j, 0) + Fraction(i, i + j)
    return weights


def _grid_law(n):
    """Exact law of ``draw_pairs`` from a grid of midpoint uniforms.

    u1 runs over m1 cell midpoints and u2 over m2.  m1 is a multiple of the
    denominator of every running weight of s over the total, and m2 of every
    c_s, so the grid meets both inversions' boundaries in exactly the right
    proportion.  Returns {(i, j): P(draw gives (i, j))}.
    """
    weights = _index_weights(n)
    total = sum(weights.values())
    running = itertools.accumulate(weights[s] for s in sorted(weights))
    m1 = math.lcm(*((c / total).denominator for c in running))
    m2 = math.lcm(*(int(c * s) for s, c in weights.items()))
    u = np.stack(np.meshgrid((np.arange(m1) + 0.5) / m1, (np.arange(m2) + 0.5) / m2,
                             indexing="ij"), axis=-1).reshape(-1, 2)
    i, j = sizebias.index_distribution(n).draw_pairs(u)
    pairs, counts = np.unique(np.stack((i, j), axis=1), axis=0, return_counts=True)
    return {(int(a), int(b)): Fraction(int(c), m1 * m2) for (a, b), c in zip(pairs, counts)}


def _pair_law(n):
    law = {(i, j): Fraction(i, i + j) for j in range(2, n + 1) for i in range(1, j)}
    total = sum(law.values())
    return {pair: weight / total for pair, weight in law.items()}


def test_index_distribution_n3():
    # weights i/(i+j): (1,2) -> 1/3, (1,3) -> 1/4, (2,3) -> 2/5; total 59/60
    law = _grid_law(3)
    total = Fraction(1, 3) + Fraction(1, 4) + Fraction(2, 5)
    assert total == Fraction(59, 60)
    assert law == {(1, 2): Fraction(1, 3) / total, (1, 3): Fraction(1, 4) / total,
                   (2, 3): Fraction(2, 5) / total}
    assert sizebias.index_distribution(3).cum[-1] == pytest.approx(59 / 60, rel=1e-15)


def test_index_total_weight_is_mean_inversions():
    # the table's total, sum over s of c_s / s, is E[W]; the sampler's exact
    # law is i/(i+j) normalised by it
    for n in (2, 3, 5, 12, 1000):
        idx = sizebias.index_distribution(n)
        assert idx.cum.shape == (2 * n - 3,)
        assert idx.cum[-1] == pytest.approx(exact.mean_inversions_exact(n), rel=1e-12)
        if n <= 12:
            total = sum(_index_weights(n).values())
            assert float(total) == pytest.approx(exact.mean_inversions_exact(n), rel=1e-12)
        if n <= 5:
            assert _grid_law(n) == _pair_law(n)
    for make in (sizebias.index_distribution, sizebias.IndexDistribution):
        for n in (1, 0):
            with pytest.raises(ValueError, match="^need n >= 2 for at least one pair$"):
                make(n)


def test_index_draw_frequencies():
    # the completion streams of couple_batch draw pairs at rates i/(i+j)
    reps = 120_000
    for n in (2, 3, 4):
        out = sizebias.couple_batch(n, reps, seed=3)
        pairs, counts = np.unique(np.stack((out["i"], out["j"]), axis=1), axis=0,
                                  return_counts=True)
        freq = {(int(a), int(b)): c / reps for (a, b), c in zip(pairs, counts)}
        law = _pair_law(n)
        assert set(freq) == set(law)
        for pair, p in law.items():
            assert freq[pair] == pytest.approx(float(p), abs=0.01)
    # one pair from a generator is the batch's pair for the same 2 uniforms
    idx = sizebias.index_distribution(9)
    u = make_generator(4).random((50, 2))
    i, j = idx.draw_pairs(u)
    rng = make_generator(4)
    assert [idx.draw_pair1(rng) for _ in range(50)] == list(zip(i.tolist(), j.tolist()))


def test_index_draw_edges():
    # u = 0 gives the first pair (1, 2); u just below 1 gives the last, (n-1, n)
    for n in (2, 3, 50, 10_000):
        idx = sizebias.index_distribution(n)
        i, j = idx.draw_pairs(np.array([[0.0, 0.0], [1 - 2 ** -53, 1 - 2 ** -53]]))
        assert i.tolist() == [1, n - 1] and j.tolist() == [2, n]


# ---------------------------------------------------------------------------
# conditional resampling

def test_resample_conditional_pair_orders():
    rng = make_generator(4)
    for _ in range(500):
        si, sj = sizebias.resample_conditional_pair(2, 5, rng)
        assert sj < si < 0.0
    with pytest.raises(ValueError):
        sizebias.resample_conditional_pair(2, 2, rng)


class _StubUniforms:
    def __init__(self, u):
        self.u = u

    def random(self, k):
        assert k == len(self.u)
        return np.array(self.u)


def test_resample_conditional_pair_strict_after_rounding():
    # ln(1 - 2^-53)/10 is below half an ulp of S_i = ln(0.01)/11, so the sum
    # rounds back to S_i; the pair must still come out strictly inverted
    u = [0.01, 1.0 - 2.0 ** -53]
    s_i = np.log(0.01) / 11
    assert s_i + np.log(u[1]) / 10 == s_i
    si, sj = sizebias.resample_conditional_pair(1, 10, _StubUniforms(u))
    assert si == s_i
    assert sj < si
    assert sj == np.nextafter(si, -np.inf)


def test_resample_conditional_marginal():
    # P(S_i > S_j) = i/(i+j); conditioning must reproduce the joint law
    # restricted to that event: check E[exp(S_i) | S_i > S_j] by numeric
    # integral
    i, j = 2, 3
    rng = make_generator(5)
    si_vals = [sizebias.resample_conditional_pair(i, j, rng)[0] for _ in range(40_000)]
    # density of (Z, Z') = (exp S_i, exp S_j): i x^(i-1) j y^(j-1); restricted
    # mean of Z: int_0^1 i x^(i-1) x^j x dx / (i/(i+j)) with inner
    # P(Z' < x) = x^j, which is 5/6 here
    num = i / (i + j + 1)
    den = i / (i + j)
    assert num / den == pytest.approx(5 / 6)
    assert np.mean(np.exp(si_vals)) == pytest.approx(num / den, abs=0.005)


# ---------------------------------------------------------------------------
# coupling invariants

def test_couple_records_are_consistent():
    for seed in range(30):
        d = sizebias.couple(8, make_generator(seed))
        assert d.w == inv_oracle(_ranks(d.scores.values))
        assert d.w_s == inv_oracle(_ranks(d.scores_s.values))
        a, b = d.i - 1, d.j - 1
        # post-coupling pair is always inverted (score_i > score_j, i < j)
        assert d.scores_s.values[a] > d.scores_s.values[b]
        if not d.resampled:
            assert d.w_s == d.w
            assert d.scores_s is d.scores
        else:
            # only positions i and j may change
            keep = np.ones(8, dtype=bool)
            keep[[a, b]] = False
            assert np.array_equal(
                d.scores.values[keep], d.scores_s.values[keep]
            )
            assert d.w_s >= 1


def _ranks(v):
    order = np.argsort(np.argsort(v, kind="stable"), kind="stable")
    return order + 1


def _completed_rows(z, i, j, pair_s):
    z_s = z.copy()
    rows = np.arange(len(z))
    z_s[rows, i - 1] = pair_s[:, 0]
    z_s[rows, j - 1] = pair_s[:, 1]
    return z_s


def test_couple_full_vs_incremental():
    # _complete recounts only the resampled rows and carries w over for the
    # rest; a full recount of every completed row must agree
    for seed in range(60):
        d = sizebias.couple(10, make_generator(seed))
        assert d.w_s == inv_oracle(_ranks(d.scores_s.values))
    n, reps = 10, 300
    z = sample_score_matrix(ModelSpec.inverse_unfair(), n, reps, 4)
    w = inversions_batch(z)
    u = sizebias._completion_uniforms(4, reps, 0)
    i, j, w_s, resampled, pair_s = sizebias._complete(z, w, sizebias.index_distribution(n), u)
    assert 0 < resampled.sum() < reps
    z_s = _completed_rows(z, i, j, pair_s)
    assert w_s.tolist() == [inv_oracle(_ranks(row)) for row in z_s]
    assert np.array_equal(w_s[~resampled], w[~resampled])
    assert np.array_equal(pair_s[~resampled, 0], z[~resampled, i[~resampled] - 1])


@pytest.mark.parametrize("n", [2, 10, 1000])
def test_recount_matches_full_count(n, monkeypatch):
    # the O(n) recount equals a full count of every completed row, also with
    # tied scores (rounded rows), -inf entries and recount passes of 7 rows
    reps = 400 if n == 1000 else 3000
    z = sample_score_matrix(ModelSpec.inverse_unfair(), n, reps, 31)
    z[::3] = np.round(z[::3], 1)
    z[::5, : max(1, n // 4)] = -np.inf
    z[1::5, -1] = -np.inf
    w = inversions_batch(z)
    u = sizebias._completion_uniforms(31, reps, 2)
    u[::11, 2] = 0.0  # S_i = -inf: the resampled pair stays tied
    monkeypatch.setattr(models, "_BLOCK_VALUES", 7 * n)
    i, j, w_s, resampled, pair_s = sizebias._complete(z, w, sizebias.index_distribution(n), u)
    assert resampled.any()
    assert np.array_equal(w_s, inversions_batch(_completed_rows(z, i, j, pair_s)))


def test_recount_counts_ties_with_the_pair_values():
    # every row holds copies of the pair's old and new scores before a,
    # between a and b and after b, so each entry of the pair ties with
    # entries on both sides of it; -inf is an old score in some rows and a
    # new one in others
    g = np.random.default_rng(41)
    n, reps = 14, 2000
    rows = np.arange(reps)
    z = sample_score_matrix(ModelSpec.inverse_unfair(), n, reps, 41)
    a = g.integers(1, n - 4, reps)
    b = g.integers(a + 2, n - 1)
    new = -g.exponential(size=(reps, 2))
    z[rows[0::4], a[0::4]] = -np.inf
    new[1::4, 0] = -np.inf
    z[rows[2::4], b[2::4]] = -np.inf
    new[3::4, 1] = -np.inf
    old = np.stack((z[rows, a], z[rows, b]), axis=1)
    for value in (old[:, 0], old[:, 1], new[:, 0], new[:, 1]):
        for lo, hi in ((0, a), (a + 1, b), (b + 1, n)):
            z[rows, g.integers(lo, hi)] = value
    assert np.array_equal(np.stack((z[rows, a], z[rows, b]), axis=1), old)
    change = sizebias._pair_change(z, a, b, old, new)
    z_s = z.copy()
    z_s[rows, a], z_s[rows, b] = new[:, 0], new[:, 1]
    assert np.array_equal(change, inversions_batch(z_s) - inversions_batch(z))


def test_completion_streams_cross_blocks():
    # a 4097-row completion spans two stream blocks; row r holds the bits of
    # the generator (seed, r, substream 1 + c)
    reps, seed, c = models._BLOCK_ROWS + 1, 42, 1
    u = sizebias._completion_uniforms(seed, reps, c)
    want = np.stack([make_generator(seed, r, substream=1 + c).random(4) for r in range(reps)])
    assert np.array_equal(u, want)
    out = sizebias.couple_batch(6, reps, seed)
    i, j = sizebias.index_distribution(6).draw_pairs(
        np.stack([make_generator(seed, r, substream=1).random(4) for r in range(reps)]))
    assert np.array_equal(out["i"], i) and np.array_equal(out["j"], j)


def test_completion_uniforms_on_native_rows(monkeypatch):
    # 20 rows of 4 draws are drawn natively (two-word spawn keys and streams
    # up to 2^64 - 1 are checked in test_rng)
    native = []
    real = StreamBlock.random_rows
    monkeypatch.setattr(StreamBlock, "random_rows", lambda *a, **kw: native.append(a) or real(*a, **kw))
    for c in (0, 2):
        u = sizebias._completion_uniforms(7, 20, c)
        want = np.stack([make_generator(7, r, substream=1 + c).random(4) for r in range(20)])
        assert np.array_equal(u, want)
    assert len(native) == 2


def test_coupling_equal_on_the_dict_route(monkeypatch):
    # couple_batch and stein_bound keep their bits when row draws set the
    # stream states through the PCG64.state dict instead of the state view:
    # outer rows drawn row by row (n = 40, 100) and stepped (n = 6), with
    # completions stepped (streams up to 2^64 - 1 take the dict route in
    # test_models and test_rng)
    calls = (
        lambda: sizebias.couple_batch(40, 300, 11),
        lambda: sizebias.couple_batch(6, 200, 11),
        lambda: sizebias.stein_bound(100, 1500, 2, 12),
    )
    viewed = [call() for call in calls]
    monkeypatch.setattr(rng, "_state_words_agree", lambda: False)
    for call, want in zip(calls, viewed):
        got = call()
        if isinstance(want, dict):
            assert want.keys() == got.keys()
            assert all(np.array_equal(want[k], got[k]) for k in want)
        else:
            assert got == want


def test_couple_draw_order():
    # n score uniforms, then 4: u1, u2 for the pair, u3, u4 for its scores
    n = 9
    for seed in range(14, 40):
        d = sizebias.couple(n, make_generator(seed))
        u = make_generator(seed).random(n + 4)[n:]
        i, j = sizebias.index_distribution(n).draw_pairs(u)
        assert (d.i, d.j) == (int(i), int(j))
        if d.resampled:
            want = sizebias._inverted_pair(u[2:].copy(), d.i, d.j)
            assert d.scores_s.values[[d.i - 1, d.j - 1]].tolist() == want.tolist()


def test_couple_bounded_change():
    for seed in range(40):
        n = 12
        d = sizebias.couple(n, make_generator(seed))
        assert abs(d.w_s - d.w) <= 2 * n


def test_couple_n2_degenerate():
    # W^s = 1 always at n = 2: the only pair is forced inverted
    for seed in range(20):
        d = sizebias.couple(2, make_generator(seed))
        assert d.w_s == 1
        assert d.w in (0, 1)


def test_couple_batch_matches_scalar_draw_law():
    out = sizebias.couple_batch(6, 200, seed=7)
    assert set(out) == {"w", "w_s", "i", "j", "resampled"}
    assert out["w"].shape == (200,)
    # resampled iff the chosen pair was originally in order
    z = sample_score_matrix(ModelSpec.inverse_unfair(), 6, 200, 7, first_stream=0)
    for r in range(200):
        a, b = out["i"][r] - 1, out["j"][r] - 1
        assert out["resampled"][r] == (z[r, a] <= z[r, b])
        if not out["resampled"][r]:
            assert out["w_s"][r] == out["w"][r]
    assert np.array_equal(out["w"], inversions_batch(z))


def test_outer_scores_are_models_rows(monkeypatch):
    # outer score row r is row r of the inverse-unfair score matrix, bit for
    # bit, on the stepped (n = 7) and the per-row (n = 650) model paths
    spec = ModelSpec.inverse_unfair()
    seen = []

    def spy(x):
        seen.append(np.array(x))
        return inversions_batch(x)

    monkeypatch.setattr(sizebias, "inversions_batch", spy)
    for n in (7, 650):
        seen.clear()
        sizebias.couple_batch(n, 40, seed=5)
        assert np.array_equal(seen[0], sample_score_matrix(spec, n, 40, 5))
    seen.clear()
    sizebias.stein_bound(9, 50, 2, seed=6)
    assert np.array_equal(seen[0], sample_score_matrix(spec, 9, 50, 6))
    seen.clear()
    sizebias.verify_size_bias_identity(9, "identity", 60, seed=8)
    assert np.array_equal(seen[0], sample_score_matrix(spec, 9, 60, 8))
    assert np.array_equal(seen[-1], sample_score_matrix(spec, 9, 60, 8, first_stream=60))
    d = sizebias.couple(9, make_generator(11))
    assert np.array_equal(d.scores.values, sample_scores(spec, 9, make_generator(11)).values)


def test_couple_batch_deterministic():
    a = sizebias.couple_batch(7, 100, seed=9)
    b = sizebias.couple_batch(7, 100, seed=9)
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_size_bias_mean_shift():
    # E[W^s] - E[W] = Var(W)/E[W] for any size-biased pair; check by MC
    n = 8
    out = sizebias.couple_batch(n, 60_000, seed=13)
    w = out["w"].astype(float)
    ws = out["w_s"].astype(float)
    lhs = ws.mean() - w.mean()
    rhs = w.var(ddof=1) / w.mean()
    assert lhs == pytest.approx(rhs, abs=0.05)


# ---------------------------------------------------------------------------
# identity checks

def test_parse_f():
    f = sizebias._parse_f("identity")
    assert f(np.array([2.0]))[0] == 2.0
    f = sizebias._parse_f("square")
    assert f(np.array([3.0]))[0] == 9.0
    f = sizebias._parse_f("indicator:2.5")
    assert f(np.array([2.0, 3.0])).tolist() == [0.0, 1.0]
    with pytest.raises(ValueError):
        sizebias._parse_f("cube")


def test_verify_identity_within_se():
    for f in ("identity", "square"):
        rep = sizebias.verify_size_bias_identity(12, f, 20_000, seed=15)
        assert rep.gap_in_se < 4.0, (f, rep)
    with pytest.raises(sizebias.InsufficientReplicas):
        sizebias.verify_size_bias_identity(5, "identity", 1, seed=1)


def test_verify_identity_n2_exact():
    # at n = 2: W ~ Bernoulli(1/3), W^s = 1, so both sides equal 1/3
    rep = sizebias.verify_size_bias_identity(2, "identity", 30_000, seed=17)
    assert rep.lhs == pytest.approx(1 / 3, abs=0.01)
    assert rep.rhs == pytest.approx(1 / 3, abs=0.01)


def test_verify_identity_indicator():
    rep = sizebias.verify_size_bias_identity(10, "indicator:10", 20_000, seed=19)
    assert rep.gap_in_se < 4.0


# ---------------------------------------------------------------------------
# conditional variance and the bound

def test_estimate_var_conditional_guards():
    with pytest.raises(sizebias.InsufficientReplicas):
        sizebias.estimate_var_conditional(5, 1, 2, seed=1)
    with pytest.raises(sizebias.InsufficientReplicas):
        sizebias.estimate_var_conditional(5, 100, 1, seed=1)


def test_estimate_var_conditional_n2():
    # E[W^s - W | Z] = P(pair in order | Z) = 1 - W, so the conditional
    # variance equals Var(W) = 2/9
    est = sizebias.estimate_var_conditional(2, 4000, 2, seed=21)
    assert est == pytest.approx(2 / 9, abs=0.03)


def test_estimate_var_conditional_nonnegative():
    est = sizebias.estimate_var_conditional(10, 800, 2, seed=23)
    assert est >= 0.0


def test_var_cond_reports_negative_estimate(monkeypatch):
    # the paired products are 0 and the grand mean is 1: the raw estimate is -1
    assert sizebias._var_cond(np.array([[0.0, 2.0], [2.0, 0.0]])) == -1.0
    # stein_bound alone clamps it, with a warning
    monkeypatch.setattr(sizebias, "_var_cond", lambda d: -1.0)
    with pytest.warns(UserWarning, match="^conditional-variance estimate -1 < 0 at n=5; clamping"):
        rep = sizebias.stein_bound(5, 100, 2, seed=1)
    assert (rep.var_cond_raw, rep.var_cond, rep.clamped) == (-1.0, 0.0, True)
    assert sizebias.estimate_var_conditional(5, 100, 2, seed=1) == -1.0


@pytest.mark.parametrize("run, rows", [
    (lambda: sizebias.stein_bound(10, 60, 2, seed=1), 180),
    (lambda: sizebias.estimate_var_conditional(10, 60, 2, seed=1), 180),
    (lambda: sizebias.verify_size_bias_identity(10, "square", 60, seed=1), 120),
], ids=["stein_bound", "estimate_var_conditional", "verify_size_bias_identity"])
def test_runs_refuse_draws_past_the_budget(monkeypatch, run, rows):
    # each run counts every row it draws (outer rows and their completions,
    # or coupled and independent rows) and refuses before drawing any
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled past the budget check")

    monkeypatch.setattr(sizebias, "sample_score_matrix", no_sampling)
    monkeypatch.setattr(montecarlo, "DEFAULT_MAX_BUDGET", 10 * rows - 1)
    with pytest.raises(BudgetExceeded) as refused:
        run()
    assert str(refused.value) == (f"{rows} rows of n = 10: {10 * rows} entries exceed "
                                  f"budget {10 * rows - 1}")


def test_stein_bound_report():
    rep = sizebias.stein_bound(30, 1500, 2, seed=25)
    assert rep.var_cond == max(rep.var_cond_raw, 0.0)
    assert rep.clamped == (rep.var_cond_raw < 0.0)
    assert rep.mu == pytest.approx(exact.mean_inversions_exact(30), rel=0.05)
    assert rep.sigma2 > 0
    assert rep.second_moment > 0.5  # resampling moves W often and visibly
    assert rep.bound > 0
    with pytest.raises(sizebias.InsufficientReplicas):
        sizebias.stein_bound(30, 1, 2, seed=25)


def test_stein_bound_decays_with_n():
    b_small = sizebias.stein_bound(20, 1200, 2, seed=27).bound
    b_large = sizebias.stein_bound(160, 1200, 2, seed=27).bound
    # the bound scales like n^(-1/2): expect a clear drop
    assert b_large < 0.6 * b_small
