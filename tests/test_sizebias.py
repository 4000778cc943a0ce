import math
from fractions import Fraction

import numpy as np
import pytest

from permlab import exact, sizebias
from permlab.models import ModelSpec, sample_score_matrix, sample_scores
from permlab.rng import make_generator
from permlab.stats import inversions_batch

from oracles import inv_oracle


# ---------------------------------------------------------------------------
# index distribution

class _Rejected(Exception):
    pass


class _OneTry:
    """A stand-in generator that serves one try of ``draw_pair1``."""

    def __init__(self, u):
        self.u = u
        self.used = False

    def random(self, size):
        if self.used:
            raise _Rejected
        self.used = True
        return np.array(self.u)


def _one_try_law(n, m):
    """Exact law of one ``draw_pair1`` try, from a grid of uniforms.

    u1 and u2 run over the n cell midpoints, u3 over m midpoints; with m a
    multiple of every i + j the grid hits the acceptance bound u3 < 2i/(i+j)
    in exactly the right proportion.  Returns {(i, j): P(try yields (i, j))}.
    """
    law = {}
    for a in range(n):
        for b in range(n):
            for k in range(m):
                rng = _OneTry(((a + 0.5) / n, (b + 0.5) / n, (k + 0.5) / m))
                try:
                    pair = sizebias.index_distribution(n).draw_pair1(rng)
                except _Rejected:
                    continue
                law[pair] = law.get(pair, 0) + Fraction(1, n * n * m)
    return law


def test_index_distribution_n3():
    # weights i/(i+j): (1,2) -> 1/3, (1,3) -> 1/4, (2,3) -> 2/5; total 59/60
    law = _one_try_law(3, 60)
    assert sorted(law) == [(1, 2), (1, 3), (2, 3)]
    accept = sum(law.values())
    total = Fraction(1, 3) + Fraction(1, 4) + Fraction(2, 5)
    assert total == Fraction(59, 60)
    assert law[(1, 2)] / accept == Fraction(1, 3) / total
    assert law[(1, 3)] / accept == Fraction(1, 4) / total
    assert law[(2, 3)] / accept == Fraction(2, 5) / total


def test_index_total_weight_is_mean_inversions():
    # the law's normaliser sum i/(i+j) is E[W], and one try of the sampler
    # succeeds with probability 4 E[W] / n^2
    for n in (2, 3, 5, 12):
        total = sum(Fraction(i, i + j) for j in range(2, n + 1) for i in range(1, j))
        assert float(total) == pytest.approx(exact.mean_inversions_exact(n), rel=1e-12)
        if n <= 5:
            m = math.lcm(*range(3, 2 * n))
            assert sum(_one_try_law(n, m).values()) == 4 * total / (n * n)
    with pytest.raises(ValueError):
        sizebias.index_distribution(1)


def test_index_draw_frequencies():
    reps = 120_000
    for n in (2, 3, 4):
        idx = sizebias.index_distribution(n)
        rng = make_generator(3)
        counts = {}
        for _ in range(reps):
            pair = idx.draw_pair1(rng)
            counts[pair] = counts.get(pair, 0) + 1
        # law i/(i+j) normalised over all pairs i < j
        law = {(i, j): Fraction(i, i + j) for i in range(1, n) for j in range(i + 1, n + 1)}
        total = sum(law.values())
        assert set(counts) == set(law)
        for pair, weight in law.items():
            assert counts[pair] / reps == pytest.approx(float(weight / total), abs=0.01)
    with pytest.raises(ValueError):
        sizebias.index_distribution(1)


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


def test_couple_full_vs_incremental():
    # _complete recounts only the resampled rows and carries w over for the
    # rest; a full recount of every completed row must agree
    for seed in range(60):
        d = sizebias.couple(10, make_generator(seed))
        assert d.w_s == inv_oracle(_ranks(d.scores_s.values))
    n, reps = 10, 300
    z = sample_score_matrix(ModelSpec.inverse_unfair(), n, reps, 4)
    w = inversions_batch(z)
    gens = [make_generator(4, r, substream=1) for r in range(reps)]
    _, _, w_s, resampled, z_s = sizebias._complete(z, w, sizebias.index_distribution(n), gens)
    assert 0 < resampled.sum() < reps
    assert w_s.tolist() == [inv_oracle(_ranks(row)) for row in z_s]
    assert np.array_equal(w_s[~resampled], w[~resampled])


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
        sizebias.couple_batch(n, 40, seed=5, first_stream=3)
        assert np.array_equal(seen[0], sample_score_matrix(spec, n, 40, 5, 3))
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
    f, name = sizebias._parse_f("identity")
    assert name == "identity" and f(np.array([2.0]))[0] == 2.0
    f, name = sizebias._parse_f("square")
    assert f(np.array([3.0]))[0] == 9.0
    f, name = sizebias._parse_f("indicator:2.5")
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


def test_var_cond_reports_negative_estimate():
    # the paired products are 0 and the grand mean is 1: the raw estimate is -1
    with pytest.warns(UserWarning, match="clamping"):
        raw, clamped = sizebias._var_cond(np.array([[0.0, 2.0], [2.0, 0.0]]), n=2)
    assert (raw, clamped) == (-1.0, 0.0)


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
