import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from permlab import exact, montecarlo, stats
from permlab.models import ModelSpec, sample_permutation_matrix, sample_score_matrix
from permlab.stats import evaluate_batch, parse_statistic


def test_estimate_matches_exact_mean():
    kind = parse_statistic("desc:1")
    rep = montecarlo.estimate(kind, ModelSpec.inverse_unfair(), 100, 4000, seed=1)
    want = exact.mean_m_descents(100, 1)
    assert abs(rep.mean - want) < 4 * rep.se_mean
    assert rep.variance == pytest.approx(exact.var_descents(100), rel=0.2)


def test_estimate_uniform_descents():
    kind = parse_statistic("desc:1")
    rep = montecarlo.estimate(kind, ModelSpec.uniform(), 50, 4000, seed=2)
    # uniform mean is (n-1)/2, variance (n+1)/12
    assert abs(rep.mean - 24.5) < 4 * rep.se_mean
    assert rep.variance == pytest.approx(51 / 12, rel=0.2)


def test_estimate_is_deterministic():
    kind = parse_statistic("inv")
    a = montecarlo.estimate(kind, ModelSpec.inverse_unfair(), 30, 500, seed=3)
    b = montecarlo.estimate(kind, ModelSpec.inverse_unfair(), 30, 500, seed=3)
    assert a == b
    c = montecarlo.estimate(
        kind, ModelSpec.inverse_unfair(), 30, 500, seed=3, workers=4
    )
    assert a == c


def test_unfair_statistics_use_finishing_order():
    # descents of the finishing order differ from descents of the rank
    # sequence; the unfair model must deliver the former
    kind = parse_statistic("locmax")
    rep_f = montecarlo.estimate(kind, ModelSpec.unfair(), 25, 3000, seed=11)
    rep_r = montecarlo.estimate(kind, ModelSpec.inverse_unfair(), 25, 3000, seed=11)
    law_f = exact.statistic_law(5, "unfair", kind)  # small-n sanity of the route
    assert law_f.total() == pytest.approx(1.0)
    # inversions agree between the two (pathwise equal), local maxima do not
    assert rep_f.mean != rep_r.mean


def test_inv_pathwise_equal_between_models():
    kind = parse_statistic("inv")
    a = montecarlo.estimate(kind, ModelSpec.unfair(), 40, 800, seed=5)
    b = montecarlo.estimate(kind, ModelSpec.inverse_unfair(), 40, 800, seed=5)
    assert a.mean == b.mean  # same streams, inversion-invariant statistic
    assert a.variance == b.variance


@pytest.mark.parametrize("stat", ["inv", "ainv", "desc:32", "desc:40"])
def test_unfair_inversions_read_score_rows(monkeypatch, stat):
    # Inv(g) = Inv(g^-1): the score rows give the unfair rows' counts, bit
    # for bit, without sampling the rows; desc:m with m >= n - 1 counts them too
    kind, spec = parse_statistic(stat), ModelSpec.unfair()
    n, reps, seed = 33, 300, 8
    perms = sample_permutation_matrix(spec, n, reps, seed)
    want = evaluate_batch(kind, perms).astype(float)
    monkeypatch.setattr(montecarlo, "sample_permutation_matrix", None)
    assert np.array_equal(montecarlo._values(kind, spec, n, reps, seed, 0, 1), want)


def test_one_replica_has_no_sample_variance(monkeypatch):
    # NaN, not 0: one value has no sample variance; the ratio, whose
    # standard error needs one, is refused before anything is drawn
    kind, spec = parse_statistic("inv"), ModelSpec.inverse_unfair()
    rep = montecarlo.estimate(kind, spec, 20, 1, seed=1)
    assert math.isfinite(rep.mean) and math.isnan(rep.variance) and math.isnan(rep.se_mean)
    s = montecarlo.standardized_sample(kind, spec, 20, 1, seed=1)
    assert math.isnan(s.sample_variance) and math.isnan(s.raw_variance())
    monkeypatch.setattr(montecarlo, "_values", None)
    with pytest.raises(ValueError, match="reps >= 2"):
        montecarlo.moment_ratio_mc(parse_statistic("locmax"), 20, 1, seed=1)


def test_budget_guard(monkeypatch):
    kind = parse_statistic("inv")
    with pytest.raises(montecarlo.BudgetExceeded):
        montecarlo.estimate(
            kind, ModelSpec.inverse_unfair(), 10 ** 6, 10 ** 6, seed=1
        )
    with pytest.raises(ValueError):
        montecarlo.estimate(kind, ModelSpec.inverse_unfair(), 0, 10, seed=1)
    monkeypatch.setattr(montecarlo, "DEFAULT_MAX_BUDGET", 50)
    with pytest.raises(montecarlo.BudgetExceeded):
        montecarlo.standardized_sample(kind, ModelSpec.inverse_unfair(), 100, 100, seed=1)
    monkeypatch.setattr(montecarlo, "DEFAULT_MAX_BUDGET", 150)
    with pytest.raises(montecarlo.BudgetExceeded):
        montecarlo.moment_ratio_mc(kind, 100, 100, seed=1)


def test_centering_modes():
    kind = parse_statistic("inv")
    n = 50
    exact_c, scale = montecarlo._center_and_scale(kind, n, montecarlo.Centering.EXACT_MEAN)
    assert exact_c == pytest.approx(exact.mean_inversions_exact(n))
    table = exact.closed_form_moments(kind, n)
    assert scale == pytest.approx(math.sqrt(table["var_coeff"] * n ** 3))
    asym_c, scale2 = montecarlo._center_and_scale(kind, n, montecarlo.Centering.ASYMPTOTIC)
    assert asym_c == pytest.approx(table["mean_coeff"] * n ** 2)
    assert scale2 == scale
    kd = parse_statistic("desc:1")
    c1, s1 = montecarlo._center_and_scale(kd, n, montecarlo.Centering.EXACT_MEAN)
    assert c1 == pytest.approx(exact.mean_m_descents(n, 1))
    assert s1 == pytest.approx(math.sqrt(exact.var_descents(n)))
    c2, _ = montecarlo._center_and_scale(kd, n, montecarlo.Centering.ASYMPTOTIC)
    assert c2 == pytest.approx(n / 2 - math.log(n) / 4)
    k3 = parse_statistic("desc:3")
    _, s3 = montecarlo._center_and_scale(k3, n, montecarlo.Centering.EXACT_MEAN)
    assert s3 == pytest.approx(math.sqrt((6 * n * 3 + 4 * 3 ** 3 + 3 * 3 ** 2 - 3) / 72))
    with pytest.raises(montecarlo.UnknownClosedForm):
        montecarlo._center_and_scale(k3, n, montecarlo.Centering.ASYMPTOTIC)
    with pytest.raises(montecarlo.UnknownClosedForm):
        montecarlo._center_and_scale(parse_statistic("las"), n, montecarlo.Centering.EXACT_MEAN)


def test_standardized_sample_basic():
    kind = parse_statistic("inv")
    s = montecarlo.standardized_sample(
        kind, ModelSpec.inverse_unfair(), 150, 3000, seed=17, workers=2
    )
    assert s.values.shape == (3000,)
    assert not s.values.flags.writeable
    assert abs(s.sample_mean) < 0.1
    assert s.sample_variance == pytest.approx(1.0, abs=0.15)
    assert s.raw_mean() == pytest.approx(
        exact.mean_inversions_exact(150), rel=0.01
    )
    # string centering spelling accepted
    s2 = montecarlo.standardized_sample(
        kind, ModelSpec.inverse_unfair(), 150, 3000, seed=17, centering="exact"
    )
    assert np.array_equal(s.values, s2.values)


def test_standardized_sample_desc():
    kind = parse_statistic("desc:1")
    s = montecarlo.standardized_sample(
        kind, ModelSpec.inverse_unfair(), 400, 3000, seed=19
    )
    assert abs(s.sample_mean) < 0.1
    assert s.sample_variance == pytest.approx(1.0, abs=0.15)
    assert montecarlo.ks_to_normal(s.values) < 0.05


def test_ks_to_normal_exact_grid():
    # plug in exact normal quantiles: KS must be at most 1/(2N) + eps
    n = 1000
    q = np.asarray(
        [float(_ndtri((k - 0.5) / n)) for k in range(1, n + 1)]
    )
    assert montecarlo.ks_to_normal(q) <= 0.5 / n + 1e-9
    with pytest.raises(ValueError):
        montecarlo.ks_to_normal(np.array([]))


def _ndtri(p):
    from scipy.special import ndtri

    return ndtri(p)


def test_ks_detects_shift():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20000)
    assert montecarlo.ks_to_normal(x) < 0.02
    # shifting by 0.5 puts KS near |Phi(0.25) - Phi(-0.25)| ~ 0.197
    assert montecarlo.ks_to_normal(x + 0.5) > 0.15


def test_w1_matches_shift():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(20000)
    base = montecarlo.wasserstein1_to_normal(x)
    assert base < 0.02
    shifted = montecarlo.wasserstein1_to_normal(x + 0.3)
    # W1 of a pure location shift is the shift size
    assert shifted == pytest.approx(0.3, abs=0.03)
    with pytest.raises(ValueError):
        montecarlo.wasserstein1_to_normal(np.array([]))


def test_w1_noise_floor():
    # even perfect normal samples keep W1 near 1.36/sqrt(N)
    rng = np.random.default_rng(2)
    vals = [
        montecarlo.wasserstein1_to_normal(rng.standard_normal(4000))
        for _ in range(5)
    ]
    floor = 1.363 / math.sqrt(4000)
    assert np.mean(vals) == pytest.approx(floor, rel=0.4)


def test_moment_ratio_mc():
    kind = parse_statistic("desc:1")
    rep = montecarlo.moment_ratio_mc(kind, 200, 4000, seed=23, workers=2)
    want = exact.moment_ratio_descents(200)
    assert abs(rep.ratio - want) < 4 * rep.se
    assert rep.uniform_moment == pytest.approx((200 - 1) / 2, rel=0.01)
    rep2 = montecarlo.moment_ratio_mc(kind, 200, 4000, seed=23, workers=5)
    assert rep.ratio == rep2.ratio  # worker invariance
    with pytest.raises(ValueError):
        montecarlo.moment_ratio_mc(kind, 200, 100, seed=1, k=0)


def test_moment_ratio_second_moment():
    kind = parse_statistic("inv")
    rep = montecarlo.moment_ratio_mc(kind, 30, 3000, seed=29, k=2)
    # E[Inv^2] under both models; ratio below 1 (rank law has fewer inversions)
    assert 0.3 < rep.ratio < 1.0
    assert rep.se < 0.05


def test_phi_model_through_standardized_sample():
    from permlab.models import phi_from_config

    kind = parse_statistic("inv")
    spec = ModelSpec.phi_draw(phi_from_config("identity"))
    s = montecarlo.standardized_sample(kind, spec, 80, 1500, seed=31)
    t = montecarlo.standardized_sample(
        kind, ModelSpec.inverse_unfair(), 80, 1500, seed=31
    )
    assert np.array_equal(s.values, t.values)


def test_standardized_sample_takes_only_models_its_closed_forms_describe():
    from permlab.models import MarkovChainSpec, PhiSpec, phi_from_config

    # a phi table with phi(i) = i on 1..30 only is inverse-unfair at n = 30
    n, inv, desc1 = 30, parse_statistic("inv"), parse_statistic("desc:1")
    counts_i = ModelSpec.phi_draw(PhiSpec.from_table({n + 1: 1}))
    chain = MarkovChainSpec((1,), np.ones((1, 1)))
    taken = [(inv, ModelSpec.unfair()), (parse_statistic("desc:29"), ModelSpec.unfair()),
             (desc1, counts_i), (desc1, ModelSpec.inverse_unfair())]
    refused = [(inv, ModelSpec.uniform()), (inv, ModelSpec.phi_draw(phi_from_config("one"))),
               (inv, ModelSpec.markov_draw(chain)), (desc1, ModelSpec.unfair()),
               (parse_statistic("desc:28"), ModelSpec.unfair())]
    for kind, spec in taken:
        montecarlo.standardized_sample(kind, spec, n, 20, seed=1)
    for kind, spec in refused:
        with pytest.raises(montecarlo.UnknownClosedForm, match=spec.kind.value):
            montecarlo.standardized_sample(kind, spec, n, 20, seed=1)
    with pytest.raises(montecarlo.UnknownClosedForm, match="phi"):
        montecarlo.standardized_sample(inv, counts_i, n + 1, 20, seed=1)


def test_values_stream_in_row_chunks(monkeypatch):
    # chunks of 40 rows (stepped blocks) end in a 10-row tail (per-row
    # generators); the values equal the statistic of the full matrices
    n, reps, seed = 12, 130, 4
    monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 40 * n)
    rank, unfair = ModelSpec.inverse_unfair(), ModelSpec.unfair()
    desc, inv = parse_statistic("desc:2"), parse_statistic("inv")
    scores = sample_score_matrix(rank, n, reps, seed)
    uniform = sample_score_matrix(ModelSpec.uniform(), n, reps, seed, first_stream=reps)
    perms = sample_permutation_matrix(unfair, n, reps, seed)

    s = montecarlo.standardized_sample(desc, rank, n, reps, seed)
    want = (evaluate_batch(desc, scores).astype(float) - s.center) / s.scale
    assert np.array_equal(s.values, want)
    e = montecarlo.estimate(inv, unfair, n, reps, seed)
    v = evaluate_batch(inv, perms).astype(float)
    assert (e.mean, e.variance) == (float(np.mean(v)), float(np.var(v, ddof=1)))
    r = montecarlo.moment_ratio_mc(desc, n, reps, seed, k=2)
    a = evaluate_batch(desc, scores).astype(float) ** 2
    b = evaluate_batch(desc, uniform).astype(float) ** 2
    assert (r.model_moment, r.uniform_moment) == (float(np.mean(a)), float(np.mean(b)))


def test_standardized_sample_memory_does_not_grow_with_reps(monkeypatch):
    # one chunk of 100,000 scores is live at a time; 4x the replicas adds
    # only their values (240 KB), not 24 MB of scores
    monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 100_000)
    kind, spec = parse_statistic("desc:1"), ModelSpec.inverse_unfair()
    peaks = []
    for reps in (10_000, 40_000):
        tracemalloc.start()
        montecarlo.standardized_sample(kind, spec, 100, reps, seed=5)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 4 * 2 ** 20, peaks


@pytest.mark.parametrize("stat, unfair, chunk, threaded", [
    ("inv", False, None, True),  # 600 x 300: one sampled chunk, counted on the pool
    ("inv", True, 300 * 500, True),  # sampled chunks of 500 rows, then a serial tail of 100
    ("desc:3", True, None, False),  # unfair rank rows; an O(n) statistic stays serial
])
def test_values_equal_bits_for_any_worker_count(monkeypatch, stat, unfair, chunk, threaded):
    # the inversion kernel picks its threads from the CPU count; workers selects nothing
    pools = []
    real = stats.ThreadPoolExecutor
    monkeypatch.setattr(stats, "ThreadPoolExecutor", lambda k: pools.append(k) or real(k))
    if chunk:
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", chunk)
    kind = parse_statistic(stat)
    spec = ModelSpec.unfair() if unfair else ModelSpec.inverse_unfair()
    n, reps, seed = 300, 600, 6
    got = {}
    for cpus, workers in ((1, 3), (2, 1), (3, 2)):
        monkeypatch.setattr(stats.os, "cpu_count", lambda: cpus)
        pools.clear()
        # the closed forms describe no unfair desc:3, so it is not standardized
        s = None if unfair and stat == "desc:3" else montecarlo.standardized_sample(
            kind, spec, n, reps, seed, workers=workers).values.tobytes()
        e = montecarlo.estimate(kind, spec, n, reps, seed, workers=workers)
        r = montecarlo.moment_ratio_mc(kind, n, reps, seed, k=2, workers=workers)
        got[cpus] = (s, e.mean, e.variance, r.ratio, r.se)
        assert bool(pools) == (threaded and cpus > 1)
        assert all(1 < p <= cpus for p in pools)
    assert got[1] == got[2] == got[3]


def test_standardized_sample_rejects_n_1():
    # S_1 holds one permutation, so every statistic is constant there
    with pytest.raises(montecarlo.UnknownClosedForm, match="degenerate scale"):
        montecarlo.standardized_sample(parse_statistic("inv"), ModelSpec.inverse_unfair(),
                                       1, 10, seed=1)
