import math
from fractions import Fraction

import pytest

from permlab import exact, models, stats
from permlab.models import ModelKind, ModelSpec, PhiSpec, phi_from_config
from permlab.perm import Permutation, all_permutations, inverse_entries

from oracles import finish_pmf_oracle, moment_oracle, plackett_luce_oracle, rank_pmf_oracle

# The phi table of the README's config example: phi = (10, 2, 2, 4, 5, ...)
README_PHI = phi_from_config({"table": {"1": 10, "3": 2}, "default": "identity"})

# Frozen 5-decimal truncations of the S_4 pmf tables, lexicographic order.
RANK_TABLE_S4 = [
    "0.13333", "0.11428", "0.10000", "0.06857", "0.07500", "0.06000",
    "0.06666", "0.05714", "0.03333", "0.01714", "0.02500", "0.01500",
    "0.04000", "0.02857", "0.02666", "0.01428", "0.01428", "0.01071",
    "0.02666", "0.02222", "0.01777", "0.01111", "0.01269", "0.00952",
]
FINISH_TABLE_S4 = [
    "0.13333", "0.11428", "0.10000", "0.07500", "0.06857", "0.06000",
    "0.06666", "0.05714", "0.04000", "0.02666", "0.02857", "0.02222",
    "0.03333", "0.02500", "0.02666", "0.01777", "0.01428", "0.01269",
    "0.01714", "0.01500", "0.01428", "0.01111", "0.01071", "0.00952",
]


def trunc5(p: Fraction) -> str:
    t = (p.numerator * 100000) // p.denominator
    return f"{t // 100000}.{t % 100000:05d}"


# ---------------------------------------------------------------------------
# building-block probabilities

def test_prob_pair_less():
    # P(rho(i) < rho(j)) = j/(i + j), the pair case of the ordered tuple
    assert exact.prob_ordered_tuple((1, 2)) == pytest.approx(2 / 3)
    assert exact.prob_ordered_tuple((2, 1)) == pytest.approx(1 / 3)
    assert exact.prob_ordered_tuple((3, 5), exact=True) == Fraction(5, 8)
    with pytest.raises(ValueError):
        exact.prob_ordered_tuple((2, 2))
    with pytest.raises(ValueError):
        exact.prob_ordered_tuple((0, 1))


def test_prob_pair_symmetry():
    for i in range(1, 8):
        for j in range(1, 8):
            if i != j:
                pair = exact.prob_ordered_tuple((i, j), exact=True)
                assert pair == Fraction(j, i + j)
                assert pair + exact.prob_ordered_tuple((j, i), exact=True) == 1


def test_prob_ordered_tuple():
    # 1 before 2 before 3: (1/1) * (2/3) * (3/6)
    assert exact.prob_ordered_tuple([1, 2, 3], exact=True) == Fraction(1, 3)
    # 3 first: (3/3) * (2/5) * (1/6)
    assert exact.prob_ordered_tuple([3, 2, 1], exact=True) == Fraction(1, 15)
    assert exact.prob_ordered_tuple([4]) == 1.0
    with pytest.raises(ValueError):
        exact.prob_ordered_tuple([])
    with pytest.raises(ValueError):
        exact.prob_ordered_tuple([1, 1])


def test_prob_ordered_tuple_sums_to_one():
    for n in (3, 4, 5):
        total = sum(
            exact.prob_ordered_tuple(t, exact=True) for t in all_permutations(n)
        )
        assert total == 1


def test_prob_ordered_tuple_log_route_matches_exact():
    idx = list(range(1, 41))  # 40 factors in one float product
    got = exact.prob_ordered_tuple(idx)
    want = float(exact.prob_ordered_tuple(idx, exact=True))
    assert got == pytest.approx(want, rel=1e-12)
    idx.reverse()
    got = exact.prob_ordered_tuple(idx)
    want = float(exact.prob_ordered_tuple(idx, exact=True))
    assert got == pytest.approx(want, rel=1e-12)


def test_pmf_matches_oracles_s4():
    for t in all_permutations(4):
        assert exact.pmf(t, "inverse-unfair", exact=True) == rank_pmf_oracle(t)
        assert exact.pmf(t, "unfair", exact=True) == finish_pmf_oracle(t)


def test_pmf_duality_exact():
    # the finishing order is the inverse of the rank sequence, so the two
    # pmfs must agree through inversion; both code paths are exercised
    for n in range(1, 7):
        for t in all_permutations(n):
            assert exact.pmf(t, "unfair", exact=True) == exact.pmf(
                inverse_entries(t), "inverse-unfair", exact=True
            )


def test_pmf_float_route():
    p = Permutation((1, 2, 4, 3))
    assert exact.pmf(p, "inverse-unfair") == pytest.approx(4 / 35, rel=1e-14)
    assert exact.pmf(p, "uniform") == pytest.approx(1 / 24)
    assert exact.pmf(p, ModelKind.UNFAIR, exact=True) == finish_pmf_oracle((1, 2, 4, 3))
    chain = models.MarkovChainSpec((1,), [[1.0]])
    for model in ("markov", ModelSpec.markov_draw(chain), "phi"):  # bare phi has no map
        with pytest.raises(ValueError):
            exact.pmf(p, model)


def test_float_law_is_the_rounded_exact_law():
    # one division of two exact products: the uniform law is 1/n! and every
    # float row is float(exact row), to the bit
    for n in range(1, 11):
        assert exact.pmf(tuple(range(n, 0, -1)), "uniform") == 1 / math.factorial(n)
    for model in ("uniform", "unfair", "inverse-unfair"):
        for n in range(1, 9):
            want = tuple(map(float, exact.enumerate_law(n, model, exact=True).probs))
            assert exact.enumerate_law(n, model).probs == want, (model, n)
    # past 2^1024 in the denominator (n = 150) the law is the product of ratios
    got = exact.pmf(tuple(range(1, 151)), "inverse-unfair")
    assert got == pytest.approx(exact.prob_identity(150), rel=1e-12)


def test_frozen_tables_s4():
    rank_law = exact.enumerate_law(4, ModelKind.INVERSE_UNFAIR, exact=True)
    finish_law = exact.enumerate_law(4, ModelKind.UNFAIR, exact=True)
    assert [trunc5(p) for p in rank_law.probs] == RANK_TABLE_S4
    assert [trunc5(p) for p in finish_law.probs] == FINISH_TABLE_S4
    assert rank_law.total() == 1
    assert finish_law.total() == 1


def test_identity_reversal_probabilities():
    # 2^n/(n+1)! and 2^n n!/(2n)!
    assert exact.prob_identity(1, exact=True) == 1
    assert exact.prob_identity(3, exact=True) == Fraction(8, 24)
    assert exact.prob_identity(4, exact=True) == Fraction(16, 120)
    assert exact.prob_reversal(3, exact=True) == Fraction(8 * 6, 720)
    assert exact.prob_reversal(4, exact=True) == Fraction(16 * 24, 40320)
    for n in range(1, 7):
        # lexicographic order: the identity first, the reversal last
        law = exact.enumerate_law(n, ModelKind.INVERSE_UNFAIR, exact=True)
        assert law.outcomes[0] == tuple(range(1, n + 1))
        assert law.outcomes[-1] == tuple(range(n, 0, -1))
        assert law.probs[0] == exact.prob_identity(n, exact=True)
        assert law.probs[-1] == exact.prob_reversal(n, exact=True)


def test_argmax_argmin():
    # the identity is the most likely permutation, the reversal the least
    for n, model in ((4, ModelKind.INVERSE_UNFAIR), (5, ModelKind.UNFAIR)):
        law = exact.enumerate_law(n, model, exact=True)
        ranked = sorted(zip(law.probs, law.outcomes))
        assert ranked[-1][1] == tuple(range(1, n + 1))
        assert ranked[0][1] == tuple(range(n, 0, -1))
        assert ranked[-2][0] < ranked[-1][0] and ranked[0][0] < ranked[1][0]


# ---------------------------------------------------------------------------
# enumeration and laws

def test_enumeration_cap():
    assert len(exact.enumerate_law(8, ModelKind.UNIFORM).outcomes) == 40320
    with pytest.raises(exact.EnumerationLimit, match="cap 8"):
        exact.enumerate_law(9, ModelKind.UNIFORM)


def test_phi_laws_match_the_named_models():
    for n in range(1, 7):
        for rule, model in (("identity", ModelKind.INVERSE_UNFAIR), ("one", ModelKind.UNIFORM)):
            phi_law = exact.enumerate_law(n, ModelSpec.phi_draw(phi_from_config(rule)), exact=True)
            assert phi_law == exact.enumerate_law(n, model, exact=True)


def test_phi_law_matches_plackett_luce_oracle():
    spec = ModelSpec.phi_draw(README_PHI)
    for n in range(1, 6):
        want = plackett_luce_oracle([README_PHI(i) for i in range(1, n + 1)])
        law = exact.enumerate_law(n, spec, exact=True)
        assert dict(zip(law.outcomes, law.probs)) == want
        assert [exact.pmf(o, spec, exact=True) for o in law.outcomes] == list(law.probs)
        floats = exact.enumerate_law(n, spec)
        assert floats.probs == pytest.approx([float(p) for p in law.probs], rel=1e-14)


def test_huge_constant_phi_is_uniform():
    # prefix sums of 2**62 overflow int64; Python integers keep them exact
    spec = ModelSpec.phi_draw(PhiSpec.from_table({}, default=2 ** 62))
    law = exact.enumerate_law(6, spec, exact=True)
    assert set(law.probs) == {Fraction(1, 720)}
    assert exact.enumerate_law(6, spec).probs == pytest.approx([1 / 720] * 720, rel=1e-14)


def test_float_law_is_the_rounded_fraction_past_2_53():
    # prefix-sum products past 2^53 are Python ints, so each float is rounded once
    spec = ModelSpec.phi_draw(PhiSpec.from_table({3: 10 ** 6}, default=7))
    floats = exact.enumerate_law(6, spec).probs
    assert floats == tuple(map(float, exact.enumerate_law(6, spec, exact=True).probs))


def test_enumerate_law_rejects_n_below_one():
    for model in (*ModelKind, ModelSpec.phi_draw(README_PHI)):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                exact.enumerate_law(n, model)


def test_enumerate_law_uniform():
    law = exact.enumerate_law(3, ModelKind.UNIFORM, exact=True)
    assert len(law.outcomes) == 6
    assert all(p == Fraction(1, 6) for p in law.probs)


def test_statistic_law_mean_variance():
    kind = stats.parse_statistic("desc:1")
    law = exact.statistic_law(4, ModelKind.INVERSE_UNFAIR, kind, exact=True)
    assert law.total() == 1
    want_mean = moment_oracle(4, lambda t: m_desc(t, 1))
    assert law.mean() == want_mean
    want_second = moment_oracle(4, lambda t: m_desc(t, 1), power=2)
    assert law.variance() == want_second - want_mean ** 2


@pytest.mark.parametrize("model", [
    ModelKind.UNIFORM, ModelKind.UNFAIR, ModelKind.INVERSE_UNFAIR,
    ModelSpec.phi_draw(PhiSpec.from_table({2: 5}, default=10 ** 17)),  # object dens
], ids=["uniform", "unfair", "inverse-unfair", "phi"])
def test_statistic_law_is_the_sum_of_row_pmfs(model):
    # each value's Fraction, summed once per distinct denominator, equals the
    # pmfs of its rows added one by one
    for n in range(1, 7):
        rows = [(p, exact.pmf(p, model, exact=True)) for p in all_permutations(n)]
        for sel in ("inv", "desc:1", "locmax", "las", "incsub:2")[:5 if n > 1 else 4]:
            kind = stats.parse_statistic(sel)
            want = {}
            for p, prob in rows:
                value = stats.evaluate(kind, p)
                want[value] = want.get(value, Fraction(0)) + prob
            law = exact.statistic_law(n, model, kind, exact=True)
            assert dict(zip(law.outcomes, law.probs)) == want, (n, sel)
            assert all(type(p) is Fraction for p in law.probs)


def m_desc(t, m):
    n = len(t)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, min(i + m, n - 1) + 1)
        if t[i] > t[j]
    )


def test_statistic_law_needs_int_domain():
    law = exact.enumerate_law(3, ModelKind.UNIFORM)
    with pytest.raises(ValueError):
        law.mean()


def test_tv_distance_symmetry_and_zero():
    a = exact.enumerate_law(4, ModelKind.INVERSE_UNFAIR, exact=True)
    b = exact.enumerate_law(4, ModelKind.UNIFORM, exact=True)
    assert exact.tv_distance(a, a) == 0
    assert exact.tv_distance(a, b) == exact.tv_distance(b, a)
    assert 0 < exact.tv_distance(a, b) < 1


def test_tv_domain_mismatch():
    a = exact.enumerate_law(3, ModelKind.UNIFORM)
    b = exact.enumerate_law(4, ModelKind.UNIFORM)
    with pytest.raises(ValueError):
        exact.tv_distance(a, b)


def test_tv_n3_equals_bound():
    # at n = 3 the event bound is sharp: both equal 1/4
    tv = exact.tv_model_vs_uniform(3, ModelKind.INVERSE_UNFAIR, exact=True)
    assert tv == Fraction(1, 4)
    p_rho, p_pi, diff = exact.tv_event_lower_bound(3)
    assert p_rho == pytest.approx(0.75)
    assert p_pi == pytest.approx(0.5)
    assert diff == pytest.approx(0.25)


def test_tv_bound_below_exact_tv():
    for n in (3, 4, 5, 6, 7):
        tv = float(exact.tv_model_vs_uniform(n, ModelKind.INVERSE_UNFAIR))
        diff = exact.tv_event_lower_bound(n)[2]
        assert diff <= tv + 1e-12


def test_tv_bound_large_n():
    _, _, diff = exact.tv_event_lower_bound(10 ** 6)
    assert diff == pytest.approx(0.9284804, abs=1e-6)
    with pytest.raises(ValueError):
        exact.tv_event_lower_bound(2)


@pytest.mark.parametrize("exact_law", [True, False])
def test_tv_model_vs_uniform_matches_tv_distance(exact_law):
    for n in range(1, 7):
        uniform = exact.enumerate_law(n, "uniform", exact=exact_law)
        for model in ("uniform", "unfair", "inverse-unfair", ModelSpec.phi_draw(README_PHI)):
            want = exact.tv_distance(exact.enumerate_law(n, model, exact=exact_law), uniform)
            assert exact.tv_model_vs_uniform(n, model, exact=exact_law) == want


def test_tv_same_law_under_inverse():
    # TV(finishing order, uniform) = TV(rank sequence, uniform): inversion
    # is a bijection on S_n fixing the uniform law
    for n in (3, 4, 5):
        a = exact.tv_model_vs_uniform(n, ModelKind.UNFAIR, exact=True)
        b = exact.tv_model_vs_uniform(n, ModelKind.INVERSE_UNFAIR, exact=True)
        assert a == b


# ---------------------------------------------------------------------------
# closed-form moments vs enumeration

def test_mean_m_descents_enumeration():
    for n in range(2, 7):
        for m in range(1, n):
            want = moment_oracle(n, lambda t: m_desc(t, m))
            assert exact.mean_m_descents(n, m) == pytest.approx(
                float(want), rel=1e-12
            )


def test_mean_m_descents_saturates():
    # m >= n - 1 makes every pair a near pair: the mean equals the
    # inversion mean
    assert exact.mean_m_descents(5, 4) == pytest.approx(
        exact.mean_inversions_exact(5), rel=1e-12
    )
    assert exact.mean_m_descents(5, 40) == pytest.approx(
        exact.mean_inversions_exact(5), rel=1e-12
    )


def test_mean_m_descents_is_the_rounded_fraction_sum():
    for n in range(1, 41):
        gaps = [sum((Fraction(i, 2 * i + k) for i in range(1, n - k + 1)), Fraction(0))
                for k in range(1, n)]
        want = Fraction(0)
        for m in range(1, n + 2):
            want += gaps[m - 1] if m < n else 0
            assert exact.mean_m_descents(n, m) == float(want), (n, m)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40, 100_000])
def test_mean_m_descents_saturates_to_the_inversion_mean_exactly(n):
    want = exact.mean_inversions_exact(n)
    for m in {max(1, n - 1), n, n + 1, 10 ** 21}:
        assert exact.mean_m_descents(n, m) == want


def test_var_descents_known_values():
    assert exact.var_descents(1) == 0.0
    assert exact.var_descents(2) == pytest.approx(2 / 9, rel=1e-15)
    assert exact.var_descents(3) == pytest.approx(74 / 225, rel=1e-15)


def test_var_descents_enumeration():
    for n in range(2, 7):
        mean = moment_oracle(n, lambda t: m_desc(t, 1))
        second = moment_oracle(n, lambda t: m_desc(t, 1), power=2)
        want = float(second - mean ** 2)
        assert exact.var_descents(n) == pytest.approx(want, rel=1e-12)


def test_descent_probability_marginal():
    # P(descent at i) = i/(2i+1), via the pair formula with indices (i, i+1)
    for i in (1, 2, 5):
        n = i + 1
        want = float(moment_oracle(n, lambda t: 1 if t[i - 1] > t[i] else 0))
        assert i / (2 * i + 1) == pytest.approx(want, rel=1e-12)


def test_asymptotic_mean_descents():
    n = 10 ** 4
    table = exact.closed_form_moments(stats.parse_statistic("desc:1"), n)
    assert table["mean"] == pytest.approx(4997.2066, abs=5e-4)
    # the exact and asymptotic means agree to o(1) corrections
    assert abs(table["mean"] - table["mean_asymptotic"]) < 0.5


def test_asymptotic_var_m_descents():
    # m = 1 asymptotics approach n/12 like the exact variance does
    table = exact.closed_form_moments(stats.parse_statistic("desc:1"), 10 ** 5)
    assert table["variance_asymptotic"] / table["variance"] == pytest.approx(1.0, abs=2e-3)


def test_mean_inversions_enumeration():
    for n in range(1, 7):
        want = moment_oracle(n, lambda t: sum(
            1
            for a in range(n)
            for b in range(a + 1, n)
            if t[a] > t[b]
        ))
        assert exact.mean_inversions_exact(n) == pytest.approx(
            float(want), rel=1e-12
        )


def test_mean_inversions_small_values():
    assert exact.mean_inversions_exact(1) == 0.0
    assert exact.mean_inversions_exact(2) == pytest.approx(1 / 3, rel=1e-15)
    assert exact.mean_inversions_exact(3) == pytest.approx(59 / 60, rel=1e-15)


def test_inversion_constants():
    # the exact mean approaches mean_coeff * n^2
    table = exact.closed_form_moments(stats.parse_statistic("inv"), 4000)
    assert table["mean_coeff"] == pytest.approx(0.1534264, abs=1e-7)
    assert table["var_coeff"] == pytest.approx(0.018116, abs=5e-7)
    assert table["mean"] / table["mean_asymptotic"] == pytest.approx(1.0, abs=2e-3)


# the leading forms, written out: n/2 - ln(n)/4, (6nm + 4m^3 + 3m^2 - m)/72
# and the inversion coefficients of mean_coeff n^2 and var_coeff n^3
LN2 = math.log(2.0)
INV_MEAN_COEFF = (1.0 - LN2) / 2.0
INV_VAR_COEFF = (1.0 / 3.0 - math.pi ** 2 / 18.0 + 2.0 * LN2 / 3.0 - math.log(3.0) / 2.0
                 + 2.0 * LN2 ** 2 / 3.0)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 2000, 20000])
@pytest.mark.parametrize("stat", ["inv", "desc:1", "desc:2", "desc:3", "desc:8"])
def test_moment_table_keeps_its_bits(stat, n):
    m = n if stat == "inv" else int(stat.split(":")[1])  # inv: every pair in the window
    var_m = (6 * n * m + 4 * m ** 3 + 3 * m ** 2 - m) / 72
    if stat == "inv" or m >= max(2, n - 1):  # every pair counts: the inversion moments
        want = {"mean": exact.mean_inversions_exact(n), "mean_asymptotic": INV_MEAN_COEFF * n ** 2,
                "variance": INV_VAR_COEFF * n ** 3, "variance_mode": "asymptotic",
                "variance_asymptotic": INV_VAR_COEFF * n ** 3,
                "mean_coeff": INV_MEAN_COEFF, "var_coeff": INV_VAR_COEFF}
    elif m == 1:
        want = {"mean": exact.mean_m_descents(n, 1), "mean_asymptotic": n / 2 - math.log(n) / 4,
                "variance": exact.var_descents(n), "variance_mode": "exact",
                "variance_asymptotic": var_m}
    else:
        want = {"mean": exact.mean_m_descents(n, m), "variance": var_m,
                "variance_mode": "asymptotic"}
    got = exact.closed_form_moments(stats.parse_statistic(stat), n)
    assert list(got.items()) == list(want.items())  # keys in order, values to the bit


def test_moment_ratio_descents():
    # enumeration cross-check at n = 6: uniform mean is (n-1)/2
    n = 6
    want = exact.mean_m_descents(n, 1) / 2.5
    assert exact.moment_ratio_descents(n) == pytest.approx(want, rel=1e-15)
    assert exact.moment_ratio_descents(10 ** 4) == pytest.approx(
        0.9995412, abs=1e-6
    )
    with pytest.raises(ValueError):
        exact.moment_ratio_descents(1)
