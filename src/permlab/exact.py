"""Exact laws and closed-form moments for the best-of-k ranking models.

Write rho for the rank sequence and gamma = rho^{-1} for the finishing order
(weakest player first).  If player i keeps the best of k_i uniforms, gamma has
the Plackett-Luce law P(gamma = a) = prod_l k_{a_l} / (k_{a_1} + ... + k_{a_l}).
Every exact law is one kernel for that product over the model's draw counts
(``models._fixed_counts``).  With k_i = i it gives the building blocks

* P(rho(i1) < ... < rho(ik)) = prod_l  i_l / (i_1 + ... + i_l)
  (``prob_ordered_tuple``), whose pair case ``prob_ordered_tuple((i, j))``
  is P(rho(i) < rho(j)) = j / (i + j),
* P(gamma = a) = n! / prod_i (a_1 + ... + a_i),

from which identity/reversal probabilities, full enumeration on small n and
total-variation distances follow.  A law is num / den per row, prod k over
int64 products of prefix sums; probabilities are its floats, or Fractions
with ``exact=True``, and laws sum by one rule (``_total``).  Inversions and
m-descents count the pairs i < j with rho(i) > rho(j) among all pairs or
those with j - i <= m; ``_pair_sums`` groups a pair set by s = i + j, so
each mean is one O(n) sum, and it is the size-bias index table too.
``pmf`` is the one pmf entry, and ``closed_form_moments`` the one moment
table: it holds every moment formula, exact and leading-order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .perm import all_permutations, permutation_matrix, validate
from .models import ModelKind, ModelSpec, _fixed_counts, invert_rows
from . import stats as _stats

__all__ = [
    "EnumerationLimit",
    "ExactDistribution",
    "prob_ordered_tuple",
    "pmf",
    "prob_identity",
    "prob_reversal",
    "enumerate_law",
    "statistic_law",
    "tv_distance",
    "tv_model_vs_uniform",
    "tv_event_lower_bound",
    "mean_m_descents",
    "var_descents",
    "mean_inversions_exact",
    "moment_ratio_descents",
    "UnknownClosedForm",
    "closed_form_moments",
]

_ENUM_LIMIT = 8  # largest n enumerated (40,320 outcomes): pmf --n 10 took 8.5 s and 1.2 GB


class EnumerationLimit(ValueError):
    """Requested n exceeds the exhaustive-enumeration cap."""


class UnknownClosedForm(ValueError):
    """No closed-form moment for the requested statistic (or centering)."""


# ---------------------------------------------------------------------------
# closed-form probabilities

def _plackett_luce(orders: np.ndarray, counts: Sequence[int]) -> tuple[int, np.ndarray]:
    """(num, den) with prod_l k_l / (k_1 + ... + k_l) = num / den[r] for row r.

    Each row of ``orders`` lists the players 1..m (m = len(counts)) once each
    in finishing order, weakest first; k_l is the draw count of its l-th
    player.  num = prod k, a Python int, is the same for every row.  den is
    int64 where every float product of prefix sums is below 2^53, so none was
    rounded (the three fixed-count paper models up to m = 10), else Python
    ints, which do not wrap like int64 does; num / den rounds the law once.
    """
    k = [int(c) for c in counts]
    w = np.asarray(k, dtype=float)[orders - 1]
    with np.errstate(over="ignore"):
        den = np.prod(np.cumsum(w, axis=1), axis=1)
    if den.max() < 2 ** 53:
        return math.prod(k), den.astype(np.int64)
    return math.prod(k), np.cumsum(np.asarray(k, dtype=object)[orders - 1], axis=1).prod(axis=1)


def _probs(num: int, den: np.ndarray, exact: bool) -> list:
    """num / den per row: floats, or Fractions made once per distinct den."""
    if not exact:
        return (num / den).tolist()
    dens, rows = np.unique(den, return_inverse=True)
    fracs = [Fraction(num, d) for d in dens.tolist()]
    return list(map(fracs.__getitem__, rows.tolist()))


def _fixed_count_spec(model: "ModelKind | str | ModelSpec") -> ModelSpec:
    spec = model if isinstance(model, ModelSpec) else ModelSpec(ModelKind(model))
    if spec.kind is ModelKind.MARKOV:
        raise ValueError("no exact law for the markov model")
    return spec


def _law(spec: ModelSpec, perms: np.ndarray) -> tuple[int, np.ndarray]:
    """The kernel's (num, den) of the one-line rows of ``perms``: an unfair row
    is a finishing order, any other row a rank sequence, the inverse of one."""
    orders = perms if spec.kind is ModelKind.UNFAIR else invert_rows(perms)
    return _plackett_luce(orders, _fixed_counts(spec, perms.shape[1]))


def prob_ordered_tuple(indices: Sequence[int], exact: bool = False):
    """P(rho(i1) < rho(i2) < ... < rho(ik)) for distinct player indices.

    Equals prod_l i_l / (i_1 + ... + i_l): the kernel with the indices
    themselves as the draw counts of k players in the order 1..k.
    """
    idx = [int(i) for i in indices]
    if len(idx) == 0:
        raise ValueError("need at least one index")
    if any(i < 1 for i in idx) or len(set(idx)) != len(idx):
        raise ValueError(f"indices must be distinct and >= 1: {idx}")
    return _probs(*_plackett_luce(np.arange(1, len(idx) + 1)[None, :], idx), exact)[0]


def pmf(p, model: "ModelKind | str | ModelSpec", exact: bool = False):
    """PMF of one permutation under uniform, unfair, inverse-unfair or a phi
    ModelSpec (markov has no exact law here).

    >>> pmf((1, 2, 3, 4), "inverse-unfair", exact=True)
    Fraction(2, 15)
    """
    spec = _fixed_count_spec(model)
    return _probs(*_law(spec, np.array([validate(p)], dtype=np.int64)), exact)[0]


def prob_identity(n: int, exact: bool = False):
    """P(rho_n = id) = 2^n / (n+1)!  (same for gamma_n: id is self-inverse)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    value = Fraction(2 ** n, math.factorial(n + 1))
    return value if exact else float(value)


def prob_reversal(n: int, exact: bool = False):
    """P(rho_n = reversal) = 2^n n! / (2n)!  (same for gamma_n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    value = Fraction(2 ** n * math.factorial(n), math.factorial(2 * n))
    return value if exact else float(value)


# ---------------------------------------------------------------------------
# exhaustive enumeration

def _total(values: Iterable, exact: bool):
    """Sum of a law's terms: exact for Fractions, compensated for floats."""
    return sum(values, Fraction(0)) if exact else math.fsum(values)


@dataclass(frozen=True)
class ExactDistribution:
    """A finite law: parallel outcome/probability tuples plus a domain tag.

    Outcomes are one-line permutation tuples (domain ``("perm", n)``) or
    integers (domain ``("int",)``); probabilities are floats or Fractions.
    """

    outcomes: tuple
    probs: tuple
    domain: tuple

    def __post_init__(self) -> None:
        if len(self.outcomes) != len(self.probs):
            raise ValueError("outcomes and probs must align")

    def total(self):
        return _total(self.probs, self.is_exact)

    @property
    def is_exact(self) -> bool:
        return bool(self.probs) and isinstance(self.probs[0], Fraction)

    def mean(self):
        self._need_numeric()
        return _total((x * p for x, p in zip(self.outcomes, self.probs)), self.is_exact)

    def variance(self):
        self._need_numeric()
        mu = self.mean()
        gaps = ((x - mu) ** 2 * p for x, p in zip(self.outcomes, self.probs))
        return _total(gaps, self.is_exact)

    def _need_numeric(self) -> None:
        if self.domain[0] != "int":
            raise ValueError("moments need an integer-valued law")


def _check_enum(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _ENUM_LIMIT:
        raise EnumerationLimit(f"n={n} exceeds the enumeration cap {_ENUM_LIMIT}")


def enumerate_law(
    n: int, model: "ModelKind | str | ModelSpec", exact: bool = False
) -> ExactDistribution:
    """The full law over S_n in lexicographic order, for n up to 8."""
    probs = _probs(*_law_table(n, model)[1:], exact)
    return ExactDistribution(tuple(all_permutations(n)), tuple(probs), ("perm", n))


def _law_table(n: int, model: "ModelKind | str | ModelSpec") -> tuple[np.ndarray, int, np.ndarray]:
    """S_n as ``permutation_matrix`` rows and the kernel's (num, den) of each."""
    _check_enum(n)
    spec, perms = _fixed_count_spec(model), permutation_matrix(n)
    return (perms, *_law(spec, perms))


def statistic_law(
    n: int, model: "ModelKind | str | ModelSpec", kind: _stats.StatisticKind, exact: bool = False
) -> ExactDistribution:
    """Exact pushforward law of a statistic under a model, by enumeration.

    Each value's probability adds its rows' terms in row order."""
    perms, num, den = _law_table(n, model)
    support, inverse = np.unique(_stats.evaluate_batch(kind, perms), return_inverse=True)
    probs = _probs(num, den, exact)
    if exact:
        acc = [Fraction(0)] * support.size
        for v, p in zip(inverse.tolist(), probs):
            acc[v] += p
    else:
        acc = np.bincount(inverse, weights=probs, minlength=support.size).tolist()
    return ExactDistribution(tuple(support.tolist()), tuple(acc), ("int",))


def tv_distance(d1: ExactDistribution, d2: ExactDistribution):
    """Total variation distance (half the L1 gap) between two finite laws."""
    if d1.domain != d2.domain:
        raise ValueError(f"mismatched outcome spaces: {d1.domain} vs {d2.domain}")
    exact = d1.is_exact and d2.is_exact
    zero = Fraction(0) if exact else 0.0
    q1 = dict(zip(d1.outcomes, d1.probs))
    q2 = dict(zip(d2.outcomes, d2.probs))
    keys = set(q1) | set(q2)
    return _total((abs(q1.get(k, zero) - q2.get(k, zero)) for k in keys), exact) / 2


def tv_model_vs_uniform(n: int, model: "ModelKind | str | ModelSpec", exact: bool = False):
    """Exact TV(model law, uniform) on S_n by enumeration of the model law.

    The uniform law gives every permutation 1/n!, taken from the kernel as
    the pmf of one permutation: the float every row of the uniform law holds.
    """
    probs = np.array(enumerate_law(n, model, exact=exact).probs, dtype=object if exact else float)
    uniform = pmf(range(1, n + 1), ModelKind.UNIFORM, exact=exact)
    return _total(np.abs(probs - uniform).tolist(), exact) / 2


def tv_event_lower_bound(n: int) -> tuple[float, float, float]:
    """(p_rho, p_pi, diff): the event-based TV lower bound at size n.

    The event is "players 1..L all rank below player n" with L = floor(ln n).
    Under the rank-sequence law its chance is n / (n + L(L+1)/2); under the
    uniform law it is 1/(L+1); the gap diff = p_rho - p_pi is a valid TV lower
    bound whenever 1 <= L < n, i.e. n >= 3.
    """
    if n < 3:
        raise ValueError("the bound needs n >= 3 (so that floor(ln n) >= 1)")
    big_l = math.floor(math.log(n))
    p_pi = 1.0 / (big_l + 1)
    # L(L+1) is even: n / (integer) rounds once and stays finite past 2^1024
    p_rho = n / (n + big_l * (big_l + 1) // 2)
    return p_rho, p_pi, p_rho - p_pi


# ---------------------------------------------------------------------------
# closed-form moments

def _pair_sums(n: int, m: int) -> tuple[np.ndarray, ...]:
    """(s, lo, hi, c): the pairs i < j <= n with j - i <= m, grouped by s = i + j.

    For s = 3..2n-1 they are i = lo..hi, lo = max(1, s - n, ceil((s - m)/2)),
    hi = (s - 1) // 2, and c_s = lo + ... + hi (0 where lo = hi + 1).  m is
    clamped to n first: no pair is further apart, and int64 holds n.  n past
    10^6 is refused first: ``moments --stat inv`` at n = 10^6 takes 0.4 s
    and 285 MB max RSS (2-core x86_64), and memory grows linearly in n.
    """
    if n > 10 ** 6:
        raise ValueError(f"n = {n} exceeds the moment table cap 10^6")
    s = np.arange(3, 2 * n, dtype=np.int64)
    lo = np.maximum(np.maximum(1, s - n), (s - min(m, n) + 1) // 2)
    hi = (s - 1) // 2
    return s, lo, hi, (lo + hi) * (hi - lo + 1) // 2


def mean_m_descents(n: int, m: int) -> float:
    """E[# m-descents of rho_n] = sum over pairs i < j, j - i <= m, of i/(i+j).

    One O(n) sum over ``_pair_sums``: the integer parts of c_s / s, their
    rounded fractions q and the residuals of q add up, compensated, to the
    exact mean rounded to a float.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    s, _, _, c = _pair_sums(n, m)
    k, r = np.divmod(c, s)
    q = r / s
    t = q * 134217729.0  # 2**27 + 1: split q into two 26-bit halves
    q_hi = t - (t - q)
    e = (r - q_hi * s) - (q - q_hi) * s  # r - q s, exact while s < 2**26
    return math.fsum(q.tolist() + [float(k.sum()), float(np.sum(e / s))])


def var_descents(n: int) -> float:
    """Var[# descents of rho_n], exact for the window m = 1.

    Sum of Bernoulli variances plus twice the adjacent covariances; the
    covariance sum runs to n-2 (positions i and i+1 must both be descents
    sites, so i+1 <= n-1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    i = np.arange(1, n, dtype=float)  # 1..n-1
    bern = math.fsum(i * (i + 1) / (2 * i + 1) ** 2)
    j = np.arange(1, n - 1, dtype=float)  # 1..n-2, empty for n <= 2
    cross = math.fsum(j * (j + 2) / ((2 * j + 3) * (2 * j + 1)))
    return bern - (2.0 / 3.0) * cross


def mean_inversions_exact(n: int) -> float:
    """E[Inv(rho_n)] = sum over pairs i < j of i/(i+j), in O(n): the
    m-descent mean with every pair in the window."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return mean_m_descents(n, n)


def moment_ratio_descents(n: int) -> float:
    """Closed-form first-moment ratio E[desc(rho_n)] / E[desc(uniform)].

    The uniform mean is (n-1)/2; the ratio tends to 1, certifying that
    descents cannot separate the two laws at first order.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return mean_m_descents(n, 1) / ((n - 1) / 2.0)


# leading coefficients E[Inv] ~ _INV_MEAN_COEFF n^2 and Var[Inv] ~ _INV_VAR_COEFF n^3
_INV_MEAN_COEFF = (1.0 - math.log(2.0)) / 2.0
_INV_VAR_COEFF = (1.0 / 3.0 - math.pi ** 2 / 18.0 + 2.0 * math.log(2.0) / 3.0
                  - math.log(3.0) / 2.0 + 2.0 * math.log(2.0) ** 2 / 3.0)


def closed_form_moments(kind: _stats.StatisticKind, n: int) -> dict:
    """Every moment formula of ``inv`` and ``desc:m`` under the rank sequence.

    The exact ``mean``; a ``variance`` of ``variance_mode`` exact (desc:1) or
    asymptotic; ``mean_asymptotic`` where a leading form is pinned: n/2 -
    ln(n)/4 for desc:1, ``mean_coeff`` n^2 for inv.  The leading m-descent
    variance is (6nm + 4m^3 + 3m^2 - m)/72 and the inversion one ``var_coeff``
    n^3.  ``desc:m`` with m >= n - 1 counts every pair, so for m >= 2 it has
    the ``inv`` moments."""
    if kind.tag == "desc" and kind.m >= max(2, n - 1):
        return closed_form_moments(_stats.StatisticKind("inv"), n)
    if kind.tag == "desc":
        m, mean = kind.m, mean_m_descents(n, kind.m)
        variance_asymptotic = (6 * n * m + 4 * m ** 3 + 3 * m ** 2 - m) / 72
        if m > 1:
            return {"mean": mean, "variance": variance_asymptotic, "variance_mode": "asymptotic"}
        return {"mean": mean, "mean_asymptotic": n / 2 - math.log(n) / 4,
                "variance": var_descents(n), "variance_mode": "exact",
                "variance_asymptotic": variance_asymptotic}
    if kind.tag == "inv":
        mean, variance = mean_inversions_exact(n), _INV_VAR_COEFF * n ** 3  # the mean caps n first
        return {"mean": mean, "mean_asymptotic": _INV_MEAN_COEFF * n ** 2,
                "variance": variance, "variance_mode": "asymptotic",
                "variance_asymptotic": variance,
                "mean_coeff": _INV_MEAN_COEFF, "var_coeff": _INV_VAR_COEFF}
    raise UnknownClosedForm(f"no closed-form moments for statistic {kind}")
