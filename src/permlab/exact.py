"""Exact laws and closed-form moments for the best-of-i ranking models.

Write rho for the rank sequence (inverse-unfair law) and gamma = rho^{-1} for
the finishing order (unfair law).  The building blocks:

* P(rho(i) < rho(j)) = j / (i + j),
* P(rho(i1) < ... < rho(ik)) = prod_l  i_l / (i_1 + ... + i_l),
* P(gamma = a) = n! / prod_i (a_1 + ... + a_i),

from which identity/reversal probabilities, full enumeration on small n,
total-variation distances and the descent/inversion moment formulas follow.
Probabilities use double precision (log-space products past n = 30); pass
``exact=True`` for Fraction arithmetic.
"""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .perm import Permutation, all_permutations, as_entries, inverse_entries
from .models import ModelKind
from . import stats as _stats

__all__ = [
    "EnumerationLimit",
    "enumeration_limit",
    "ExactDistribution",
    "prob_pair_less",
    "prob_ordered_tuple",
    "pmf_inverse_unfair",
    "pmf_unfair",
    "pmf",
    "prob_identity",
    "prob_reversal",
    "enumerate_law",
    "statistic_law",
    "tv_distance",
    "tv_model_vs_uniform",
    "tv_event_lower_bound",
    "argmax_argmin_pmf",
    "mean_m_descents",
    "var_descents",
    "cov_adjacent_descents",
    "asymptotic_mean_descents",
    "asymptotic_var_m_descents",
    "mean_inversions_exact",
    "inversion_constants",
    "moment_ratio_descents",
]

_DEFAULT_ENUM_LIMIT = 8
_HARD_ENUM_LIMIT = 10
_LOG_SPACE_CUTOFF = 30


class EnumerationLimit(ValueError):
    """Requested n exceeds the exhaustive-enumeration cap."""


def enumeration_limit() -> int:
    """Enumeration cap: default 8, PERMLAB_ENUM_LIMIT overrides, hard max 10."""
    raw = os.environ.get("PERMLAB_ENUM_LIMIT")
    if raw is None:
        return _DEFAULT_ENUM_LIMIT
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(f"ignoring non-integer PERMLAB_ENUM_LIMIT={raw!r}")
        return _DEFAULT_ENUM_LIMIT
    return max(1, min(value, _HARD_ENUM_LIMIT))


# ---------------------------------------------------------------------------
# closed-form probabilities

def prob_pair_less(i: int, j: int, exact: bool = False):
    """P(rho(i) < rho(j)) = j / (i + j) for distinct player indices."""
    if i < 1 or j < 1 or i == j:
        raise ValueError(f"need distinct indices >= 1, got ({i}, {j})")
    if exact:
        return Fraction(j, i + j)
    return j / (i + j)


def prob_ordered_tuple(indices: Sequence[int], exact: bool = False):
    """P(rho(i1) < rho(i2) < ... < rho(ik)) for distinct player indices.

    Equals prod_l i_l / (i_1 + ... + i_l); computed in log-space past
    30 indices so deep products degrade to 0.0 gracefully instead of
    underflowing mid-way.
    """
    idx = [int(i) for i in indices]
    if len(idx) == 0:
        raise ValueError("need at least one index")
    if any(i < 1 for i in idx) or len(set(idx)) != len(idx):
        raise ValueError(f"indices must be distinct and >= 1: {idx}")
    if exact:
        p = Fraction(1)
        s = 0
        for i in idx:
            s += i
            p *= Fraction(i, s)
        return p
    if len(idx) <= _LOG_SPACE_CUTOFF:
        p = 1.0
        s = 0
        for i in idx:
            s += i
            p *= i / s
        return p
    partial = np.cumsum(np.asarray(idx, dtype=float))
    return math.exp(math.fsum(np.log(np.asarray(idx, dtype=float)) - np.log(partial)))


def pmf_inverse_unfair(p, exact: bool = False):
    """P(rho_n = p): probability that the rank sequence equals ``p``."""
    entries = as_entries(p)
    return prob_ordered_tuple(inverse_entries(entries), exact=exact)


def pmf_unfair(p, exact: bool = False):
    """P(gamma_n = p) = n! / prod_i (p(1) + ... + p(i))."""
    entries = as_entries(p)
    n = len(entries)
    if sorted(entries) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {entries}")
    if exact:
        prod = Fraction(1)
        s = 0
        for a in entries:
            s += a
            prod *= s
        return Fraction(math.factorial(n)) / prod
    if n <= _LOG_SPACE_CUTOFF:
        prod = 1.0
        s = 0
        for a in entries:
            s += a
            prod *= s
        return math.factorial(n) / prod
    partial = np.cumsum(np.asarray(entries, dtype=float))
    return math.exp(math.lgamma(n + 1) - math.fsum(np.log(partial)))


def pmf(p, model: "ModelKind | str", exact: bool = False):
    """PMF of one permutation under uniform, unfair or inverse-unfair."""
    kind = ModelKind(model)
    n = len(as_entries(p))
    if kind is ModelKind.UNIFORM:
        return Fraction(1, math.factorial(n)) if exact else 1.0 / math.factorial(n)
    if kind is ModelKind.UNFAIR:
        return pmf_unfair(p, exact=exact)
    if kind is ModelKind.INVERSE_UNFAIR:
        return pmf_inverse_unfair(p, exact=exact)
    raise ValueError(f"no exact pmf for model {kind.value!r}")


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
        if self.is_exact:
            return sum(self.probs, Fraction(0))
        return math.fsum(self.probs)

    @property
    def is_exact(self) -> bool:
        return bool(self.probs) and isinstance(self.probs[0], Fraction)

    def prob_of(self, outcome):
        try:
            return self.probs[self.outcomes.index(outcome)]
        except ValueError:
            return Fraction(0) if self.is_exact else 0.0

    def mean(self):
        self._need_numeric()
        if self.is_exact:
            return sum((Fraction(x) * p for x, p in zip(self.outcomes, self.probs)), Fraction(0))
        return math.fsum(x * p for x, p in zip(self.outcomes, self.probs))

    def variance(self):
        self._need_numeric()
        mu = self.mean()
        if self.is_exact:
            return sum(
                ((Fraction(x) - mu) ** 2 * p for x, p in zip(self.outcomes, self.probs)),
                Fraction(0),
            )
        return math.fsum((x - mu) ** 2 * p for x, p in zip(self.outcomes, self.probs))

    def _need_numeric(self) -> None:
        if self.domain[0] != "int":
            raise ValueError("moments need an integer-valued law")


def _check_enum(n: int) -> None:
    limit = enumeration_limit()
    if n > limit:
        raise EnumerationLimit(f"n={n} exceeds the enumeration cap {limit}")
    if n >= 9:
        warnings.warn(f"enumerating S_{n} holds {math.factorial(n)} outcomes in memory")


def enumerate_law(n: int, model: "ModelKind | str", exact: bool = False) -> ExactDistribution:
    """The full law over S_n in lexicographic order (n capped, see
    enumeration_limit)."""
    kind = ModelKind(model)
    _check_enum(n)
    outcomes = tuple(all_permutations(n))
    if kind is ModelKind.UNIFORM:
        p = Fraction(1, math.factorial(n)) if exact else 1.0 / math.factorial(n)
        probs = tuple(p for _ in outcomes)
    else:
        probs = tuple(pmf(o, kind, exact=exact) for o in outcomes)
    return ExactDistribution(outcomes, probs, ("perm", n))


def statistic_law(
    n: int, model: "ModelKind | str", kind: _stats.StatisticKind, exact: bool = False
) -> ExactDistribution:
    """Exact pushforward law of a statistic under a model, by enumeration."""
    law = enumerate_law(n, model, exact=exact)
    acc: dict[int, object] = {}
    zero = Fraction(0) if exact else 0.0
    rows = np.array([as_entries(o) for o in law.outcomes], dtype=np.int64)
    values = _stats.evaluate_batch(kind, rows, assume_ranks=True).tolist()
    for v, p in zip(values, law.probs):
        acc[v] = acc.get(v, zero) + p
    support = tuple(sorted(acc))
    return ExactDistribution(support, tuple(acc[v] for v in support), ("int",))


def tv_distance(d1: ExactDistribution, d2: ExactDistribution):
    """Total variation distance (half the L1 gap) between two finite laws."""
    if d1.domain != d2.domain:
        raise ValueError(f"mismatched outcome spaces: {d1.domain} vs {d2.domain}")
    exact = d1.is_exact and d2.is_exact
    zero = Fraction(0) if exact else 0.0
    q1 = dict(zip(d1.outcomes, d1.probs))
    q2 = dict(zip(d2.outcomes, d2.probs))
    keys = set(q1) | set(q2)
    gaps = (abs(q1.get(k, zero) - q2.get(k, zero)) for k in keys)
    if exact:
        return sum(gaps, Fraction(0)) / 2
    return math.fsum(gaps) / 2.0


def tv_model_vs_uniform(n: int, model: "ModelKind | str", exact: bool = False):
    """Exact TV(model law, uniform) on S_n by enumeration."""
    return tv_distance(
        enumerate_law(n, model, exact=exact), enumerate_law(n, ModelKind.UNIFORM, exact=exact)
    )


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
    p_rho = n / (n + big_l * (big_l + 1) / 2)
    return p_rho, p_pi, p_rho - p_pi


def argmax_argmin_pmf(n: int, model: "ModelKind | str") -> tuple[Permutation, Permutation]:
    """Most and least likely permutations under a model (exact enumeration)."""
    law = enumerate_law(n, model, exact=True)
    best = max(range(len(law.outcomes)), key=lambda k: law.probs[k])
    worst = min(range(len(law.outcomes)), key=lambda k: law.probs[k])
    return Permutation(law.outcomes[best]), Permutation(law.outcomes[worst])


# ---------------------------------------------------------------------------
# closed-form moments

def mean_m_descents(n: int, m: int) -> float:
    """E[# m-descents of rho_n] = sum over gaps k <= m of sum_i i/(2i+k).

    Equals nm/2 - m(m+1)/4 - sum_k sum_i k/(2(2i+k)) for m < n; compensated
    summation throughout.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    parts = []
    for k in range(1, min(m, n - 1) + 1):
        i = np.arange(1, n - k + 1, dtype=float)
        parts.append(math.fsum(i / (2 * i + k)))
    return math.fsum(parts)


def cov_adjacent_descents(i: int):
    """Cov(descent at i, descent at i+1) = i/(6i+9) - p_i * p_{i+1}."""
    if i < 1:
        raise ValueError("i must be >= 1")
    return i / (6 * i + 9) - (i / (2 * i + 1)) * ((i + 1) / (2 * i + 3))


def var_descents(n: int) -> float:
    """Var[# descents of rho_n], exact for the window m = 1.

    Sum of Bernoulli variances plus twice the adjacent covariances; the
    covariance sum runs to n-2 (positions i and i+1 must both be descents
    sites, so i+1 <= n-1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 0.0
    i = np.arange(1, n, dtype=float)  # 1..n-1
    bern = math.fsum(i * (i + 1) / (2 * i + 1) ** 2)
    if n == 2:
        return bern
    j = np.arange(1, n - 1, dtype=float)  # 1..n-2
    cross = math.fsum(j * (j + 2) / ((2 * j + 3) * (2 * j + 1)))
    return bern - (2.0 / 3.0) * cross


def asymptotic_mean_descents(n: int) -> float:
    """Leading asymptotics n/2 - ln(n)/4 of the m = 1 descent mean."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n / 2 - math.log(n) / 4


def asymptotic_var_m_descents(n: int, m: int) -> float:
    """Leading asymptotics (6nm + 4m^3 + 3m^2 - m)/72 of the m-descent
    variance."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    return (6 * n * m + 4 * m ** 3 + 3 * m ** 2 - m) / 72


def mean_inversions_exact(n: int) -> float:
    """E[Inv(rho_n)] = sum over pairs i < j of i/(i+j), in O(n).

    Pairs with i + j = s share a denominator; their numerators lo..hi, with
    lo = max(1, s - n) and hi = (s - 1) // 2, sum to an integer c_s.  The
    integer parts of c_s / s, their rounded fractions q and the residuals of
    q add up, compensated, to the exact mean rounded to a float.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s = np.arange(3, 2 * n, dtype=np.int64)
    lo = np.maximum(1, s - n)
    hi = (s - 1) // 2
    k, r = np.divmod((lo + hi) * (hi - lo + 1) // 2, s)
    q = r / s
    t = q * 134217729.0  # 2**27 + 1: split q into two 26-bit halves
    q_hi = t - (t - q)
    e = (r - q_hi * s) - (q - q_hi) * s  # r - q s, exact while s < 2**26
    return math.fsum(q.tolist() + [float(k.sum()), float(np.sum(e / s))])


@dataclass(frozen=True)
class InversionConstants:
    """Leading coefficients: E[Inv] ~ mean_coeff n^2, Var[Inv] ~ var_coeff n^3."""

    mean_coeff: float
    var_coeff: float


def inversion_constants() -> InversionConstants:
    ln2 = math.log(2.0)
    mean_coeff = (1.0 - ln2) / 2.0
    var_coeff = (
        1.0 / 3.0
        - math.pi ** 2 / 18.0
        + 2.0 * ln2 / 3.0
        - math.log(3.0) / 2.0
        + 2.0 * ln2 ** 2 / 3.0
    )
    return InversionConstants(mean_coeff, var_coeff)


def moment_ratio_descents(n: int) -> float:
    """Closed-form first-moment ratio E[desc(rho_n)] / E[desc(uniform)].

    The uniform mean is (n-1)/2; the ratio tends to 1, certifying that
    descents cannot separate the two laws at first order.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return mean_m_descents(n, 1) / ((n - 1) / 2.0)
