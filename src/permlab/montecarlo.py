"""Monte Carlo estimation and CLT verification for permutation statistics.

Replica r of every run draws from stream r of the root seed (disjoint blocks
when a run needs two models), and reductions are numpy pairwise sums over the
replica-indexed value array.  Replicas are sampled on the calling thread in
row chunks of at most ``_CHUNK_ELEMENTS`` scores, so a run holds one chunk of
scores plus one value per replica.  Large inversion counts use up to one
thread per CPU (``stats``); ``workers`` is checked but selects nothing.
Empirical normality is measured against the standard normal with a
Kolmogorov-Smirnov distance and an order-statistic Wasserstein-1 distance;
both carry an MC noise floor of order reps^(-1/2) that the acceptance tests
document.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import ndtr, ndtri

from . import exact
from .exact import UnknownClosedForm
from .models import (ModelKind, ModelSpec, _fixed_counts, sample_permutation_matrix,
                     sample_score_matrix)
from .stats import StatisticKind, evaluate_batch

__all__ = [
    "BudgetExceeded",
    "Centering",
    "EstimateReport",
    "StandardizedSample",
    "MomentRatioReport",
    "estimate",
    "standardized_sample",
    "ks_to_normal",
    "wasserstein1_to_normal",
    "moment_ratio_mc",
]

DEFAULT_MAX_BUDGET = 500_000_000
# Scores sampled and evaluated at once, bounding a run's memory.
_CHUNK_ELEMENTS = 8_000_000


class BudgetExceeded(ValueError):
    """n times the rows drawn exceeds the configured sampling budget."""


class Centering(str, Enum):
    """How standardized samples are centered.

    EXACT_MEAN uses the exact finite-n mean; ASYMPTOTIC uses the
    leading-order formula only.
    """

    EXACT_MEAN = "exact"
    ASYMPTOTIC = "asymptotic"


def _check_budget(n: int, rows: int) -> None:
    """Refuse drawing ``rows`` rows of n entries past the budget."""
    if n < 1 or rows < 1:
        raise ValueError("n and reps must be >= 1")
    if n * rows > DEFAULT_MAX_BUDGET:
        raise BudgetExceeded(f"{rows} rows of n = {n}: {n * rows} entries exceed budget "
                             f"{DEFAULT_MAX_BUDGET}")


def _values(kind: StatisticKind, spec: ModelSpec, n: int, reps: int, seed: int,
            first_stream: int, workers: int) -> np.ndarray:
    """Statistic values (float) of replicas from streams first_stream + r:
    sample a chunk of at most ``_CHUNK_ELEMENTS`` scores, then evaluate it.
    Score rows compare as their rank sequences do; unfair rows are one-line
    permutations unless the statistic counts every pair (equal on g^-1).
    """
    ranks = spec.kind is ModelKind.UNFAIR and not kind.counts_every_pair(n)
    sample = sample_permutation_matrix if ranks else sample_score_matrix
    values = np.empty(reps)
    step = max(1, _CHUNK_ELEMENTS // n)
    for lo in range(0, reps, step):
        mat = sample(spec, n, min(step, reps - lo), seed, first_stream + lo, workers)
        values[lo:lo + len(mat)] = evaluate_batch(kind, mat)
    return values


@dataclass(frozen=True)
class EstimateReport:
    mean: float
    variance: float
    se_mean: float


def estimate(
    kind: StatisticKind,
    spec: ModelSpec,
    n: int,
    reps: int,
    seed: int,
    workers: int = 1,
) -> EstimateReport:
    """Sample mean and variance of a statistic over independent replicas."""
    _check_budget(n, reps)
    values = _values(kind, spec, n, reps, seed, 0, workers)
    variance = float(np.var(values, ddof=1)) if reps > 1 else math.nan  # one value has none
    return EstimateReport(mean=float(np.mean(values)), variance=variance,
                          se_mean=math.sqrt(variance / reps))


def _center_and_scale(kind: StatisticKind, n: int, centering: Centering) -> tuple[float, float]:
    """Center ``mean`` (``mean_asymptotic`` under ASYMPTOTIC) and scale
    sqrt(``variance``) from ``exact.closed_form_moments``."""
    moments = exact.closed_form_moments(kind, n)
    key = "mean_asymptotic" if centering is Centering.ASYMPTOTIC else "mean"
    if key not in moments:
        raise UnknownClosedForm(f"no asymptotic mean pinned for {kind}")
    return moments[key], math.sqrt(moments["variance"])


@dataclass(frozen=True)
class StandardizedSample:
    center: float
    scale: float
    values: np.ndarray = field(compare=False, repr=False)

    @property
    def sample_mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def sample_variance(self) -> float:
        return float(np.var(self.values, ddof=1)) if self.values.size > 1 else math.nan

    def raw_mean(self) -> float:
        return self.sample_mean * self.scale + self.center

    def raw_variance(self) -> float:
        return self.sample_variance * self.scale ** 2


def standardized_sample(
    kind: StatisticKind,
    spec: ModelSpec,
    n: int,
    reps: int,
    seed: int,
    centering: "Centering | str" = Centering.EXACT_MEAN,
    workers: int = 1,
) -> StandardizedSample:
    """Replica statistic values mapped through (T - center) / scale.

    Centers and scales are the inverse-unfair closed forms, so the models they
    describe are the only ones taken: inverse-unfair, phi with phi(i) = i on
    1..n, and unfair for inversion counts (Inv(g) = Inv(g^-1)).  Any other
    model raises UnknownClosedForm.
    """
    centering = Centering(centering)
    _check_budget(n, reps)
    center, scale = _center_and_scale(kind, n, centering)
    if not (spec.kind is ModelKind.INVERSE_UNFAIR
            or spec.kind is ModelKind.UNFAIR and kind.counts_every_pair(n)
            or spec.kind is ModelKind.PHI
            and np.array_equal(_fixed_counts(spec, n), np.arange(1, n + 1))):
        raise UnknownClosedForm(f"no closed-form moments for {kind} under {spec.kind.value}")
    if scale == 0.0 or n == 1:  # S_1 holds one permutation: every statistic is constant
        raise UnknownClosedForm(f"degenerate scale for {kind} at n={n}")
    values = (_values(kind, spec, n, reps, seed, 0, workers) - center) / scale
    values.flags.writeable = False
    return StandardizedSample(center=center, scale=scale, values=values)


def ks_to_normal(values: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance to the standard normal."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("need at least one value")
    cdf = ndtr(x)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def wasserstein1_to_normal(values: np.ndarray) -> float:
    """Mean absolute gap between order statistics and the normal quantiles
    at (k - 1/2)/N; an O(1/N) approximation of the W1 transport distance."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("need at least one value")
    q = ndtri((np.arange(1, n + 1) - 0.5) / n)
    return float(np.mean(np.abs(x - q)))


@dataclass(frozen=True)
class MomentRatioReport:
    ratio: float
    se: float
    model_moment: float
    uniform_moment: float


def moment_ratio_mc(
    kind: StatisticKind,
    n: int,
    reps: int,
    seed: int,
    k: int = 1,
    workers: int = 1,
) -> MomentRatioReport:
    """MC estimate of E[T(rho_n)^k] / E[T(pi_n)^k] with paired budgets.

    The two models use disjoint stream blocks of the same root seed (rank
    model: streams 0..reps-1, uniform: reps..2reps-1) and reps draws each; the
    standard error is the independent-ratio delta method, so reps must be at
    least 2.  Raises ValueError where a k-th power, a moment, a variance or
    the standard error is not a finite float64.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    overflow = f"moments of order k = {k} overflow float64; ratio undefined"
    if k > sys.float_info.max:  # numpy takes the power's order as a float64
        raise ValueError(overflow)
    _check_budget(n, 2 * reps)
    if reps < 2:
        raise ValueError("ratio needs reps >= 2: one value has no sample variance")
    a = _values(kind, ModelSpec.inverse_unfair(), n, reps, seed, 0, workers)
    b = _values(kind, ModelSpec.uniform(), n, reps, seed, reps, workers)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        a, b = a ** k, b ** k
        mean_a, mean_b = float(np.mean(a)), float(np.mean(b))
        var_a, var_b = float(np.var(a, ddof=1)) / reps, float(np.var(b, ddof=1)) / reps
    if mean_b == 0.0:
        raise ValueError("uniform moment is zero; ratio undefined")
    ratio = mean_a / mean_b
    try:
        se = math.sqrt(var_a / mean_b ** 2 + (mean_a ** 2 / mean_b ** 4) * var_b)
    except OverflowError:
        se = math.inf
    if not all(map(math.isfinite, (mean_a, mean_b, var_a, var_b, se))):
        raise ValueError(overflow)
    return MomentRatioReport(ratio=ratio, se=se, model_moment=mean_a, uniform_moment=mean_b)
