"""Monte Carlo estimation and CLT verification for permutation statistics.

Replica r of every run draws from stream r of the root seed (disjoint blocks
when a run needs two models), and reductions are numpy pairwise sums over the
replica-indexed value array, so any worker count produces bit-identical
results.  Empirical normality is measured against the standard normal with a
Kolmogorov-Smirnov distance and an order-statistic Wasserstein-1 distance;
both carry an MC noise floor of order reps^(-1/2) that the acceptance tests
document.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import ndtr, ndtri

from . import exact
from .models import ModelKind, ModelSpec, sample_permutation_matrix, sample_score_matrix
from .stats import StatisticKind, evaluate_batch

__all__ = [
    "BudgetExceeded",
    "UnknownClosedForm",
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


class BudgetExceeded(ValueError):
    """n * reps exceeds the configured sampling budget."""


class UnknownClosedForm(ValueError):
    """No centering/scale formula for the requested (statistic, mode)."""


class Centering(str, Enum):
    """How standardized samples are centered.

    EXACT_MEAN uses the exact finite-n mean; CLOSED_FORM is its alias for
    statistics whose exact mean is a closed form (descents); ASYMPTOTIC uses
    the leading-order formula only.
    """

    EXACT_MEAN = "exact"
    CLOSED_FORM = "closed"
    ASYMPTOTIC = "asymptotic"


def _check_budget(n: int, reps: int, max_budget: int) -> None:
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be >= 1")
    if n * reps > max_budget:
        raise BudgetExceeded(f"n*reps = {n * reps} exceeds budget {max_budget}")


def _comparison_matrix(
    spec: ModelSpec, n: int, reps: int, seed: int, first_stream: int, workers: int
):
    """A (reps, n) matrix whose row comparisons realize the model's
    permutation, plus the assume_ranks flag for the statistics kernels."""
    if spec.kind is ModelKind.UNFAIR:
        return (
            sample_permutation_matrix(spec, n, reps, seed, first_stream, workers),
            True,
        )
    return sample_score_matrix(spec, n, reps, seed, first_stream, workers), False


@dataclass(frozen=True)
class EstimateReport:
    kind: StatisticKind
    model: ModelKind
    n: int
    reps: int
    seed: int
    mean: float
    variance: float
    se_mean: float
    wall_time: float = field(compare=False)


def estimate(
    kind: StatisticKind,
    spec: ModelSpec,
    n: int,
    reps: int,
    seed: int,
    workers: int = 1,
    max_budget: int = DEFAULT_MAX_BUDGET,
) -> EstimateReport:
    """Sample mean and variance of a statistic over independent replicas."""
    _check_budget(n, reps, max_budget)
    t0 = time.perf_counter()
    mat, as_ranks = _comparison_matrix(spec, n, reps, seed, 0, workers)
    values = evaluate_batch(kind, mat, assume_ranks=as_ranks).astype(float)
    mean = float(np.mean(values))
    variance = float(np.var(values, ddof=1)) if reps > 1 else 0.0
    return EstimateReport(
        kind=kind,
        model=spec.kind,
        n=n,
        reps=reps,
        seed=seed,
        mean=mean,
        variance=variance,
        se_mean=math.sqrt(variance / reps) if reps > 1 else float("nan"),
        wall_time=time.perf_counter() - t0,
    )


def _center_and_scale(kind: StatisticKind, n: int, centering: Centering) -> tuple[float, float]:
    if kind.tag == "inv":
        scale = math.sqrt(exact.inversion_constants().var_coeff * n ** 3)
        if centering in (Centering.EXACT_MEAN, Centering.CLOSED_FORM):
            return exact.mean_inversions_exact(n), scale
        return exact.inversion_constants().mean_coeff * n ** 2, scale
    if kind.tag == "desc":
        m = kind.m
        if m == 1:
            scale = math.sqrt(exact.var_descents(n))
        else:
            scale = math.sqrt(exact.asymptotic_var_m_descents(n, m))
        if centering in (Centering.EXACT_MEAN, Centering.CLOSED_FORM):
            return exact.mean_m_descents(n, m), scale
        if m == 1:
            return exact.asymptotic_mean_descents(n), scale
        raise UnknownClosedForm(f"no asymptotic mean pinned for desc:{m}")
    raise UnknownClosedForm(f"no closed form for statistic {kind} with mode {centering.value}")


@dataclass(frozen=True)
class StandardizedSample:
    kind: StatisticKind
    model: ModelKind
    n: int
    reps: int
    seed: int
    centering: Centering
    center: float
    scale: float
    values: np.ndarray = field(compare=False, repr=False)
    wall_time: float = field(compare=False)

    @property
    def sample_mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def sample_variance(self) -> float:
        return float(np.var(self.values, ddof=1)) if self.reps > 1 else 0.0

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
    max_budget: int = DEFAULT_MAX_BUDGET,
) -> StandardizedSample:
    """Replica statistic values mapped through (T - center) / scale.

    Centers and scales come from the inverse-unfair closed forms (inversions
    share their law between the unfair and inverse-unfair models; descent
    formulas are for the rank sequence).
    """
    centering = Centering(centering)
    _check_budget(n, reps, max_budget)
    center, scale = _center_and_scale(kind, n, centering)
    if scale == 0.0:
        raise UnknownClosedForm(f"degenerate scale for {kind} at n={n}")
    t0 = time.perf_counter()
    mat, as_ranks = _comparison_matrix(spec, n, reps, seed, 0, workers)
    raw = evaluate_batch(kind, mat, assume_ranks=as_ranks).astype(float)
    values = (raw - center) / scale
    values.flags.writeable = False
    return StandardizedSample(
        kind=kind,
        model=spec.kind,
        n=n,
        reps=reps,
        seed=seed,
        centering=centering,
        center=center,
        scale=scale,
        values=values,
        wall_time=time.perf_counter() - t0,
    )


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
    kind: StatisticKind
    n: int
    reps: int
    seed: int
    k: int
    ratio: float
    se: float
    model_moment: float
    uniform_moment: float
    wall_time: float = field(compare=False)


def moment_ratio_mc(
    kind: StatisticKind,
    n: int,
    reps: int,
    seed: int,
    k: int = 1,
    workers: int = 1,
    max_budget: int = DEFAULT_MAX_BUDGET,
) -> MomentRatioReport:
    """MC estimate of E[T(rho_n)^k] / E[T(pi_n)^k] with paired budgets.

    The two models use disjoint stream blocks of the same root seed (rank
    model: streams 0..reps-1, uniform: reps..2reps-1) and reps draws each; the
    standard error is the independent-ratio delta method.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_budget(n, 2 * reps, max_budget)
    t0 = time.perf_counter()
    rho_mat, rho_ranks = _comparison_matrix(ModelSpec.inverse_unfair(), n, reps, seed, 0, workers)
    uni_mat, uni_ranks = _comparison_matrix(ModelSpec.uniform(), n, reps, seed, reps, workers)
    a = evaluate_batch(kind, rho_mat, assume_ranks=rho_ranks).astype(float) ** k
    b = evaluate_batch(kind, uni_mat, assume_ranks=uni_ranks).astype(float) ** k
    mean_a, mean_b = float(np.mean(a)), float(np.mean(b))
    if mean_b == 0.0:
        raise ValueError("uniform moment is zero; ratio undefined")
    var_a = float(np.var(a, ddof=1)) / reps if reps > 1 else 0.0
    var_b = float(np.var(b, ddof=1)) / reps if reps > 1 else 0.0
    ratio = mean_a / mean_b
    se = math.sqrt(var_a / mean_b ** 2 + (mean_a ** 2 / mean_b ** 4) * var_b)
    return MomentRatioReport(
        kind=kind,
        n=n,
        reps=reps,
        seed=seed,
        k=k,
        ratio=ratio,
        se=se,
        model_moment=mean_a,
        uniform_moment=mean_b,
        wall_time=time.perf_counter() - t0,
    )
