"""Size-biased coupling for the inversion count of the rank sequence.

W = sum over pairs i < j of 1(S_i > S_j) counts inversions of the best-of-i
log-score model (``models``: S_i = ln(U_i)/i).  A size-biased version W^s
picks a pair (i, j) with probability proportional to P(S_i > S_j) = i/(i+j),
forces that pair into inverted order (keeping the scores when they already
are, else redrawing the two scores from their conditional law in closed
form), and recounts.  The coupling satisfies
E[W f(W)] = E[W] E[f(W^s)] and |W^s - W| <= 2n, which feeds a Wasserstein
bound of order n^(-1/2) on the normalized W via Stein's method:

    d_W((W - mu)/sigma, N(0,1))
        <= (mu/sigma^2) sqrt(2/pi) sqrt(Var E[W^s - W | W])
         + (mu/sigma^3) E[(W^s - W)^2].

Streams: outer replica r reads stream r, as in every models batch
(``models.sample_score_matrix`` of the inverse-unfair model), and completion
c of that replica reads (stream r, substream 1 + c), so runs are reproducible
for any worker count.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .models import ModelSpec, ScoreVector, _log_scores, sample_score_matrix, sample_scores
from .rng import make_generator
from .stats import inversions_batch

__all__ = [
    "InsufficientReplicas",
    "IndexDistribution",
    "index_distribution",
    "resample_conditional_pair",
    "CouplingDraw",
    "couple",
    "couple_batch",
    "IdentityCheckReport",
    "verify_size_bias_identity",
    "estimate_var_conditional",
    "SteinBoundReport",
    "stein_bound",
]

_SCORES = ModelSpec.inverse_unfair()


class InsufficientReplicas(ValueError):
    """The replicate layout cannot support the requested estimator."""


@dataclass(frozen=True)
class IndexDistribution:
    """The size-bias index law: P(I = (i,j)) proportional to i/(i+j), i < j."""

    n: int

    def draw_pair1(self, rng: np.random.Generator) -> tuple[int, int]:
        """One index pair by rejection, 3 uniforms per try.

        Two uniform indices a, b in 1..n are redrawn while equal; the sorted
        pair (i, j) is then kept when u (i+j) < 2i.  An unordered pair comes
        up with probability 2/n^2 per try, so the kept pair has probability
        proportional to i/(i+j).  A try succeeds with probability about
        4 E[W]/n^2 -> 2(1 - ln 2) ~ 0.61.
        """
        n = self.n
        while True:
            u1, u2, u3 = rng.random(3)
            a, b = int(u1 * n) + 1, int(u2 * n) + 1
            if a == b:
                continue
            i, j = (a, b) if a < b else (b, a)
            if u3 * (i + j) < 2 * i:
                return i, j


def index_distribution(n: int) -> IndexDistribution:
    if n < 2:
        raise ValueError("need n >= 2 for at least one pair")
    return IndexDistribution(n)


def resample_conditional_pair(
    i: int, j: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Log-scores (S_i, S_j) given S_i > S_j, from 2 uniforms.

    With X = -S, X_i ~ Exp(i) and X_j ~ Exp(j); given X_i < X_j, X_i is
    Exp(i + j) and X_j - X_i is Exp(j), independent of it.  So the models
    log-score transform with draw counts (i + j, j) gives S_i and the gap
    S_j - S_i.  Where the sum rounds back to S_i, S_j is the next float
    below; only S_i = -inf (probability 2^-53) leaves the two equal.
    """
    if i < 1 or j < 1 or i == j:
        raise ValueError(f"need distinct indices >= 1, got ({i}, {j})")
    s_i, gap = _log_scores(rng.random(2), (i + j, j)).tolist()
    return s_i, min(s_i + gap, math.nextafter(s_i, -math.inf))


@dataclass(frozen=True)
class CouplingDraw:
    """One coupled draw: ``scores`` is the original log-score vector (w = its
    inversion count), ``scores_s`` the post-coupling vector (w_s = its
    inversion count; the two coincide when the chosen pair was already
    inverted)."""

    n: int
    scores: ScoreVector
    w: int
    i: int
    j: int
    w_s: int
    resampled: bool
    scores_s: ScoreVector


def _complete(
    z: np.ndarray,
    w: np.ndarray,
    idx: IndexDistribution,
    gens: Iterable[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One completion of every row of ``z``, row r drawing from the r-th of
    ``gens``: (i, j, w_s, resampled, z_s).

    Each row draws an index pair and, when the pair is in order, resamples
    its two scores conditionally; the resampled rows are then recounted.
    """
    reps = z.shape[0]
    pairs = np.empty((reps, 2), dtype=np.int64)
    resampled = np.zeros(reps, dtype=bool)
    z_s = z.copy()
    for r, gen in enumerate(gens):
        i, j = idx.draw_pair1(gen)
        pairs[r] = i, j
        if z[r, i - 1] <= z[r, j - 1]:
            resampled[r] = True
            z_s[r, i - 1], z_s[r, j - 1] = resample_conditional_pair(i, j, gen)
    w_s = w.copy()
    if np.any(resampled):
        w_s[resampled] = inversions_batch(z_s[resampled])
    return pairs[:, 0], pairs[:, 1], w_s, resampled, z_s


def _completion_streams(seed: int, first_stream: int, reps: int, completion: int):
    return (
        make_generator(seed, first_stream + r, substream=1 + completion)
        for r in range(reps)
    )


def couple(n: int, rng: np.random.Generator) -> CouplingDraw:
    """One coupled draw (W, W^s) from a single generator: a batch of one.

    Draw order: n score uniforms, then 3 uniforms per index try, then
    2 uniforms if the chosen pair needs resampling.
    """
    idx = index_distribution(n)
    sv = sample_scores(_SCORES, n, rng)
    z = sv.values[None, :]
    w = inversions_batch(z)
    i, j, w_s, resampled, z_s = _complete(z, w, idx, [rng])
    sv_s = ScoreVector(z_s[0]) if resampled[0] else sv
    return CouplingDraw(n, sv, int(w[0]), int(i[0]), int(j[0]), int(w_s[0]),
                        bool(resampled[0]), sv_s)


def couple_batch(
    n: int, reps: int, seed: int, first_stream: int = 0
) -> dict[str, np.ndarray]:
    """Vectorized coupled draws; replica r uses stream first_stream + r.

    Returns arrays ``w``, ``w_s``, ``i``, ``j``, ``resampled``.
    """
    if n < 2 or reps < 1:
        raise ValueError("need n >= 2 and reps >= 1")
    idx = index_distribution(n)
    z = sample_score_matrix(_SCORES, n, reps, seed, first_stream)
    w = inversions_batch(z)
    i_arr, j_arr, w_s, resampled, _ = _complete(
        z, w, idx, _completion_streams(seed, first_stream, reps, 0)
    )
    return {"w": w, "w_s": w_s, "i": i_arr, "j": j_arr, "resampled": resampled}


def _parse_f(f: str):
    if f == "identity":
        return (lambda x: np.asarray(x, dtype=float)), "identity"
    if f == "square":
        return (lambda x: np.asarray(x, dtype=float) ** 2), "square"
    if f.startswith("indicator:"):
        t = float(f.partition(":")[2])
        return (lambda x: (np.asarray(x, dtype=float) >= t).astype(float)), f
    raise ValueError(f"unknown test function {f!r}; use identity, square or indicator:t")


@dataclass(frozen=True)
class IdentityCheckReport:
    n: int
    reps: int
    seed: int
    f_name: str
    lhs: float  # E[W f(W)] from independent draws
    rhs: float  # E[W] E[f(W^s)] from coupled draws
    pooled_se: float
    wall_time: float = field(compare=False)

    @property
    def gap_in_se(self) -> float:
        return abs(self.lhs - self.rhs) / self.pooled_se if self.pooled_se > 0 else math.inf


def verify_size_bias_identity(
    n: int, f: str, reps: int, seed: int
) -> IdentityCheckReport:
    """Check E[W f(W)] = E[W] E[f(W^s)] by MC on both sides.

    The left side uses independent score draws (streams reps..2reps-1); the
    right side uses coupled draws (streams 0..reps-1); the pooled standard
    error combines the left sample with a delta-method error for the product
    of the two coupled means (their covariance included).
    """
    if reps < 2:
        raise InsufficientReplicas("need reps >= 2")
    func, name = _parse_f(f)
    t0 = time.perf_counter()
    draws = couple_batch(n, reps, seed, first_stream=0)
    w_ind = inversions_batch(sample_score_matrix(_SCORES, n, reps, seed, first_stream=reps))
    a = w_ind.astype(float) * func(w_ind)
    lhs = float(np.mean(a))
    se_lhs_sq = float(np.var(a, ddof=1)) / reps
    wc = draws["w"].astype(float)
    fc = func(draws["w_s"])
    mean_w, mean_f = float(np.mean(wc)), float(np.mean(fc))
    cov = np.cov(wc, fc, ddof=1)  # 2x2
    var_prod = (
        mean_f ** 2 * cov[0, 0] + mean_w ** 2 * cov[1, 1] + 2 * mean_w * mean_f * cov[0, 1]
    ) / reps
    rhs = mean_w * mean_f
    pooled = math.sqrt(max(se_lhs_sq + var_prod, 0.0))
    return IdentityCheckReport(
        n=n,
        reps=reps,
        seed=seed,
        f_name=name,
        lhs=lhs,
        rhs=rhs,
        pooled_se=pooled,
        wall_time=time.perf_counter() - t0,
    )


def _differences(
    n: int, outer_reps: int, inner_pairs: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(w, D): D[r, c] = W^s - W of completion c of outer draw r."""
    if outer_reps < 2:
        raise InsufficientReplicas("need outer_reps >= 2 (a single outer draw "
                                   "cannot see between-draw variance)")
    if inner_pairs < 2:
        raise InsufficientReplicas("need inner_pairs >= 2 independent completions")
    idx = index_distribution(n)
    z = sample_score_matrix(_SCORES, n, outer_reps, seed)
    w = inversions_batch(z)
    d = np.empty((outer_reps, inner_pairs), dtype=float)
    for c in range(inner_pairs):
        _, _, w_s, _, _ = _complete(z, w, idx, _completion_streams(seed, 0, outer_reps, c))
        d[:, c] = w_s - w
    return w, d


def _var_cond(d: np.ndarray, n: int) -> tuple[float, float]:
    """(raw, clamped) paired-replicate estimate of Var(E[D | S]) from D.

    Per outer score draw, the columns of D are independent completions
    sharing the same S; products over distinct completions estimate
    (E[D|S])^2 unbiasedly, and subtracting the squared grand mean leaves the
    variance of the conditional expectation.  A negative raw estimate
    (undersampling noise) clamps to 0 with a warning.
    """
    c = d.shape[1]
    row_sum = d.sum(axis=1)
    row_sq = (d ** 2).sum(axis=1)
    pair_products = (row_sum ** 2 - row_sq) / (c * (c - 1))
    raw = float(np.mean(pair_products)) - float(np.mean(d)) ** 2
    if raw < 0.0:
        warnings.warn(
            f"conditional-variance estimate {raw:.3g} < 0 at n={n}; clamping to 0 "
            "(increase outer_reps/inner_pairs)"
        )
    return raw, max(raw, 0.0)


def estimate_var_conditional(
    n: int, outer_reps: int, inner_pairs: int, seed: int
) -> float:
    """Paired-replicate estimate of Var(E[W^s - W | S]), clamped at 0.

    ``inner_pairs`` independent completions per outer score draw; the same
    draws and estimate as ``stein_bound(...).var_cond``.
    """
    return _var_cond(_differences(n, outer_reps, inner_pairs, seed)[1], n)[1]


@dataclass(frozen=True)
class SteinBoundReport:
    n: int
    outer_reps: int
    inner_pairs: int
    seed: int
    mu: float
    sigma2: float
    var_cond: float  # clamped at 0; the value the bound uses
    var_cond_raw: float  # the unclamped estimate
    clamped: bool  # var_cond_raw < 0
    second_moment: float  # E[(W^s - W)^2]
    bound: float
    wall_time: float = field(compare=False)


def stein_bound(
    n: int, outer_reps: int, inner_pairs: int, seed: int
) -> SteinBoundReport:
    """MC assembly of the Wasserstein bound for the normalized inversion count.

    bound = (mu/sigma^2) sqrt(2/pi) sqrt(Var E[W^s - W | S])
          + (mu/sigma^3) E[(W^s - W)^2],

    every ingredient estimated from the coupled draws (the conditional
    variance given S upper-bounds the one given W, so the bound is
    conservative up to MC noise).
    """
    t0 = time.perf_counter()
    w, d = _differences(n, outer_reps, inner_pairs, seed)
    mu = float(np.mean(w))
    sigma2 = float(np.var(w.astype(float), ddof=1))
    if sigma2 <= 0.0:
        raise InsufficientReplicas("degenerate variance estimate; increase outer_reps")
    var_cond_raw, var_cond = _var_cond(d, n)
    second = float(np.mean(d ** 2))
    bound = (mu / sigma2) * math.sqrt(2.0 / math.pi) * math.sqrt(var_cond) + (
        mu / sigma2 ** 1.5
    ) * second
    return SteinBoundReport(
        n=n,
        outer_reps=outer_reps,
        inner_pairs=inner_pairs,
        seed=seed,
        mu=mu,
        sigma2=sigma2,
        var_cond=var_cond,
        var_cond_raw=var_cond_raw,
        clamped=var_cond_raw < 0.0,
        second_moment=second,
        bound=bound,
        wall_time=time.perf_counter() - t0,
    )
