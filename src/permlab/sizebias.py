"""Size-biased coupling for the inversion count of the rank sequence.

W = sum over pairs i < j of 1(S_i > S_j) counts inversions of the best-of-i
log-score model (``models``: S_i = ln(U_i)/i).  A size-biased version W^s
picks a pair (i, j) with probability proportional to P(S_i > S_j) = i/(i+j),
forces that pair into inverted order (keeping the scores when they already
are, else redrawing the two scores from their conditional law in closed
form), and recounts.  The recount is O(n) per resampled row: a moved score
changes its relation only to the entries whose scores lie between its old
and new value (``_pair_change``).  The coupling satisfies
E[W f(W)] = E[W] E[f(W^s)] and |W^s - W| <= 2n, which feeds a Wasserstein
bound of order n^(-1/2) on the normalized W via Stein's method:

    d_W((W - mu)/sigma, N(0,1))
        <= (mu/sigma^2) sqrt(2/pi) sqrt(Var E[W^s - W | W])
         + (mu/sigma^3) E[(W^s - W)^2].

Streams: outer replica r reads stream r, as in every models batch
(``models.sample_score_matrix`` of the inverse-unfair model), and completion
c of that replica reads 4 uniforms from (stream r, substream 1 + c), all
rows of the completion in the stream blocks of ``models``: 2 for the index
pair, then 2 for the conditional pair, used or not.  Everything runs on the
calling thread but large inversion counts (up to one thread per CPU, ``stats``).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exact import _pair_sums
from .models import ModelSpec, ScoreVector, _log_scores, _stream_blocks
from .models import sample_score_matrix, sample_scores
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
    """The size-bias index law: P(I = (i,j)) proportional to i/(i+j), i < j.

    ``table`` is ``exact._pair_sums(n, n)``: the pairs with i + j = s have
    i = lo..hi, summing to c_s, for s = 3..2n-1.  ``cum`` holds the running
    weights c_s/s and ends at E[W].  Without rejection, u1 picks s from
    ``cum`` and u2 the smallest i with i(i + 1) > (lo - 1) lo + 2 u2 c_s.
    """

    n: int
    table: tuple = field(init=False, repr=False, compare=False)
    cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s, _, _, c = table = _pair_sums(self.n, self.n)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "cum", np.cumsum(c / s))

    def draw_pairs(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs (i, j) from uniforms u[..., 0] and u[..., 1]."""
        k = np.searchsorted(self.cum, u[..., 0] * self.cum[-1], side="right")
        s, lo, hi, c = (a[np.minimum(k, self.cum.size - 1)] for a in self.table)
        q = (lo - 1) * lo + u[..., 1] * (2 * c)
        i = np.floor(np.sqrt(q + 0.25) + 0.5).astype(np.int64)  # root of i(i + 1) = q
        i = np.clip(i - ((i - 1) * i > q) + (i * (i + 1) <= q), lo, hi)
        return i, s - i

    def draw_pair1(self, rng: np.random.Generator) -> tuple[int, int]:
        """One index pair from 2 uniforms of rng: a batch of one."""
        i, j = self.draw_pairs(rng.random(2))
        return int(i), int(j)


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
    return tuple(_inverted_pair(rng.random(2), i, j).tolist())


def _inverted_pair(u: np.ndarray, i, j) -> np.ndarray:
    """``resample_conditional_pair`` on arrays: (S_i, S_j) in the last axis
    of the uniforms u, in place on u."""
    s = _log_scores(u, np.stack((i + j, j), axis=-1))
    np.minimum(s[..., 0] + s[..., 1], np.nextafter(s[..., 0], -np.inf), out=s[..., 1])
    return s


@dataclass(frozen=True)
class CouplingDraw:
    """One coupled draw: ``scores`` is the original log-score vector (w = its
    inversion count), ``scores_s`` the post-coupling vector (w_s = its
    inversion count; the two coincide when the chosen pair was already
    inverted)."""

    scores: ScoreVector
    w: int
    i: int
    j: int
    w_s: int
    resampled: bool
    scores_s: ScoreVector


_RECOUNT_ELEMENTS = 1 << 20  # score elements compared per recount pass


def _complete(z: np.ndarray, w: np.ndarray, idx: IndexDistribution, u: np.ndarray):
    """One completion of every row of ``z`` from its 4 uniforms ``u[r]``:
    (i, j, w_s, resampled, pair_s), ``pair_s`` the new scores at (i, j).

    Where the pair drawn from u1, u2 is in order, u3 and u4 redraw its scores
    and only the resampled rows are read past the pair, for the recount."""
    i, j = idx.draw_pairs(u)
    pair = np.take_along_axis(z, np.stack((i, j), axis=1) - 1, axis=1)
    resampled = pair[:, 0] <= pair[:, 1]
    pair_s = np.where(resampled[:, None], _inverted_pair(u[:, 2:].copy(), i, j), pair)
    w_s = w.copy()
    hit = np.flatnonzero(resampled)
    step = max(1, _RECOUNT_ELEMENTS // z.shape[1])
    for lo in range(0, hit.size, step):
        r = hit[lo:lo + step]
        w_s[r] += _pair_change(z[r], i[r] - 1, j[r] - 1, pair[r], pair_s[r])
    return i, j, w_s, resampled, pair_s


def _pair_change(z, a, b, old, new) -> np.ndarray:
    """Change in the inversion count of each row of ``z`` when its scores at
    columns a < b go from ``old`` to ``new``, in O(n).

    When position k moves from o to v, only entries with values between
    lo = min(o, v) and hi = max(o, v) change their relation to k: each entry
    after k on [lo, hi) gains sign(v - o), each entry before k on (lo, hi]
    loses it.  The half-open ends count ties with o or v (-inf included)
    exactly.  Both positions of the pair are left out of the masks, and the
    pair (a, b) is counted once."""
    n = z.shape[1]
    col = np.arange(n, dtype=np.min_scalar_type(n))  # the mask compares 3x faster than int64
    rows = np.arange(len(z))
    # mask @ ones counts exactly in float32: n <= 10^6 < 2^24, as every caller
    # builds index_distribution(n) first, whose _pair_sums refuses larger n
    ones = np.ones(n, np.float32)
    change = (new[:, 0] > new[:, 1]).astype(np.int64) - (old[:, 0] > old[:, 1])
    for k, (pos, other) in enumerate(((a, b), (b, a))):
        o, v = old[:, k, None], new[:, k, None]
        lo, hi = np.minimum(o, v), np.maximum(o, v)
        after = col > pos[:, None].astype(col.dtype)
        gain = (z >= lo) & (z < hi) & after
        lose = (z > lo) & (z <= hi) & ~after
        gain[rows, other] = lose[rows, other] = lose[rows, pos] = False
        sign = (v > o).astype(np.int64) - (v < o)
        change += sign[:, 0] * (gain @ ones - lose @ ones).astype(np.int64)
    return change


def _completion_uniforms(seed: int, first_stream: int, reps: int, c: int) -> np.ndarray:
    """(reps, 4) uniforms of completion c: row r from (stream first_stream + r,
    substream 1 + c), in the stream blocks of every models batch."""
    u = np.empty((reps, 4))
    for a, b, rng in _stream_blocks(seed, first_stream, reps, substream=1 + c):
        rng.random(4, out=u[a:b])
    return u


def couple(n: int, rng: np.random.Generator) -> CouplingDraw:
    """One coupled draw (W, W^s) from a single generator: a batch of one.

    Draw order: n score uniforms, then 4 completion uniforms (2 for the
    index pair, 2 for the conditional pair, drawn even when unused).
    """
    idx = index_distribution(n)
    sv = sample_scores(_SCORES, n, rng)
    z = sv.values[None, :]
    w = inversions_batch(z)
    i, j, w_s, resampled, pair_s = _complete(z, w, idx, rng.random((1, 4)))
    z_s = sv.values.copy()
    z_s[[i[0] - 1, j[0] - 1]] = pair_s[0]
    sv_s = ScoreVector(z_s) if resampled[0] else sv
    return CouplingDraw(sv, int(w[0]), int(i[0]), int(j[0]), int(w_s[0]),
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
        z, w, idx, _completion_uniforms(seed, first_stream, reps, 0)
    )
    return {"w": w, "w_s": w_s, "i": i_arr, "j": j_arr, "resampled": resampled}


def _parse_f(f: str):
    if f == "identity":
        return lambda x: np.asarray(x, dtype=float)
    if f == "square":
        return lambda x: np.asarray(x, dtype=float) ** 2
    if f.startswith("indicator:"):
        t = float(f.partition(":")[2])
        return lambda x: (np.asarray(x, dtype=float) >= t).astype(float)
    raise ValueError(f"unknown test function {f!r}; use identity, square or indicator:t")


@dataclass(frozen=True)
class IdentityCheckReport:
    lhs: float  # E[W f(W)] from independent draws
    rhs: float  # E[W] E[f(W^s)] from coupled draws
    pooled_se: float

    @property
    def gap_in_se(self) -> float:
        gap = abs(self.lhs - self.rhs)  # 0/0 (equal sides, no noise) is no gap
        return gap / self.pooled_se if self.pooled_se > 0 else math.inf if gap else 0.0


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
    func = _parse_f(f)
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
    return IdentityCheckReport(lhs=lhs, rhs=rhs, pooled_se=pooled)


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
        _, _, w_s, _, _ = _complete(z, w, idx, _completion_uniforms(seed, 0, outer_reps, c))
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
    n: int, outer_reps: int, inner_pairs: int, seed: int, clamp: bool = True
) -> float:
    """Paired-replicate estimate of Var(E[W^s - W | S]), clamped at 0 unless
    ``clamp`` is false.

    ``inner_pairs`` independent completions per outer score draw; the same
    draws and estimate as ``stein_bound(...).var_cond`` (``.var_cond_raw``
    unclamped), with no sigma^2 to estimate, so equal outer counts are fine.
    """
    raw, clamped = _var_cond(_differences(n, outer_reps, inner_pairs, seed)[1], n)
    return clamped if clamp else raw


@dataclass(frozen=True)
class SteinBoundReport:
    mu: float
    sigma2: float
    var_cond: float  # clamped at 0; the value the bound uses
    var_cond_raw: float  # the unclamped estimate
    clamped: bool  # var_cond_raw < 0
    second_moment: float  # E[(W^s - W)^2]
    bound: float


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
        mu=mu,
        sigma2=sigma2,
        var_cond=var_cond,
        var_cond_raw=var_cond_raw,
        clamped=var_cond_raw < 0.0,
        second_moment=second,
        bound=bound,
    )
