"""Random permutation models built from best-of-k uniform scores.

Player i draws k_i uniforms on (0,1) and keeps the maximum, giving a score
vector Z.  Ranking the scores (1 = smallest) yields the rank sequence; the
inverse of that permutation is the finishing order.  Every model is a vector
of draw counts, sampled by the same code.  Draw counts per model:

* ``inverse-unfair`` / ``unfair``: k_i = i (the rank sequence is the
  inverse-unfair permutation, its inverse is the unfair permutation),
* ``phi``: k_i = phi(i) for a user map phi (phi = 1 recovers uniform,
  phi = identity recovers inverse-unfair),
* ``markov``: k_1, k_2, ... is a Markov walk over draw counts started at 1,
* ``uniform``: k_i = 1 (best-of-1 scores are iid uniforms, so their ranks
  are a uniform permutation).

Sampling is bit-reproducible: replica r of any batch draws from stream r of
the root seed (see permlab.rng).
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .perm import Permutation
from .rng import make_generator
from .stats import ranks_matrix

__all__ = [
    "ModelKind",
    "ModelSpec",
    "PhiSpec",
    "MarkovChainSpec",
    "ScoreVector",
    "TieDetected",
    "max_of_k_uniforms",
    "sample_scores",
    "ranks",
    "sample_inverse_unfair",
    "sample_unfair",
    "sample_uniform",
    "sample_permutation",
    "sample_score_matrix",
    "sample_permutation_matrix",
    "invert_rows",
    "phi_from_config",
    "chain_from_config",
    "load_config",
]

_TINY = 2.0 ** -53
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


class TieDetected(ValueError):
    """Two scores in a user-supplied vector compare exactly equal."""


class ModelKind(str, Enum):
    UNIFORM = "uniform"
    UNFAIR = "unfair"
    INVERSE_UNFAIR = "inverse-unfair"
    PHI = "phi"
    MARKOV = "markov"


@dataclass(frozen=True)
class PhiSpec:
    """A total map i -> positive draw count, with a printable name."""

    func: Callable[[int], int]
    name: str

    def __call__(self, i: int) -> int:
        k = self.func(i)
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError(f"phi({i}) = {k!r} is not a positive integer")
        return int(k)

    @classmethod
    def one(cls) -> "PhiSpec":
        return cls(lambda i: 1, "one")

    @classmethod
    def identity(cls) -> "PhiSpec":
        return cls(lambda i: i, "identity")

    @classmethod
    def from_table(cls, table: dict[int, int], default: "int | str" = "identity") -> "PhiSpec":
        """Explicit (i, phi(i)) pairs; ``default`` covers i beyond the table.

        ``default`` may be a positive integer constant, ``"one"`` or
        ``"identity"``.
        """
        clean = {int(i): int(k) for i, k in table.items()}
        for i, k in clean.items():
            if i < 1 or k < 1:
                raise ValueError(f"bad phi table entry ({i}, {k})")
        if isinstance(default, str):
            if default == "one":
                fallback = lambda i: 1
            elif default == "identity":
                fallback = lambda i: i
            else:
                raise ValueError(f"unknown phi default rule {default!r}")
        else:
            d = int(default)
            if d < 1:
                raise ValueError("phi default must be a positive integer")
            fallback = lambda i: d
        return cls(lambda i: clean.get(i, fallback(i)), f"table+{default}")


@dataclass(frozen=True)
class MarkovChainSpec:
    """A finite Markov chain over draw counts; the walk starts at state 1.

    ``states`` are the positive draw counts; ``transitions[a, b]`` is the
    probability of moving from states[a] to states[b].  Rows must sum to 1
    within 1e-12.
    """

    states: tuple[int, ...]
    transitions: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        states = tuple(int(s) for s in self.states)
        if len(states) == 0 or len(set(states)) != len(states):
            raise ValueError("states must be distinct and non-empty")
        if any(s < 1 for s in states):
            raise ValueError("states must be positive draw counts")
        if 1 not in states:
            raise ValueError("the start state 1 must be present")
        t = np.asarray(self.transitions, dtype=float)
        k = len(states)
        if t.shape != (k, k):
            raise ValueError(f"transitions must be {k}x{k}, got {t.shape}")
        if np.any(t < 0):
            raise ValueError("transition probabilities must be nonnegative")
        if np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("each transition row must sum to 1 within 1e-12")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", t)

    def walk(self, n: int, rng) -> np.ndarray:
        """Draw counts k_1..k_n along the chain, one walk per stream of rng.

        Each stream consumes n-1 uniforms.  A Generator gives shape (n,); a
        block of streams (``rng.random(k)`` of shape (rows, k)) gives
        (rows, n), the walks running together column by column.
        """
        cum = np.cumsum(self.transitions, axis=1)
        states = np.asarray(self.states, dtype=np.int64)
        u = rng.random(n - 1)
        idx = np.full(u.shape[:-1], self.states.index(1))
        out = np.empty(u.shape[:-1] + (n,), dtype=np.int64)
        out[..., 0] = 1
        for t in range(n - 1):
            # searchsorted(cum[idx], u, side="right") on every row at once
            hits = np.count_nonzero(cum[idx] <= u[..., t, None], axis=-1)
            idx = np.minimum(hits, len(states) - 1)
            out[..., t + 1] = states[idx]
        return out


@dataclass(frozen=True)
class ModelSpec:
    """Which permutation law to sample from."""

    kind: ModelKind
    phi: PhiSpec | None = None
    chain: MarkovChainSpec | None = None

    def __post_init__(self) -> None:
        kind = ModelKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is ModelKind.PHI and self.phi is None:
            raise ValueError("phi model needs a PhiSpec")
        if kind is ModelKind.MARKOV and self.chain is None:
            raise ValueError("markov model needs a MarkovChainSpec")

    @classmethod
    def uniform(cls) -> "ModelSpec":
        return cls(ModelKind.UNIFORM)

    @classmethod
    def unfair(cls) -> "ModelSpec":
        return cls(ModelKind.UNFAIR)

    @classmethod
    def inverse_unfair(cls) -> "ModelSpec":
        return cls(ModelKind.INVERSE_UNFAIR)

    @classmethod
    def phi_draw(cls, phi: PhiSpec) -> "ModelSpec":
        return cls(ModelKind.PHI, phi=phi)

    @classmethod
    def markov_draw(cls, chain: MarkovChainSpec) -> "ModelSpec":
        return cls(ModelKind.MARKOV, chain=chain)


class ScoreVector:
    """An n-vector of scores, each strictly inside (0, 1)."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("scores must be a non-empty 1-d vector")
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0) or np.any(v >= 1.0):
            raise ValueError("scores must lie strictly inside (0, 1)")
        v.flags.writeable = False
        self.values = v

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:
        return f"ScoreVector({self.values!r})"


def max_of_k_uniforms(k: int, rng: np.random.Generator) -> float:
    """Best of k uniform draws in one shot via U^(1/k).

    The result is clamped into the open interval (0, 1) to guard the endpoint
    roundings.  Huge k loses resolution: U^(1/k) lies within about
    -ln(U)/k of 1, a few ulps of 1.0 once k nears 1e15, so such scores tie
    and the samplers break the ties by index.  With constant phi = 10^15 at
    n = 6, P(identity) measured 0.0037 instead of 1/720, and 1.0 at 10^17.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"draw count must be a positive integer, got {k!r}")
    u = rng.random()
    if u == 0.0:
        u = _TINY
    return min(u ** (1.0 / k), _BELOW_ONE)


def _fixed_counts(spec: ModelSpec, n: int) -> np.ndarray:
    """Draw counts of the models whose counts are the same for every replica."""
    kind = spec.kind
    if kind is ModelKind.UNIFORM:
        return np.ones(n, dtype=np.int64)
    if kind is ModelKind.PHI:
        return np.asarray([spec.phi(i) for i in range(1, n + 1)], dtype=np.int64)
    return np.arange(1, n + 1, dtype=np.int64)


def _max_of_uniforms(u: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Scores u ** (1/k) from uniforms u (rows or one row), in place on u."""
    u[u == 0.0] = _TINY
    np.power(u, 1.0 / counts, out=u)
    return np.minimum(u, _BELOW_ONE, out=u)


def _scores(spec: ModelSpec, n: int, rng, out: np.ndarray | None = None) -> np.ndarray:
    """Scores of every stream of rng: shape (n,) for a Generator, (rows, n)
    for a block of streams.  The markov walk's uniforms come first."""
    if spec.kind is ModelKind.MARKOV:
        counts = spec.chain.walk(n, rng)
    else:
        counts = _fixed_counts(spec, n)
    return _max_of_uniforms(rng.random(n, out=out), counts)


def sample_scores(spec: ModelSpec, n: int, rng: np.random.Generator) -> ScoreVector:
    """One score vector: the batch sampler's row for the stream of rng."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ScoreVector(_scores(spec, n, rng))


def ranks(scores: "ScoreVector | Sequence[float]", on_ties: str = "raise") -> Permutation:
    """Rank sequence of a score vector (1 = smallest score).

    ``on_ties="raise"`` (default, for user-supplied vectors) raises
    TieDetected on exactly equal scores; ``on_ties="stable"`` breaks ties by
    (score, index) lexicographic order, the samplers' convention.
    """
    v = scores.values if isinstance(scores, ScoreVector) else np.asarray(scores, dtype=float)
    if on_ties not in ("raise", "stable"):
        raise ValueError("on_ties must be 'raise' or 'stable'")
    if on_ties == "raise" and np.unique(v).size != v.size:
        raise TieDetected("score vector contains exactly equal entries")
    r = ranks_matrix(v[None, :])[0]
    return Permutation(tuple(int(x) for x in r))


def sample_inverse_unfair(n: int, rng: np.random.Generator) -> Permutation:
    """One inverse-unfair permutation: the rank sequence of best-of-i scores."""
    return sample_permutation(ModelSpec.inverse_unfair(), n, rng)


def sample_unfair(n: int, rng: np.random.Generator) -> Permutation:
    """One unfair permutation: the inverse of an inverse-unfair draw."""
    return sample_permutation(ModelSpec.unfair(), n, rng)


def sample_uniform(n: int, rng: np.random.Generator) -> Permutation:
    """One uniform permutation: the ranks of n iid uniforms."""
    return sample_permutation(ModelSpec.uniform(), n, rng)


def sample_permutation(spec: ModelSpec, n: int, rng: np.random.Generator) -> Permutation:
    """One permutation from any model."""
    rho = ranks(sample_scores(spec, n, rng), on_ties="stable")
    return rho.inverse() if spec.kind is ModelKind.UNFAIR else rho


# ---------------------------------------------------------------------------
# batch sampling with per-replica streams
#
# Row r of a batch is drawn from stream first_stream + r.  Rows are filled in
# blocks of at most _BLOCK_ROWS, each from one source of uniforms with one row
# per stream: make_generator on the block's stream indices gives an
# rng.StreamBlock, which draws all streams at once, or _RowGenerators holds
# one generator per stream behind the same random(k, out=) shape.  Both give
# the same bits, so the markov walk and the score transform run over the
# whole block either way.  A row draws n uniforms, or 2n - 1 for markov (the
# walk's n - 1 come first); this is the draw width below.
#
# Stepping streams together costs about 40 ns per element plus about 40 us
# per column; a generator per row costs about 27 us plus about 10 ns per
# element.  Measured ratios of stepped to per-row time
# for the score rows (2-core x86_64, numpy 2.4; best of five each):
#
#     rows \ n     5     50    150    300    500    600    700    800
#     30        0.56   2.74   6.95     -      -      -      -      -
#     300       0.06   0.49   0.71   1.96   2.92     -      -      -
#     1000      0.03   0.15   0.36   0.80   1.40   1.64     -      -
#     4096      0.01   0.08   0.32   0.46   0.67   0.92   0.93   1.11
#
# Near the limits, two sets of nine alternating single timings gave median
# ratios (quartiles) at 4096 rows of 0.67 (0.67-0.69) and 0.76 (0.69-0.80)
# at n = 600, 0.98 (0.92-1.10) and 0.87 (0.83-0.88) at n = 800, and 1.01
# (0.98-1.04) at n = 1000; at 1000 rows and n = 400, 0.85 (0.82-0.87) and
# 0.87 (0.72-0.89).  Full blocks break even between n = 800 and 1000, so a
# block is stepped when its draw width is at most _STEPPED_MAX_WIDTH, which
# leaves a margin for host noise, and it has at least
# _STEPPED_ROWS_PER_COLUMN rows per column drawn (short tail blocks stay per
# row).

_BLOCK_ROWS = 4096  # temporaries of one block stay near 1 MB per column pass
_STEPPED_MAX_WIDTH = 600
_STEPPED_ROWS_PER_COLUMN = 3


class _RowGenerators:
    """One generator per stream, drawn from like an rng.StreamBlock: row r of
    ``random(k)`` continues the generator of streams[r]."""

    def __init__(self, seed: int, streams: range) -> None:
        self._gens = [make_generator(seed, s) for s in streams]

    def random(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((len(self._gens), k))
        for gen, row in zip(self._gens, out):
            gen.random(k, out=row)
        return out


def _fill_rows(
    mat: np.ndarray, spec: ModelSpec, seed: int, first_stream: int, lo: int, hi: int
) -> None:
    n = mat.shape[1]
    width = 2 * n - 1 if spec.kind is ModelKind.MARKOV else n
    for a in range(lo, hi, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, hi)
        if (
            width <= min(_STEPPED_MAX_WIDTH, (b - a) // _STEPPED_ROWS_PER_COLUMN)
            and first_stream + b <= 2 ** 64
        ):
            rng = make_generator(
                seed, np.arange(first_stream + a, first_stream + b, dtype=np.uint64)
            )
        else:
            rng = _RowGenerators(seed, range(first_stream + a, first_stream + b))
        _scores(spec, n, rng, out=mat[a:b])


def _run_chunks(fill, reps: int, workers: int) -> None:
    workers = max(1, int(workers))
    if workers == 1 or reps < 2:
        fill(0, reps)
        return
    bounds = np.linspace(0, reps, workers + 1, dtype=int)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(fill, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        for f in futures:
            f.result()


def sample_score_matrix(
    spec: ModelSpec,
    n: int,
    reps: int,
    seed: int,
    first_stream: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """(reps, n) score matrix; row r comes from stream first_stream + r.

    The result is identical for any worker count.
    """
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be >= 1")
    mat = np.empty((reps, n), dtype=float)
    _run_chunks(
        lambda lo, hi: _fill_rows(mat, spec, seed, first_stream, lo, hi), reps, workers
    )
    return mat


def sample_permutation_matrix(
    spec: ModelSpec,
    n: int,
    reps: int,
    seed: int,
    first_stream: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """(reps, n) one-line permutation matrix; row r uses stream first_stream+r."""
    scores = sample_score_matrix(spec, n, reps, seed, first_stream, workers)
    rho = ranks_matrix(scores)
    return invert_rows(rho) if spec.kind is ModelKind.UNFAIR else rho


def invert_rows(perms: np.ndarray) -> np.ndarray:
    """Row-wise permutation inverses of a one-line matrix."""
    out = np.empty(perms.shape, dtype=np.int64)
    out[np.arange(len(perms))[:, None], perms - 1] = np.arange(1, perms.shape[1] + 1)
    return out


# ---------------------------------------------------------------------------
# configuration files (JSON key-value trees)

def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"config {path!r} must hold a JSON object")
    return obj


def phi_from_config(obj: "str | dict") -> PhiSpec:
    """Build a phi map from config: ``"one"``, ``"identity"`` or a table.

    Table form: ``{"table": {"1": 2, "2": 5}, "default": "identity"}`` where
    ``default`` (optional) is an integer or one of the literal rules and
    covers indices beyond the table.  Pair-list tables ``[[i, k], ...]`` are
    accepted too.
    """
    if isinstance(obj, str):
        if obj == "one":
            return PhiSpec.one()
        if obj == "identity":
            return PhiSpec.identity()
        raise ValueError(f"unknown phi rule {obj!r}")
    if not isinstance(obj, dict) or "table" not in obj:
        raise ValueError("phi config must be 'one', 'identity' or {table, default}")
    raw = obj["table"]
    if isinstance(raw, dict):
        table = {int(i): int(k) for i, k in raw.items()}
    else:
        table = {int(i): int(k) for i, k in raw}
    return PhiSpec.from_table(table, obj.get("default", "identity"))


def chain_from_config(obj: dict) -> MarkovChainSpec:
    """Build a chain from ``{"states": [...], "transitions": [...]}``.

    ``transitions`` is row-major: either nested rows or a flat list of k*k
    probabilities.
    """
    if not isinstance(obj, dict):
        raise ValueError("chain config must be a JSON object")
    try:
        states = [int(s) for s in obj["states"]]
        raw = obj["transitions"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("chain config needs 'states' and 'transitions'") from exc
    k = len(states)
    t = np.asarray(raw, dtype=float)
    if t.ndim == 1:
        if t.size != k * k:
            raise ValueError(f"flat transitions need {k * k} entries, got {t.size}")
        t = t.reshape(k, k)
    return MarkovChainSpec(tuple(states), t)
