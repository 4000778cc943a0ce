"""Random permutation models built from best-of-k uniform scores.

Player i draws k_i uniforms on (0,1) and keeps the maximum, U_i^(1/k_i) for
one uniform U_i; the samplers hold its log, the log-score S_i = ln(U_i)/k_i,
which keeps the order where huge k_i would round U_i^(1/k_i) to 1.  Ranking
the scores (1 = smallest) yields the rank sequence; its inverse is the
finishing order.  Every model is a vector of draw counts, sampled by the
same code.  Draw counts per model:

* ``inverse-unfair`` / ``unfair``: k_i = i (the rank sequence is the
  inverse-unfair permutation, its inverse is the unfair permutation),
* ``phi``: k_i = phi(i) for a user map phi (phi = 1 recovers uniform,
  phi = identity recovers inverse-unfair),
* ``markov``: k_1, k_2, ... is a Markov walk over draw counts started at 1,
* ``uniform``: k_i = 1 (best-of-1 scores are iid uniforms, so their ranks
  are a uniform permutation).

Draw counts are held as int64, so each lies in 1..2^63 - 1.  Sampling is
bit-reproducible: replica r of any batch draws from stream r of the root
seed (see permlab.rng).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .perm import Permutation
from .rng import make_generator
from .stats import _inverse_rows, ranks_matrix

__all__ = [
    "ModelKind",
    "ModelSpec",
    "PhiSpec",
    "MarkovChainSpec",
    "ScoreVector",
    "sample_scores",
    "sample_permutation",
    "sample_score_matrix",
    "sample_permutation_matrix",
    "invert_rows",
    "phi_from_config",
    "chain_from_config",
    "load_config",
]

_COUNT_LIMIT = 2 ** 63  # draw counts are int64


def _integer(x, what: str) -> int:
    """int(x) for an integer or a string of one; ValueError where int()
    would truncate (2.5) or fail (inf, None)."""
    try:
        if isinstance(x, str) or int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} {x!r} is not an integer")


class ModelKind(str, Enum):
    UNIFORM = "uniform"
    UNFAIR = "unfair"
    INVERSE_UNFAIR = "inverse-unfair"
    PHI = "phi"
    MARKOV = "markov"


def _phi_rule(name: str, what: str = "phi rule") -> Callable[[int], int]:
    """The map a phi rule name stands for: ``"one"`` or ``"identity"``."""
    rules = {"one": lambda i: 1, "identity": lambda i: i}
    if name not in rules:
        raise ValueError(f"unknown {what} {name!r}")
    return rules[name]


@dataclass(frozen=True)
class PhiSpec:
    """A total map i -> positive draw count, with a printable name."""

    func: Callable[[int], int]
    name: str

    def __call__(self, i: int) -> int:
        k = self.func(i)
        if not isinstance(k, (int, np.integer)) or not 1 <= k < _COUNT_LIMIT:
            raise ValueError(f"phi({i}) = {k!r} is not an integer in 1..2^63 - 1")
        return int(k)

    @classmethod
    def from_table(cls, table: dict[int, int], default: "int | str" = "identity") -> "PhiSpec":
        """Explicit (i, phi(i)) pairs; ``default`` covers i beyond the table.

        ``default`` may be a positive integer constant, ``"one"`` or
        ``"identity"``.
        """
        clean = {_integer(i, "phi index"): _integer(k, "phi count") for i, k in table.items()}
        for i, k in clean.items():
            if i < 1 or k < 1:
                raise ValueError(f"bad phi table entry ({i}, {k})")
        if isinstance(default, str):
            fallback = _phi_rule(default, "phi default rule")
        else:
            d = _integer(default, "phi default")
            if d < 1:
                raise ValueError("phi default must be a positive integer")
            fallback = lambda i: d
        return cls(lambda i: clean.get(i, fallback(i)), f"table+{default}")


@dataclass(frozen=True)
class MarkovChainSpec:
    """A finite Markov chain over draw counts; the walk starts at state 1.

    ``states`` are the positive draw counts; ``transitions[a, b]`` is the
    probability of moving from states[a] to states[b]: finite, nonnegative,
    each row summing to 1 within 1e-12.
    """

    states: tuple[int, ...]
    transitions: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        states = tuple(_integer(s, "markov state") for s in self.states)
        if len(states) == 0 or len(set(states)) != len(states):
            raise ValueError("states must be distinct and non-empty")
        if any(not 1 <= s < _COUNT_LIMIT for s in states):
            raise ValueError("states must be draw counts in 1..2^63 - 1")
        if 1 not in states:
            raise ValueError("the start state 1 must be present")
        t = np.asarray(self.transitions, dtype=float)
        k = len(states)
        if t.shape != (k, k):
            raise ValueError(f"transitions must be {k}x{k}, got {t.shape}")
        if not np.all(np.isfinite(t) & (t >= 0)):
            raise ValueError("transition probabilities must be finite and nonnegative")
        if np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("each transition row must sum to 1 within 1e-12")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", t)

    def walk(self, n: int, rng) -> np.ndarray:
        """Draw counts k_1..k_n along the chain, one walk per stream of rng.

        Each stream consumes n-1 uniforms.  A Generator gives shape (n,); a
        block of streams (``rng.random(k)`` of shape (rows, k)) gives
        (rows, n), the walks running together column by column.

        A step from state a goes to the first b with cum[a, b] > u, else the
        last, by one gather of cum[:, a] per walk from the transposed table.
        Median us per step, a per-walk ``count_nonzero`` over cum[a] / this
        gather (2 cores):
            k  walks:  1     64    1024    4096
            3         6/4  10/6   44/17  150/42
            8         6/4  10/6   50/25  175/87
            32        6/5  12/10  77/75  308/290
        """
        cum_t = np.ascontiguousarray(np.cumsum(self.transitions, axis=1).T)
        states = np.asarray(self.states, dtype=np.int64)
        u = np.moveaxis(rng.random(n - 1), -1, 0)  # u[t]: step t of every walk
        idx = np.full(u.shape[1:], self.states.index(1))
        out = np.empty(u.shape[1:] + (n,), dtype=np.int64)
        out[..., 0] = 1
        for t in range(n - 1):
            # searchsorted(cum[idx], u[t], side="right") on every walk at once
            hits = np.add.reduce(cum_t.take(idx, axis=1) <= u[t], axis=0, dtype=np.int64)
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
    """An n-vector of log-scores ln(U)/k, each negative (-inf allowed)."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("scores must be a non-empty 1-d vector")
        if not np.all(v < 0.0):  # NaN fails the comparison too
            raise ValueError("log-scores must be negative (-inf allowed)")
        v.flags.writeable = False
        self.values = v

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:
        return f"ScoreVector({self.values!r})"


def _fixed_counts(spec: ModelSpec, n: int) -> np.ndarray:
    """Draw counts of the models whose counts are the same for every replica."""
    kind = spec.kind
    if kind is ModelKind.UNIFORM:
        return np.ones(n, dtype=np.int64)
    if kind is ModelKind.PHI:
        return np.asarray([spec.phi(i) for i in range(1, n + 1)], dtype=np.int64)
    return np.arange(1, n + 1, dtype=np.int64)


def _log_scores(u: np.ndarray, counts) -> np.ndarray:
    """Log-scores ln(u)/k from uniforms u (rows or one row), in place on u.

    u = 0.0 (probability 2^-53 per draw) gives -inf; every other score is
    finite and negative, however large k.
    """
    with np.errstate(divide="ignore"):
        np.log(u, out=u)
    u /= counts
    return u


def _scores(spec: ModelSpec, n: int, rng, out: np.ndarray | None = None) -> np.ndarray:
    """Log-scores of every stream of rng: shape (n,) for a Generator,
    (rows, n) for a block.  The markov walk's uniforms come first."""
    if spec.kind is ModelKind.MARKOV:
        counts = spec.chain.walk(n, rng)
    else:
        counts = _fixed_counts(spec, n)
    return _log_scores(rng.random(n, out=out), counts)


def sample_scores(spec: ModelSpec, n: int, rng: np.random.Generator) -> ScoreVector:
    """One log-score vector: the batch sampler's row for the stream of rng.

    Huge draw counts keep distinct scores:

    >>> from permlab.rng import make_generator
    >>> spec = ModelSpec.phi_draw(PhiSpec.from_table({}, default=10 ** 17))
    >>> s = sample_scores(spec, 3, make_generator(1))
    >>> len(set(s.values)), bool(s.values.max() < 0.0)
    (3, True)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return ScoreVector(_scores(spec, n, rng))


def sample_permutation(spec: ModelSpec, n: int, rng: np.random.Generator) -> Permutation:
    """One permutation from any model: the batch rule on one score row."""
    row = _permutation_rows(spec, sample_scores(spec, n, rng).values[None, :])[0]
    return Permutation(tuple(int(x) for x in row))


# ---------------------------------------------------------------------------
# batch sampling with per-replica streams
#
# Row r of a batch is drawn from stream first_stream + r, on the calling
# thread.  _stream_blocks hands out the rows in blocks of at most
# _BLOCK_ROWS, each with one source of uniforms holding one row per stream:
# an rng.StreamBlock (which picks its own way to draw), or one generator per
# row for streams at or past 2^64, the most a StreamBlock holds.  Both give
# the same bits, so the markov walk and the log-score transform ln(u)/k run
# over the whole block, and the size-bias completions read their blocks from
# the same rule.

_BLOCK_ROWS = 4096  # temporaries of one block stay near 1 MB per column pass


class _RowGenerators:
    """One generator per stream, drawn from like an rng.StreamBlock: row r of
    ``random(k)`` continues the generator of streams[r]."""

    def __init__(self, seed: int, streams: range, substream: int | None = None) -> None:
        self._gens = [make_generator(seed, s, substream) for s in streams]

    def random(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((len(self._gens), k))
        for gen, row in zip(self._gens, out):
            gen.random(k, out=row)
        return out


def _stream_blocks(seed: int, first_stream: int, rows: int, substream: int | None = None):
    """(a, b, rng) for rows a..b-1 of a batch of ``rows``: rng has one row
    per stream first_stream + a..b-1 (under ``substream``), a StreamBlock or
    one generator per row by the rule above."""
    for a in range(0, rows, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, rows)
        if first_stream + b > 2 ** 64:
            yield a, b, _RowGenerators(seed, range(first_stream + a, first_stream + b), substream)
        else:
            streams = np.arange(first_stream + a, first_stream + b, dtype=np.uint64)
            yield a, b, make_generator(seed, streams, substream)


def sample_score_matrix(
    spec: ModelSpec,
    n: int,
    reps: int,
    seed: int,
    first_stream: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """(reps, n) log-score matrix; row r comes from stream first_stream + r.

    Rows are drawn on the calling thread (large inversion counts use up to
    one thread per CPU, ``stats``); ``workers`` is checked to be at least
    1 but selects nothing, so the result is the same for any value.
    """
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    mat = np.empty((reps, n), dtype=float)
    for a, b, rng in _stream_blocks(seed, first_stream, reps):
        _scores(spec, n, rng, out=mat[a:b])
    return mat


def sample_permutation_matrix(
    spec: ModelSpec,
    n: int,
    reps: int,
    seed: int,
    first_stream: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """(reps, n) one-line permutation matrix; row r uses stream first_stream+r.

    Rows are the ranks of the score rows, ties broken by column; an unfair
    row is their inverse, the stable argsort of the scores plus 1.
    """
    return _permutation_rows(spec, sample_score_matrix(spec, n, reps, seed, first_stream, workers))


def _permutation_rows(spec: ModelSpec, scores: np.ndarray) -> np.ndarray:
    """The one-line rows of score rows, as ``sample_permutation_matrix`` says.
    Ranks are permutations by construction, so their inverse skips
    ``invert_rows``' checks."""
    rho = ranks_matrix(scores)
    return _inverse_rows(rho, 1) if spec.kind is ModelKind.UNFAIR else rho


def invert_rows(perms: np.ndarray) -> np.ndarray:
    """Row-wise permutation inverses of a one-line matrix."""
    n = perms.shape[1]
    refused = f"rows must be permutations of 1..{n}"
    # an entry outside 1..n would scatter into a neighbouring row
    if perms.size and (perms.min() < 1 or perms.max() > n):
        raise ValueError(refused)
    # n entries in 1..n fill all n zeroed slots of a row exactly when none repeats
    out = _inverse_rows(perms, 1, np.zeros(perms.shape, dtype=np.int64))
    if not out.all():
        raise ValueError(refused)
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
        return PhiSpec(_phi_rule(obj), obj)
    if not isinstance(obj, dict) or "table" not in obj:
        raise ValueError("phi config must be 'one', 'identity' or {table, default}")
    return PhiSpec.from_table(dict(obj["table"]), obj.get("default", "identity"))


def chain_from_config(obj: dict) -> MarkovChainSpec:
    """Build a chain from ``{"states": [...], "transitions": [...]}``.

    ``transitions`` is row-major: either nested rows or a flat list of k*k
    probabilities.
    """
    if not isinstance(obj, dict):
        raise ValueError("chain config must be a JSON object")
    try:
        states = list(obj["states"])
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
