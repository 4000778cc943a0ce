"""Permutation statistics: inversions, m-descents, local maxima, alternating
and rising structure, increasing-subsequence counts.

Every statistic has one kernel, a ``*_batch`` form operating on a (reps, n)
matrix, one permutation (or score vector) per row; the single-permutation
function runs it on one row.  ``incsub`` is the exception: its exact
Python-integer Fenwick count serves one permutation, and the batch form
loops over rows.  All statistics here are comparison-based, so the batch forms
accept either integer rank rows or raw score rows; row comparisons are what
matters.  The batch inversion counter is an O(n log n) padded merge sort;
its brute-force O(n^2) oracle lives in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .perm import as_entries

__all__ = [
    "StatisticKind",
    "parse_statistic",
    "inversions",
    "anti_inversions",
    "m_descents",
    "m_ascents",
    "local_maxima",
    "longest_alternating",
    "rising_sequences",
    "increasing_subsequences",
    "evaluate",
    "ranks_matrix",
    "inversions_batch",
    "anti_inversions_batch",
    "m_descents_batch",
    "m_ascents_batch",
    "local_maxima_batch",
    "longest_alternating_batch",
    "rising_sequences_batch",
    "evaluate_batch",
]

# Row chunking keeps transient memory of the batch merge count bounded: the
# padded key matrix and one temporary (the argsort of score rows, then each
# level's low bits) live at once, each under twice this many elements.
_CHUNK_ELEMENTS = 8_000_000


# ---------------------------------------------------------------------------
# statistic kinds

_TAGS_WITH_M = {"desc", "asc", "rising", "incsub"}
_TAGS_PLAIN = {"inv", "ainv", "locmax", "las"}


@dataclass(frozen=True)
class StatisticKind:
    """A statistic selector: a tag plus a window/length parameter where used.

    Text forms: ``inv``, ``ainv``, ``desc:m``, ``asc:m``, ``locmax``, ``las``,
    ``rising:m``, ``incsub:m``.
    """

    tag: str
    m: int | None = None

    def __post_init__(self) -> None:
        if self.tag in _TAGS_WITH_M:
            if self.m is None or self.m < 1:
                raise ValueError(f"statistic {self.tag!r} needs a parameter m >= 1")
        elif self.tag in _TAGS_PLAIN:
            if self.m is not None:
                raise ValueError(f"statistic {self.tag!r} takes no parameter")
        else:
            raise ValueError(f"unknown statistic tag {self.tag!r}")

    def __str__(self) -> str:
        return self.tag if self.m is None else f"{self.tag}:{self.m}"


def parse_statistic(text: str) -> StatisticKind:
    """Parse ``"desc:3"``-style statistic selectors."""
    text = text.strip()
    if ":" in text:
        tag, _, mtext = text.partition(":")
        try:
            m = int(mtext)
        except ValueError as exc:
            raise ValueError(f"bad statistic parameter in {text!r}") from exc
        return StatisticKind(tag.strip(), m)
    return StatisticKind(text)


# ---------------------------------------------------------------------------
# single-permutation statistics: each is its batch kernel on one row

def _row(p) -> np.ndarray:
    return np.asarray(as_entries(p), dtype=np.int64)[None, :]


def inversions(p) -> int:
    """Number of pairs i < j with p(i) > p(j).  O(n log n)."""
    return int(inversions_batch(_row(p), assume_ranks=True)[0])


def anti_inversions(p) -> int:
    """Number of pairs i < j with p(i) < p(j); complements inversions."""
    return int(anti_inversions_batch(_row(p), assume_ranks=True)[0])


def m_descents(p, m: int) -> int:
    """Number of pairs (i, j) with 1 <= j - i <= m and p(i) > p(j).

    m = 1 gives classical descents; m >= n - 1 gives inversions.
    """
    return int(m_descents_batch(_row(p), m, assume_ranks=True)[0])


def m_ascents(p, m: int) -> int:
    """Number of pairs (i, j) with 1 <= j - i <= m and p(i) < p(j)."""
    return int(m_ascents_batch(_row(p), m)[0])


def local_maxima(p) -> int:
    """Number of interior positions 1 < i < n with p(i-1) < p(i) > p(i+1)."""
    return int(local_maxima_batch(_row(p))[0])


def longest_alternating(p, ascent_first: bool = False) -> int:
    """Length of the longest alternating subsequence.

    Default convention is descent-first: the subsequence satisfies
    a1 > a2 < a3 > a4 ...  With ``ascent_first=True`` the first comparison
    must be an ascent instead; the two differ by at most 1.  A single element
    counts as alternating, so the identity permutation scores 1 (descent-first)
    or 2 (ascent-first, n >= 2).
    """
    return int(longest_alternating_batch(_row(p), ascent_first)[0])


def rising_sequences(p, m: int) -> int:
    """Number of windows of m consecutive positions that increase.

    Counts i <= n - m + 1 with p(i) < p(i+1) < ... < p(i+m-1); every position
    is a window for m = 1.
    """
    return int(rising_sequences_batch(_row(p), m)[0])


class _Fenwick:
    """Prefix-sum tree over values 1..n holding exact Python integers."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        s = 0
        while i > 0:
            s += self.tree[i]
            i -= i & (-i)
        return s


def increasing_subsequences(p, m: int) -> int:
    """Number of strictly increasing subsequences of length exactly m.

    Exact count as a Python integer (arbitrary precision, so values up to
    C(n, m) never overflow).  O(m n log n) via a Fenwick tree per length step.
    """
    e = as_entries(p)
    n = len(e)
    if not 1 <= m <= n:
        raise ValueError(f"m={m} out of range 1..{n}")
    cur = [1] * n
    for _ in range(2, m + 1):
        fen = _Fenwick(n)
        new = [0] * n
        for pos, v in enumerate(e):
            new[pos] = fen.prefix(v - 1)
            fen.add(v, cur[pos])
        cur = new
    return sum(cur)


def evaluate(kind: StatisticKind, p) -> int:
    """Evaluate a statistic selector on one permutation.

    ``incsub`` keeps its exact Python-integer count; every other statistic is
    its batch kernel on one row.
    """
    if kind.tag == "incsub":
        return increasing_subsequences(p, kind.m)
    return int(evaluate_batch(kind, _row(p), assume_ranks=True)[0])


# ---------------------------------------------------------------------------
# batch statistics on (reps, n) matrices

def ranks_matrix(x: np.ndarray) -> np.ndarray:
    """Row-wise ranks (1 = smallest) with ties broken by column index."""
    x = np.atleast_2d(np.asarray(x))
    reps, n = x.shape
    order = np.argsort(x, axis=1, kind="stable")
    r = np.empty((reps, n), dtype=np.int64)
    rows = np.arange(reps)[:, None]
    r[rows, order] = np.arange(1, n + 1)[None, :]
    return r


def inversions_batch(x: np.ndarray, assume_ranks: bool = False) -> np.ndarray:
    """Row-wise inversion counts of a (reps, n) matrix, O(n log n) per row.

    Bottom-up merge sort of each row, padded to a power of two: at each block
    width every inverted pair is counted exactly once, at the level where its
    positions first share a block.
    """
    x = np.atleast_2d(np.asarray(x))
    reps, n = x.shape
    out = np.empty(reps, dtype=np.int64)
    chunk = max(1, _CHUNK_ELEMENTS // max(n, 1))
    for lo in range(0, reps, chunk):
        hi = min(lo + chunk, reps)
        out[lo:hi] = _inversions_chunk(x[lo:hi], assume_ranks)
    return out


def _inversions_chunk(x: np.ndarray, assume_ranks: bool) -> np.ndarray:
    reps, n = x.shape
    if n < 2:
        return np.zeros(reps, dtype=np.int64)
    # Values 0..n-1 with the row's inversions: ranks less one, or the stable
    # argsort of scores (the inverse of their ranks, ties in column order).
    # The rising pad n..size-1 adds none.
    size = 1 << (n - 1).bit_length()
    keys = np.empty((reps, size), dtype=np.int64)
    keys[:, :n] = x - 1 if assume_ranks else np.argsort(x, axis=1, kind="stable")
    keys[:, n:] = np.arange(n, size)
    keys <<= 1  # low bit: 1 on the right half of the current block
    count = np.zeros(reps, dtype=np.int64)
    w = 1
    while w < size:
        blocks = keys.reshape(-1, 2 * w)
        keys &= ~1
        blocks[:, w:] |= 1
        blocks.sort(axis=1)  # merges the two sorted halves of every block
        # a right element at slot p after q right elements is below w - p + q
        # of the block's w left elements; sum over q < w, then over blocks
        pairs = (size // (2 * w)) * (w * w + w * (w - 1) // 2)
        count += pairs - (keys & 1) @ (np.arange(size) % (2 * w))
        w *= 2
    return count


def anti_inversions_batch(x: np.ndarray, assume_ranks: bool = False) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x))
    n = x.shape[1]
    return n * (n - 1) // 2 - inversions_batch(x, assume_ranks)


def m_descents_batch(x: np.ndarray, m: int, assume_ranks: bool = False) -> np.ndarray:
    if m < 1:
        raise ValueError("m must be >= 1")
    x = np.atleast_2d(np.asarray(x))
    reps, n = x.shape
    if m >= n - 1:
        return inversions_batch(x, assume_ranks)
    out = np.zeros(reps, dtype=np.int64)
    for k in range(1, m + 1):
        out += np.count_nonzero(x[:, :-k] > x[:, k:], axis=1)
    return out


def m_ascents_batch(x: np.ndarray, m: int) -> np.ndarray:
    if m < 1:
        raise ValueError("m must be >= 1")
    x = np.atleast_2d(np.asarray(x))
    reps, n = x.shape
    out = np.zeros(reps, dtype=np.int64)
    for k in range(1, min(m, n - 1) + 1):
        out += np.count_nonzero(x[:, :-k] < x[:, k:], axis=1)
    return out


def local_maxima_batch(x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x))
    reps, n = x.shape
    if n < 3:
        return np.zeros(reps, dtype=np.int64)
    mid = x[:, 1:-1]
    peaks = (mid > x[:, :-2]) & (mid > x[:, 2:])
    return np.count_nonzero(peaks, axis=1).astype(np.int64)


def longest_alternating_batch(x: np.ndarray, ascent_first: bool = False) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x))
    reps, n = x.shape
    if n == 1:
        return np.ones(reps, dtype=np.int64)
    desc = x[:, :-1] > x[:, 1:]
    blocks = 1 + np.count_nonzero(desc[:, 1:] != desc[:, :-1], axis=1)
    first = ~desc[:, 0] if ascent_first else desc[:, 0]
    return (blocks + first).astype(np.int64)


def rising_sequences_batch(x: np.ndarray, m: int) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x))
    reps, n = x.shape
    if not 1 <= m <= n:
        raise ValueError(f"m={m} out of range 1..{n}")
    if m == 1:
        return np.full(reps, n, dtype=np.int64)
    asc = x[:, :-1] < x[:, 1:]
    if m == 2:
        return np.count_nonzero(asc, axis=1).astype(np.int64)
    win = sliding_window_view(asc, m - 1, axis=1).all(axis=-1)
    return np.count_nonzero(win, axis=1).astype(np.int64)


def evaluate_batch(kind: StatisticKind, x: np.ndarray, assume_ranks: bool = False) -> np.ndarray:
    """Row-wise statistic values for a (reps, n) matrix.

    ``incsub`` falls back to a per-row loop (it needs integer values, not just
    comparisons); everything else is vectorized.
    """
    tag = kind.tag
    if tag == "inv":
        return inversions_batch(x, assume_ranks)
    if tag == "ainv":
        return anti_inversions_batch(x, assume_ranks)
    if tag == "desc":
        return m_descents_batch(x, kind.m, assume_ranks)
    if tag == "asc":
        return m_ascents_batch(x, kind.m)
    if tag == "locmax":
        return local_maxima_batch(x)
    if tag == "las":
        return longest_alternating_batch(x)
    if tag == "rising":
        return rising_sequences_batch(x, kind.m)
    if tag == "incsub":
        x = np.atleast_2d(np.asarray(x))
        r = x if assume_ranks else ranks_matrix(x)
        vals = [increasing_subsequences(tuple(int(v) for v in row), kind.m) for row in r]
        return np.asarray(vals, dtype=np.int64)
    raise ValueError(f"unknown statistic tag {tag!r}")
