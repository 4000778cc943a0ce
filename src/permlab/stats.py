"""Permutation statistics: inversions, m-descents, local maxima, alternating
and rising structure, increasing-subsequence counts.

Every statistic has one kernel, a ``*_batch`` form operating on a (reps, n)
matrix, one permutation (or score vector) per row; ``evaluate`` runs it on a
batch of one, for every tag.  ``incsub``'s batch form ranks each row and
counts it with an exact Python-integer Fenwick tree.  Every other statistic
reads one relation, x_i > x_j for i < j (a descending pair; any other pair
ascends), so the batch forms read integer ranks or raw scores alike, with
no flag saying which, and exact ties count as in the stable ranks, the
earlier entry the smaller:

>>> x = np.array([[-1, -1, -2, -0.5, -0.5, -3]])
>>> both = np.vstack([x, ranks_matrix(x)])
>>> m_ascents_batch(both, 1).tolist(), local_maxima_batch(both).tolist()
([3, 3], [2, 2])

One counter sums descending pairs at distances 1..m, or for m >= n / 2 the
inversions less those at the n - 1 - m distances past m; ascents are the
window's pairs less its descents, so ``asc:m`` with m >= n - 1 is ``ainv``.
Inversions of rows of at most 32 are that count; longer rows take an
O(n log n) padded merge sort of int32 keys, their stable argsort, which rank
rows pay too (Inv(p) = Inv(p^-1)).  A row of a batch costs about 0.3 us at
n = 30 (4,000 rows), 2.2 at 100 (20,000) and 60 at 2000 (400) (2-core
x86_64).  Its O(n^2) oracle is in the tests.  Merges run on up to one thread
per CPU, with the same counts for any thread count; pair counts run on the
calling thread.  Ranks of rows of at most 16 count the same pairs per
entry, with no sort: 0.15 ms for 8,000 rows of 4 against 0.6 ms sorted.
Every batch kernel reads bool, integer or float rows with no NaN, and
refuses any other block with one ``ValueError`` line.
"""
from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .perm import as_entries

__all__ = [
    "StatisticKind",
    "parse_statistic",
    "inversions",
    "m_descents",
    "local_maxima",
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

_MERGE_KEYS = 1 << 18  # keys per chunk of a count (padded if merged), >= 1 row
_ORDER_KEYS = 1 << 16  # int64 keys per block of the stable order
_SCATTER_KEYS = 1 << 15  # entries per block of an inverse scatter
_PAIRWISE_COLS = 32  # inversions of rows of at most this many count pair by pair
_LOW63 = 0x7FFF_FFFF_FFFF_FFFF


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
            if not _is_count(self.m):
                raise ValueError(f"statistic {self.tag!r} needs a parameter m >= 1")
        elif self.tag in _TAGS_PLAIN:
            if self.m is not None:
                raise ValueError(f"statistic {self.tag!r} takes no parameter")
        else:
            raise ValueError(f"unknown statistic tag {self.tag!r}")

    def __str__(self) -> str:
        return self.tag if self.m is None else f"{self.tag}:{self.m}"

    def counts_every_pair(self, n: int) -> bool:
        """Whether it counts every pair of n positions, so is equal on g and g^-1."""
        return self.tag in ("inv", "ainv") or self.tag in ("desc", "asc") and self.m >= n - 1


def _is_count(m) -> bool:
    """Whether m is an integer (numpy's too) >= 1; a bool, float or text is not."""
    return isinstance(m, numbers.Integral) and not isinstance(m, bool) and m >= 1


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
    return int(inversions_batch(_row(p))[0])


def m_descents(p, m: int) -> int:
    """Number of pairs (i, j) with 1 <= j - i <= m and p(i) > p(j).

    m = 1 gives classical descents; m >= n - 1 gives inversions.
    """
    return int(m_descents_batch(_row(p), m)[0])


def local_maxima(p) -> int:
    """Number of interior positions 1 < i < n with p(i-1) < p(i) > p(i+1)."""
    return int(local_maxima_batch(_row(p))[0])


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
    C(n, m) never overflow).  O(m n log n) via a Fenwick tree per length step
    over the values, so every entry must lie in 1..n.
    """
    e = as_entries(p)
    n = len(e)
    if not 1 <= m <= n:
        raise ValueError(f"m={m} out of range 1..{n}")
    if min(e) < 1 or max(e) > n:
        raise ValueError(f"entries must lie in 1..{n}")
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
    """Evaluate a statistic selector on one permutation: a batch of one."""
    return int(evaluate_batch(kind, _row(p))[0])


# ---------------------------------------------------------------------------
# batch statistics on (reps, n) matrices

def _rows(x) -> np.ndarray:
    """x as a (reps, n) block, refused unless it holds bool, integer or float
    numbers with no NaN: the one input rule of every batch kernel."""
    x = np.atleast_2d(np.asarray(x))
    kind = x.dtype.kind
    if kind not in "biuf" or kind == "f" and x.size and np.isnan(x.min()):  # min keeps a NaN
        raise ValueError(f"statistics read real numbers with no NaN; got a {x.dtype} block")
    return x


def ranks_matrix(x: np.ndarray) -> np.ndarray:
    """Row-wise ranks (1 = smallest) with ties broken by column index, as in
    the stable argsort.  In rows of at most 16 entries each rank counts the
    entries below it pair by pair; other rows scatter the inverse of
    ``_order``.
    """
    x = _rows(x)
    n = x.shape[1]
    if n == 0:
        return np.empty((len(x), 0), dtype=np.int64)
    if n <= 16:
        return _pairwise_ranks(x)
    return _inverse_rows(_order(x))


def _pairwise_ranks(x: np.ndarray) -> np.ndarray:
    reps, n = x.shape
    # rank of x_i: 1 + i - #{j < i: x_j > x_i} + #{j > i: x_j < x_i}, in uint8
    r = np.tile(np.arange(1, n + 1, dtype=np.uint8)[:, None, None], (1, reps, 1))
    for d, gt in _descents_by_distance(x, n):
        r[:n - d] += gt
        r[d:] -= gt
    return np.ascontiguousarray(r[..., 0].T, dtype=np.int64)


def _inverse_rows(order: np.ndarray, base: int = 0, out: "np.ndarray | None" = None) -> np.ndarray:
    """out[r, order[r, c] - base] = c + 1, the inverses of permutations of
    base..n - 1 + base, scattered through a flat index in cache-sized blocks
    into ``out`` (a fresh uninitialised int64 matrix by default)."""
    reps, n = order.shape
    out = np.empty((reps, n), dtype=np.int64) if out is None else out
    step = max(1, _SCATTER_KEYS // max(n, 1))
    for a in range(0, reps, step):
        block = order[a:a + step]
        rows = np.arange(a, a + len(block)) * n - base
        out.reshape(-1)[np.add(block, rows[:, None], dtype=np.intp)] = np.arange(1, n + 1)
    return out


def _order(x: np.ndarray) -> np.ndarray:
    """Row-wise stable argsort of a (reps, n >= 1) matrix: ties in column order.

    Rows sort one int64 key per entry, in blocks of ``_ORDER_KEYS``: the
    float's order-preserving bits (-0.0 made +0.0) with the low ceil(log2 n)
    bits replaced by the column.  Rows where two of those truncated keys are
    equal (exact ties, two -inf, near neighbours, integers past 2^53) take
    the stable argsort.  Median ms on 2 M log-score entries, stable / this
    (2-core x86_64, one thread):
    45 / 27 at n = 17, 69 / 21 at 100, 137 / 25 at 2000, 183 / 26 at 10000.
    Unblocked, 20,000 x 100 took 36 ms, against 23 to 25 in blocks of 2^15
    to 2^17 keys.
    """
    reps, n = x.shape
    bits = (n - 1).bit_length()
    low = (1 << bits) - 1
    order = np.empty((reps, n), dtype=np.int64)
    cols = np.arange(n)
    step = max(1, _ORDER_KEYS // n)
    tied = np.empty(reps, dtype=bool)
    for a in range(0, reps, step):
        keys = np.add(x[a:a + step], 0.0, dtype=np.float64).view(np.int64)
        keys ^= (keys >> 63) & _LOW63  # negative floats: flip all but the sign
        keys &= ~low
        keys |= cols
        keys.sort(axis=1)
        np.bitwise_and(keys, low, out=order[a:a + step])
        keys >>= bits
        np.any(keys[:, 1:] == keys[:, :-1], axis=1, out=tied[a:a + step])
    redo = np.flatnonzero(tied)
    order[redo] = _stable_order(x[redo])
    return order


def _stable_order(x: np.ndarray) -> np.ndarray:
    return np.argsort(x, axis=1, kind="stable")


def _descending_pairs(x: np.ndarray, m: int, first: int = 1) -> np.ndarray:
    """Per row, the count of x_i > x_{i+d}, first <= d <= m."""
    n = x.shape[1]
    return sum((np.count_nonzero(x[:, :n - d] > x[:, d:], axis=1)
                for d in range(first, min(m, n - 1) + 1)), np.zeros(len(x), dtype=np.int64))


def _descents_by_distance(x: np.ndarray, w: int):
    """(d, x_i > x_{i+d} in each block of w <= 256 columns), 1 <= d < w, with
    the block positions leading: every compare reads rows."""
    t = np.ascontiguousarray(np.moveaxis(x.reshape(len(x), x.shape[1] // w, w), 2, 0))
    for d in range(1, w):
        yield d, t[:w - d] > t[d:]


def _block_descents(x: np.ndarray, w: int) -> np.ndarray:
    """Per row, the pairs x_i > x_{i+d}, 1 <= d < w, in each block of w <= 256
    columns: uint8 sums per distance, uint16 past w = 16."""
    count = np.zeros((len(x), x.shape[1] // w), dtype=np.uint8 if w <= 16 else np.uint16)
    for _, gt in _descents_by_distance(x, w):
        count += np.add.reduce(gt, axis=0, dtype=np.uint8)
    return count.sum(axis=1, dtype=np.int64)


def inversions_batch(x: np.ndarray) -> np.ndarray:
    """Row-wise inversion counts of a (reps, n) matrix.

    Any rows, ranks or scores.  Rows at most ``_PAIRWISE_COLS`` wide sum uint8
    descending pairs per distance, on the calling thread in chunks of
    ``_MERGE_KEYS`` entries; wider rows gain only in hundreds of rows, and
    lose at n = 128 (median us, merge / pairwise):
        n  rows:    1        64       512      1024       4000
        17       121/67   146/74   328/103   549/138   2577/498
        32       114/118  147/139  380/240   791/383   3036/1042
        48       152/176  210/225  725/443  1325/674   4007/2304
        100      162/381  293/565 1414/1367 2728/2164  9323/9717
        128      157/455  324/810 1589/2131 2748/3337  8523/17864
    Wider rows merge-sort their stable argsort, as ``ranks_matrix`` ranks:
    bottom-up merge sort of each row, padded to size = n rounded up to a
    power of two: at each block width every inverted pair is counted exactly
    once, at the level where its positions first share a block.  Keys are
    int32 up to size 2^30.  Chunks of
    ``_MERGE_KEYS // CPUs`` padded keys together stay near the 4 MB L2 cache,
    on up to one thread per CPU, each writing its own rows.
    Median ms on score rows by keys per chunk, one thread (2 cores, AVX-512),
    median of three runs; on 2 CPUs a chunk holds 2^17 keys:
        rows x n     2^16  2^17  2^18  2^19  2^20  2^21
        400 x 2000     40    38    36    36    39    38
        1000 x 4000   208   193   213   206   218   224
        8000 x 100     25    24    30    29    30    30
        40 x 10000     41    37    36    39    38    34
    """
    x = _rows(x)
    n = x.shape[1]
    if n > _PAIRWISE_COLS:  # padded to a power of two
        return _in_chunks(x, _inversions_chunk, 1 << (n - 1).bit_length(), os.cpu_count() or 1)
    return _in_chunks(x, lambda y: _block_descents(y, max(n, 1)), max(n, 1), 1)


def _in_chunks(x: np.ndarray, kernel, keys: int, threads: int) -> np.ndarray:
    """The kernel's row counts in chunks of ``_MERGE_KEYS // threads`` keys, ``keys`` a row."""
    out = np.empty(len(x), dtype=np.int64)
    chunk = max(1, (_MERGE_KEYS // threads) // keys)
    starts = range(0, len(x), chunk)

    def count(lo: int) -> None:
        out[lo:lo + chunk] = kernel(x[lo:lo + chunk])

    if min(threads, len(starts)) > 1:
        with ThreadPoolExecutor(min(threads, len(starts))) as pool:
            list(pool.map(count, starts))
    else:
        list(map(count, starts))
    return out


def _inversions_chunk(x: np.ndarray) -> np.ndarray:
    reps, n = x.shape
    # Keys 0..n-1 with the row's inversions: its stable argsort, the inverse
    # of its ranks.  The rising pad adds none.
    size = 1 << (n - 1).bit_length()
    keys = np.empty((reps, size), dtype=np.int32 if size <= 1 << 30 else np.int64)
    keys[:, :n] = _order(x)
    keys[:, n:] = np.arange(n, size)
    # numpy sorts short rows slowly: count blocks of 16 pair by pair, sort once
    w = min(16, size)
    count = _block_descents(keys, w)
    keys.reshape(reps, -1, w).sort(axis=2)
    keys <<= 1  # low bit: 1 on the right half of the current block
    pos = np.arange(size, dtype=np.int32 if size <= 1 << 16 else np.int64)  # sums < 2^31
    while w < size:
        blocks = keys.reshape(-1, 2 * w)
        keys &= ~1
        blocks[:, w:] |= 1
        blocks.sort(axis=1)  # merges the two sorted halves of every block
        # a right element at slot p after q right elements is below w - p + q
        # of the block's w left elements; sum over q < w, then over blocks
        count += (size // (2 * w)) * (w * w + w * (w - 1) // 2)
        count -= np.einsum("ij,j->i", keys & 1, pos % (2 * w))
        w *= 2
    return count


def anti_inversions_batch(x: np.ndarray) -> np.ndarray:
    x = _rows(x)
    return m_ascents_batch(x, x.shape[1] + 1)  # a window past the row: every pair


def m_descents_batch(x: np.ndarray, m: int) -> np.ndarray:
    if not _is_count(m):
        raise ValueError("m must be an integer >= 1")
    x = _rows(x)
    n = x.shape[1]
    if 2 * m < n:
        return _descending_pairs(x, m)
    return inversions_batch(x) - _descending_pairs(x, n, m + 1)  # less those past m


def m_ascents_batch(x: np.ndarray, m: int) -> np.ndarray:
    x = _rows(x)
    desc = m_descents_batch(x, m)
    k = min(m, x.shape[1] - 1)
    return k * x.shape[1] - k * (k + 1) // 2 - desc


def local_maxima_batch(x: np.ndarray) -> np.ndarray:
    x = _rows(x)
    reps, n = x.shape
    if n < 3:
        return np.zeros(reps, dtype=np.int64)
    desc = x[:, :-1] > x[:, 1:]
    return np.count_nonzero(~desc[:, :-1] & desc[:, 1:], axis=1).astype(np.int64)


def longest_alternating_batch(x: np.ndarray) -> np.ndarray:
    """Longest alternating subsequence, descent first: a1 > a2 < a3 > ...

    A single element alternates, so the identity scores 1; a row of no
    entries scores 0.
    """
    x = _rows(x)
    reps, n = x.shape
    if n <= 1:
        return np.full(reps, n, dtype=np.int64)
    desc = x[:, :-1] > x[:, 1:]
    blocks = 1 + np.count_nonzero(desc[:, 1:] != desc[:, :-1], axis=1)
    return (blocks + desc[:, 0]).astype(np.int64)


def rising_sequences_batch(x: np.ndarray, m: int) -> np.ndarray:
    x = _rows(x)
    n = x.shape[1]
    if not _is_count(m) or m > n:
        raise ValueError(f"m={m} out of range 1..{n}")
    win = sliding_window_view(~(x[:, :-1] > x[:, 1:]), m - 1, axis=1).all(axis=-1)
    return np.count_nonzero(win, axis=1).astype(np.int64)


def evaluate_batch(kind: StatisticKind, x: np.ndarray) -> np.ndarray:
    """Row-wise statistic values for a (reps, n) matrix.

    ``incsub`` falls back to a per-row loop (it needs integer values, not just
    comparisons), with Python-integer (object) values once a count reaches
    2^63; everything else is vectorized.
    """
    tag = kind.tag
    if tag == "inv":
        return inversions_batch(x)
    if tag == "ainv":
        return anti_inversions_batch(x)
    if tag == "desc":
        return m_descents_batch(x, kind.m)
    if tag == "asc":
        return m_ascents_batch(x, kind.m)
    if tag == "locmax":
        return local_maxima_batch(x)
    if tag == "las":
        return longest_alternating_batch(x)
    if tag == "rising":
        return rising_sequences_batch(x, kind.m)
    if tag == "incsub":
        vals = [increasing_subsequences(tuple(int(v) for v in row), kind.m)
                for row in ranks_matrix(x)]
        return np.asarray(vals, dtype=np.int64 if max(vals, default=0) < 2 ** 63 else object)
    raise ValueError(f"unknown statistic tag {tag!r}")
