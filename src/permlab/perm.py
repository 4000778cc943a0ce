"""Permutations of {1, ..., n} in one-line notation.

A permutation is stored as the tuple (p(1), ..., p(n)).  The text form is
comma-separated one-line notation, e.g. ``"4,3,1,2"``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "NotABijection",
    "Permutation",
    "validate",
    "as_entries",
    "inverse_entries",
    "all_permutations",
]


class NotABijection(ValueError):
    """Raised when a sequence is not a permutation of 1..n."""


def validate(entries: Sequence[int]) -> tuple[int, ...]:
    """Check that ``entries`` is a bijection on {1..n} and return it as a tuple.

    >>> validate([2, 1, 3])
    (2, 1, 3)
    >>> validate([1, 1, 3])
    Traceback (most recent call last):
        ...
    permlab.perm.NotABijection: not a permutation of 1..3: (1, 1, 3)
    """
    vals = []
    for x in entries:
        ix = int(x)
        if ix != x:  # rejects 1.5 instead of silently truncating it
            raise NotABijection(f"non-integer entry {x!r}")
        vals.append(ix)
    t = tuple(vals)
    n = len(t)
    if n == 0:
        raise NotABijection("empty sequence is not a permutation (n >= 1)")
    if sorted(t) != list(range(1, n + 1)):
        raise NotABijection(f"not a permutation of 1..{n}: {t}")
    return t


def as_entries(p: "Permutation | Sequence[int]") -> tuple[int, ...]:
    """One-line entries of ``p`` as a plain tuple, without re-validation."""
    if isinstance(p, Permutation):
        return p.entries
    return tuple(int(x) for x in p)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, one-line notation, hashable and immutable.

    >>> p = Permutation.from_string("4,3,1,2")
    >>> p.n
    4
    >>> p(1), p(4)
    (4, 2)
    >>> str(p.inverse())
    '3,4,2,1'
    >>> p.inverse().inverse() == p
    True
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", validate(self.entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def from_string(cls, text: str) -> "Permutation":
        """Parse comma-separated one-line notation, e.g. ``"4,3,1,2"``."""
        parts = [s.strip() for s in text.split(",") if s.strip() != ""]
        try:
            entries = tuple(int(s) for s in parts)
        except ValueError as exc:
            raise NotABijection(f"cannot parse permutation from {text!r}") from exc
        return cls(entries)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.entries)

    def __call__(self, i: int) -> int:
        """Image p(i) for 1 <= i <= n."""
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} out of range 1..{self.n}")
        return self.entries[i - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __len__(self) -> int:
        return self.n

    def inverse(self) -> "Permutation":
        """The inverse permutation: inverse()(p(i)) == i."""
        return Permutation(inverse_entries(self.entries))


def inverse_entries(entries: Sequence[int]) -> tuple[int, ...]:
    """Inverse of a raw one-line tuple, without constructing Permutation."""
    n = len(entries)
    inv = [0] * n
    for pos, val in enumerate(entries, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def all_permutations(n: int) -> Iterable[tuple[int, ...]]:
    """All one-line tuples of S_n in lexicographic order."""
    import itertools

    return itertools.permutations(range(1, n + 1))


def permutation_matrix(n: int) -> np.ndarray:
    """All of S_n as the rows of an (n!, n) int64 matrix, in the lexicographic
    order of all_permutations, built with no per-row Python objects."""
    m = np.zeros((1, 0), dtype=np.int64)
    for k in range(1, n + 1):
        # S_k: each first entry v, then S_(k-1) in order on the values other than v
        m = np.concatenate([np.column_stack([np.full(len(m), v), m + (m >= v)])
                            for v in range(1, k + 1)])
    return m
