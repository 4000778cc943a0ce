"""Brute-force reference implementations used to check the fast kernels.

Everything here is written for clarity, not speed: quadratic double loops and
exhaustive subsequence searches.  Keep these independent of the library code
under test (no imports from permlab beyond the test modules' own calls).
"""
from __future__ import annotations

import itertools
from fractions import Fraction


def inv_oracle(e) -> int:
    e = list(e)
    n = len(e)
    return sum(1 for i in range(n) for j in range(i + 1, n) if e[i] > e[j])


def ainv_oracle(e) -> int:
    e = list(e)
    n = len(e)
    return sum(1 for i in range(n) for j in range(i + 1, n) if e[i] < e[j])


def m_desc_oracle(e, m: int) -> int:
    e = list(e)
    n = len(e)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, min(i + m, n - 1) + 1)
        if e[i] > e[j]
    )


def m_asc_oracle(e, m: int) -> int:
    e = list(e)
    n = len(e)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, min(i + m, n - 1) + 1)
        if e[i] < e[j]
    )


def locmax_oracle(e) -> int:
    e = list(e)
    return sum(
        1 for i in range(1, len(e) - 1) if e[i - 1] < e[i] > e[i + 1]
    )


def _alternates(seq) -> bool:
    want_desc = True
    for a, b in zip(seq, seq[1:]):
        if want_desc and not a > b:
            return False
        if not want_desc and not a < b:
            return False
        want_desc = not want_desc
    return True


def las_oracle(e) -> int:
    """Longest alternating subsequence, descent first, by exhaustive search
    (n <= ~10)."""
    e = list(e)
    n = len(e)
    best = 1
    for size in range(2, n + 1):
        found = False
        for comb in itertools.combinations(e, size):
            if _alternates(comb):
                best = size
                found = True
                break
        if not found:
            break
    return best


def rising_oracle(e, m: int) -> int:
    e = list(e)
    n = len(e)
    if m == 1:
        return n
    count = 0
    for i in range(n - m + 1):
        window = e[i : i + m]
        if all(a < b for a, b in zip(window, window[1:])):
            count += 1
    return count


def incsub_oracle(e, m: int) -> int:
    """Exact count of increasing length-m subsequences via combinations."""
    e = list(e)
    return sum(
        1
        for comb in itertools.combinations(e, m)
        if all(a < b for a, b in zip(comb, comb[1:]))
    )


def incsub_dp_oracle(e, m: int) -> int:
    """Same count by a plain quadratic DP (no Fenwick tree)."""
    e = list(e)
    n = len(e)
    cur = [1] * n
    for _ in range(2, m + 1):
        new = [0] * n
        for pos in range(n):
            new[pos] = sum(cur[q] for q in range(pos) if e[q] < e[pos])
        cur = new
    return sum(cur)


def rank_pmf_oracle(entries) -> Fraction:
    """P(rank sequence = entries), from the ordered-tuple product formula
    applied to the inverse, written independently of the library."""
    entries = list(entries)
    n = len(entries)
    inv = [0] * n
    for pos, val in enumerate(entries, start=1):
        inv[val - 1] = pos
    p = Fraction(1)
    s = 0
    for i in inv:
        s += i
        p *= Fraction(i, s)
    return p


def finish_pmf_oracle(entries) -> Fraction:
    """P(finishing order = entries) = n! / prod of prefix sums."""
    entries = list(entries)
    n = len(entries)
    num = 1
    for k in range(1, n + 1):
        num *= k
    den = 1
    s = 0
    for a in entries:
        s += a
        den *= s
    return Fraction(num, den)


def plackett_luce_oracle(counts) -> dict[tuple[int, ...], Fraction]:
    """Law of the rank sequence when player i keeps the best of counts[i-1]
    uniforms, as exact Fractions.

    Built from the top down: the best remaining player is drawn with
    probability proportional to its draw count, and gets the highest rank
    still free.
    """
    counts = [int(k) for k in counts]
    n = len(counts)
    law: dict[tuple[int, ...], Fraction] = {}
    for order in itertools.permutations(range(n)):  # best player first
        p = Fraction(1)
        left = sum(counts)
        for player in order:
            p *= Fraction(counts[player], left)
            left -= counts[player]
        rho = [0] * n
        for place, player in enumerate(order):
            rho[player] = n - place
        law[tuple(rho)] = p
    return law


def moment_oracle(n: int, stat, power: int = 1) -> Fraction:
    """E[stat(rank sequence)^power] over S_n by exhaustive enumeration."""
    total = Fraction(0)
    for p in itertools.permutations(range(1, n + 1)):
        total += rank_pmf_oracle(p) * (stat(p) ** power)
    return total


def las_dp_oracle(e) -> int:
    """Longest alternating subsequence, descent first, by quadratic DP (any n).

    down[i]/up[i]: longest valid subsequence ending at i whose last step fell
    or rose, 0 when none exists; a fresh pair may only open with a descent.
    """
    e = list(e)
    n = len(e)
    down = [0] * n
    up = [0] * n
    for i in range(n):
        for j in range(i):
            if e[j] > e[i]:
                down[i] = max(down[i], 2)
                if up[j]:
                    down[i] = max(down[i], up[j] + 1)
            elif e[j] < e[i]:
                if down[j]:
                    up[i] = max(up[i], down[j] + 1)
    return max([1] + down + up)
