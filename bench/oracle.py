"""Reference laws and moments the benchmark checks permlab's outputs against.

Nothing here calls permlab, so a defect shared by the library's samplers and
its exact laws cannot hide behind agreement between the two.

Laws are over rank sequences rho (rho(i) = rank of player i, 1 = smallest
score), as one-line tuples.  Player i keeps the best of k_i uniforms, so
-ln Z_i is exponential with rate k_i, and the exponential race gives the
sequential Plackett-Luce law: the top-ranked player is chosen among the
remaining ones with probability proportional to its draw count (Luce 1959;
Plackett 1975).
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import digamma


def plackett_luce_law(counts) -> dict[tuple[int, ...], float]:
    """Law of rho when player i keeps the best of counts[i-1] uniforms."""
    counts = [float(k) for k in counts]
    n = len(counts)
    law = {}
    # order lists players from the top rank (n) down to rank 1
    for order in itertools.permutations(range(n)):
        p = 1.0
        left = math.fsum(counts)
        for player in order:
            p *= counts[player] / left
            left -= counts[player]
        rho = [0] * n
        for place, player in enumerate(order):
            rho[player] = n - place
        law[tuple(rho)] = p
    return law


def markov_law(states, transitions, n: int) -> dict[tuple[int, ...], float]:
    """Law of rho when the draw counts k_1..k_n are a Markov walk started at
    state 1: the Plackett-Luce law mixed over every walk."""
    states = [int(s) for s in states]
    t = np.asarray(transitions, dtype=float)
    start = states.index(1)
    law: dict[tuple[int, ...], float] = {}
    for tail in itertools.product(range(len(states)), repeat=n - 1):
        p_walk = 1.0
        here = start
        for nxt in tail:
            p_walk *= t[here, nxt]
            here = nxt
        if p_walk == 0.0:
            continue
        counts = [1] + [states[a] for a in tail]
        for rho, p in plackett_luce_law(counts).items():
            law[rho] = law.get(rho, 0.0) + p_walk * p
    return law


def uniform_law(n: int) -> dict[tuple[int, ...], float]:
    p = 1.0 / math.factorial(n)
    return {perm: p for perm in itertools.permutations(range(1, n + 1))}


def tv(law_a: dict, law_b: dict) -> float:
    keys = set(law_a) | set(law_b)
    return math.fsum(abs(law_a.get(k, 0.0) - law_b.get(k, 0.0)) for k in keys) / 2.0


def mean_inversions(n: int) -> float:
    """E[Inv(rho_n)] = sum_{i<j} i/(i+j) = sum_j [(j-1) - j (psi(2j) - psi(j+1))]."""
    j = np.arange(2, n + 1, dtype=float)
    return math.fsum((j - 1.0) - j * (digamma(2.0 * j) - digamma(j + 1.0)))


def mean_m_descents(n: int, m: int) -> float:
    """E[# m-descents of rho_n]: P(Z_i > Z_{i+d}) = i/(2i+d) for gaps d <= m."""
    parts = []
    for d in range(1, min(m, n - 1) + 1):
        i = np.arange(1, n - d + 1, dtype=float)
        parts.append(math.fsum(i / (2.0 * i + d)))
    return math.fsum(parts)
