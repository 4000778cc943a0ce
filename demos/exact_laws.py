"""Exact laws of the two permutation models on a small symmetric group.

Prints the full pmf tables for n=4, the identity/reversal closed forms,
and a duality spot check: the rank law at sigma equals the finishing-order
law at sigma inverse.
"""
from fractions import Fraction

from permlab import (
    ModelKind,
    Permutation,
    all_permutations,
    enumerate_law,
    inverse_entries,
    pmf,
    prob_identity,
    prob_reversal,
)


def trunc5(p: Fraction) -> str:
    t = (p.numerator * 100000) // p.denominator
    return f"{t // 100000}.{t % 100000:05d}"


def main() -> None:
    print("pmf tables over S_4 (5 decimals, truncated)")
    rank = enumerate_law(4, ModelKind.INVERSE_UNFAIR, exact=True)
    finish = enumerate_law(4, ModelKind.UNFAIR, exact=True)
    print(f"{'sigma':>10} {'rank law':>10} {'finish law':>12}")
    for out, pr, pf in zip(rank.outcomes, rank.probs, finish.probs):
        print(f"{str(Permutation(out)):>10} {trunc5(pr):>10} {trunc5(pf):>12}")
    print(f"totals: {float(sum(rank.probs)):.12f} {float(sum(finish.probs)):.12f}")

    print("\nclosed forms 2^n/(n+1)! and 2^n n!/(2n)!")
    for n in range(2, 9):
        pid = prob_identity(n, exact=True)
        prev = prob_reversal(n, exact=True)
        print(f"  n={n}: P(rho=id)={pid}  P(rho=reversal)={prev}")

    print("\nduality: rank law at sigma == finishing law at sigma^{-1} (S_5)")
    bad = sum(
        1
        for p in all_permutations(5)
        if pmf(p, "inverse-unfair", exact=True) != pmf(inverse_entries(p), "unfair", exact=True)
    )
    print(f"  mismatches over S_5: {bad}")


if __name__ == "__main__":
    main()
