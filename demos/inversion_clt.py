"""Central limit behaviour of inversions under the rank law.

Draws standardized samples at increasing n and prints the normality gaps
(KS and W1 against N(0,1)) plus the mean/variance scaling constants
(1 - ln 2)/2 and the quadratic-form variance coefficient.
"""
import numpy as np

from permlab import (
    ModelKind,
    ModelSpec,
    closed_form_moments,
    ks_to_normal,
    parse_statistic,
    standardized_sample,
    wasserstein1_to_normal,
)

SEED = 424242


def main() -> None:
    kind = parse_statistic("inv")
    consts = closed_form_moments(kind, 1)
    print(f"mean/n^2 -> {consts['mean_coeff']:.9f}   var/n^3 -> {consts['var_coeff']:.9f}")

    spec = ModelSpec(ModelKind.INVERSE_UNFAIR)
    print(f"\n{'n':>6} {'mean/n^2':>10} {'var/n^3':>10} {'KS':>8} {'W1':>8}")
    for n in (250, 1000, 4000):
        s = standardized_sample(kind, spec, n, 4000, SEED + n)
        raw = np.asarray(s.values) * s.scale + s.center
        print(
            f"{n:>6} {raw.mean() / n**2:>10.6f} {raw.var(ddof=1) / n**3:>10.6f} "
            f"{ks_to_normal(s.values):>8.4f} {wasserstein1_to_normal(s.values):>8.4f}"
        )
    print("\nthe W1 column carries an MC noise floor near 1.36/sqrt(reps);")
    print("raise reps to watch the true n^{-1/2} decay emerge.")


if __name__ == "__main__":
    main()
