"""Generalized score models: phi-weighted maxima and Markov-driven draws.

Writes two JSON configs, samples from both generalized models, and compares
player-1 rank frequencies against the two baseline models.
"""
import json
import tempfile
from pathlib import Path

import numpy as np

from permlab import (
    ModelKind,
    ModelSpec,
    chain_from_config,
    load_config,
    phi_from_config,
    sample_permutation_matrix,
)

REPS = 20_000
N = 5
SEED = 99


def rank1_freq(mat: np.ndarray) -> np.ndarray:
    counts = np.bincount(mat[:, 0], minlength=N + 1)[1:]
    return counts / counts.sum()


def main() -> None:
    tmp = Path(tempfile.mkdtemp())
    phi_path = tmp / "phi.json"
    chain_path = tmp / "chain.json"
    # player i draws best of phi(i) scores; table overrides, default identity
    phi_path.write_text(json.dumps({"phi": {"table": {"1": 10}, "default": "identity"}}))
    # lazy chain: stay or step up, never down
    states = list(range(1, N + 1))
    rows = []
    for s in states:
        row = [0.0] * N
        if s == N:
            row[N - 1] = 1.0
        else:
            row[s - 1] = 0.5
            row[s] = 0.5
        rows.append(row)
    chain_path.write_text(json.dumps({"chain": {"states": states, "transitions": rows}}))

    phi = phi_from_config(load_config(phi_path)["phi"])
    chain = chain_from_config(load_config(chain_path)["chain"])

    specs = {
        "inverse-unfair": ModelSpec(ModelKind.INVERSE_UNFAIR),
        "uniform": ModelSpec(ModelKind.UNIFORM),
        "phi(1)=10": ModelSpec.phi_draw(phi),
        "markov": ModelSpec.markov_draw(chain),
    }
    print(f"P(rank of player 1 = r) at n={N}, {REPS} draws")
    header = " ".join(f"r={r}" for r in range(1, N + 1))
    print(f"{'model':>14}  {header}")
    for name, spec in specs.items():
        mat = sample_permutation_matrix(spec, N, REPS, SEED)
        freq = " ".join(f"{f:.3f}" for f in rank1_freq(mat))
        print(f"{name:>14}  {freq}")
    print("\nboosting phi(1) pushes player 1 toward high ranks;")
    print("the upward-drifting chain does the same for later players.")


if __name__ == "__main__":
    main()
