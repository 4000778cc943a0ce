"""Golden hashes: the integer outputs of the samplers, of statistics on
their rows and of the size-bias coupling, pinned to sha256 hashes.

A kernel rewrite that is meant to give the same bits must leave every hash
as it is.  Only integers are hashed: ``np.log`` may round the last bit of a
float differently on another SIMD path, but the ranks it leads to do not
move unless two scores fall within that bit of each other.
"""
import hashlib

import numpy as np
import pytest

import permlab as pl
from permlab.sizebias import couple_batch
from permlab.stats import evaluate_batch, parse_statistic

SEED = 24
# The README's phi.json and chain.json
PHI = {"table": {"1": 10, "3": 2}, "default": "identity"}
CHAIN = {"states": [1, 2, 3],
         "transitions": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]}

SPECS = {
    "uniform": pl.ModelSpec.uniform(),
    "unfair": pl.ModelSpec.unfair(),
    "inverse-unfair": pl.ModelSpec.inverse_unfair(),
    "phi": pl.ModelSpec.phi_draw(pl.phi_from_config(PHI)),
    "markov": pl.ModelSpec.markov_draw(pl.chain_from_config(CHAIN)),
}

# sha256 of (rows, inv of the rows, locmax of the rows) as little-endian int64
ROWS = {
    ("uniform", 8000, 4): "bf6b98bf60b74da4880c5ac8729842923d00305cd758cad1d82d230ff3899948",
    ("uniform", 2000, 16): "f46bf04570e153d5fcf5ac031e0d1f27e4c825501cab16b641548f115736238b",
    ("uniform", 2000, 17): "a3724c5e5ae17459c56d7bc109435d3b8ff407b7059f970ad5e48b71f5ea8c65",
    ("uniform", 20000, 100): "0600345c14a1f659257f799cedf38775db586c58e10597a3b052b7f0e109d240",
    ("unfair", 8000, 4): "638712e8a3431ea6a5a94d7824b94637b1ed4c6c1632b791a49aca733b794fd3",
    ("unfair", 2000, 16): "22b0e814ad477882544bb8e9f5b8295d2e15f3498cbff5ab4eb4ca285cd2c232",
    ("unfair", 2000, 17): "0bdf22c88a239d4d03fd8a0b0a6c5bcb70afec90349cd2dfc80dc8cafa0c5818",
    ("unfair", 20000, 100): "6c39315e23b42ac852c180985da4cad9fe2d9c3edcb79fe95fe10ad841d0971e",
    ("inverse-unfair", 8000, 4):
        "a3bf553eff8d325dbcbb4a3bd203ba4837397b85a369bc11b0cafee81c5a594b",
    ("inverse-unfair", 2000, 16):
        "5ad11d85ac693ac613bc86f9141485dfbb8eb6ee100ff9f1a4cafc4a95a9d5fc",
    ("inverse-unfair", 2000, 17):
        "1b91699bd0c31fa9d45750543ccf3268b1628526087d2db82f1dd6e075b5987b",
    ("inverse-unfair", 20000, 100):
        "9ad741def9e9a39001cdffe4ada974565712b77e22a59e22d9562f2739cb1fd2",
    ("phi", 8000, 4): "2afd3a5ea55e6781265dcf3f33cd08dbb260809a9b1551e52802c334dcdb40d9",
    ("phi", 2000, 16): "fc777e5b99b81073379eccc6bbe2ef92bf2ab71d1e8d722649c1c46941ef0180",
    ("phi", 2000, 17): "cfa801569923365abad3dc1dfb8b82302739bacfd896640faf7f9809dc3be0ae",
    ("phi", 20000, 100): "d6ad40fabe0f53bff53144c97a9f687c94a53588a1dc62cb4fdcd0e5d390b9bd",
    ("markov", 8000, 4): "9b956c9f7567f33086b15a821ab4471ff847825786a26dc1c745d71c1a249577",
    ("markov", 2000, 16): "458f49576e0f00495a44640f9582b6e0901a8166dd11bf8099db608a2b469989",
    ("markov", 2000, 17): "87fda04b3315e472fd0b032e39820f05b84fb10221359d8c89977ec8d6ed074b",
    ("markov", 20000, 100): "e26d2cce54c1a1bbca44d18d30f0c92d39d02c8e050c03c8c0e27334f51ea724",
}
# sha256 of inv and desc:3 on inverse-unfair score rows, then on their
# permutation rows, each on every row and on the first row alone: widths on
# both sides of the pairwise inversion count (at most 32 columns)
SHORT = {
    (4000, 17): "ebd7543d2c429fa85a3aa244fb6dfaf8245989a909fa1dc043a249fa0f100e79",
    (4000, 30): "7906947b4292cfaef12d28cc3787064c564507c49b0fb2a72e6c4c3ba5891714",
    (1500, 64): "10b555585e5bd6404f415272ad1d4b7605aa55129243e441906ee171f6d722d4",
    (1500, 100): "05179687498cf0e015575efd4b21b9896785893ff5d1ed71fa816fe80ad808b6",
}
# sha256 of couple_batch(1000, 300)'s w, w_s, i and j
COUPLING = "787ad0d537c3423ca62f08678de7ca7c997f4cb56b7f32e33f9c87c8d5131d75"


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", list(SPECS))
def test_sampled_rows_and_their_statistics_keep_their_bits(kind):
    for (k, reps, n), want in ROWS.items():
        if k != kind:
            continue
        rows = pl.sample_permutation_matrix(SPECS[kind], n, reps, SEED)
        inv = evaluate_batch(parse_statistic("inv"), rows)
        locmax = evaluate_batch(parse_statistic("locmax"), rows)
        assert _sha256(rows, inv, locmax) == want, (kind, reps, n)


@pytest.mark.parametrize("reps, n", list(SHORT))
def test_short_row_counts_keep_their_bits(reps, n):
    spec = pl.ModelSpec.inverse_unfair()
    scores = pl.sample_score_matrix(spec, n, reps, SEED)
    perms = pl.sample_permutation_matrix(spec, n, reps, SEED)
    counts = [evaluate_batch(parse_statistic(sel), rows)
              for rows in (scores, perms, scores[:1], perms[:1]) for sel in ("inv", "desc:3")]
    assert _sha256(*counts) == SHORT[reps, n]


def test_coupled_draws_keep_their_bits():
    c = couple_batch(1000, 300, SEED)
    assert _sha256(c["w"], c["w_s"], c["i"], c["j"]) == COUPLING
