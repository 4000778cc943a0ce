import json

import numpy as np
import pytest

from permlab import exact, models
from permlab.models import (
    MarkovChainSpec,
    ModelKind,
    ModelSpec,
    PhiSpec,
    ScoreVector,
    TieDetected,
)
from permlab.perm import Permutation, all_permutations
from permlab.rng import make_generator
from permlab.stats import ranks_matrix


# ---------------------------------------------------------------------------
# specs and configuration

def test_model_kind_values():
    assert ModelKind("inverse-unfair") is ModelKind.INVERSE_UNFAIR
    assert ModelKind("unfair") is ModelKind.UNFAIR
    assert {k.value for k in ModelKind} == {
        "uniform", "unfair", "inverse-unfair", "phi", "markov",
    }


def test_model_spec_requirements():
    with pytest.raises(ValueError):
        ModelSpec(ModelKind.PHI)
    with pytest.raises(ValueError):
        ModelSpec(ModelKind.MARKOV)


def test_phi_spec():
    assert PhiSpec.one()(17) == 1
    assert PhiSpec.identity()(17) == 17
    phi = PhiSpec.from_table({1: 5, 3: 2}, default="identity")
    assert (phi(1), phi(2), phi(3)) == (5, 2, 2)
    phi = PhiSpec.from_table({2: 9}, default=4)
    assert (phi(1), phi(2)) == (4, 9)
    with pytest.raises(ValueError):
        PhiSpec.from_table({0: 1})
    with pytest.raises(ValueError):
        PhiSpec.from_table({1: 0})
    with pytest.raises(ValueError):
        PhiSpec.from_table({1: 1}, default=0)
    with pytest.raises(ValueError):
        PhiSpec.from_table({1: 1}, default="sometimes")
    bad = PhiSpec(lambda i: 0, "zero")
    with pytest.raises(ValueError):
        bad(1)


def test_markov_chain_validation():
    MarkovChainSpec((1, 2), np.array([[0.5, 0.5], [0.25, 0.75]]))
    with pytest.raises(ValueError):
        MarkovChainSpec((), np.zeros((0, 0)))
    with pytest.raises(ValueError):
        MarkovChainSpec((2, 3), np.eye(2))  # start state 1 missing
    with pytest.raises(ValueError):
        MarkovChainSpec((1, 1), np.eye(2))
    with pytest.raises(ValueError):
        MarkovChainSpec((1, 2), np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        MarkovChainSpec((1, 2), np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        MarkovChainSpec((1, 2), np.ones((2, 3)))


def test_markov_walk_starts_at_one_and_follows_supports():
    chain = MarkovChainSpec((1, 3), np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = chain.walk(6, make_generator(0))
    assert out.tolist() == [1, 3, 1, 3, 1, 3]


class _FixedUniforms:
    """Serves the columns of a fixed (n,) or (rows, n) array of uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)
        self.pos = 0

    def random(self, k):
        self.pos += k
        return self.u[..., self.pos - k:self.pos].copy()


def _walk_reference(chain, u_row):
    cum = np.cumsum(chain.transitions, axis=1)
    idx = chain.states.index(1)
    out = [1]
    for u in u_row:
        idx = min(int(np.searchsorted(cum[idx], u, side="right")), len(chain.states) - 1)
        out.append(chain.states[idx])
    return out


def test_markov_walk_matches_searchsorted_reference():
    # cumulative rows: [0.25, 1, 1], [0.5, 0.5, 1], [0, 0.5, 1 - 1e-13]
    t = np.array([[0.25, 0.75, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5 - 1e-13]])
    chain = MarkovChainSpec((1, 2, 4), t)
    # u on a boundary (0.25 from 1, 0.5 from 2), u = 0 from 4 (skips the
    # zero-probability move to 1), u above a row sum short of 1 (clamped)
    edge = [0.25, 0.5, 0.0, 0.5, 0.5, 1.0 - 1e-14, 0.9, 0.1]
    assert _walk_reference(chain, edge) == [1, 2, 4, 2, 4, 4, 4, 4, 2]
    rows = np.vstack([edge, make_generator(3).random((40, len(edge)))])
    want = [_walk_reference(chain, row) for row in rows]
    assert chain.walk(len(edge) + 1, _FixedUniforms(rows)).tolist() == want
    for r, row in enumerate(rows):
        assert chain.walk(len(edge) + 1, _FixedUniforms(row)).tolist() == want[r]
    # a block of streams walks as one generator per stream does
    block = chain.walk(30, make_generator(9, np.arange(5, 25)))
    for r in range(20):
        gen = make_generator(9, 5 + r)
        assert block[r].tolist() == chain.walk(30, gen).tolist()
        assert block[r].tolist() == _walk_reference(chain, make_generator(9, 5 + r).random(29))


def test_phi_config(tmp_path):
    assert models.phi_from_config("one").name == "one"
    assert models.phi_from_config("identity")(9) == 9
    phi = models.phi_from_config({"table": {"2": 7}, "default": "one"})
    assert (phi(1), phi(2)) == (1, 7)
    phi = models.phi_from_config({"table": [[1, 4], [2, 6]]})
    assert (phi(1), phi(2), phi(3)) == (4, 6, 3)
    with pytest.raises(ValueError):
        models.phi_from_config("sqrt")
    with pytest.raises(ValueError):
        models.phi_from_config({"default": 3})
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"phi": {"table": {"1": 2}, "default": "identity"}}))
    obj = models.load_config(str(path))
    assert models.phi_from_config(obj["phi"])(1) == 2


def test_chain_config(tmp_path):
    obj = {"states": [1, 2], "transitions": [[0.5, 0.5], [0.1, 0.9]]}
    chain = models.chain_from_config(obj)
    assert chain.states == (1, 2)
    flat = {"states": [1, 2], "transitions": [0.5, 0.5, 0.1, 0.9]}
    assert models.chain_from_config(flat).transitions.tolist() == [
        [0.5, 0.5], [0.1, 0.9],
    ]
    with pytest.raises(ValueError):
        models.chain_from_config({"states": [1, 2], "transitions": [0.5, 0.5, 0.1]})
    with pytest.raises(ValueError):
        models.chain_from_config({"states": [1, 2]})
    with pytest.raises(ValueError):
        models.chain_from_config([1, 2])
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(obj))
    assert models.load_config(str(path))["states"] == [1, 2]
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ValueError):
        models.load_config(str(bad))


# ---------------------------------------------------------------------------
# scores and ranks

def test_score_vector_validation():
    v = ScoreVector([0.2, 0.9])
    assert len(v) == 2
    assert not v.values.flags.writeable
    with pytest.raises(ValueError):
        ScoreVector([[0.1], [0.2]])
    with pytest.raises(ValueError):
        ScoreVector([])
    with pytest.raises(ValueError):
        ScoreVector([0.0, 0.5])
    with pytest.raises(ValueError):
        ScoreVector([0.5, 1.0])
    with pytest.raises(ValueError):
        ScoreVector([0.5, float("nan")])


def test_max_of_k_uniforms():
    rng = make_generator(1)
    vals = [models.max_of_k_uniforms(5, rng) for _ in range(2000)]
    assert all(0.0 < v < 1.0 for v in vals)
    # E[max of 5] = 5/6
    assert np.mean(vals) == pytest.approx(5 / 6, abs=0.02)
    big = models.max_of_k_uniforms(10 ** 9, make_generator(2))
    assert 0.0 < big < 1.0
    with pytest.raises(ValueError):
        models.max_of_k_uniforms(0, rng)
    with pytest.raises(ValueError):
        models.max_of_k_uniforms(2.5, rng)


def test_ranks_tie_policy():
    with pytest.raises(TieDetected):
        models.ranks([0.5, 0.5, 0.1])
    p = models.ranks([0.5, 0.5, 0.1], on_ties="stable")
    assert p.entries == (2, 3, 1)
    with pytest.raises(ValueError):
        models.ranks([0.5, 0.4], on_ties="whatever")
    assert models.ranks([0.3, 0.1, 0.9]).entries == (2, 1, 3)


def test_sample_scores_shapes_and_range():
    rng = make_generator(3)
    v = models.sample_scores(ModelSpec.inverse_unfair(), 50, rng)
    assert len(v) == 50
    assert np.all((v.values > 0.0) & (v.values < 1.0))
    with pytest.raises(ValueError):
        models.sample_scores(ModelSpec.inverse_unfair(), 0, rng)
    # uniform scores are best-of-1: the stream's own uniforms
    u = models.sample_scores(ModelSpec.uniform(), 5, make_generator(8))
    assert np.array_equal(u.values, make_generator(8).random(5))


def test_later_players_score_higher_on_average():
    # player n keeps the best of n draws, so its mean rank dominates
    mat = models.sample_score_matrix(ModelSpec.inverse_unfair(), 30, 4000, seed=9)
    r = ranks_matrix(mat)
    mean_rank = r.mean(axis=0)
    assert mean_rank[0] < mean_rank[10] < mean_rank[29]


def test_sample_single_draws():
    rng = make_generator(4)
    p = models.sample_inverse_unfair(8, rng)
    assert isinstance(p, Permutation) and p.n == 8
    q = models.sample_unfair(8, make_generator(4))
    assert q == p.inverse()
    u = models.sample_uniform(6, make_generator(5))
    assert sorted(u.entries) == [1, 2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        models.sample_uniform(0, rng)


def test_sample_permutation_dispatch():
    for spec in (ModelSpec.uniform(), ModelSpec.unfair(), ModelSpec.inverse_unfair()):
        p = models.sample_permutation(spec, 7, make_generator(6))
        assert p.n == 7
    p1 = models.sample_permutation(ModelSpec.inverse_unfair(), 7, make_generator(6))
    p2 = models.sample_permutation(ModelSpec.unfair(), 7, make_generator(6))
    assert p2 == p1.inverse()


# ---------------------------------------------------------------------------
# batch sampling determinism

_ALL_MODELS = (
    ModelSpec.uniform(),
    ModelSpec.unfair(),
    ModelSpec.inverse_unfair(),
    ModelSpec.phi_draw(PhiSpec.from_table({1: 3}, default="identity")),
    ModelSpec.markov_draw(MarkovChainSpec((1, 2), np.array([[0.3, 0.7], [0.6, 0.4]]))),
)


def test_matrix_row_is_stream_replica():
    for spec in _ALL_MODELS:
        for reps in (5, 200):  # per-row and stepped rows
            mat = models.sample_permutation_matrix(spec, 9, reps, seed=42)
            for r in range(reps):
                single = models.sample_permutation(spec, 9, make_generator(42, stream=r))
                assert tuple(int(v) for v in mat[r]) == single.entries


def test_worker_count_invariance():
    for spec in (
        ModelSpec.uniform(),
        ModelSpec.inverse_unfair(),
        ModelSpec.phi_draw(PhiSpec.from_table({1: 3}, default="identity")),
        ModelSpec.markov_draw(
            MarkovChainSpec((1, 2), np.array([[0.3, 0.7], [0.6, 0.4]]))
        ),
    ):
        a = models.sample_permutation_matrix(spec, 12, 31, seed=5, workers=1)
        b = models.sample_permutation_matrix(spec, 12, 31, seed=5, workers=3)
        c = models.sample_permutation_matrix(spec, 12, 31, seed=5, workers=8)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)


def test_score_rows_match_per_row_streams_on_both_paths(monkeypatch):
    # both paths must give the bits of one make_generator per row; the spy
    # checks that each path really ran
    stepped_calls = []

    def spy(seed, stream=0, substream=None):
        if np.ndim(stream):
            stepped_calls.append(stream)
        return make_generator(seed, stream, substream)

    monkeypatch.setattr(models, "make_generator", spy)
    wide = models._STEPPED_MAX_WIDTH + 1
    for spec in _ALL_MODELS:
        # markov rows draw 2n - 1 uniforms: 15 at n = 8, so 45 rows per block
        for n, reps, stepped in ((8, 150, True), (wide, 3, False)):
            want = np.array([
                models.sample_scores(spec, n, make_generator(5, 7 + r)).values
                for r in range(reps)
            ])
            for workers in (1, 2, 3):
                stepped_calls.clear()
                got = models.sample_score_matrix(
                    spec, n, reps, seed=5, first_stream=7, workers=workers
                )
                assert np.array_equal(got, want)
                assert bool(stepped_calls) == stepped


def test_first_stream_offset():
    spec = ModelSpec.inverse_unfair()
    a = models.sample_score_matrix(spec, 6, 4, seed=1, first_stream=2)
    b = models.sample_score_matrix(spec, 6, 6, seed=1, first_stream=0)
    assert np.array_equal(a, b[2:])


def test_unfair_rows_are_inverses():
    spec_r = ModelSpec.inverse_unfair()
    spec_f = ModelSpec.unfair()
    rho = models.sample_permutation_matrix(spec_r, 8, 10, seed=13)
    gam = models.sample_permutation_matrix(spec_f, 8, 10, seed=13)
    assert np.array_equal(models.invert_rows(rho), gam)
    assert np.array_equal(models.invert_rows(gam), rho)


def test_invert_rows():
    rho = np.array([[2, 3, 1], [1, 2, 3]])
    assert models.invert_rows(rho).tolist() == [[3, 1, 2], [1, 2, 3]]


def test_phi_one_is_uniform_law():
    # best-of-1 scores are iid uniforms, so the rank sequence is uniform;
    # compare empirical frequencies on S_3 against 1/6
    spec = ModelSpec.phi_draw(PhiSpec.one())
    mat = models.sample_permutation_matrix(spec, 3, 60_000, seed=77)
    _, counts = np.unique(mat, axis=0, return_counts=True)
    freqs = counts / mat.shape[0]
    assert len(freqs) == 6
    assert np.max(np.abs(freqs - 1 / 6)) < 0.01


def test_phi_identity_matches_inverse_unfair_law():
    # phi = identity must reproduce the rank-sequence law exactly (same
    # draw counts); with equal seeds the matrices agree bit for bit
    spec = ModelSpec.phi_draw(PhiSpec.identity())
    a = models.sample_permutation_matrix(spec, 10, 50, seed=8)
    b = models.sample_permutation_matrix(ModelSpec.inverse_unfair(), 10, 50, seed=8)
    assert np.array_equal(a, b)


def test_markov_deterministic_chain_matches_identity_phi():
    # a chain that must step 1 -> 2 -> 3 -> ... reproduces draw counts
    # k_i = i, hence the inverse-unfair law; distributions agree by TV
    k = 12
    t = np.zeros((k, k))
    for a in range(k - 1):
        t[a, a + 1] = 1.0
    t[k - 1, k - 1] = 1.0
    chain = MarkovChainSpec(tuple(range(1, k + 1)), t)
    spec = ModelSpec.markov_draw(chain)
    n = 4
    mat = models.sample_permutation_matrix(spec, n, 100_000, seed=21)
    law = exact.enumerate_law(n, ModelKind.INVERSE_UNFAIR)
    perms, counts = np.unique(mat, axis=0, return_counts=True)
    emp = {tuple(int(v) for v in p): c / mat.shape[0] for p, c in zip(perms, counts)}
    tv = 0.5 * sum(
        abs(emp.get(o, 0.0) - p) for o, p in zip(law.outcomes, law.probs)
    )
    # multinomial noise floor is about 0.006 at this budget
    assert tv < 0.015


def test_markov_needs_enough_states_for_n():
    # the walk itself has no n limit; only draw counts are produced
    chain = MarkovChainSpec((1,), np.array([[1.0]]))
    out = chain.walk(5, make_generator(0))
    assert out.tolist() == [1, 1, 1, 1, 1]


def test_sample_matrix_validation():
    with pytest.raises(ValueError):
        models.sample_permutation_matrix(ModelSpec.uniform(), 0, 3, seed=1)
    with pytest.raises(ValueError):
        models.sample_permutation_matrix(ModelSpec.uniform(), 3, 0, seed=1)
    with pytest.raises(ValueError):
        models.sample_score_matrix(ModelSpec.uniform(), 0, 3, seed=1)


def test_uniform_matrix_is_unbiased():
    mat = models.sample_permutation_matrix(ModelSpec.uniform(), 3, 60_000, seed=31)
    _, counts = np.unique(mat, axis=0, return_counts=True)
    assert len(counts) == 6
    assert np.max(np.abs(counts / mat.shape[0] - 1 / 6)) < 0.01


def test_rank_law_matches_enumeration_tv():
    # empirical inverse-unfair frequencies on S_4 against the exact law
    n = 4
    mat = models.sample_permutation_matrix(
        ModelSpec.inverse_unfair(), n, 400_000, seed=55, workers=2
    )
    law = exact.enumerate_law(n, ModelKind.INVERSE_UNFAIR)
    perms, counts = np.unique(mat, axis=0, return_counts=True)
    emp = {tuple(int(v) for v in p): c / mat.shape[0] for p, c in zip(perms, counts)}
    tv = 0.5 * sum(abs(emp.get(o, 0.0) - p) for o, p in zip(law.outcomes, law.probs))
    # multinomial noise floor is about 0.003 at this budget
    assert tv < 0.006
