import json

import numpy as np
import pytest

from permlab import exact, models, rng
from permlab.models import (
    MarkovChainSpec,
    ModelKind,
    ModelSpec,
    PhiSpec,
    ScoreVector,
)
from permlab.perm import Permutation, all_permutations
from permlab.rng import StreamBlock, make_generator
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
    assert models.phi_from_config("one")(17) == 1
    assert models.phi_from_config("identity")(17) == 17
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_markov_chain_rejects_non_finite_transitions(bad):
    # NaN fails both t < 0 and |row sum - 1| > 1e-12, so it needs its own check
    with pytest.raises(ValueError, match="finite and nonnegative"):
        MarkovChainSpec((1, 2), np.array([[bad, 1.0], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        models.chain_from_config({"states": [1, 2], "transitions": [[0.5, 0.5], [1.0, bad]]})


def test_draw_counts_fit_int64():
    # counts are held as int64: 2^63 - 1 is the largest legal one
    assert PhiSpec(lambda i: 2 ** 63 - 1, "max")(1) == 2 ** 63 - 1
    with pytest.raises(ValueError):
        PhiSpec(lambda i: 2 ** 63, "over")(1)
    with pytest.raises(ValueError):
        PhiSpec.from_table({1: 10 ** 23})(1)
    MarkovChainSpec((1, 2 ** 63 - 1), np.eye(2))
    with pytest.raises(ValueError):
        MarkovChainSpec((1, 2 ** 63), np.eye(2))


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


def _edge_chain(k: int, rng) -> MarkovChainSpec:
    """k states, about a third of the moves of probability zero, and a last
    row summing to 1 - 1e-13."""
    t = rng.random((k, k)) * (rng.random((k, k)) > 0.35)
    t[np.arange(k), (np.arange(k) + 1) % k] += 0.25  # no row of zeros
    t /= t.sum(axis=1, keepdims=True)
    t[-1] *= 1 - 1e-13
    return MarkovChainSpec((1,) + tuple(range(3, k + 2)), t)


@pytest.mark.parametrize("k", [1, 3, 8, 32])
def test_markov_walk_matches_reference_on_edge_chains(k):
    # blocks of streams, a single Generator (0-d walk) and fixed uniforms
    # that hit the cumulative sums exactly, 0 and a value above the short
    # last row
    rng = np.random.default_rng(k)
    chain = _edge_chain(k, rng)
    n = 7
    for rows in (1, 5, 300):
        streams = np.arange(100, 100 + rows)
        want = [_walk_reference(chain, u) for u in make_generator(2, streams).random(n - 1)]
        assert chain.walk(n, make_generator(2, streams)).tolist() == want, rows
    for s in (0, 1, 2):
        assert chain.walk(n, make_generator(2, s)).tolist() == _walk_reference(
            chain, make_generator(2, s).random(n - 1))
    cum = np.cumsum(chain.transitions, axis=1)
    edges = np.concatenate([cum.ravel(), [0.0, 1.0 - 1e-14, 0.5]])
    fixed = rng.choice(edges, size=(300, n - 1))
    want = [_walk_reference(chain, u) for u in fixed]
    assert chain.walk(n, _FixedUniforms(fixed)).tolist() == want
    assert chain.walk(n, _FixedUniforms(fixed[:3])).tolist() == want[:3]
    assert chain.walk(n, _FixedUniforms(fixed[0])).tolist() == want[0]


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


@pytest.mark.parametrize("cfg", [
    {"table": {"1": 2.5}},
    {"table": [[1, 2.5]]},
    {"table": [[1.5, 2]]},
    {"table": {"1": 2}, "default": 2.5},
    {"table": {"1": float("inf")}},
])
def test_phi_config_rejects_non_integer_counts(cfg):
    # int() would truncate 2.5 to 2 and sample a different model
    with pytest.raises(ValueError, match="is not an integer"):
        models.phi_from_config(cfg)


def test_draw_counts_accept_integral_values():
    phi = models.phi_from_config({"table": {"1": 2.0, "2": "5"}, "default": 3.0})
    assert (phi(1), phi(2), phi(3)) == (2, 5, 3)
    chain = models.chain_from_config({"states": [1, 2.0], "transitions": [[0.5, 0.5]] * 2})
    assert chain.states == (1, 2)


@pytest.mark.parametrize("states", [[1, 2.5], [1.5, 1], [1, float("nan")], [1, "a"]])
def test_chain_config_rejects_non_integer_states(states):
    with pytest.raises(ValueError, match="is not an integer"):
        models.chain_from_config({"states": states, "transitions": [[0.5, 0.5]] * 2})


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
    # log-scores ln(U)/k: negative, -inf (from U = 0) allowed
    v = ScoreVector([-0.2, -1e-300, float("-inf")])
    assert len(v) == 3
    assert not v.values.flags.writeable
    with pytest.raises(ValueError):
        ScoreVector([[-0.1], [-0.2]])
    with pytest.raises(ValueError):
        ScoreVector([])
    with pytest.raises(ValueError):
        ScoreVector([0.0, -0.5])
    with pytest.raises(ValueError):
        ScoreVector([-0.5, 0.5])
    with pytest.raises(ValueError):
        ScoreVector([-0.5, float("inf")])
    with pytest.raises(ValueError):
        ScoreVector([-0.5, float("nan")])


def test_max_of_k_uniforms():
    # a constant phi = k gives every player the best of k uniforms, exp(S)
    rng = make_generator(1)
    five = ModelSpec.phi_draw(PhiSpec(lambda i: 5, "five"))
    vals = models.sample_scores(five, 2000, rng).values
    assert np.all(vals < 0.0)
    # E[max of 5] = 5/6
    assert np.mean(np.exp(vals)) == pytest.approx(5 / 6, abs=0.02)
    huge = ModelSpec.phi_draw(PhiSpec(lambda i: 10 ** 9, "huge"))
    big = models.sample_scores(huge, 50, make_generator(2)).values
    assert np.all(np.isfinite(big) & (big < 0.0))
    assert np.unique(big).size == 50
    for bad in (0, 2.5):
        spec = ModelSpec.phi_draw(PhiSpec(lambda i, k=bad: k, "bad"))
        with pytest.raises(ValueError):
            models.sample_scores(spec, 3, rng)


def test_ranks_tie_policy():
    # one rule for scores: exact ties rank in column order, the earlier lower
    assert ranks_matrix([[0.5, 0.5, 0.1]]).tolist() == [[2, 3, 1]]
    assert ranks_matrix([[0.3, 0.1, 0.9]]).tolist() == [[2, 1, 3]]


def test_sample_scores_shapes_and_range():
    rng = make_generator(3)
    v = models.sample_scores(ModelSpec.inverse_unfair(), 50, rng)
    assert len(v) == 50
    assert np.all(np.isfinite(v.values) & (v.values < 0.0))
    with pytest.raises(ValueError):
        models.sample_scores(ModelSpec.inverse_unfair(), 0, rng)
    # uniform scores are best-of-1: the logs of the stream's own uniforms
    u = models.sample_scores(ModelSpec.uniform(), 5, make_generator(8))
    assert np.array_equal(u.values, np.log(make_generator(8).random(5)))


def test_later_players_score_higher_on_average():
    # player n keeps the best of n draws, so its mean rank dominates
    mat = models.sample_score_matrix(ModelSpec.inverse_unfair(), 30, 4000, seed=9)
    r = ranks_matrix(mat)
    mean_rank = r.mean(axis=0)
    assert mean_rank[0] < mean_rank[10] < mean_rank[29]


def test_sample_single_draws():
    rng = make_generator(4)
    p = models.sample_permutation(ModelSpec.inverse_unfair(), 8, rng)
    assert isinstance(p, Permutation) and p.n == 8
    q = models.sample_permutation(ModelSpec.unfair(), 8, make_generator(4))
    assert q == p.inverse()
    u = models.sample_permutation(ModelSpec.uniform(), 6, make_generator(5))
    assert sorted(u.entries) == [1, 2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        models.sample_permutation(ModelSpec.uniform(), 0, rng)


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


def test_worker_count_below_one_rejected():
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            models.sample_score_matrix(ModelSpec.uniform(), 4, 10, seed=1, workers=workers)


def test_score_rows_match_per_row_streams_on_every_path(monkeypatch):
    # stepped, native and per-row blocks must all give the bits of one
    # make_generator per row; the spies check that each path really ran
    ran = set()

    def spy(path, call):
        def wrapped(*args, **kwargs):
            if path != "block" or np.ndim(args[1]):
                ran.add(path)
            return call(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(models, "make_generator", spy("block", make_generator))
    monkeypatch.setattr(StreamBlock, "random_rows", spy("native", StreamBlock.random_rows))
    monkeypatch.setattr(models, "_RowGenerators", spy("per-row", models._RowGenerators))
    wide = rng._STEPPED_MAX_WIDTH + 1
    cases = (
        # 150 rows step the n = 8 draws (markov draws n - 1, then n)
        (8, 150, 7, {"block"}),
        (wide, 3, 7, {"block", "native"}),
        (8, 12, 2 ** 32 - 6, {"block", "native"}),  # one- and two-word spawn keys
        (9, 40, 2 ** 64 - 40, {"block", "native"}),  # ends at stream 2^64 - 1
        (8, 5, 2 ** 64 - 2, {"per-row"}),  # streams 2^64 and past
    )
    for spec in _ALL_MODELS:
        for n, reps, first, paths in cases:
            want = np.array([
                models.sample_scores(spec, n, make_generator(5, first + r)).values
                for r in range(reps)
            ])
            for workers in (1, 2, 3):
                ran.clear()
                got = models.sample_score_matrix(
                    spec, n, reps, seed=5, first_stream=first, workers=workers
                )
                assert np.array_equal(got, want)
                assert ran == paths


def test_score_matrices_equal_on_the_dict_route(monkeypatch):
    # row draws write each stream's state through a view of numpy's PCG64;
    # with the layout probe failing they go through the PCG64.state dict,
    # and every model's score matrix keeps its bits on either side of the
    # stepped/row crossover and up to stream 2^64 - 1
    native = []
    real = StreamBlock.random_rows
    monkeypatch.setattr(StreamBlock, "random_rows",
                        lambda *a, **kw: native.append(a) or real(*a, **kw))
    cases = ((6, 63, 0, False), (6, 62, 0, True), (100, 1500, 9, True),
             (9, 40, 2 ** 64 - 40, True), (5, 300, 2 ** 64 - 300, False))
    for n, reps, first, rows in cases:
        native.clear()
        viewed = [models.sample_score_matrix(spec, n, reps, seed=3, first_stream=first)
                  for spec in _ALL_MODELS]
        assert bool(native) == rows, (n, reps)
        with monkeypatch.context() as m:
            m.setattr(rng, "_state_words_agree", lambda: False)
            for spec, want in zip(_ALL_MODELS, viewed):
                got = models.sample_score_matrix(spec, n, reps, seed=3, first_stream=first)
                assert np.array_equal(got, want), (spec.kind, n, reps)


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


def test_unfair_rows_are_inverted_ranks_on_tied_scores(monkeypatch):
    # unfair rows are the stable argsort of the scores: the inverse of their
    # ranks, ties broken by column, on exact ties and two -inf as well
    scores = np.log(np.random.default_rng(4).random((30, 9)))
    scores[:10] = np.floor(scores[:10] * 2)
    scores[10, [1, 6]] = -np.inf
    scores[11] = -1.0
    monkeypatch.setattr(models, "sample_score_matrix", lambda *args: scores)
    gam = models.sample_permutation_matrix(ModelSpec.unfair(), 9, 30, seed=0)
    assert gam.dtype == np.int64
    assert np.array_equal(gam, models.invert_rows(ranks_matrix(scores)))
    assert np.array_equal(gam, np.argsort(scores, axis=1, kind="stable") + 1)
    assert gam[11].tolist() == list(range(1, 10))


def test_invert_rows():
    rho = np.array([[2, 3, 1], [1, 2, 3]])
    for dtype in (np.int64, np.int32, np.uint64, np.uint8):
        assert models.invert_rows(rho.astype(dtype)).tolist() == [[3, 1, 2], [1, 2, 3]]
    # an entry past n or below 1 would scatter into a neighbouring row
    for bad in ([[1, 4, 2], [3, 1, 2]], [[2, 3, 1], [0, 1, 2]]):
        with pytest.raises(ValueError, match="permutations of 1..3"):
            models.invert_rows(np.array(bad))
    # a repeated entry leaves a slot of its row unwritten
    for n in (3, 17, 100):
        good = np.arange(1, n + 1)
        for i, j in ((0, 1), (n - 1, 0), (n // 2, n - 1)):
            bad = good.copy()
            bad[i] = good[j]
            with pytest.raises(ValueError, match=f"permutations of 1..{n}"):
                models.invert_rows(np.stack([good[::-1], bad]))


def test_phi_one_is_uniform_law():
    # best-of-1 scores are iid uniforms, so the rank sequence is uniform;
    # compare empirical frequencies on S_3 against 1/6
    spec = ModelSpec.phi_draw(models.phi_from_config("one"))
    mat = models.sample_permutation_matrix(spec, 3, 60_000, seed=77)
    _, counts = np.unique(mat, axis=0, return_counts=True)
    freqs = counts / mat.shape[0]
    assert len(freqs) == 6
    assert np.max(np.abs(freqs - 1 / 6)) < 0.01


def test_phi_identity_matches_inverse_unfair_law():
    # phi = identity must reproduce the rank-sequence law exactly (same
    # draw counts); with equal seeds the matrices agree bit for bit
    spec = ModelSpec.phi_draw(models.phi_from_config("identity"))
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


def _tv_to_exact_law(spec, n, reps, seed):
    """TV distance between the sampled law on S_n and the exact law."""
    mat = models.sample_permutation_matrix(spec, n, reps, seed=seed, workers=2)
    law = exact.enumerate_law(n, spec)
    perms, counts = np.unique(mat, axis=0, return_counts=True)
    emp = {tuple(int(v) for v in p): c / mat.shape[0] for p, c in zip(perms, counts)}
    return 0.5 * sum(abs(emp.get(o, 0.0) - p) for o, p in zip(law.outcomes, law.probs))


# At 400,000 rows on S_4 the multinomial noise floor of the TV is about 0.003.

def test_rank_law_matches_enumeration_tv():
    # empirical inverse-unfair frequencies on S_4 against the exact law
    assert _tv_to_exact_law(ModelSpec.inverse_unfair(), 4, 400_000, seed=55) < 0.006


def test_phi_law_matches_enumeration_tv():
    # empirical law of the README phi table (phi = 10, 2, 2, 4) on S_4
    # against its exact law
    spec = ModelSpec.phi_draw(
        models.phi_from_config({"table": {"1": 10, "3": 2}, "default": "identity"})
    )
    assert _tv_to_exact_law(spec, 4, 400_000, seed=56) < 0.006


def test_huge_constant_phi_law_matches_enumeration_tv():
    # constant phi = 10^17 is the uniform law; U^(1/k) would round every
    # score to 1.0 and tie, log-scores ln(U)/k stay distinct
    spec = ModelSpec.phi_draw(PhiSpec.from_table({}, default=10 ** 17))
    assert _tv_to_exact_law(spec, 4, 400_000, seed=57) < 0.006


def test_huge_scaled_phi_law_matches_enumeration_tv():
    # phi = 10^17 * (1, 3, 1, 2): the law of counts (1, 3, 1, 2)
    spec = ModelSpec.phi_draw(
        PhiSpec.from_table({i + 1: 10 ** 17 * k for i, k in enumerate((1, 3, 1, 2))})
    )
    assert _tv_to_exact_law(spec, 4, 400_000, seed=58) < 0.006
