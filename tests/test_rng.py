import numpy as np
import pytest

from permlab import rng
from permlab.rng import StreamBlock, fresh_seed, make_generator


def test_same_key_same_stream():
    a = make_generator(123, 4).random(10)
    b = make_generator(123, 4).random(10)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = make_generator(123, 0).random(10)
    b = make_generator(123, 1).random(10)
    assert not np.array_equal(a, b)


def test_substream_is_distinct_dimension():
    base = make_generator(9, 2).random(5)
    sub0 = make_generator(9, 2, substream=0).random(5)
    sub1 = make_generator(9, 2, substream=1).random(5)
    assert not np.array_equal(base, sub0)
    assert not np.array_equal(sub0, sub1)
    again = make_generator(9, 2, substream=1).random(5)
    assert np.array_equal(sub1, again)


def test_fresh_seed_range():
    seeds = {fresh_seed() for _ in range(50)}
    assert len(seeds) == 50
    assert all(0 <= s < 2 ** 63 for s in seeds)


def test_stream_block_matches_make_generator():
    # 2**32 and up take a two-word spawn key; 66 streams step 6 columns
    streams = np.array([0, 1, 9, 2**32 - 1, 2**32, 2**40 + 3] * 11, dtype=np.uint64)
    for seed in (0, 2**63 - 1):
        for substream in (None, 0, 1):
            block = make_generator(seed, streams, substream)
            assert isinstance(block, StreamBlock) and len(block) == streams.size
            # successive draws continue every stream, as on a Generator
            got = np.hstack([block.random(6), block.random(3)])
            want = np.array(
                [make_generator(seed, int(s), substream).random(9) for s in streams]
            )
            assert np.array_equal(got, want)
    buf = np.empty((streams.size, 6))
    assert make_generator(0, streams).random(6, out=buf) is buf
    assert np.array_equal(buf, make_generator(0, streams).random(6))
    assert isinstance(make_generator(0, np.int64(3)), np.random.Generator)
    # a list or range is read as Python ints, which numpy would make float64
    for listed in ([1, 2**63], range(2**63 - 1, 2**63 + 2)):
        want = np.array([make_generator(5, s).random(4) for s in listed])
        assert np.array_equal(make_generator(5, listed).random(4), want)


def test_random_rows_continue_every_stream():
    # row-by-row draws hold random()'s bits and continue the streams, mixed
    # with stepped draws, under a substream too, across 2^32 and up to the
    # last stream below 2^64
    for first in (0, 2**32 - 3, 2**64 - 6):
        streams = np.arange(first, first + 6, dtype=np.uint64)
        for substream in (None, 3):
            block = make_generator(11, streams, substream)
            got = np.hstack([block.random_rows(5), block._stepped(2), block.random(700)])
            want = np.array(
                [make_generator(11, int(s), substream).random(707) for s in streams]
            )
            assert np.array_equal(got, want)
    buf = np.empty((6, 4))
    assert make_generator(0, streams).random_rows(4, out=buf) is buf
    with pytest.raises(ValueError, match="shape"):
        make_generator(0, streams).random_rows(4, out=np.empty((5, 4)))


def test_random_steps_narrow_draws_and_rows_wide_ones(monkeypatch):
    # stepped when k * (_STEPPED_ROWS_PER_COLUMN + rows / _STEPPED_MAX_WIDTH)
    # <= rows; the measured routes of the benchmark's blocks are pinned, so a
    # change to the constants cannot move them to the slower route unseen
    ran = []
    for path in ("_stepped", "random_rows"):
        real = getattr(StreamBlock, path)
        monkeypatch.setattr(StreamBlock, path,
                            lambda *a, real=real, path=path: ran.append(path) or real(*a))
    cases = (
        (63, 6, "_stepped"), (62, 6, "random_rows"),  # the edge of the rule
        (4096, 120, "_stepped"), (4096, 121, "random_rows"),
        # stein outer draws, couple_batch and clt rows
        (1500, 100, "random_rows"), (300, 1000, "random_rows"), (400, 2000, "random_rows"),
        # sample blocks, identity rows, 4-wide completions and n = 4 blocks
        (4096, 100, "_stepped"), (3616, 100, "_stepped"), (4000, 30, "_stepped"),
        (4096, 4, "_stepped"), (1500, 4, "_stepped"), (300, 4, "_stepped"),
        (3904, 3, "_stepped"),
    )
    for streams, k, path in cases:
        ran.clear()
        make_generator(1, np.arange(streams)).random(k)
        assert ran == [path], (streams, k)


def test_row_draws_write_the_state_through_a_view(monkeypatch):
    # this numpy passes the layout probe, so row draws take the view; with
    # the probe failing, the PCG64.state dict gives the same bits
    assert rng._state_words_agree()
    bits = np.random.PCG64(3)
    view = rng._state_words(bits)
    state = bits.state["state"]
    assert view.tolist() == [state["state"] % 2**64, state["state"] >> 64,
                             state["inc"] % 2**64, state["inc"] >> 64]
    streams = np.array([0, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
    viewed = make_generator(8, streams, 2)
    got = np.hstack([viewed.random_rows(3), viewed.random_rows(200)])
    monkeypatch.setattr(rng, "_state_words_agree", lambda: False)
    dict_rows = []
    real = StreamBlock._dict_rows
    monkeypatch.setattr(StreamBlock, "_dict_rows", lambda *a: dict_rows.append(a) or real(*a))
    dicted = make_generator(8, streams, 2)
    assert np.array_equal(np.hstack([dicted.random_rows(3), dicted.random_rows(200)]), got)
    assert all(np.array_equal(a, b) for a, b in zip(viewed._state, dicted._state))
    assert len(dict_rows) == 2


def test_stream_block_rejects_negative_keys():
    with pytest.raises(ValueError):
        make_generator(3, [-1])
    with pytest.raises(ValueError):
        make_generator(-3, [1])
