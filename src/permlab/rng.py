"""Seedable, splittable random streams.

All randomness flows through numpy's PCG64 keyed by
``SeedSequence(seed, spawn_key=(stream,))`` or ``(stream, substream)``.
Given (seed, stream[, substream]) the byte stream is fixed, so every run is
bit-reproducible on any platform: replica r of a Monte Carlo run always draws
from stream r, however its rows are split into blocks, chunks and threads.

Many streams are drawn together.  Building one ``Generator`` costs about
11 us, which dominates when each replica needs only a few draws.
``make_generator`` given an array of stream indices returns a
``StreamBlock`` instead, which runs SeedSequence's hashing and PCG64's
seeding as uint32/uint64 array arithmetic, one array element per stream
(about 0.17 ms for 4096 streams).  Row r of ``make_generator(seed, streams,
substream).random(k)`` holds exactly the bits of ``make_generator(seed,
streams[r], substream).random(k)``; only the cost differs.

``random(k)`` picks one of two ways to draw.  A narrow draw is stepped: PCG64
step and XSL-RR output on all streams together, one step per column (PCG64 is
a plain 128-bit LCG; O'Neill 2014), about 14 us plus 11 ns per stream for
each column (60 us at 4096 streams).  A wide one is drawn row by row
through numpy's own PCG64 (``random_rows``), each stream's state written
into the generator and read back through a view of its state words, about
1.9 us per row plus 2.5 ns per element.  Median ratios of stepped to
row-by-row time, both filling a given ``out`` (nine alternating timings,
quartiles in brackets; 2-core x86_64, numpy 2.4):

    rows   k: ratio
    30     4: 0.80 (0.80-0.82)    5: 0.96 (0.93-1.00)    6: 1.18 (1.16-1.22)
    300   25: 0.74 (0.69-0.76)   30: 0.95 (0.90-0.98)   35: 1.06 (0.99-1.12)
    1000  70: 0.86 (0.84-0.90)   80: 1.01 (0.98-1.04)   90: 1.10 (1.06-1.13)
    1500  80: 0.79 (0.77-0.81)  100: 0.96 (0.93-0.98)  110: 1.08 (1.06-1.13)
    4096 120: 0.79 (0.79-0.80)  140: 0.89 (0.81-0.92)  160: 1.04 (1.02-1.08)

The crossover follows the two costs: a column's fixed cost is that of about
_STEPPED_ROWS_PER_COLUMN rows, and past _STEPPED_MAX_WIDTH columns the
row-by-row draw wins at any number of rows.  So a draw is stepped when
k * (_STEPPED_ROWS_PER_COLUMN + rows / _STEPPED_MAX_WIDTH) <= rows, which
makes the widest stepped draw 4, 34, 79, 97 and 137 columns for the rows
above.  Temporaries are a few dozen arrays of len(streams) and one of the
draw's size, so callers bound the number of streams in one block.
"""
from __future__ import annotations

import ctypes
import functools
import secrets

import numpy as np

__all__ = ["StreamBlock", "make_generator", "fresh_seed"]

_STEPPED_ROWS_PER_COLUMN = 7
_STEPPED_MAX_WIDTH = 180


def make_generator(
    seed: int, stream=0, substream: int | None = None
) -> np.random.Generator | StreamBlock:
    """PCG64 generator for (seed, stream[, substream]).

    Given an array of stream indices, returns the ``StreamBlock`` of those
    streams instead: all of them seeded at once, drawn from together.
    """
    if not isinstance(stream, (int, np.integer)) and np.ndim(stream):
        return StreamBlock(seed, stream, substream)
    key = (stream,) if substream is None else (stream, substream)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


# numpy's SeedSequence (bit_generator.pyx) and PCG64 (pcg64.h) constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_M32 = np.uint64(0xFFFFFFFF)
_M64 = 0xFFFFFFFFFFFFFFFF
_U32 = np.uint64(32)
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MULT_LO0 = np.uint64(_PCG_MULT & 0xFFFFFFFF)
_MULT_LO1 = np.uint64((_PCG_MULT >> 32) & 0xFFFFFFFF)


def _words(x: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int (0 is one word)."""
    x = int(x)
    if x < 0:
        raise ValueError(f"seed and stream keys must be non-negative, got {x}")
    return [x >> b & 0xFFFFFFFF for b in range(0, max(x.bit_length(), 1), 32)]


@functools.cache
def _hash_consts(init: int, mult: int, count: int) -> tuple[int, ...]:
    """SeedSequence's running hash constant: init, init*mult, ... (count+1)."""
    return tuple(init * pow(mult, i, 1 << 32) & 0xFFFFFFFF for i in range(count + 1))


def _seed_pool(seed: int, key_cols: list) -> np.ndarray:
    """SeedSequence's entropy pool, a (4, rows) uint32 array.  ``key_cols``
    are the spawn-key words, each a uint32 array over rows or an int.  The
    seed's words are hashed in Python ints; then each key word mixes into all
    four pool words at once."""
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * (len(run) + len(key_cols)))
    column = np.array(consts, np.uint32)[:, None]
    pairs = zip(consts, consts[1:])

    def hashmix(v):
        xor, mul = next(pairs)
        v = (v ^ xor) * mul & 0xFFFFFFFF
        return v ^ (v >> 16)

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & 0xFFFFFFFF
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in run[:_POOL_SIZE]]
    for src, w in enumerate(run):  # the pool's own words, then the seed's rest
        for dst in range(_POOL_SIZE):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src] if src < _POOL_SIZE else w))
    pool = np.array(pool, np.uint32)[:, None]
    at = _POOL_SIZE * len(run)
    for w in key_cols:  # the same steps on uint32 arrays, which wrap
        v = (w ^ column[at:at + _POOL_SIZE]) * column[at + 1:at + _POOL_SIZE + 1]
        r = _MIX_MULT_L * pool - _MIX_MULT_R * (v ^ (v >> 16))
        pool = r ^ (r >> 16)
        at += _POOL_SIZE
    return pool


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * MULT + inc on 128-bit states held as uint64 (hi, lo) arrays:
    the low word is the wrapping product lo * MULT_LO, and only the high word
    of that product is built from 32-bit halves."""
    a0, a1 = lo & _M32, lo >> _U32
    u = a1 * _MULT_LO0 + (a0 * _MULT_LO0 >> _U32)
    v = a0 * _MULT_LO1 + (u & _M32)
    new_hi = a1 * _MULT_LO1 + (u >> _U32) + (v >> _U32)
    new_hi += hi * _MULT_LO
    new_hi += lo * _MULT_HI
    new_hi += inc_hi
    new_lo = lo * _MULT_LO
    new_lo += inc_lo
    new_hi += new_lo < inc_lo
    return new_hi, new_lo


def _seeded_state(seed: int, streams: np.ndarray, substream: int | None) -> tuple:
    """PCG64 (state_hi, state_lo, inc_hi, inc_lo) uint64 arrays after seeding,
    for streams whose spawn keys have the same number of words."""
    key = [(streams & _M32).astype(np.uint32)]
    if streams.size and streams.max() > _M32:  # a two-word spawn key
        key.append((streams >> _U32).astype(np.uint32))
    if substream is not None:
        key += _words(substream)
    pool = _seed_pool(seed, key)
    # generate_state(4, uint64): eight uint32 words cycling twice over the pool
    h = np.array(_hash_consts(_INIT_B, _MULT_B, 8), np.uint32)[:, None]
    v = (pool ^ h[:8].reshape(2, 4, 1)) * h[1:].reshape(2, 4, 1)
    w = (v ^ (v >> 16)).reshape(8, -1).astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = w[::2] | (w[1::2] << _U32)
    # pcg_setseq_128_srandom_r: inc = (initseq << 1) | 1, then two steps
    inc_hi = (i_hi << np.uint64(1)) | (i_lo >> np.uint64(63))
    inc_lo = (i_lo << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + s_lo  # one step from state 0
    hi = inc_hi + s_hi + (lo < s_lo)
    return (*_pcg_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


class StreamBlock:
    """The PCG64 streams (seed, streams[r][, substream]), stepped together.

    Made by ``make_generator`` from an array of stream indices, each in
    [0, 2**64).  Row r of ``random(k)`` holds exactly the bits that
    ``make_generator(seed, streams[r], substream)`` gives at the same point
    of its stream; successive calls continue the streams.
    """

    def __init__(self, seed: int, streams, substream: int | None = None) -> None:
        if isinstance(streams, np.ndarray):
            raw = streams.reshape(-1)
            bad = raw.size and (raw.dtype.kind not in "iu" or raw.min() < 0)
        else:  # as Python ints: numpy reads [1, 2**63] as float64
            raw = np.asarray(streams, dtype=object).reshape(-1)
            bad = not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool)
                          and 0 <= s < 2 ** 64 for s in raw)
        if bad:
            raise ValueError("stream indices must be non-negative integers below 2**64")
        streams = raw.astype(np.uint64)
        wide = streams > _M32
        if wide.any() and not wide.all():
            self._state = tuple(np.empty(streams.size, np.uint64) for _ in range(4))
            for rows in (wide, ~wide):
                part = _seeded_state(seed, streams[rows], substream)
                for dst, src in zip(self._state, part):
                    dst[rows] = src
        else:
            self._state = _seeded_state(seed, streams, substream)

    def __len__(self) -> int:
        return self._state[0].size

    def random(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """(len(self), k) uniforms on [0, 1), stepped or row by row by the
        crossover above.  ``out``, if given, is a float64 array of that shape
        to fill and return."""
        rows, wide = len(self), _STEPPED_MAX_WIDTH
        if k * (_STEPPED_ROWS_PER_COLUMN * wide + rows) <= rows * wide:
            return self._stepped(k, out)
        return self.random_rows(k, out)

    def _stepped(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """The draws of ``random(k)``, one step of every stream per column.
        Column j's output words fill row j of one buffer, turned into floats
        in one pass at the end."""
        out = self._out(k, out)
        hi, lo, inc_hi, inc_lo = self._state
        words = np.empty((out.shape[1], len(self)), np.uint64)
        for x in words:
            hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
            rot = hi >> np.uint64(58)
            np.bitwise_xor(hi, lo, out=x)  # XSL-RR output; numpy's x << 64 is 0
            np.bitwise_or(x >> rot, x << (np.uint64(64) - rot), out=x)
        words >>= np.uint64(11)
        np.multiply(words.T, 2.0 ** -53, out=out)
        self._state = hi, lo, inc_hi, inc_lo
        return out

    def random_rows(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """The draws of ``random(k)``, made row by row by a numpy PCG64 set to
        each stream's state: numpy's cost per element plus about 2 us per row.

        Each stream's state is written into the generator, and read back
        after its row, through ``_state_words``: a view of the generator's
        own state words.  Where the probe ``_state_words_agree`` rejects that
        view, the ``PCG64.state`` dict carries the state instead."""
        out = self._out(k, out)
        bits = np.random.PCG64(0)  # a fixed seed: the state is overwritten
        gen = np.random.Generator(bits)
        view = _state_words(bits) if _state_words_agree() else None
        if view is None:
            return self._dict_rows(bits, gen, out)
        hi, lo, inc_hi, inc_lo = self._state
        words = np.stack((lo, hi, inc_lo, inc_hi), axis=1)
        for row, state in zip(out, words):
            view[:] = state
            gen.random(out.shape[1], out=row)
            state[:] = view
        self._state = words[:, 1].copy(), words[:, 0].copy(), inc_hi, inc_lo
        return out

    def _dict_rows(self, bits: np.random.PCG64, gen: np.random.Generator,
                   out: np.ndarray) -> np.ndarray:
        """``random_rows`` through the ``PCG64.state`` dict, one set and one
        read per row."""
        state = bits.state
        hi, lo, inc_hi, inc_lo = (a.tolist() for a in self._state)
        for r, row in enumerate(out):
            state["state"] = {"state": hi[r] << 64 | lo[r], "inc": inc_hi[r] << 64 | inc_lo[r]}
            bits.state = state
            gen.random(out.shape[1], out=row)
            hi[r], lo[r] = divmod(bits.state["state"]["state"], 1 << 64)
        self._state = (np.array(hi, np.uint64), np.array(lo, np.uint64)) + self._state[2:]
        return out

    def _out(self, k: int, out: np.ndarray | None) -> np.ndarray:
        shape = (len(self), int(k))
        if out is None:
            return np.empty(shape)
        if out.shape != shape or out.dtype != np.float64:
            raise ValueError(f"out must be a float64 array of shape {shape}")
        return out


def _state_words(bits: np.random.PCG64) -> np.ndarray | None:
    """A writable uint64 view of the 128-bit state and increment of ``bits``,
    read as the words (state_lo, state_hi, inc_lo, inc_hi) where
    ``_state_words_agree``.

    ``bits.ctypes.state_address`` points at numpy's ``pcg64_state``, whose
    first field points at the ``pcg64_random_t`` held inside the PCG64
    object.  Either pointer is followed only if it lies inside the object,
    so no read or write leaves it; None otherwise."""
    base, end = id(bits), id(bits) + type(bits).__basicsize__
    addr = bits.ctypes.state_address
    if not base <= addr <= end - 8:
        return None
    ptr = ctypes.c_void_p.from_address(addr).value or 0
    if not base <= ptr <= end - 32:
        return None
    return np.frombuffer((ctypes.c_uint64 * 4).from_address(ptr), np.uint64)


def _split(state: int, inc: int) -> list[int]:
    return [state & _M64, state >> 64, inc & _M64, inc >> 64]


@functools.cache
def _state_words_agree() -> bool:
    """Whether ``_state_words`` reads a state set through the ``PCG64.state``
    dict, and a state written through it reads back through the dict: a
    probe of this numpy's layout and word order, once per process."""
    bits = np.random.PCG64(0)
    words = _state_words(bits)
    if words is None:
        return False
    first = (0x0123456789ABCDEF_FEDCBA9876543210, 0x11111111_22222222_33333333_44444445)
    second = (0xAAAAAAAA55555555_0F0F0F0F0F0F0F0F, 0x77777777_88888888_99999999_00000001)
    state = bits.state
    state["state"] = dict(zip(("state", "inc"), first))
    bits.state = state
    if words.tolist() != _split(*first):
        return False
    words[:] = _split(*second)
    return tuple(bits.state["state"].values()) == second


def fresh_seed() -> int:
    """A new root seed from OS entropy (printed by the CLI when none is given)."""
    return secrets.randbits(63)
