"""Numeric kernels of the Deutsch-Jozsa, Simon and Grover algorithms, in numpy.

The Deutsch-Jozsa and Simon amplitudes are Walsh-Hadamard transforms of
integer tables, computed by the fast transform (Fino & Algazi, IEEE Trans.
Comput. C-25, 1976) in O(n 2^n) per column instead of a dense (2^n, 2^n)
sign matrix. Every sum is an exact integer before the final division by 2^n,
in int64 for DJ, in int16 for Simon (|sum| <= 2^n <= 256 under the cap).
Simon's classical step, the GF(2) nullspace of the sampled constraints, works
on rows bit-packed into Python ints. The CLI's random streams are numpy's,
rebuilt bit for bit without `numpy.random`: the SeedSequence hash in uint32
array arithmetic over all streams at once, then one PCG64 generator per
stream (O'Neill, HMC-CS-2014-0905, 2014) that draws as a `Generator` does.
"""
from __future__ import annotations

import numpy as np

from .errors import FullRank


def _fwht(table: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0 (length 2^n):
    out[z] = sum_x (-1)^popcount(x & z) table[x], by n in-place butterfly
    passes. `table` is an integer array wide enough for every partial sum;
    it is overwritten with the result and returned."""
    size = table.shape[0]
    h = 1
    while h < size:
        pairs = table.reshape(size // (2 * h), 2, h, *table.shape[1:])
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo += hi        # x + y
        hi *= -2
        hi += lo        # x - y
        h *= 2
    return table


def dj_argument_amplitudes(f_table: np.ndarray) -> np.ndarray:
    """Deutsch-Jozsa argument-register amplitudes:
    amp[z] = 2^-n * sum_x (-1)^(popcount(x & z) + f(x))."""
    return _fwht(1 - 2 * np.asarray(f_table, dtype=np.int64)) / len(f_table)


def simon_state_amplitudes(f_table: np.ndarray) -> np.ndarray:
    """Simon output amplitudes on (argument x function) registers, flattened:
    amp[j, v] = 2^-n * sum_{k : f(k) = v} (-1)^popcount(j & k), transformed
    in an int16 one-hot table and divided into the float64 result."""
    size = len(f_table)
    table = np.zeros((size, size), dtype=np.int16)
    table[np.arange(size), f_table] = 1
    _fwht(table)
    return np.divide(table, size, dtype=np.float64).reshape(-1)


def grover_amplitudes(n: int, marked: np.ndarray, iterations: int) -> np.ndarray:
    """Grover iteration from the uniform superposition: phase-flip the marked
    entries, then invert about the mean, `iterations` times."""
    size = 2 ** n
    amps = np.full(size, 1.0 / np.sqrt(size))
    for _ in range(iterations):
        amps[marked] *= -1.0
        np.subtract(2.0 * amps.mean(), amps, out=amps)
    return amps


def gf2_add(rows: dict[int, int], row: int) -> None:
    """Insert a bit-packed GF(2) row into a reduced echelon basis, in place.

    `rows` maps each pivot (leading bit) to its row, and no row has another
    row's pivot bit set, so the rank is len(rows). A row that depends on the
    basis leaves it unchanged."""
    for lead, basis_row in rows.items():
        if row >> lead & 1:
            row ^= basis_row
    if row:
        lead = row.bit_length() - 1
        for other in rows:
            if rows[other] >> lead & 1:
                rows[other] ^= row
        rows[lead] = row


def gf2_null_vector(rows: dict[int, int], n: int) -> int:
    """Nonzero n-bit v with popcount(row & v) even for every row of a basis
    built by `gf2_add`: the highest free bit is set, and each pivot bit is
    the row's bit at that free position. Unique when len(rows) == n - 1."""
    free = [bit for bit in range(n) if bit not in rows]
    if not free:
        raise FullRank("system has full rank; only the zero vector satisfies it")
    bit = free[-1]
    v = 1 << bit
    for lead, row in rows.items():
        if row >> bit & 1:
            v |= 1 << lead
    return v


# ---------------------------------------------------------------------------
# Trial streams: numpy's SeedSequence hash and PCG64 (XSL-RR 128/64)

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(entropy: list[np.ndarray]) -> list[list[int]]:
    """`SeedSequence(entropy).generate_state(4, uint64)`, word by word, for
    columns of uint32 entropy words, one row per stream and at most the pool
    size of columns. The hash constants run through the same sequence
    whatever the data, so every stream takes the same steps."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    words = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # little-endian: uint64 word k is uint32 words 2k (low) and 2k + 1 (high)
    return [(words[2 * k] | words[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)]


class _PCG64:
    """numpy's PCG64 bit generator with `Generator.random()` and
    `.permutation(int)` on top."""

    __slots__ = ("state", "inc")

    def __init__(self, initstate: int, initseq: int):
        # pcg64_srandom_r: from state 0, step, add initstate, step
        self.inc = inc = (initseq << 1 | 1) & _MASK128
        self.state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128

    def random(self) -> float:
        """The next double in [0, 1): the top 53 bits of the next output."""
        self.state = state = (self.state * _PCG_MULT + self.inc) & _MASK128
        rot = state >> 122
        word = (state >> 64 ^ state) & _MASK64
        word = (word >> rot | word << (64 - rot)) & _MASK64
        return (word >> 11) * 2.0 ** -53

    def permutation(self, size: int) -> list[int]:
        """numpy's Fisher-Yates shuffle of range(size <= 2^32) (Durstenfeld,
        CACM 7(7), 1964): i from size - 1 down to 1 swaps with j in [0, i],
        drawn by rejection from 32-bit words masked to i's bit length, the
        low half of each output first; `random()` skips a leftover high
        half, as numpy's does. The output step is inlined for speed."""
        perm = list(range(size))
        state, inc, spare, top = self.state, self.inc, None, size - 1
        while top > 0:  # one mask per bit length of i
            mask = (1 << top.bit_length()) - 1
            for i in range(top, mask >> 1, -1):
                j = size  # > i: draw at least once
                while j > i:
                    if spare is None:
                        state = (state * _PCG_MULT + inc) & _MASK128
                        rot = state >> 122
                        word = (state >> 64 ^ state) & _MASK64
                        word = (word >> rot | word << (64 - rot)) & _MASK64
                        j, spare = word & mask, word >> 32
                    else:
                        j, spare = spare & mask, None
                perm[i], perm[j] = perm[j], perm[i]
            top = mask >> 1
        self.state = state
        return perm


def _streams(seed: int, count: int, *columns: np.ndarray) -> list[_PCG64]:
    """`count` PCG64 streams seeded by SeedSequence from the 32-bit words of
    `seed mod 2^64` (low first, at least one), then one word per column."""
    seed &= _MASK64
    entropy = [np.full(count, seed & _MASK32, dtype=np.uint32)]
    if seed >> 32:
        entropy.append(np.full(count, seed >> 32, dtype=np.uint32))
    words = _seed_state(entropy + list(columns))
    # PCG64 seeds from the four words as initstate and initseq, high word first
    return [_PCG64(a << 64 | b, c << 64 | d) for a, b, c, d in zip(*words)]


def seed_stream(seed: int) -> _PCG64:
    """Draws exactly as `np.random.default_rng(seed mod 2^64)`."""
    return _streams(seed, 1)[0]


def trial_streams(seed: int, trials: int) -> list[_PCG64]:
    """Stream t draws exactly as
    `np.random.default_rng(np.random.SeedSequence([seed mod 2^64, t]))`,
    for t < trials <= 2^32: the seed's entropy words, then t as one word."""
    return _streams(seed, trials, np.arange(trials, dtype=np.uint32))
