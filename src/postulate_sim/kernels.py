"""Numeric kernels of the Deutsch-Jozsa, Simon and Grover algorithms, in numpy.

The Deutsch-Jozsa and Simon amplitudes are Walsh-Hadamard transforms of
integer tables, computed by the fast transform (Fino & Algazi, IEEE Trans.
Comput. C-25, 1976) in O(n 2^n) per column instead of a dense (2^n, 2^n)
sign matrix. Every sum is an exact integer before the final division by 2^n.
Simon's classical step, the GF(2) nullspace of the sampled constraints, works
on rows bit-packed into Python ints.
"""
from __future__ import annotations

import numpy as np

from .errors import FullRank


def _fwht(table: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0 (length 2^n):
    out[z] = sum_x (-1)^popcount(x & z) table[x], by n in-place butterfly
    passes over a copy."""
    out = np.array(table, dtype=np.int64)
    size = out.shape[0]
    h = 1
    while h < size:
        pairs = out.reshape(size // (2 * h), 2, h, *out.shape[1:])
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo += hi        # x + y
        hi *= -2
        hi += lo        # x - y
        h *= 2
    return out


def dj_argument_amplitudes(f_table: np.ndarray) -> np.ndarray:
    """Deutsch-Jozsa argument-register amplitudes:
    amp[z] = 2^-n * sum_x (-1)^(popcount(x & z) + f(x))."""
    return _fwht(1 - 2 * np.asarray(f_table, dtype=np.int64)) / len(f_table)


def simon_state_amplitudes(f_table: np.ndarray) -> np.ndarray:
    """Simon output amplitudes on (argument x function) registers, flattened:
    amp[j, v] = 2^-n * sum_{k : f(k) = v} (-1)^popcount(j & k)."""
    size = len(f_table)
    one_hot = np.zeros((size, size), dtype=np.int64)
    one_hot[np.arange(size), f_table] = 1
    return _fwht(one_hot).reshape(-1) / size


def grover_amplitudes(n: int, marked: np.ndarray, iterations: int) -> np.ndarray:
    """Grover iteration from the uniform superposition: phase-flip the marked
    entries, then invert about the mean, `iterations` times."""
    size = 2 ** n
    amps = np.full(size, 1.0 / np.sqrt(size))
    for _ in range(iterations):
        amps[marked] *= -1.0
        amps = 2.0 * amps.mean() - amps
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
