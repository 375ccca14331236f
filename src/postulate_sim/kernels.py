"""Numeric kernels of the Deutsch-Jozsa, Simon and Grover algorithms, in numpy.

The Deutsch-Jozsa and Simon amplitudes are Walsh-Hadamard transforms of
integer tables, computed by the fast transform (Fino & Algazi, IEEE Trans.
Comput. C-25, 1976) in O(n 2^n) per column instead of a dense (2^n, 2^n)
sign matrix. Every sum is an exact integer before the final division by 2^n.
"""
from __future__ import annotations

import numpy as np


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


def gf2_rref(rows: np.ndarray) -> int:
    """GF(2) row reduction. Returns the rank; `rows` is reduced in place to
    reduced row-echelon form (pivot rows first)."""
    m, n = rows.shape
    rank = 0
    for col in range(n):
        pivot = -1
        for r in range(rank, m):
            if rows[r, col]:
                pivot = r
                break
        if pivot < 0:
            continue
        if pivot != rank:
            rows[[rank, pivot]] = rows[[pivot, rank]]
        hits = rows[:, col].astype(bool).copy()
        hits[rank] = False
        rows[hits] ^= rows[rank]
        rank += 1
        if rank == m:
            break
    return rank
