"""Oracle-based quantum algorithms read out through the semantics engine.

Deutsch-Jozsa and Simon are implemented from their final superposition
states (the preceding gate sequence is irrelevant to the measurement
analysis); Grover runs the standard phase-flip/diffusion iteration. Each
algorithm prepares one computational-basis readout of its argument register
(`RegisterReadout`: `dj_readout`, `simon_readout`, `grover_readout`), and a
trial draws from it. The DJ and Simon registers have a rest (the ancilla,
the function register), so on the whole space their outcome projectors
have rank 2 and 2^n, and strict von Neumann leaves the post-state
undetermined, as it does teleport's (Grover's register is the whole space,
so its projectors have rank 1). Unlike teleport, which needs Bob's
post-state, an algorithm reads only the drawn value, and a draw is the same
under both collapse semantics.
"""
from __future__ import annotations

import math
import os
import stat
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .errors import DimensionMismatch, InvalidMarkedSet, InvalidOracle, RankDeficient
from .hilbert import MAX_DIM, StateVector
from .measurement import RegisterReadout

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_MAX_QUBITS = MAX_DIM.bit_length() - 1


def _check_width(n: int, qubits: int) -> None:
    """Reject an n-bit register whose state of `qubits` qubits would exceed
    MAX_DIM, before any oracle table or amplitude array is allocated."""
    if n < 1:
        raise DimensionMismatch(f"register width must be >= 1, got {n}")
    if qubits > _MAX_QUBITS:
        raise DimensionMismatch(
            f"n={n} needs {qubits} qubits; the dimension cap {MAX_DIM} allows {_MAX_QUBITS}"
        )


class BooleanOracle:
    """Explicit truth table of f over all 2^n inputs.

    Deutsch-Jozsa oracles map to {0, 1} and must be constant or balanced.
    Simon oracles map to n-bit strings and must be exactly 2-to-1 with
    f(x) = f(y) iff y = x ^ s for a nonzero hidden period s.
    """

    def __init__(self, n: int, table):
        self.n = int(n)
        self.table = np.asarray(table, dtype=np.int64)
        self.hidden_period: Optional[int] = None  # set by `BooleanOracle.simon`
        self.is_constant: Optional[bool] = None  # set by `BooleanOracle.deutsch_jozsa`
        if self.table.shape != (2 ** self.n,):
            raise InvalidOracle(
                f"expected {2 ** self.n} table entries for n={self.n}, got {self.table.shape}"
            )

    @classmethod
    def deutsch_jozsa(cls, n: int, table) -> "BooleanOracle":
        oracle = cls(n, table)
        t = oracle.table
        if np.any((t != 0) & (t != 1)):
            raise InvalidOracle("DJ oracle outputs must be 0 or 1")
        ones = int(t.sum())
        if ones not in (0, t.size, t.size // 2):
            raise InvalidOracle(
                f"DJ oracle is neither constant nor balanced ({ones}/{t.size} ones)"
            )
        oracle.is_constant = ones in (0, t.size)
        return oracle

    @classmethod
    def simon(cls, n: int, table) -> "BooleanOracle":
        oracle = cls(n, table)
        t = oracle.table
        if np.any(t < 0) or np.any(t >= 2 ** n):
            raise InvalidOracle(f"Simon oracle outputs must fit in {n} bits")
        collisions = np.flatnonzero(t[1:] == t[0])
        if collisions.size == 0:
            raise InvalidOracle("Simon oracle has no collision with input 0 (s would be 0)")
        s = int(collisions[0]) + 1
        broken = np.flatnonzero(t != t[np.arange(t.size) ^ s])
        if broken.size:
            raise InvalidOracle(f"f({broken[0]}) != f({broken[0]}^s) for derived s={s:0{n}b}")
        if len(set(t.tolist())) != t.size // 2:
            raise InvalidOracle("Simon oracle is not exactly 2-to-1")
        oracle.hidden_period = s
        return oracle


def constant_oracle(n: int, value: int = 0) -> BooleanOracle:
    _check_width(n, n + 1)
    return BooleanOracle.deutsch_jozsa(n, np.full(2 ** n, value, dtype=np.int64))


def balanced_oracle(n: int, rng) -> BooleanOracle:
    """f = 1 on the first half of `rng.permutation(2^n)`: a numpy `Generator`
    and `kernels.seed_stream` of the same seed draw the same table."""
    _check_width(n, n + 1)
    table = np.zeros(2 ** n, dtype=np.int64)
    table[rng.permutation(2 ** n)[: 2 ** (n - 1)]] = 1
    return BooleanOracle.deutsch_jozsa(n, table)


def simon_oracle(n: int, s: int, rng: Optional[np.random.Generator] = None) -> BooleanOracle:
    """2-to-1 oracle with hidden period s; image values are coset labels,
    shuffled when an rng is supplied."""
    _check_width(n, 2 * n)
    if not 0 < s < 2 ** n:
        raise InvalidOracle(f"hidden period must be a nonzero {n}-bit value, got {s}")
    values = np.arange(2 ** n, dtype=np.int64)
    if rng is not None:
        values = rng.permutation(values)
    x = np.arange(2 ** n, dtype=np.int64)
    # label the cosets {r, r ^ s} in order of their minima r: bit `top` of s
    # is clear in every r, so dropping it numbers the minima 0, 1, 2, ...
    top = s.bit_length() - 1
    r = np.minimum(x, x ^ s)
    return BooleanOracle.simon(n, values[(r >> (top + 1) << top) | (r & ((1 << top) - 1))])


# ---------------------------------------------------------------------------
# Oracle truth-table files: one line per input, "inputbits outputbits".

# a valid line holds at most 15 + 1 (DJ) or 8 + 8 (Simon) digits and whitespace
_MAX_LINE = 80
# twice the 2^15 data lines of the largest valid file (DJ at n = 15)
_MAX_LINES = 2 ** 16


def parse_bits(text: str) -> int:
    """A bit string of 0s and 1s as an int; unlike `int(text, 2)`, no sign,
    `0b` prefix, `_` or surrounding whitespace."""
    if not text or not set(text) <= {"0", "1"}:
        raise InvalidOracle(f"expected a bit string of 0s and 1s, got {text!r}")
    return int(text, 2)


def save_oracle(oracle: BooleanOracle, path) -> None:
    width = 1 if oracle.hidden_period is None else oracle.n
    with open(path, "w") as fh:
        for x, y in enumerate(oracle.table):
            fh.write(f"{x:0{oracle.n}b} {int(y):0{width}b}\n")


def load_oracle(path, kind: str) -> BooleanOracle:
    """Read a truth-table file. Only a regular file is read, a line, comments
    included, holds at most `_MAX_LINE` characters, and the file at most
    `_MAX_LINES` lines, so a FIFO, a device, a line that never ends or a
    file of endless comments is an error, not a wait."""
    if kind not in ("dj", "simon"):
        raise InvalidOracle(f"unknown oracle kind {kind!r}")
    entries = {}
    n = None
    # O_NONBLOCK: a FIFO with no writer opens at once; the kind is read on the
    # descriptor, before `open` could refuse a directory in words of its own
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise InvalidOracle(f"{path}: not a regular file")
    with open(fd) as fh:
        for lineno, line in enumerate(iter(lambda: fh.readline(_MAX_LINE + 1), ""), 1):
            if lineno > _MAX_LINES:
                raise InvalidOracle(f"{path}:{lineno}: more than {_MAX_LINES} lines")
            if len(line.rstrip("\n")) > _MAX_LINE:
                raise InvalidOracle(f"{path}:{lineno}: line longer than {_MAX_LINE} characters, "
                                    f"starting {line[:16]!r}")
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InvalidOracle(f"{path}:{lineno}: expected 'input output', got {line!r}")
            try:
                x, y = parse_bits(parts[0]), parse_bits(parts[1])
            except InvalidOracle as exc:
                raise InvalidOracle(f"{path}:{lineno}: {exc}") from exc
            if n is None:
                # the first line fixes the width: check it before reading on
                n = len(parts[0])
                _check_width(n, n + 1 if kind == "dj" else 2 * n)
            elif len(parts[0]) != n:
                raise InvalidOracle(f"{path}:{lineno}: input {parts[0]} has {len(parts[0])} bits, "
                                    f"earlier lines have {n}")
            if x in entries:
                raise InvalidOracle(f"{path}:{lineno}: input {parts[0]} repeats an earlier line")
            entries[x] = y
    if not entries:
        raise InvalidOracle(f"{path}: empty oracle file")
    size = 2 ** n
    if sorted(entries) != list(range(size)):
        raise InvalidOracle(f"{path}: need exactly one line per {n}-bit input")
    table = np.array([entries[x] for x in range(size)], dtype=np.int64)
    if kind == "dj":
        return BooleanOracle.deutsch_jozsa(n, table)
    return BooleanOracle.simon(n, table)


# ---------------------------------------------------------------------------
# Deutsch-Jozsa

def dj_final_state(oracle: BooleanOracle) -> StateVector:
    """Output state before the final readout: argument register x ancilla
    (|0> - |1>)/sqrt(2)."""
    if oracle.is_constant is None:
        raise InvalidOracle("dj_final_state expects a DJ oracle")
    arg = kernels.dj_argument_amplitudes(oracle.table)
    # the two ancilla columns written straight into the state's one buffer
    amps = np.empty(2 * arg.size)
    np.multiply(arg, _INV_SQRT2, out=amps[0::2])
    np.multiply(arg, -_INV_SQRT2, out=amps[1::2])
    return StateVector._owning(amps, (2,) * (oracle.n + 1))


def dj_readout(oracle: BooleanOracle) -> RegisterReadout:
    """Argument-register readout of the final state; draws give z."""
    return RegisterReadout(dj_final_state(oracle).reshaped((2 ** oracle.n, 2)), 0)


# ---------------------------------------------------------------------------
# Simon

def simon_final_state(oracle: BooleanOracle) -> StateVector:
    """Output state over argument x function registers (n bits each)."""
    if oracle.hidden_period is None:
        raise InvalidOracle("simon_final_state expects a Simon oracle")
    # the kernel's array becomes the state's buffer uncopied
    amps = kernels.simon_state_amplitudes(oracle.table)
    return StateVector._owning(amps, (2,) * (2 * oracle.n))


class SimonResult(NamedTuple):
    period: int
    samples: list


def simon_readout(oracle: BooleanOracle) -> RegisterReadout:
    """Argument-register readout of the final state; draws give constraints j."""
    return RegisterReadout(simon_final_state(oracle).reshaped((2 ** oracle.n, 2 ** oracle.n)), 0)


def simon_period(readout: RegisterReadout, n: int, rng: np.random.Generator,
                 max_samples: int) -> SimonResult:
    """One Simon trial on a prepared readout: draw constraints j from `rng`
    until n-1 independent ones accumulate, then recover the hidden period
    over GF(2)."""
    if max_samples < n - 1:
        raise ValueError(f"max_samples={max_samples} < n-1={n - 1}")
    rows: dict[int, int] = {}
    samples = []
    for _ in range(max_samples):
        if len(rows) == n - 1:
            break
        j = readout.draw(rng)
        samples.append(j)
        kernels.gf2_add(rows, j)
    if len(rows) != n - 1:
        raise RankDeficient(
            f"rank {len(rows)} < {n - 1} after {max_samples} samples; retry with more"
        )
    return SimonResult(period=kernels.gf2_null_vector(rows, n), samples=samples)


# ---------------------------------------------------------------------------
# Grover

def grover_iterations(n: int, marked_count: int) -> int:
    return int(math.floor((math.pi / 4.0) * math.sqrt(2 ** n / marked_count)))


def grover_readout(n: int, marked) -> tuple[RegisterReadout, list[int]]:
    """Readout of the state after `grover_iterations` rounds, whose draws give
    the found index, and the sorted marked set."""
    _check_width(n, n)
    size = 2 ** n
    marked = sorted(set(int(m) for m in marked))
    if not marked or len(marked) >= size:
        raise InvalidMarkedSet(f"need 1 <= |marked| < {size}, got {len(marked)}")
    if marked[0] < 0 or marked[-1] >= size:
        raise InvalidMarkedSet(f"marked indices must lie in [0, {size})")
    iters = grover_iterations(n, len(marked))
    amps = kernels.grover_amplitudes(n, np.array(marked, dtype=np.int64), iters)
    return RegisterReadout(StateVector._owning(amps, (size,)), 0), marked
