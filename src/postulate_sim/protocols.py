"""Teleportation of one qubit through a shared Bell pair.

The sender measures her two qubits in the Bell basis; the receiver applies
a Pauli correction keyed by two classical bits. The Bell measurement is a
local readout of the sender's 4-dim factor: each outcome projector
|B_k><B_k| x I has rank two on the three-qubit space. Under Lueders
semantics the protocol succeeds exactly. Under strict von Neumann semantics
that rank-two projector determines no post-state, and the protocol reports
itself blocked.
"""
from __future__ import annotations

import enum
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .hilbert import Observable, StateVector, phase_normalize
from .measurement import RegisterReadout, SemanticsMode

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class BellKind(enum.Enum):
    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3

    @property
    def label(self) -> str:
        return {0: "phi+", 1: "phi-", 2: "psi+", 3: "psi-"}[self.value]

    @property
    def classical_bits(self) -> tuple[int, int]:
        return (self.value >> 1, self.value & 1)


class DegeneracyReport(NamedTuple):
    dimension: int
    distinct_eigenvalues: int
    multiplicities: list[int]


class TeleportResult(NamedTuple):
    outcome_kind: BellKind
    bob_state_before_correction: Optional[StateVector]
    correction: str
    bob_state_after_correction: Optional[StateVector]


@lru_cache(maxsize=None)
def bell_state(kind: BellKind) -> StateVector:
    """The Bell state of the given kind; one shared instance per kind (states are immutable)."""
    amps = {
        BellKind.PHI_PLUS: [1, 0, 0, 1],
        BellKind.PHI_MINUS: [1, 0, 0, -1],
        BellKind.PSI_PLUS: [0, 1, 1, 0],
        BellKind.PSI_MINUS: [0, 1, -1, 0],
    }[kind]
    return StateVector._owning(np.array(amps, dtype=np.complex128) * _INV_SQRT2, (2, 2))


@lru_cache(maxsize=1)
def bell_basis_observable() -> Observable:
    """Eigenvalue k on the k-th Bell state; nondegenerate on two qubits. Its
    eigenbasis is stated, the exact Bell states, so no eigensolver runs."""
    vectors = np.column_stack([bell_state(kind).amplitudes for kind in BellKind])
    values = np.arange(4.0)
    return Observable.of_basis((vectors * values) @ vectors.conj().T, (2, 2),
                               values, vectors, (1,) * 4)


_CORRECTIONS = {
    BellKind.PHI_PLUS: ("I", np.eye(2, dtype=np.complex128)),
    BellKind.PHI_MINUS: ("sigma3", np.array([[1, 0], [0, -1]], dtype=np.complex128)),
    BellKind.PSI_PLUS: ("sigma1", np.array([[0, 1], [1, 0]], dtype=np.complex128)),
    BellKind.PSI_MINUS: ("sigma3*sigma1", np.array([[0, 1], [-1, 0]], dtype=np.complex128)),
}


class Teleportation(RegisterReadout):
    """|psi>|Phi+> with the sender's pair read out in the Bell basis, prepared once.

    The Born vector of the four Bell outcomes is computed here and serves
    every draw. Under strict von Neumann the run is blocked as a whole:
    `blocked` holds the projector rank of each Bell outcome, and no branch
    has a post-state. Bob's state in branch k (index = `BellKind` value) is
    the stored component (<B_k| x I)|psi>|Phi+>.
    """

    def __init__(self, psi_in: StateVector, mode: SemanticsMode):
        if psi_in.dim != 2:
            raise ValueError("teleport expects a single-qubit input state")
        # the outer product of two vectors, flattened, is their Kronecker product;
        # the sender's two qubits are grouped into one 4-dim factor
        total = np.outer(psi_in.amplitudes, bell_state(BellKind.PHI_PLUS).amplitudes).reshape(-1)
        super().__init__(StateVector._owning(total, (4, 2)), 0, bell_basis_observable())
        self.blocked: Optional[DegeneracyReport] = None
        if mode is SemanticsMode.STRICT_VON_NEUMANN:
            ranks = [self.outcome(kind.value, mode).projector_rank for kind in BellKind]
            self.blocked = DegeneracyReport(self.psi.dim, len(BellKind), ranks)

    def branch(self, idx: int) -> TeleportResult:
        """The result of Bell branch `idx`; Bob's states only when the run is not blocked."""
        kind = BellKind(idx)
        label, gate = _CORRECTIONS[kind]
        bob_before = bob_after = None
        if self.blocked is None:
            phi = self._mat[0, idx]  # the Bell factor is first, so `before` is 1
            bob_before = StateVector._owning(phase_normalize(phi / np.linalg.norm(phi)), (2,))
            bob_after = StateVector._owning(phase_normalize(gate @ bob_before.amplitudes), (2,))
        return TeleportResult(kind, bob_before, label, bob_after)
