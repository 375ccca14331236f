"""Dense state-vector simulator with pluggable measurement semantics.

Contrasts strict von Neumann projection (degenerate spectra leave the
post-state undetermined) with Lueders projection, across teleportation and
the Deutsch-Jozsa / Simon / Grover algorithms.
"""
from .hilbert import Observable, SpectralDecomposition, StateVector, spectral_decompose
from .measurement import (
    MeasurementOutcome,
    RefinementObservable,
    RegisterReadout,
    SemanticsMode,
    build_refinement,
    lift,
    measure,
    partial_measure,
)
from .protocols import BellKind, TeleportResult, bell_state, bell_basis_observable, teleport

__version__ = "0.1.0"

__all__ = [
    "Observable",
    "SpectralDecomposition",
    "StateVector",
    "spectral_decompose",
    "MeasurementOutcome",
    "RefinementObservable",
    "RegisterReadout",
    "SemanticsMode",
    "build_refinement",
    "lift",
    "measure",
    "partial_measure",
    "BellKind",
    "TeleportResult",
    "bell_state",
    "bell_basis_observable",
    "teleport",
    "__version__",
]
