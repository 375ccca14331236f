"""Dense state-vector simulator with pluggable measurement semantics.

Contrasts strict von Neumann projection (degenerate spectra leave the
post-state undetermined) with Lueders projection, across teleportation and
the Deutsch-Jozsa / Simon / Grover algorithms.
"""
import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it; a name binds on first read
# (PEP 562), so `import postulate_sim` alone loads no numpy
_EXPORTS = {
    **dict.fromkeys(["Observable", "SpectralDecomposition", "StateVector",
                     "spectral_decompose"], "hilbert"),
    **dict.fromkeys(["MeasurementOutcome", "RefinementObservable", "RegisterReadout",
                     "SemanticsMode", "build_refinement", "lift", "measure",
                     "partial_measure"], "measurement"),
    **dict.fromkeys(["BellKind", "TeleportResult", "Teleportation", "bell_state",
                     "bell_basis_observable"], "protocols"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
