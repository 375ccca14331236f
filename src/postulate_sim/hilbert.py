"""Finite-dimensional Hilbert-space primitives.

States are dense float64 or complex128 amplitude vectors over a composite
space with declared subsystem dimensions (big-endian: leftmost factor is the
most significant index).  Observables are Hermitian matrices carrying a
cached spectral decomposition in which near-equal eigenvalues are merged, so
degeneracy is an explicit, queryable property.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotHermitian, PostulateSimError, UnresolvedDegeneracy

NORM_TOL = 1e-10
HERM_TOL = 1e-10
DEGEN_TOL = 1e-9
# an amplitude at or below this modulus cannot fix a global phase
PHASE_CUTOFF = 1e-12
# Simon at n=8 lives on 2n = 16 qubits, so the dense cap sits at 2^16
MAX_DIM = 2 ** 16


def _as_dims(dims) -> tuple[int, ...]:
    dims = tuple(map(int, dims))
    if not dims or min(dims) < 1:
        raise DimensionMismatch(f"invalid subsystem dimensions {dims}")
    return dims


def _state_dims(dims, size: int) -> tuple[int, ...]:
    """Subsystem dimensions of a state of `size` amplitudes, within the cap."""
    dims = _as_dims(dims)
    if math.prod(dims) != size:
        raise DimensionMismatch(
            f"dims {dims} imply dimension {math.prod(dims)}, got {size} amplitudes"
        )
    if size > MAX_DIM:
        raise DimensionMismatch(f"total dimension {size} exceeds cap {MAX_DIM}")
    return dims


class StateVector:
    """Normalized pure state over subsystems of the given dimensions; its
    amplitudes are a read-only copy of the caller's, which `reshaped` shares:
    float64 when they are real, else complex128."""

    __slots__ = ("amplitudes", "dims")

    def __init__(self, amplitudes, dims=None):
        amps = np.reshape(amplitudes, -1)
        self._adopt(np.array(amps, dtype=complex if np.iscomplexobj(amps) else float), dims)

    @classmethod
    def _owning(cls, amps: np.ndarray, dims) -> "StateVector":
        """A state over `amps`, a fresh 1-D float64 or complex128 array that
        no one else holds: it becomes the read-only buffer, uncopied; the norm
        is checked."""
        state = object.__new__(cls)
        state._adopt(amps, dims)
        return state

    def _adopt(self, amps: np.ndarray, dims):
        dims = _state_dims((amps.size,) if dims is None else dims, amps.size)
        norm = math.sqrt(np.vdot(amps, amps).real)
        # a NaN norm fails every comparison, so test finiteness explicitly
        if not math.isfinite(norm) or abs(norm - 1.0) > NORM_TOL:
            raise PostulateSimError(f"state not normalized: |psi| = {norm!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def reshaped(self, dims) -> "StateVector":
        """Same amplitudes under a different subsystem grouping, over the
        same read-only buffer: no copy and no second norm check."""
        dims = _state_dims(dims, self.dim)
        state = object.__new__(StateVector)
        object.__setattr__(state, "amplitudes", self.amplitudes)
        object.__setattr__(state, "dims", dims)
        return state

    def overlap(self, other: "StateVector") -> complex:
        if self.dims != other.dims:
            raise DimensionMismatch(f"dims {self.dims} != {other.dims}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self):
        return f"StateVector(dim={self.dim}, dims={self.dims})"


class SpectralDecomposition:
    """Distinct sorted eigenvalues over one orthonormal eigenvector matrix.

    Eigenvalues are merged as `spectral_decompose` decides (mean value,
    combined eigenspace). The columns of `vectors` are grouped by eigenvalue:
    `labels[j]` is the eigenspace index of column j, and `blocks[i]` is the
    column slice spanning eigenspace i (a view, not a copy). A readout
    projects through these columns; no dense projector is ever formed.
    """

    def __init__(self, eigenvalues: np.ndarray, vectors: np.ndarray, multiplicities):
        self.eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        self.vectors = vectors
        self.multiplicities = tuple(multiplicities)
        self.blocks = np.split(vectors, np.cumsum(self.multiplicities)[:-1], axis=1)
        self.labels = np.repeat(np.arange(len(self.multiplicities)), self.multiplicities)


class Observable:
    """Hermitian operator over a composite space, with cached decomposition."""

    def __init__(self, matrix, dims=None):
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
        if dims is None:
            dims = (mat.shape[0],)
        dims = _as_dims(dims)
        if math.prod(dims) != mat.shape[0]:
            raise DimensionMismatch(
                f"dims {dims} imply dimension {math.prod(dims)}, got {mat.shape[0]}x{mat.shape[0]}"
            )
        # NaN fails every comparison, so test finiteness before any arithmetic
        if not np.isfinite(mat).all():
            raise PostulateSimError("observable has non-finite entries")
        # relative to the largest entry, whose moduli are freed before the defect's
        # buffer is taken (Higham, Accuracy and Stability..., 2002, ch. 1)
        tol = HERM_TOL * float(np.max(np.abs(mat)))
        defect = mat.conj().T
        herm_defect = np.max(np.abs(np.subtract(mat, defect, out=defect)))
        if herm_defect > tol:
            raise NotHermitian(f"max |M - M^dag| = {float(herm_defect)!r} exceeds {tol!r}")
        self.matrix = mat
        self.dims = dims

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def decomposition(self) -> SpectralDecomposition:
        return spectral_decompose(self)

    def __repr__(self):
        return f"Observable(dim={self.dim}, dims={self.dims})"


def spectral_decompose(a: Observable) -> SpectralDecomposition:
    """Eigendecomposition with near-degenerate eigenvalues merged.

    Degeneracy does not depend on units: consecutive sorted eigenvalues merge
    when their gap is at most `DEGEN_TOL * max|eigenvalue|`, well above the
    rounding of a backward-stable `eigh` (about dim * eps * |A|). A merged
    group wider than that tolerance is no one eigenvalue, so it raises
    `UnresolvedDegeneracy` rather than letting chained gaps pick a verdict.
    A zero tolerance merges only exact ties, and a negative one nothing.

    A diagonal matrix short-circuits the dense eigensolver: its eigenvalues
    are the diagonal and its eigenvectors are basis vectors.
    """
    mat = a.matrix
    diag = np.diagonal(mat)
    if np.count_nonzero(mat) == np.count_nonzero(diag) and np.max(np.abs(diag.imag), initial=0.0) == 0:
        order = np.argsort(diag.real, kind="stable")
        values = diag.real[order]
        vectors = np.eye(mat.shape[0], dtype=np.complex128)[:, order]
    else:
        values, vectors = np.linalg.eigh(mat)

    tol = DEGEN_TOL * float(np.max(np.abs(values)))
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > tol)
    counts = np.diff(starts, append=values.size)
    spans = values[starts + counts - 1] - values[starts]
    widest = int(np.argmax(spans))
    if spans[widest] > max(tol, 0.0):
        raise UnresolvedDegeneracy(
            f"{counts[widest]} eigenvalues chain within the merge tolerance {tol!r} "
            f"but span a width of {float(spans[widest])!r}")
    return SpectralDecomposition(np.add.reduceat(values, starts) / counts,
                                 np.ascontiguousarray(vectors), counts.tolist())


def phase_normalize(amplitudes: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first amplitude above `PHASE_CUTOFF` is positive real."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    above = np.flatnonzero(np.abs(amps) > PHASE_CUTOFF)
    if above.size == 0:
        return amps.copy()
    c = amps[above[0]]
    return amps * (abs(c) / c)
