"""Measurement semantics engine.

Two collapse rules are implemented side by side:

* Lueders: the post-state is the renormalized projection of the input onto
  the outcome eigenspace, degenerate or not.
* Strict von Neumann: an outcome whose eigenspace on the whole space has
  rank 1 collapses to the eigenvector; any higher rank leaves the post-state
  undetermined (the outcome still carries the rank of its eigenspace, and
  the Lueders state as a diagnostic, so the two semantics can be contrasted
  in reports).

Every measurement is one readout, `RegisterReadout`: an observable on the
whole space (`measure`, `born_probabilities`), a local observable on one
subsystem, degenerate or not (`partial_measure`), or one subsystem's
computational basis, read without building the diagonal observable. It
projects onto the eigenspace of the outcome and reads the rank of that
projector: the multiplicity times the dimension of the rest of the system.
A readout is prepared once per state: its Born vector is computed once,
every draw reuses one running sum (`Sampler`), and `outcome` builds the
result of a drawn index. The one-shot functions (`measure`,
`partial_measure` and the Born probabilities) prepare a readout per call.
"""
from __future__ import annotations

import enum
import math
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange
from .hilbert import MAX_DIM, Observable, SpectralDecomposition, StateVector, phase_normalize


class SemanticsMode(enum.Enum):
    STRICT_VON_NEUMANN = "von-neumann"
    LUEDERS = "lueders"

    def __str__(self):
        return self.value


class MeasurementOutcome:
    """One sampled measurement result; every readout's collapse rule lives here.

    `determined` is False only in strict von Neumann mode on a degenerate
    outcome (`projector_rank` > 1): `post_state` is then None and
    `lueders_post_state` records what the other semantics would have claimed.

    The post-state is built on first read. Under strict von Neumann at rank 1
    (multiplicity 1, no rest) it is `subsystem_post_state` over the same buffer
    (so a forced zero-probability outcome keeps one): the `eigenstate`,
    phase-normalized in its own number field. Else it is the projection
    `project()`, a fresh array divided in place by its norm, or None when that
    is 0. Either array becomes the state's buffer uncopied. The eigenstate is
    the measured subsystem's basis vector, or for a whole-space observable the
    eigenvector of a one-dimensional eigenspace (None when it is degenerate).
    """

    def __init__(self, eigenvalue: float, probability: float, mode: SemanticsMode,
                 projector_rank: int, dims: tuple, project: Callable[[], np.ndarray],
                 eigenstate: Optional[np.ndarray]):
        self.eigenvalue = eigenvalue
        self.probability = probability
        self.mode = mode
        self.projector_rank = projector_rank
        self.determined = mode is SemanticsMode.LUEDERS or projector_rank == 1
        self._dims = dims
        self._project = project
        self._eigenstate = eigenstate

    @cached_property
    def _state(self) -> Optional[StateVector]:
        if self.mode is not SemanticsMode.LUEDERS and self.projector_rank == 1:
            return self.subsystem_post_state.reshaped(self._dims)
        projected = self._project()
        norm = np.linalg.norm(projected)
        # a NaN norm fails the test too, and gives no state
        if norm > 0:
            projected /= norm
            return StateVector._owning(projected, self._dims)
        return None

    @property
    def post_state(self) -> Optional[StateVector]:
        return self._state if self.determined else None

    @property
    def lueders_post_state(self) -> Optional[StateVector]:
        return None if self.determined else self._state

    @cached_property
    def subsystem_post_state(self) -> Optional[StateVector]:
        if self._eigenstate is None:
            return None
        return StateVector._owning(phase_normalize(self._eigenstate), (self._eigenstate.size,))

    def __repr__(self):
        return (
            f"MeasurementOutcome(eigenvalue={self.eigenvalue}, "
            f"probability={self.probability:.6g}, determined={self.determined})"
        )


class RefinementObservable(NamedTuple):
    """Nondegenerate C with a value map f such that f(C) reconstructs A."""

    refined: Observable
    value_map: dict[int, float]


def born_probabilities(a: Observable, psi: StateVector) -> np.ndarray:
    return RegisterReadout(psi, None, a).probabilities


class Sampler:
    """Draws indices with fixed probabilities; never a zero-probability one.

    One uniform draw, scaled by the total, is located in the running sum,
    which the first draw computes and every later draw reuses. A draw that
    rounding puts at or past the last partial sum falls back to the last
    nonzero index. A draw takes anything with a `random()` method: a numpy
    `Generator`, or a stream of `kernels.trial_streams`. The one readout,
    `RegisterReadout`, builds the result of an index with `outcome(idx,
    mode)`.
    """

    def __init__(self, probabilities):
        self.probabilities = np.asarray(probabilities, dtype=np.float64)

    @cached_property
    def _running_sum(self) -> tuple[float, np.ndarray]:
        return float(np.sum(self.probabilities)), np.cumsum(self.probabilities)

    def draw(self, rng: np.random.Generator) -> int:
        total, running = self._running_sum
        idx = int(np.searchsorted(running, rng.random() * total, side="right"))
        if idx == self.probabilities.size:
            nonzero = np.flatnonzero(self.probabilities)
            idx = int(nonzero[-1]) if nonzero.size else 0
        return idx


def measure(a: Observable, psi: StateVector, mode: SemanticsMode,
            rng: np.random.Generator) -> MeasurementOutcome:
    """Sample one outcome of measuring `a` on `psi` under the given semantics."""
    r = RegisterReadout(psi, None, a)
    return r.outcome(r.draw(rng), mode)


# the largest dense lift: a 16 MiB matrix, where 2^16 would take 64 GiB
_LIFT_DIM = 2 ** 10


def lift(a: Observable, subsystem: int, dims) -> Observable:
    """Embed a local observable as I x ... x a x ... x I on the composite space.

    `.matrix` is the dense Kronecker product. The decomposition is built from
    `a`'s, with no eigensolver, since the eigenvectors of a Kronecker product
    are the products of its factors' (Horn and Johnson, Topics in Matrix
    Analysis, 1991, sec. 4.2): the local eigenvalues, each with its local
    multiplicity times the dimension of the rest of the system, over the
    orthonormal columns |b> x v_j x |c> in j-major order, so each eigenspace
    is one contiguous column slice. The degeneracy of the lift is therefore
    exact, whatever DEGEN_TOL. A lifted dimension past 2^10 is refused.
    """
    dims = tuple(int(d) for d in dims)
    before, after = _split(dims, subsystem, a)
    dim = before * a.dim * after
    # checked before the identities of the rest are allocated
    if dim > MAX_DIM:
        raise DimensionMismatch(f"total dimension {dim} exceeds cap {MAX_DIM}")
    if dim > _LIFT_DIM:
        raise DimensionMismatch(f"lifted dimension {dim} exceeds the dense cap {_LIFT_DIM}")
    lifted = Observable(np.kron(np.kron(np.eye(before), a.matrix), np.eye(after)), dims)
    dec = a.decomposition
    vectors = np.einsum("bB,ij,cC->bicjBC", np.eye(before), dec.vectors, np.eye(after))
    # set on the instance, it shadows the cached property: no eigensolver runs
    lifted.decomposition = SpectralDecomposition(
        dec.eigenvalues, vectors.reshape(lifted.dim, lifted.dim),
        [m * before * after for m in dec.multiplicities])
    return lifted


def _split(dims, subsystem: int, a: Optional[Observable] = None) -> tuple[int, int]:
    """Dimensions of the factors before and after the given subsystem, on
    which the local observable `a`, when given, must act."""
    if not 0 <= subsystem < len(dims):
        raise IndexOutOfRange(f"subsystem {subsystem} out of range for dims {dims}")
    if a is not None and a.dim != dims[subsystem]:
        raise DimensionMismatch(f"operator dim {a.dim} != subsystem dim {dims[subsystem]}")
    return math.prod(dims[:subsystem]), math.prod(dims[subsystem + 1:])


def partial_probabilities(a: Observable, subsystem: int, psi: StateVector) -> np.ndarray:
    """Born probabilities of a local measurement: |(E_j x I) psi|^2 per eigenvalue."""
    return RegisterReadout(psi, subsystem, a).probabilities


def partial_measure(
    a: Observable,
    subsystem: int,
    psi: StateVector,
    mode: SemanticsMode,
    rng: np.random.Generator,
) -> MeasurementOutcome:
    """Measure a local observable on one subsystem: the `RegisterReadout` of
    that subsystem in the eigenbasis of `a`."""
    r = RegisterReadout(psi, subsystem, a)
    return r.outcome(r.draw(rng), mode)


# the most squared weights `_rest_sums` holds at once, unless one level has more
_BLOCK = 2 ** 12


def _rest_sums(mat: np.ndarray) -> np.ndarray:
    """`(np.abs(mat) ** 2).sum(axis=(0, 2))` of a (before, measured > 1, after)
    array, in numpy's order to the last bit (each mat[b, m] summed alone, the
    rows b added in turn), squared in blocks of whole rows, of levels of one
    row, or of one level."""
    before, measured, after = mat.shape
    born = np.zeros(measured)
    rows = max(1, _BLOCK // (measured * after))
    levels = max(1, _BLOCK // after)
    for b in range(0, before, rows):
        for m in range(0, measured, levels):
            weights = np.abs(mat[b:b + rows, m:m + levels])
            np.square(weights, out=weights)
            sums = weights.sum(axis=2)
            del weights
            sums[0] += born[m:m + levels]
            sums.sum(axis=0, out=born[m:m + levels])
    return born


class RegisterReadout(Sampler):
    """Readout of one subsystem, or of the whole space when `subsystem` is
    None, in the eigenbasis of `a`, prepared once.

    Without `a` the basis is the computational one, eigenvalue k on |k>, read
    from the amplitudes without building an operator. The components
    (<v_j| x I) psi of every basis vector are stored with the measured factor
    on the middle axis. An eigenvalue's Born probability sums the weights of
    its eigenspace's components, computed once here and shared by every
    draw; its Lueders projection is the sum of |v_j> x component j over that
    eigenspace; its projector rank is the multiplicity times the dimension of
    the rest of the system. Strict von Neumann therefore determines a
    post-state only on a one-dimensional eigenspace of the whole space; the
    drawn index does not depend on the mode.
    """

    def __init__(self, psi: StateVector, subsystem: Optional[int],
                 a: Optional[Observable] = None):
        if subsystem is None:
            if a is not None and a.dim != psi.dim:
                raise DimensionMismatch(f"operator dim {a.dim} != state dim {psi.dim}")
            before, measured, after = 1, psi.dim, 1
        else:
            before, after = _split(psi.dims, subsystem, a)
            measured = psi.dims[subsystem]
        self.psi = psi
        self.decomposition = None if a is None else a.decomposition
        self._mat = psi.amplitudes.reshape(before, measured, after)
        if a is not None:
            # V^dag psi as conj(psi^dag V), one matrix product; the contiguous copy
            # keeps the sums below in the order of a plain array
            components = np.conj(np.conj(self._mat).swapaxes(1, 2) @ a.decomposition.vectors)
            self._mat = np.ascontiguousarray(components.swapaxes(1, 2))
        if before * after == 1:
            # over the whole register the squared weights are the Born vector
            weights = np.abs(self._mat.reshape(-1))
            np.square(weights, out=weights)
        else:
            weights = _rest_sums(self._mat)
        super().__init__(weights if a is None else np.bincount(a.decomposition.labels, weights))
        # read-only: `draw` caches the running sum of this vector on its first draw
        self.probabilities.flags.writeable = False

    def outcome(self, idx: int, mode: SemanticsMode) -> MeasurementOutcome:
        if not 0 <= idx < self.probabilities.size:
            raise IndexOutOfRange(f"outcome index {idx} out of range")
        dec = self.decomposition
        if dec is None:  # the one column |idx>
            block = np.eye(self._mat.shape[1], 1, -idx, dtype=self._mat.dtype)
            eigenvalue, columns = float(idx), slice(idx, idx + 1)
        else:
            block, columns = dec.blocks[idx], dec.labels == idx
            eigenvalue = float(dec.eigenvalues[idx])
        rank = block.shape[1] * self.psi.dim // self._mat.shape[1]
        return MeasurementOutcome(eigenvalue, float(self.probabilities[idx]), mode, rank,
                                  self.psi.dims,
                                  lambda: (block @ self._mat[:, columns]).reshape(-1),
                                  block[:, 0] if block.shape[1] == 1 else None)


def build_refinement(a: Observable) -> RefinementObservable:
    """Construct a nondegenerate compatible C and the map f with f(C) = A.

    The refined observable assigns the plain labels 0..N-1 to the columns of
    A's eigenvector matrix in order, so they ascend with A's eigenvalue. Those
    columns are orthonormal by construction (the output of `eigh`, identity
    columns for a diagonal A, or the Kronecker columns of `lift`), so they
    are used as they are, with no QR. `refined.decomposition` comes from its
    own `eigh` on first read, which checks C independently.
    """
    dec = a.decomposition
    # one (dim, dim) temporary beyond C. The product is formed conjugated,
    # conj(M) = conj(V) diag(k) V^T for M = V diag(k) V^dag, so the scaled
    # factor is the only copy of V, and its buffer then takes M^dag. Conjugation
    # commutes with every rounding, so C is bit for bit (M + M^dag) / 2.
    adjoint = np.conjugate(dec.vectors)
    adjoint *= np.arange(a.dim)
    mat = adjoint @ dec.vectors.T
    np.copyto(adjoint, mat.T)
    np.conjugate(mat, out=mat)
    mat += adjoint
    del adjoint
    mat /= 2
    value_map = dict(enumerate(np.repeat(dec.eigenvalues, dec.multiplicities).tolist()))
    return RefinementObservable(Observable(mat, a.dims), value_map)
