import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from postulate_sim.errors import (
    DimensionMismatch,
    NotHermitian,
    PostulateSimError,
    UnresolvedDegeneracy,
)
from postulate_sim.hilbert import (
    DEGEN_TOL,
    HERM_TOL,
    MAX_DIM,
    Observable,
    StateVector,
    phase_normalize,
    spectral_decompose,
)

INV_SQRT2 = 1 / np.sqrt(2)

KET0 = StateVector([1, 0])
KET1 = StateVector([0, 1])
PLUS = StateVector([INV_SQRT2, INV_SQRT2])

SIGMA3 = Observable([[1, 0], [0, -1]])
IDENTITY2 = Observable(np.eye(2))


def basis_state(index, dims):
    """Computational basis state |index> over subsystems of the given dimensions."""
    amps = np.zeros(math.prod(dims), dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps, dims)


def tensor_state(a, b):
    """Kronecker product of two states; subsystem dims concatenate."""
    return StateVector(np.kron(a.amplitudes, b.amplitudes), a.dims + b.dims)


def tensor_op(a, b):
    """Kronecker product of two Hermitian operators."""
    return Observable(np.kron(a.matrix, b.matrix), a.dims + b.dims)


def phase_equal(a, b, tol=1e-10):
    """True iff the states coincide up to a global phase: |<a|b>| >= 1 - tol."""
    return abs(a.overlap(b)) >= 1.0 - tol


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Observable((m + m.conj().T) / 2)


def random_state(rng, dim, dims=None):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(v / np.linalg.norm(v), dims)


def planted_observable(rng, mults):
    """Observable with eigenvalue g on a random eigenspace of multiplicity
    mults[g]; returns it with the planted orthonormal columns of every
    eigenspace."""
    dim = sum(mults)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u = np.linalg.qr(z)[0]
    m = (u * np.repeat(np.arange(len(mults)), mults)) @ u.conj().T
    return Observable((m + m.conj().T) / 2), np.split(u, np.cumsum(mults)[:-1], axis=1)


def projectors(dec):
    """Dense eigenprojector B B^dag of every eigenspace block B of a decomposition."""
    return [b @ b.conj().T for b in dec.blocks]


def bell_phi_plus():
    return StateVector(np.array([1, 0, 0, 1]) * INV_SQRT2, (2, 2))


def traced_peak(fn) -> int:
    """Bytes `fn()` allocates at its peak, above what was live before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(PostulateSimError):
            StateVector([1, 1])

    @pytest.mark.parametrize("amps", [[np.nan, 0], [np.inf, 0], [np.nan, 1]])
    def test_rejects_non_finite(self, amps):
        with pytest.raises(PostulateSimError):
            StateVector(amps)

    def test_rejects_bad_dims(self):
        with pytest.raises(DimensionMismatch):
            StateVector([1, 0, 0], (2, 2))

    def test_rejects_a_state_past_the_cap(self):
        amps = np.zeros(2 * MAX_DIM)
        amps[0] = 1.0
        with pytest.raises(DimensionMismatch) as exc:
            StateVector(amps)
        assert str(exc.value) == "total dimension 131072 exceeds cap 65536"

    def test_repr(self):
        assert repr(bell_phi_plus()) == "StateVector(dim=4, dims=(2, 2))"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            KET0.amplitudes = np.array([0, 1])
        with pytest.raises(ValueError):
            KET0.amplitudes[0] = 0

    def test_basis(self):
        s = basis_state(2, (2, 2))
        np.testing.assert_array_equal(s.amplitudes, [0, 0, 1, 0])

    def test_copies_a_real_vector_once(self):
        """At the cap, a real vector becomes one 0.5 MiB real buffer (1 MiB
        when it was made complex), which never aliases the caller's array."""
        real = np.zeros(MAX_DIM)
        real[0] = 1.0
        assert traced_peak(lambda: StateVector(real)) <= 0.51 * 2 ** 20
        complex_amps = real.astype(np.complex128)
        assert not np.shares_memory(StateVector(complex_amps).amplitudes, complex_amps)

    def test_reshaped_shares_the_buffer(self):
        psi = basis_state(5, (MAX_DIM,))
        split = psi.reshaped((2 ** 8, 2 ** 8))
        assert split.dims == (256, 256) and np.shares_memory(split.amplitudes, psi.amplitudes)
        assert not split.amplitudes.flags.writeable
        # no amplitude buffer: a few hundred bytes of Python objects
        assert traced_peak(lambda: psi.reshaped((2,) * 16)) < 2 ** 12
        for dims in [(2 ** 8, 2 ** 7), (2,) * 17, (0, 2 ** 16), ()]:
            with pytest.raises(DimensionMismatch):
                psi.reshaped(dims)


class TestTensorState:
    def test_basis_case(self):
        s = tensor_state(KET0, KET0)
        np.testing.assert_allclose(s.amplitudes, [1, 0, 0, 0])
        assert s.dims == (2, 2)

    def test_input_times_bell_pair(self):
        # 8-amplitude pre-measurement state: (a|0>+b|1>) x (|00>+|11>)/sqrt2
        a, b = 0.6, 0.8j
        psi = StateVector([a, b])
        s = tensor_state(psi, bell_phi_plus())
        expected = np.array([a, 0, 0, a, b, 0, 0, b]) * INV_SQRT2
        np.testing.assert_allclose(s.amplitudes, expected, atol=1e-12)
        assert s.dims == (2, 2, 2)

    def test_plus_plus(self):
        s = tensor_state(PLUS, PLUS)
        np.testing.assert_allclose(s.amplitudes, [0.5] * 4, atol=1e-12)

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_state(rng, 3)
            b = random_state(rng, 4)
            s = tensor_state(a, b)
            assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


class TestTensorOp:
    def test_sigma3_tensor_identity(self):
        op = tensor_op(SIGMA3, IDENTITY2)
        np.testing.assert_allclose(op.matrix, np.diag([1, 1, -1, -1]))
        dec = op.decomposition
        np.testing.assert_allclose(dec.eigenvalues, [-1, 1])
        assert dec.multiplicities == (2, 2)
        assert max(dec.multiplicities) > 1

    def test_identity_tensor_identity(self):
        dec = tensor_op(IDENTITY2, IDENTITY2).decomposition
        np.testing.assert_allclose(dec.eigenvalues, [1])
        assert dec.multiplicities == (4,)

    def test_sigma3_tensor_sigma3(self):
        op = tensor_op(SIGMA3, SIGMA3)
        np.testing.assert_allclose(op.matrix, np.diag([1, -1, -1, 1]))

    def test_spectrum_multiplicity_scaling(self):
        # independent oracle: full eigensolve of the kron product
        rng = np.random.default_rng(11)
        for dim, m in [(2, 3), (3, 2), (4, 4)]:
            a = random_hermitian(rng, dim)
            lifted = tensor_op(a, Observable(np.eye(m)))
            expected = np.sort(np.repeat(np.linalg.eigvalsh(a.matrix), m))
            actual = np.sort(np.linalg.eigvalsh(lifted.matrix))
            np.testing.assert_allclose(actual, expected, atol=1e-9)
            dec = lifted.decomposition
            base = a.decomposition
            np.testing.assert_allclose(dec.eigenvalues, base.eigenvalues, atol=1e-9)
            assert dec.multiplicities == tuple(mm * m for mm in base.multiplicities)


class TestSpectralDecompose:
    def test_sigma3(self):
        dec = SIGMA3.decomposition
        np.testing.assert_allclose(dec.eigenvalues, [-1, 1])
        np.testing.assert_allclose(projectors(dec)[0], [[0, 0], [0, 1]], atol=1e-12)
        np.testing.assert_allclose(projectors(dec)[1], [[1, 0], [0, 0]], atol=1e-12)
        assert dec.multiplicities == (1, 1)
        assert max(dec.multiplicities) == 1

    def test_bell_observable_rank_one(self):
        from postulate_sim.protocols import bell_basis_observable
        dec = bell_basis_observable().decomposition
        np.testing.assert_allclose(dec.eigenvalues, [0, 1, 2, 3], atol=1e-12)
        assert dec.multiplicities == (1, 1, 1, 1)
        recon = sum(ev * p for ev, p in zip(dec.eigenvalues, projectors(dec)))
        np.testing.assert_allclose(recon, bell_basis_observable().matrix, atol=1e-9)

    def test_bell_observable_lifted_degenerate(self):
        from postulate_sim.protocols import bell_basis_observable
        lifted = tensor_op(bell_basis_observable(), IDENTITY2)
        dec = lifted.decomposition
        np.testing.assert_allclose(dec.eigenvalues, [0, 1, 2, 3], atol=1e-9)
        assert dec.multiplicities == (2, 2, 2, 2)
        assert max(dec.multiplicities) > 1

    def test_not_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            Observable([[0, 1], [0, 0]])

    @pytest.mark.parametrize("mults", [(1,), (3,), (1, 2, 3, 4), (4, 1, 3, 2), (9, 2, 1), (2, 12, 1)])
    def test_blocks_are_views_of_one_eigenvector_matrix(self, mults):
        rng = np.random.default_rng(len(mults) * 100 + sum(mults))
        a, planted = planted_observable(rng, mults)
        dec = a.decomposition
        assert dec.multiplicities == mults
        assert sum(dec.multiplicities) == a.dim
        assert dec.vectors.shape == (a.dim, a.dim) and dec.vectors.flags.c_contiguous
        np.testing.assert_allclose(dec.vectors.conj().T @ dec.vectors, np.eye(a.dim), atol=1e-12)
        for block, cols, m in zip(dec.blocks, planted, mults):
            assert block.shape == (a.dim, m)
            assert np.shares_memory(block, dec.vectors)
            np.testing.assert_allclose(block @ block.conj().T, cols @ cols.conj().T, atol=1e-10)

    def test_diagonal_blocks_are_views(self):
        dec = Observable(np.diag([2.0, 0.0, 2.0, 1.0])).decomposition
        np.testing.assert_array_equal(dec.eigenvalues, [0, 1, 2])
        assert dec.multiplicities == (1, 1, 2)
        # `eigh` picks the order within the tied eigenspace; its projector is fixed
        for proj, diagonal in zip(projectors(dec), [[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 1, 0]]):
            np.testing.assert_array_equal(proj, np.diag(diagonal))
        assert all(np.shares_memory(b, dec.vectors) for b in dec.blocks)

    @pytest.mark.parametrize("matrix,diagonal", [
        (np.diag([2.0, 0.0, 2.0, 1.0]), True),
        (np.zeros((3, 3)), True),
        # a zero diagonal: the nonzero count of the diagonal alone is 0
        ([[0, 0, 0], [0, 0, 1], [0, 1, 0]], False),
        ([[1, 2j], [-2j, 1]], False),
        ([[0, 0, 0], [0, 3, -0.5j], [0, 0.5j, 0]], False),
    ])
    def test_only_a_diagonal_matrix_skips_eigh(self, monkeypatch, matrix, diagonal):
        """No matrix skips `eigh` any more: the diagonal shortcut went, and each
        matrix takes one `eigh`. A diagonal one keeps its distinct diagonal
        entries as its eigenvalues, exactly."""
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        a = Observable(matrix)
        dec = spectral_decompose(a)
        assert len(calls) == 1
        if diagonal:
            np.testing.assert_array_equal(dec.eigenvalues, np.unique(np.diagonal(a.matrix).real))
        recon = sum(ev * p for ev, p in zip(dec.eigenvalues, projectors(dec)))
        np.testing.assert_allclose(recon, a.matrix, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_random_hermitian_invariants(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            a = random_hermitian(rng, dim)
            dec = spectral_decompose(a)
            projs = projectors(dec)
            total = sum(projs)
            np.testing.assert_allclose(total, np.eye(dim), atol=1e-9)
            recon = sum(ev * p for ev, p in zip(dec.eigenvalues, projs))
            np.testing.assert_allclose(recon, a.matrix, atol=1e-9)
            for i, p in enumerate(projs):
                np.testing.assert_allclose(p, p.conj().T, atol=1e-9)
                np.testing.assert_allclose(p @ p, p, atol=1e-9)
                for j in range(i):
                    np.testing.assert_allclose(p @ projs[j], 0, atol=1e-9)
            assert list(dec.eigenvalues) == sorted(dec.eigenvalues)


def stated_basis(name):
    """An observable whose basis `src/` states: the Bell basis, or a Pauli of
    `measure` ("x", "y" or "z")."""
    from postulate_sim import commands
    from postulate_sim.protocols import bell_basis_observable
    return bell_basis_observable() if name == "bell" else commands._PAULIS[name]


class TestStatedBases:
    """A basis stated through `Observable.of_basis` is an orthonormal
    eigenbasis of the matrix, and reading it runs no eigensolver."""

    def test_of_basis_runs_no_eigensolver(self, monkeypatch):
        def refuse(_):
            raise AssertionError("eigh ran")
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        vectors = np.eye(3)[:, [2, 0, 1]]
        a = Observable.of_basis(np.diag([1.0, 2.0, 0.0]), (3,), [0.0, 1.0, 2.0], vectors, (1, 1, 1))
        assert a.decomposition.vectors is vectors and a.decomposition.multiplicities == (1, 1, 1)
        with pytest.raises(NotHermitian):
            Observable.of_basis([[0, 1], [0, 0]], (2,), [0.0], np.eye(2), (2,))

    @pytest.mark.parametrize("name", ["bell", "x", "y", "z"])
    def test_stated_basis_decomposes_the_matrix(self, name):
        a = stated_basis(name)
        dec = a.decomposition
        vectors = dec.vectors
        assert sum(dec.multiplicities) == a.dim, name
        np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(a.dim), rtol=0, atol=1e-15)
        spectrum = np.repeat(dec.eigenvalues, dec.multiplicities)
        np.testing.assert_allclose((vectors * spectrum) @ vectors.conj().T, a.matrix,
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", ["x", "y", "z"])
    def test_paulis_state_the_columns_eigh_gives(self, name):
        """Each Pauli states the eigenvalues and columns that `eigh` returns
        for its matrix, signed zeros included, so `measure` reports what it
        reported when `eigh` ran."""
        a = stated_basis(name)
        values, vectors = np.linalg.eigh(a.matrix)
        np.testing.assert_array_equal(a.decomposition.eigenvalues, values)
        assert a.decomposition.multiplicities == (1, 1)
        assert a.decomposition.vectors.dtype == vectors.dtype
        assert a.decomposition.vectors.tobytes() == vectors.tobytes()


def scaled_spectra():
    """(matrix, dims, multiplicities): sigma_z, the dense lifted Bell
    observable B x I on (4, 2), and a unitarily conjugated diag(0, 0, 1, 1)."""
    from postulate_sim.protocols import bell_basis_observable
    return [
        (SIGMA3.matrix, (2,), (1, 1)),
        (np.kron(bell_basis_observable().matrix, np.eye(2)), (4, 2), (2, 2, 2, 2)),
        (planted_observable(np.random.default_rng(5), (2, 2))[0].matrix, (4,), (2, 2)),
    ]


class TestDegeneracyTolerance:
    """Degeneracy is a property of the spectrum, not of its units: the merge
    tolerance scales with max|eigenvalue|, and a cluster that only chained
    gaps hold together is refused."""

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    @pytest.mark.parametrize("case", range(3))
    def test_multiplicities_do_not_depend_on_units(self, scale, case):
        matrix, dims, mults = scaled_spectra()[case]
        hermitian = scale * (matrix + matrix.conj().T) / 2
        assert spectral_decompose(Observable(hermitian, dims)).multiplicities == mults

    def test_chained_cluster_raises(self):
        values = 1.0 + np.arange(200) * 0.9e-9
        with pytest.raises(UnresolvedDegeneracy) as info:
            spectral_decompose(Observable(np.diag(values)))
        message = str(info.value)
        assert "200 eigenvalues" in message
        assert repr(DEGEN_TOL * float(values[-1])) in message
        assert repr(float(values[-1] - values[0])) in message

    def test_same_gaps_from_zero_split(self):
        values = np.arange(200) * 0.9e-9
        dec = spectral_decompose(Observable(np.diag(values)))
        assert dec.multiplicities == (1,) * 200
        np.testing.assert_array_equal(dec.eigenvalues, values)

    def test_merged_eigenvalue_is_the_group_mean(self):
        values = np.array([-2.0, 3.0, 3.0 + 1e-9, 3.0 + 2e-9, 5.0])
        dec = spectral_decompose(Observable(np.diag(values)))
        assert dec.multiplicities == (1, 3, 1)
        np.testing.assert_allclose(dec.eigenvalues, [-2.0, 3.0 + 1e-9, 5.0], rtol=1e-15)

    def test_zero_matrix_is_one_eigenspace(self):
        # max|eigenvalue| = 0 makes the tolerance 0, which still merges exact ties
        assert spectral_decompose(Observable(np.zeros((3, 3)))).multiplicities == (3,)


class TestHermiticityTolerance:
    """Hermiticity is a property of the matrix, not of its units: the defect
    max|M - M^dag| is compared with HERM_TOL times the largest entry."""

    SCALES = [10.0 ** e for e in range(-12, 13, 2)]

    @pytest.mark.parametrize("scale", SCALES)
    def test_unsymmetrized_spectrum_accepted_at_every_scale(self, scale):
        rng = np.random.default_rng(64)
        u = np.linalg.qr(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))[0]
        # 16 eigenvalues of multiplicity 4, with the rounding defect left in
        m = scale * ((u * np.repeat(np.arange(16.0), 4)) @ u.conj().T)
        defect = np.max(np.abs(m - m.conj().T))
        assert defect > 0 and (scale < 1e6 or defect > HERM_TOL)
        assert spectral_decompose(Observable(m)).multiplicities == (4,) * 16

    @pytest.mark.parametrize("scale", SCALES)
    def test_non_hermitian_rejected_at_every_scale(self, scale):
        message = f"max |M - M^dag| = {scale!r} exceeds {HERM_TOL * scale!r}"
        with pytest.raises(NotHermitian, match=re.escape(message)):
            Observable(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotHermitian):
            Observable(scale * np.array([[1.0, 1e-6], [0.0, 2.0]]))


class TestObservable:
    @pytest.mark.parametrize("matrix", [
        [[np.nan, 0], [0, 1]],
        [[0, np.nan], [np.nan, 0]],
        [[np.inf, 0], [0, 1]],
        [[0, -np.inf], [-np.inf, 0]],
        [[1, complex(0, np.inf)], [complex(0, -np.inf), 1]],
    ])
    def test_rejects_non_finite(self, matrix):
        # checked before any arithmetic, so no RuntimeWarning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PostulateSimError, match="non-finite"):
                Observable(matrix)


    def test_hermiticity_check_takes_one_buffer(self):
        """At dim 256 the matrix is 1 MiB. The moduli of M, read for the
        scale, are freed before the defect M - M^dag is formed in the buffer
        of M^dag, so the check adds 1 MiB and the 0.5 MiB of its moduli (2.13
        MiB with the difference in a buffer of its own)."""
        m = random_hermitian(np.random.default_rng(9), 256).matrix
        Observable(m)
        assert traced_peak(lambda: Observable(m)) < 1.6 * 2 ** 20

    @pytest.mark.parametrize("matrix,dims,message", [
        (np.zeros((2, 3)), None, "expected a square matrix, got shape (2, 3)"),
        (np.zeros(4), None, "expected a square matrix, got shape (4,)"),
        (np.eye(4), (2, 3), "dims (2, 3) imply dimension 6, got 4x4"),
    ])
    def test_rejects_a_shape_off_its_dims(self, matrix, dims, message):
        with pytest.raises(DimensionMismatch) as exc:
            Observable(matrix, dims)
        assert str(exc.value) == message

    def test_repr(self):
        assert repr(Observable(np.eye(4), (2, 2))) == "Observable(dim=4, dims=(2, 2))"

    def test_hermiticity_defect_in_the_message(self):
        message = "max |M - M^dag| = 0.5 exceeds 1e-10"
        with pytest.raises(NotHermitian, match=re.escape(message)):
            Observable([[0, 1], [0.5, 0]])


class TestPhaseEqual:
    def test_global_phase(self):
        rotated = StateVector(np.exp(1j * np.pi / 3) * KET0.amplitudes)
        assert phase_equal(KET0, rotated, 1e-10)

    def test_orthogonal(self):
        assert not phase_equal(KET0, KET1, 1e-10)

    def test_sign_flip(self):
        assert phase_equal(PLUS, StateVector(-PLUS.amplitudes), 1e-10)

    def test_dims_mismatch(self):
        with pytest.raises(DimensionMismatch):
            phase_equal(KET0, bell_phi_plus(), 1e-10)


def _phase_normalize_loop(amplitudes, cutoff=1e-12):
    """The element-wise scan that `phase_normalize` vectorizes."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    for c in amps:
        if abs(c) > cutoff:
            return amps * (abs(c) / c)
    return amps.copy()


class TestPhaseNormalize:
    def test_random_vectors(self):
        rng = np.random.default_rng(17)
        for dim in (1, 2, 5, 64):
            for _ in range(20):
                v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                v[: rng.integers(0, dim + 1)] *= rng.choice([0.0, 1e-13, 1e-12])
                np.testing.assert_array_equal(phase_normalize(v), _phase_normalize_loop(v))

    @pytest.mark.parametrize("lead", [1e-12, np.nextafter(1e-12, 1.0), 1e-12j,
                                      complex(0.6e-12, 0.8e-12), complex(0.6e-12, 0.8000001e-12)])
    def test_cutoff_boundary(self, lead):
        # abs(c) == cutoff is negligible (strict >); one ulp above it is not
        v = np.array([lead, 0.6 - 0.8j, 0.3j])
        result = phase_normalize(v)
        np.testing.assert_array_equal(result, _phase_normalize_loop(v))
        first = result[0 if abs(lead) > 1e-12 else 1]
        assert first.real > 0 and abs(first.imag) <= 1e-15 * first.real

    def test_real_vector_stays_real(self):
        """A real vector's phase is a sign: the result stays float64, each
        modulus exact, and it is the real part of the complex128 copy's result
        to one ulp (numpy divides |c| by a complex c through its reciprocal, so
        that phase can read 1 - 2^-53)."""
        rng = np.random.default_rng(29)
        for dim in (1, 2, 5, 64):
            for _ in range(20):
                v = rng.normal(size=dim)
                v[: rng.integers(0, dim + 1)] *= rng.choice([0.0, 1e-13, 1e-12])
                result = phase_normalize(v)
                assert result.dtype == np.float64
                np.testing.assert_array_equal(np.abs(result), np.abs(v))
                np.testing.assert_array_max_ulp(result, phase_normalize(v.astype(complex)).real)

    @pytest.mark.parametrize("v", [np.zeros(4), np.array([1e-13, -1e-12j, 0.0]), np.array([])])
    def test_all_below_cutoff_is_a_copy(self, v):
        result = phase_normalize(v)
        np.testing.assert_array_equal(result, _phase_normalize_loop(v))
        assert result.dtype == v.dtype
        assert not np.shares_memory(result, v)
