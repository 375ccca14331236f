import tracemalloc

import numpy as np
import pytest

from postulate_sim import algorithms as alg
from postulate_sim import hilbert, measurement
from postulate_sim.errors import DimensionMismatch, IndexOutOfRange
from postulate_sim.hilbert import Observable, StateVector
from postulate_sim.measurement import (
    RegisterReadout,
    Sampler,
    SemanticsMode,
    born_probabilities,
    build_refinement,
    lift,
    measure,
    partial_measure,
    partial_probabilities,
)
from postulate_sim.protocols import BellKind, bell_basis_observable, bell_state
from test_algorithms import argument_observable
from test_cli import run_limited
from test_hilbert import phase_equal, planted_observable, tensor_op, tensor_state, traced_peak

INV_SQRT2 = 1 / np.sqrt(2)
SIGMA3 = Observable([[1, 0], [0, -1]])
IDENTITY2 = Observable(np.eye(2))

LUEDERS = SemanticsMode.LUEDERS
STRICT = SemanticsMode.STRICT_VON_NEUMANN


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Observable((m + m.conj().T) / 2)


def random_state(rng, dim, dims=None):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(v / np.linalg.norm(v), dims)


def born_probability(a, i, psi):
    """Probability of the eigenvalue at index i, read from the Born vector."""
    return float(born_probabilities(a, psi)[i])


def apply_map(refinement):
    """f(C) assembled from C's spectral decomposition."""
    dec = refinement.refined.decomposition
    f = np.repeat([refinement.value_map[int(round(ev))] for ev in dec.eigenvalues],
                  dec.multiplicities)
    return (dec.vectors * f) @ dec.vectors.conj().T


def eigenprojector(a, out):
    """Dense P = B B^dag, B the decomposition block of the outcome's eigenvalue."""
    dec = a.decomposition
    (idx,) = np.flatnonzero(dec.eigenvalues == out.eigenvalue)
    block = dec.blocks[idx]
    return block @ block.conj().T


def lifted_projector(out, dims, subsystem):
    """Dense I x |v><v| x I from the outcome's subsystem eigenstate |v>."""
    v = out.subsystem_post_state.amplitudes
    before, after = int(np.prod(dims[:subsystem])), int(np.prod(dims[subsystem + 1:]))
    return np.kron(np.kron(np.eye(before), np.outer(v, v.conj())), np.eye(after))


def lifted_block_projector(a, idx, dims, subsystem):
    """Dense I x B B^dag x I, B the block of eigenvalue index `idx` of local `a`."""
    block = a.decomposition.blocks[idx]
    before, after = int(np.prod(dims[:subsystem])), int(np.prod(dims[subsystem + 1:]))
    return np.kron(np.kron(np.eye(before), block @ block.conj().T), np.eye(after))


def brute_force_probabilities(matrix, amps, tol=1e-9):
    """Independent oracle: explicit projectors from a fresh eigensolve."""
    values, vectors = np.linalg.eigh(matrix)
    groups = []
    for i, v in enumerate(values):
        if groups and v - groups[-1][0][-1] <= tol:
            groups[-1][0].append(v)
            groups[-1][1].append(i)
        else:
            groups.append(([v], [i]))
    probs = []
    for _, idxs in groups:
        p = sum(np.outer(vectors[:, i], vectors[:, i].conj()) for i in idxs)
        probs.append(float(np.linalg.norm(p @ amps) ** 2))
    return np.array(probs)


class TestSemanticsMode:
    def test_string_round_trip(self):
        assert SemanticsMode("lueders") is LUEDERS
        assert SemanticsMode("von-neumann") is STRICT
        assert str(LUEDERS) == "lueders"
        assert str(STRICT) == "von-neumann"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            SemanticsMode("copenhagen")


class TestBornProbability:
    def test_eigenstate(self):
        psi = StateVector([1, 0])
        # index 1 = eigenvalue +1 (ascending order)
        assert born_probability(SIGMA3, 1, psi) == pytest.approx(1.0, abs=1e-12)
        assert born_probability(SIGMA3, 0, psi) == pytest.approx(0.0, abs=1e-12)

    def test_teleportation_outcomes_uniform(self):
        lifted = tensor_op(bell_basis_observable(), IDENTITY2)
        psi = tensor_state(StateVector([0.6, 0.8j]), bell_state(BellKind.PHI_PLUS))
        for i in range(4):
            assert born_probability(lifted, i, psi) == pytest.approx(0.25, abs=1e-10)

    def test_sigma3_lifted_on_bell_pair(self):
        lifted = tensor_op(SIGMA3, IDENTITY2)
        # ascending eigenvalues: index 1 is +1
        assert born_probability(lifted, 1, bell_state(BellKind.PHI_PLUS)) == pytest.approx(0.5, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            born_probability(SIGMA3, 0, bell_state(BellKind.PHI_PLUS))

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_matches_brute_force_and_sums_to_one(self, dim):
        rng = np.random.default_rng(dim * 17)
        for _ in range(25):
            a = random_hermitian(rng, dim)
            psi = random_state(rng, dim)
            probs = born_probabilities(a, psi)
            oracle = brute_force_probabilities(a.matrix, psi.amplitudes)
            np.testing.assert_allclose(probs, oracle, atol=1e-9)
            assert abs(probs.sum() - 1.0) < 1e-9


    @pytest.mark.parametrize("mults", [
        (1, 2, 3, 4),
        (4, 3, 2, 1, 1, 4),
        (9, 1, 3),
        (2, 11, 4, 1, 3),
        (16, 1, 2, 3, 4, 5, 6, 7, 8, 12),
    ])
    def test_planted_eigenspaces_match_projectors(self, mults):
        rng = np.random.default_rng(len(mults) * 100 + sum(mults))
        a, planted = planted_observable(rng, mults)
        for _ in range(5):
            psi = random_state(rng, a.dim)
            probs = born_probabilities(a, psi)
            ref = [np.linalg.norm(u @ (u.conj().T @ psi.amplitudes)) ** 2 for u in planted]
            np.testing.assert_allclose(probs, ref, atol=1e-12)
            np.testing.assert_allclose(probs, brute_force_probabilities(a.matrix, psi.amplitudes),
                                       atol=1e-9)
            for i, p in enumerate(ref):
                assert born_probability(a, i, psi) == pytest.approx(p, abs=1e-12)


class TestMeasure:
    def test_nondegenerate_modes_agree(self):
        plus = StateVector([INV_SQRT2, INV_SQRT2])
        rng = np.random.default_rng(5)
        seen = set()
        for trial in range(50):
            out_l = measure(SIGMA3, plus, LUEDERS, np.random.default_rng(trial))
            out_s = measure(SIGMA3, plus, STRICT, np.random.default_rng(trial))
            assert out_l.eigenvalue == out_s.eigenvalue
            assert out_l.probability == pytest.approx(0.5, abs=1e-12)
            assert out_s.determined and out_l.determined
            assert phase_equal(out_l.post_state, out_s.post_state, 1e-10)
            seen.add(out_l.eigenvalue)
        assert seen == {-1.0, 1.0}

    def test_lueders_bell_branch_collapse(self):
        alpha, beta = 0.6, 0.8
        psi = tensor_state(StateVector([alpha, beta]), bell_state(BellKind.PHI_PLUS))
        lifted = tensor_op(bell_basis_observable(), IDENTITY2)
        out = RegisterReadout(psi, None, lifted).outcome(BellKind.PHI_MINUS.value, LUEDERS)
        expected = tensor_state(bell_state(BellKind.PHI_MINUS), StateVector([alpha, -beta]))
        assert phase_equal(out.post_state.reshaped(expected.dims), expected, 1e-10)

    def test_strict_refuses_degenerate(self):
        psi = tensor_state(StateVector([0.6, 0.8]), bell_state(BellKind.PHI_PLUS))
        lifted = tensor_op(bell_basis_observable(), IDENTITY2)
        out = measure(lifted, psi, STRICT, np.random.default_rng(0))
        assert not out.determined
        assert out.post_state is None
        assert out.projector_rank == 2
        projector = eigenprojector(lifted, out)
        assert np.linalg.matrix_rank(projector) == 2
        # diagnostics still expose what Lueders would claim, inside the eigenspace
        assert out.lueders_post_state is not None
        lueders = out.lueders_post_state.amplitudes
        np.testing.assert_allclose(projector @ lueders, lueders, atol=1e-10)

    def test_lueders_idempotent(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = random_hermitian(rng, 6)
            psi = random_state(rng, 6)
            first = measure(a, psi, LUEDERS, rng)
            second = measure(a, first.post_state, LUEDERS, rng)
            assert second.eigenvalue == pytest.approx(first.eigenvalue, abs=1e-12)
            assert second.probability == pytest.approx(1.0, abs=1e-10)
            assert phase_equal(first.post_state, second.post_state, 1e-10)

    def test_strict_refusal_iff_multiplicity(self):
        rng = np.random.default_rng(29)
        base = random_hermitian(rng, 3)
        lifted = tensor_op(base, IDENTITY2)  # every multiplicity 2
        for trial in range(20):
            psi = random_state(rng, 6)
            out = measure(lifted, psi, STRICT, rng)
            assert out.determined == (out.projector_rank == 1)
            assert not out.determined

    def test_strict_post_state_phase_convention(self):
        out = RegisterReadout(StateVector([-INV_SQRT2, INV_SQRT2]), None, SIGMA3).outcome(1, STRICT)
        amp = out.post_state.amplitudes[np.abs(out.post_state.amplitudes) > 1e-12][0]
        assert amp.imag == pytest.approx(0.0, abs=1e-12)
        assert amp.real > 0


def lift_cases():
    """(local observable, subsystem, dims) for every layout the tests lift,
    with planted spectra, degenerate ones included, where the local
    observable is random."""
    rng = np.random.default_rng(59)
    return [
        (SIGMA3, 0, (2, 2)), (SIGMA3, 1, (2, 2)), (SIGMA3, 0, (2,)),
        (Observable(np.diag([0.0, 1.0, 2.0])), 1, (2, 3, 2)),
        (Observable(np.diag([2.0, 0.0, 2.0])), 2, (2, 2, 3)),
        (planted_observable(rng, (1, 1, 1, 1))[0], 1, (2, 4)),
        (planted_observable(rng, (1, 1, 1))[0], 1, (2, 3, 2)),
        (planted_observable(rng, (2, 1, 1))[0], 0, (4, 16)),
        (planted_observable(rng, (1, 3, 2, 2))[0], 1, (3, 8, 2)),
        (bell_basis_observable(), 0, (4, 2)),
    ]


class TestLift:
    @pytest.mark.parametrize("local,subsystem,dims", lift_cases())
    def test_multiplicities_are_local_times_rest(self, local, subsystem, dims):
        dec, rest = lift(local, subsystem, dims).decomposition, int(np.prod(dims)) // local.dim
        assert dec.multiplicities == tuple(m * rest for m in local.decomposition.multiplicities)
        np.testing.assert_array_equal(dec.eigenvalues, local.decomposition.eigenvalues)

    @pytest.mark.parametrize("local,subsystem,dims", lift_cases())
    def test_eigenspaces_match_dense_eigh(self, local, subsystem, dims):
        """Each eigenspace projector V_i V_i^dag of the structured decomposition
        is the one that `eigh` of the dense Kronecker product spans."""
        lifted = lift(local, subsystem, dims)
        dec = lifted.decomposition
        values, vectors = np.linalg.eigh(lifted.matrix)
        for ev, block in zip(dec.eigenvalues, dec.blocks):
            cols = vectors[:, np.abs(values - ev) < 1e-8]
            assert cols.shape[1] == block.shape[1]
            np.testing.assert_allclose(block @ block.conj().T, cols @ cols.conj().T, atol=1e-12)
        np.testing.assert_allclose(dec.vectors.conj().T @ dec.vectors, np.eye(lifted.dim),
                                   atol=1e-12)
        np.testing.assert_allclose((dec.vectors * np.repeat(dec.eigenvalues, dec.multiplicities))
                                   @ dec.vectors.conj().T, lifted.matrix, atol=1e-12)

    def test_strict_verdict_needs_no_merged_eigenvalues(self, monkeypatch):
        """With no eigenvalue merging, a lifted outcome is still degenerate:
        its rank is the local multiplicity times the rest dimension."""
        monkeypatch.setattr(hilbert, "DEGEN_TOL", 0.0)
        rng = np.random.default_rng(61)
        lifted = lift(planted_observable(rng, (1, 1, 1))[0], 1, (2, 3, 2))
        assert lifted.decomposition.multiplicities == (4, 4, 4)
        readout = RegisterReadout(random_state(rng, 12, (2, 3, 2)), None, lifted)
        for idx in range(3):
            out = readout.outcome(idx, STRICT)
            assert not out.determined and out.post_state is None
            assert out.projector_rank == 4

    def test_subsystem_zero(self):
        np.testing.assert_allclose(lift(SIGMA3, 0, (2, 2)).matrix, np.diag([1, 1, -1, -1]))

    def test_subsystem_one(self):
        np.testing.assert_allclose(lift(SIGMA3, 1, (2, 2)).matrix, np.diag([1, -1, 1, -1]))

    def test_identity_lift(self):
        np.testing.assert_allclose(lift(SIGMA3, 0, (2,)).matrix, SIGMA3.matrix)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            lift(SIGMA3, 2, (2, 2))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lift(SIGMA3, 0, (4, 2))

    def test_cap_checked_before_allocation(self):
        """17 qubits exceed the 2^16 cap: `lift` refuses them before it builds
        the 2^16-dim identity of the rest (32 GiB), which the child's
        address-space limit would end in a MemoryError."""
        code, out, err, _ = run_limited(
            "from postulate_sim.errors import DimensionMismatch\n"
            "from postulate_sim.hilbert import Observable\n"
            "from postulate_sim.measurement import lift\n"
            "try:\n    lift(Observable([[1, 0], [0, -1]]), 0, (2,) * 17)\n"
            "except DimensionMismatch as exc:\n    print(exc)\n")
        assert (code, out, err) == (0, "total dimension 131072 exceeds cap 65536\n", "")

    def test_dense_size_checked_before_allocation(self):
        """16 qubits sit inside the 2^16 cap, but their dense lift would take
        an 8 GiB identity and a 64 GiB product: `lift` refuses a matrix past
        2^10 before it allocates either."""
        code, out, err, _ = run_limited(
            "from postulate_sim.errors import DimensionMismatch\n"
            "from postulate_sim.hilbert import Observable\n"
            "from postulate_sim.measurement import lift\n"
            "try:\n    lift(Observable([[1, 0], [0, -1]]), 0, (2,) * 16)\n"
            "except DimensionMismatch as exc:\n    print(exc)\n")
        assert (code, out, err) == (0, "lifted dimension 65536 exceeds the dense cap 1024\n", "")


class TestPartialMeasure:
    def test_bell_pair_branch(self):
        out = RegisterReadout(bell_state(BellKind.PHI_PLUS), 0, SIGMA3).outcome(1, LUEDERS)  # +1
        assert out.eigenvalue == pytest.approx(1.0)
        assert out.probability == pytest.approx(0.5, abs=1e-12)
        expected = StateVector([1, 0, 0, 0], (2, 2))
        assert phase_equal(out.post_state, expected, 1e-10)
        assert phase_equal(out.subsystem_post_state, StateVector([1, 0]), 1e-10)

    def test_product_eigenstate(self):
        psi = tensor_state(StateVector([1, 0]), StateVector([INV_SQRT2, INV_SQRT2]))
        out = partial_measure(SIGMA3, 0, psi, LUEDERS, np.random.default_rng(0))
        assert out.eigenvalue == pytest.approx(1.0)
        assert out.probability == pytest.approx(1.0, abs=1e-12)
        assert phase_equal(out.post_state, psi, 1e-10)

    def test_locally_degenerate_reads_as_its_lift(self):
        """sigma_z x I on the first factor of (4, 2) is degenerate on its own
        subsystem: each outcome has rank 2 x 2 = 4 on the whole space, so
        strict von Neumann leaves it undetermined, as for the lift."""
        psi = random_state(np.random.default_rng(0), 8, (4, 2))
        degenerate = tensor_op(SIGMA3, IDENTITY2)
        lifted = lift(degenerate, 0, (4, 2))
        np.testing.assert_allclose(partial_probabilities(degenerate, 0, psi),
                                   born_probabilities(lifted, psi), atol=1e-12)
        local, whole = RegisterReadout(psi, 0, degenerate), RegisterReadout(psi, None, lifted)
        for idx in range(2):
            strict, lueders = local.outcome(idx, STRICT), local.outcome(idx, LUEDERS)
            ref = whole.outcome(idx, LUEDERS)
            assert strict.projector_rank == lueders.projector_rank == ref.projector_rank == 4
            assert not strict.determined and strict.post_state is None
            assert strict.subsystem_post_state is None
            assert phase_equal(strict.lueders_post_state, ref.post_state, 1e-12)
            assert phase_equal(lueders.post_state, ref.post_state, 1e-12)

    def test_strict_mode_reports_subsystem_state_only(self):
        psi = bell_state(BellKind.PHI_PLUS)
        out = RegisterReadout(psi, 0, SIGMA3).outcome(0, STRICT)
        assert not out.determined
        assert out.post_state is None
        assert out.subsystem_post_state is not None
        assert phase_equal(out.subsystem_post_state, StateVector([0, 1]), 1e-10)

    def test_proj_factorization(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            d1, d2 = rng.integers(2, 5), rng.integers(2, 5)
            a = random_hermitian(rng, int(d1))
            if max(a.decomposition.multiplicities) > 1:
                continue
            psi = random_state(rng, int(d1 * d2), (int(d1), int(d2)))
            probs = partial_probabilities(a, 0, psi)
            idx = int(np.argmax(probs))
            out = RegisterReadout(psi, 0, a).outcome(idx, LUEDERS)
            post = out.post_state.amplitudes
            # projecting the post-state again changes nothing
            projector = lifted_projector(out, (int(d1), int(d2)), 0)
            np.testing.assert_allclose(projector @ post, post, atol=1e-10)
            # reduced state of the measured subsystem is the outcome eigenstate
            mat = post.reshape(int(d1), int(d2))
            local = out.subsystem_post_state.amplitudes
            phi = local.conj() @ mat
            rebuilt = np.kron(local, phi / np.linalg.norm(phi))
            overlap = abs(np.vdot(rebuilt, post))
            assert overlap > 1 - 1e-10

    def test_middle_subsystem(self):
        rng = np.random.default_rng(41)
        psi = random_state(rng, 12, (2, 3, 2))
        a = Observable(np.diag([0.0, 1.0, 2.0]))
        probs = partial_probabilities(a, 1, psi)
        # oracle: lift densely and use the full-space engine
        lifted = lift(a, 1, (2, 3, 2))
        np.testing.assert_allclose(probs, born_probabilities(lifted, psi), atol=1e-10)


class TestBuildRefinement:
    def test_no_qr(self, monkeypatch):
        """Every decomposition's columns are orthonormal as built, so the
        refinement takes them as they are."""
        rng = np.random.default_rng(71)
        observables = [planted_observable(rng, (3, 1, 2))[0],
                       lift(planted_observable(rng, (2, 1, 1))[0], 0, (4, 2)),
                       Observable(np.diag([2.0, 0.0, 1.0, 0.0]))]
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *args, **kw: calls.append(1) or qr(*args, **kw))
        for a in observables:
            np.testing.assert_allclose(apply_map(build_refinement(a)), a.matrix, atol=1e-9)
        assert calls == []

    def test_refined_decomposition_is_eighs(self, monkeypatch):
        """C's decomposition is not handed over from A's: its first read runs
        `eigh` on C, so it checks the refinement independently."""
        ref = build_refinement(planted_observable(np.random.default_rng(73), (2, 2, 1))[0])
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        assert max(ref.refined.decomposition.multiplicities) == 1
        assert calls == [(5, 5)]

    def test_lifted_sigma3(self):
        a = tensor_op(SIGMA3, IDENTITY2)
        ref = build_refinement(a)
        dec = ref.refined.decomposition
        assert max(dec.multiplicities) == 1
        np.testing.assert_allclose(dec.eigenvalues, [0, 1, 2, 3], atol=1e-9)
        comm = a.matrix @ ref.refined.matrix - ref.refined.matrix @ a.matrix
        assert np.max(np.abs(comm)) < 1e-9
        np.testing.assert_allclose(apply_map(ref), a.matrix, atol=1e-9)
        # ascending eigenvalue order: labels 0,1 map to -1, labels 2,3 to +1
        assert ref.value_map == {0: -1.0, 1: -1.0, 2: 1.0, 3: 1.0}

    def test_nondegenerate_input_bijection(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 4)
        assert max(a.decomposition.multiplicities) == 1
        ref = build_refinement(a)
        assert sorted(ref.value_map) == [0, 1, 2, 3]
        assert sorted(ref.value_map.values()) == sorted(a.decomposition.eigenvalues)

    def test_identity(self):
        ref = build_refinement(Observable(np.eye(4)))
        assert max(ref.refined.decomposition.multiplicities) == 1
        assert set(ref.value_map.values()) == {1.0}
        np.testing.assert_allclose(apply_map(ref), np.eye(4), atol=1e-9)

    @pytest.mark.parametrize("mults", [(3, 1, 2), (4, 4), (1, 3, 4, 2, 3), (2, 1, 4, 1, 3)])
    def test_planted_eigenspaces(self, mults):
        rng = np.random.default_rng(len(mults) * 10 + sum(mults))
        a, _ = planted_observable(rng, mults)
        ref = build_refinement(a)
        c = ref.refined.matrix
        dec = ref.refined.decomposition
        assert max(dec.multiplicities) == 1
        np.testing.assert_allclose(dec.eigenvalues, np.arange(a.dim), atol=1e-9)
        assert np.max(np.abs(a.matrix @ c - c @ a.matrix)) < 1e-9
        np.testing.assert_allclose(apply_map(ref), a.matrix, atol=1e-9)
        # f(C) through numpy's own eigensolve of C, apart from `apply_map`
        values, vectors = np.linalg.eigh(c)
        f = np.array([ref.value_map[int(round(v))] for v in values])
        np.testing.assert_allclose((vectors * f) @ vectors.conj().T, a.matrix, atol=1e-9)
        # labels ascend with the eigenvalue: eigenvalue g takes the next mults[g] labels
        assert sorted(ref.value_map) == list(range(a.dim))
        np.testing.assert_allclose([ref.value_map[k] for k in range(a.dim)],
                                   np.repeat(np.arange(len(mults)), mults), atol=1e-9)

    @pytest.mark.parametrize("seed, dim", [(0, 4), (1, 17), (2, 64), (3, 131), (4, 256)])
    def test_matrix_is_the_direct_formula_bit_for_bit(self, seed, dim):
        """C is ((V k) V^dag + h.c.) / 2 to the last bit, for a random and a
        planted degenerate A, and it is exactly its own conjugate transpose."""
        rng = np.random.default_rng(seed)
        for a in (random_hermitian(rng, dim), planted_observable(rng, (dim // 2, dim - dim // 2))[0]):
            vectors = a.decomposition.vectors
            direct = (vectors * np.arange(dim)) @ vectors.conj().T
            direct = (direct + direct.conj().T) / 2
            c = build_refinement(a).refined.matrix
            assert np.array_equal(c, direct) and np.array_equal(c, c.conj().T)

    def test_one_temporary_beyond_the_result(self):
        """At dim 256 C is 1 MiB. The scaled adjoint is the one other
        (dim, dim) buffer, and it is freed before `Observable` checks C, so
        the peak is C plus that check (3.14 MiB with four buffers at once)."""
        a = random_hermitian(np.random.default_rng(5), 256)
        build_refinement(a)  # decomposition and first-call allocations
        assert traced_peak(lambda: build_refinement(a)) < 2.6 * 2 ** 20

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_soundness_random(self, dim):
        rng = np.random.default_rng(dim * 13)
        for _ in range(10):
            base = random_hermitian(rng, dim // 2) if dim % 2 == 0 and rng.random() < 0.5 \
                else random_hermitian(rng, dim)
            a = tensor_op(base, IDENTITY2) if base.dim * 2 == dim else base
            ref = build_refinement(a)
            assert max(ref.refined.decomposition.multiplicities) == 1
            comm = a.matrix @ ref.refined.matrix - ref.refined.matrix @ a.matrix
            assert np.max(np.abs(comm)) < 1e-9
            np.testing.assert_allclose(apply_map(ref), a.matrix, atol=1e-9)


def loop_sample_index(probabilities, r01):
    """Reference sampler: the running-sum loop the vectorized sampler replaces."""
    r = r01 * float(np.sum(probabilities))
    acc = 0.0
    last_nonzero = 0
    for i, p in enumerate(probabilities):
        if p > 0.0:
            last_nonzero = i
            acc += p
            if r < acc:
                return i
    return last_nonzero


class FixedDraw:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestSampleIndex:
    def test_matches_loop_reference(self):
        """One prepared sampler per vector serves every draw, fresh or reused."""
        rng = np.random.default_rng(12)
        draws = [0.0, 0.5, 1.0 - 2.0 ** -53]
        for _ in range(300):
            p = rng.random(int(rng.integers(1, 40))) ** 3
            p[rng.random(p.size) < 0.4] = 0.0
            draws.append(float(rng.random()))
            sampler = Sampler(p)
            for r01 in draws[-4:]:
                assert sampler.draw(FixedDraw(r01)) == loop_sample_index(p, r01)
                assert Sampler(p).draw(FixedDraw(r01)) == loop_sample_index(p, r01)

    def test_rounded_total_falls_back_to_last_nonzero(self):
        # pairwise np.sum gives 1.0 where the running sum stops at 1 - 2^-53
        p = np.array([0.1] * 10 + [0.0, 0.0])
        r01 = 1.0 - 2.0 ** -53
        assert r01 * float(np.sum(p)) >= np.cumsum(p)[-1]
        sampler = Sampler(p)
        for _ in range(2):
            assert sampler.draw(FixedDraw(r01)) == loop_sample_index(p, r01) == 9

    def test_never_zero_probability(self):
        p = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
        rng = np.random.default_rng(0)
        sampler = Sampler(p)
        assert {sampler.draw(rng) for _ in range(200)} == {1, 3}

    @pytest.mark.parametrize("mode", [LUEDERS, STRICT])
    def test_readouts_draw_as_their_measure(self, mode):
        """A readout's draw from a stream is the index that `measure` reads
        from the same stream; in a local eigenbasis, draw and outcome are
        `partial_measure`'s."""
        rng = np.random.default_rng(21)
        psi = random_state(rng, 8, (2, 4))
        a = random_hermitian(rng, 8)
        full, register = RegisterReadout(psi, None, a), RegisterReadout(psi, 1)
        a_local = random_hermitian(rng, 4)
        assert max(a_local.decomposition.multiplicities) == 1
        local = RegisterReadout(psi, 1, a_local)
        np.testing.assert_array_equal(local.probabilities, partial_probabilities(a_local, 1, psi))
        # the lifted dense observable is the reference for the complex local basis
        lifted = lift(a_local, 1, (2, 4))
        np.testing.assert_allclose(local.probabilities, born_probabilities(lifted, psi),
                                   atol=1e-12)
        for j in range(4):
            got, ref = local.outcome(j, mode), RegisterReadout(psi, None, lifted).outcome(j, mode)
            assert got.projector_rank == ref.projector_rank == 2
            assert phase_equal(got.post_state or got.lueders_post_state,
                               ref.post_state or ref.lueders_post_state, 1e-10)
        for seed in range(40):
            idx = full.draw(np.random.default_rng(seed))
            out = measure(a, psi, mode, np.random.default_rng(seed))
            assert out.eigenvalue == full.outcome(idx, mode).eigenvalue
            assert out.eigenvalue == a.decomposition.eigenvalues[idx]
            idx = register.draw(np.random.default_rng(seed))
            assert register.outcome(idx, mode).eigenvalue == idx
            idx = local.draw(np.random.default_rng(seed))
            got = local.outcome(idx, mode)
            ref = partial_measure(a_local, 1, psi, mode, np.random.default_rng(seed))
            assert got.eigenvalue == ref.eigenvalue == a_local.decomposition.eigenvalues[idx]
            assert got.probability == ref.probability == local.probabilities[idx]
            assert got.determined == ref.determined == (mode is LUEDERS)
            assert got.projector_rank == ref.projector_rank == 2
            assert_same_state(got.post_state, ref.post_state)
            assert_same_state(got.lueders_post_state, ref.lueders_post_state)
            assert_same_state(got.subsystem_post_state, ref.subsystem_post_state)

    def test_local_observable_checked_at_construction(self):
        psi = random_state(np.random.default_rng(23), 8, (2, 4))
        degenerate = Observable(np.diag([0.0, 0.0, 1.0, 2.0]))
        local = RegisterReadout(psi, 1, degenerate)
        whole = RegisterReadout(psi, None, lift(degenerate, 1, (2, 4)))
        np.testing.assert_allclose(local.probabilities, whole.probabilities, atol=1e-12)
        assert [local.outcome(j, STRICT).projector_rank for j in range(3)] == [4, 2, 2]
        assert not any(local.outcome(j, STRICT).determined for j in range(3))
        with pytest.raises(DimensionMismatch):
            RegisterReadout(psi, 1, SIGMA3)
        with pytest.raises(IndexOutOfRange):
            RegisterReadout(psi, 2, SIGMA3)


# register layouts of 1-4 qubits, measured first, in the middle and last
REGISTER_LAYOUTS = [
    ((2, 2, 2), 0), ((2, 2, 2), 1), ((2, 2, 2), 2),
    ((4, 2, 2), 0), ((2, 4, 2), 1), ((2, 2, 4), 2),
    ((8, 2), 0), ((2, 8, 2), 1), ((2, 8), 1),
    ((16, 2), 0), ((2, 16, 2), 1), ((2, 16), 1),
]

# layouts of more weights than a block of `_rest_sums` holds: rows of several
# blocks, blocks of many rows, and levels longer than a block
BLOCKED_LAYOUTS = [((4, 64, 128), 1), ((2 ** 10, 8, 8), 1), ((2, 2, 2 ** 14), 1)]


def assert_same_state(a, b):
    if a is None or b is None:
        assert a is b
    else:
        assert a.dims == b.dims
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


class TestRegisterReadout:
    """RegisterReadout against the dense diagonal observable it replaces."""

    @pytest.mark.parametrize("dims,subsystem", REGISTER_LAYOUTS)
    @pytest.mark.parametrize("mode", [LUEDERS, STRICT])
    def test_matches_partial_measure(self, dims, subsystem, mode):
        psi = random_state(np.random.default_rng(sum(dims) + subsystem), int(np.prod(dims)), dims)
        k = int(np.log2(dims[subsystem]))
        dense = argument_observable(k)
        readout = RegisterReadout(psi, subsystem)
        np.testing.assert_array_equal(readout.probabilities,
                                      partial_probabilities(dense, subsystem, psi))
        drawn = [(readout.outcome(readout.draw(np.random.default_rng(seed)), mode),
                  partial_measure(dense, subsystem, psi, mode, np.random.default_rng(seed)))
                 for seed in range(5)]
        reference = RegisterReadout(psi, subsystem, dense)
        for got, ref in drawn + [(readout.outcome(idx, mode), reference.outcome(idx, mode))
                                 for idx in range(dims[subsystem])]:
            assert got.eigenvalue == ref.eigenvalue
            assert got.probability == ref.probability
            assert got.determined == ref.determined == (mode is LUEDERS)
            assert got.projector_rank == ref.projector_rank
            assert_same_state(got.post_state, ref.post_state)
            assert_same_state(got.lueders_post_state, ref.lueders_post_state)
            assert_same_state(got.subsystem_post_state, ref.subsystem_post_state)
            projector = lifted_projector(got, dims, subsystem)
            np.testing.assert_array_equal(projector, lifted_projector(ref, dims, subsystem))
            np.testing.assert_array_equal(
                projector, lifted_block_projector(dense, int(got.eigenvalue), dims, subsystem))
            assert np.trace(projector).real == got.projector_rank

    @pytest.mark.parametrize("dims,subsystem", REGISTER_LAYOUTS + BLOCKED_LAYOUTS)
    def test_blocked_weights_are_numpy_sums(self, dims, subsystem):
        """The Born weights, squared in blocks, are numpy's sum over the rest
        of the system to the last bit."""
        dim = int(np.prod(dims))
        psi = random_state(np.random.default_rng(len(dims) + subsystem), dim, dims)
        if (dims, subsystem) in BLOCKED_LAYOUTS:
            assert dim > 2 * measurement._BLOCK
        mat = psi.amplitudes.reshape(int(np.prod(dims[:subsystem])), dims[subsystem], -1)
        expected = (np.abs(mat) ** 2).sum(axis=(0, 2))
        assert RegisterReadout(psi, subsystem).probabilities.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("mode", [LUEDERS, STRICT])
    def test_full_register_matches_measure(self, k, mode):
        psi = random_state(np.random.default_rng(k), 2 ** k, (2 ** k,))
        dense = argument_observable(k)
        readout = RegisterReadout(psi, 0)
        np.testing.assert_array_equal(readout.probabilities, born_probabilities(dense, psi))
        drawn = [(readout.outcome(readout.draw(np.random.default_rng(seed)), mode),
                  measure(dense, psi, mode, np.random.default_rng(seed))) for seed in range(5)]
        reference = RegisterReadout(psi, None, dense)
        for got, ref in drawn + [(readout.outcome(idx, mode), reference.outcome(idx, mode))
                                 for idx in range(2 ** k)]:
            assert got.eigenvalue == ref.eigenvalue
            assert got.probability == ref.probability
            assert got.determined and ref.determined
            assert got.projector_rank == ref.projector_rank == 1
            assert got.lueders_post_state is None and ref.lueders_post_state is None
            assert phase_equal(got.post_state, ref.post_state, 1e-12)
            np.testing.assert_array_equal(got.subsystem_post_state.amplitudes,
                                          np.eye(2 ** k)[int(got.eigenvalue)])
            np.testing.assert_array_equal(lifted_projector(got, (2 ** k,), 0),
                                          eigenprojector(dense, ref))

    def test_full_register_forced_zero_probability_strict(self):
        # strict von Neumann assigns the eigenvector as post-state even to an
        # outcome of probability 0, as the dense `measure` does
        psi = StateVector(np.eye(4)[1], (4,))
        dense = argument_observable(2)
        readout, reference = RegisterReadout(psi, 0), RegisterReadout(psi, None, dense)
        for idx in (0, 2, 3):
            got, ref = readout.outcome(idx, STRICT), reference.outcome(idx, STRICT)
            assert got.probability == ref.probability == 0.0
            assert got.determined and ref.determined
            np.testing.assert_array_equal(got.post_state.amplitudes, np.eye(4)[idx])
            assert phase_equal(got.post_state, ref.post_state, 1e-12)
            assert got.lueders_post_state is None and ref.lueders_post_state is None

    def test_whole_space_forced_zero_probability_strict(self):
        # the same rule through the whole-space readout of the dense observable:
        # the one-column eigenspace is the post-state and the eigenstate
        psi = StateVector(np.eye(4)[1], (4,))
        readout = RegisterReadout(psi, None, argument_observable(2))
        for idx in (0, 2, 3):
            got = readout.outcome(idx, STRICT)
            assert got.probability == 0.0
            assert got.determined and got.projector_rank == 1
            np.testing.assert_array_equal(got.post_state.amplitudes, np.eye(4)[idx])
            np.testing.assert_array_equal(got.subsystem_post_state.amplitudes, np.eye(4)[idx])
            assert got.lueders_post_state is None
            # Lueders projects psi to 0, so it has no post-state to give
            assert readout.outcome(idx, LUEDERS).post_state is None

    @pytest.mark.parametrize("mode", [LUEDERS, STRICT])
    def test_whole_space_subsystem_post_state(self, mode):
        """A whole-space outcome reports its eigenvector as `subsystem_post_state`
        when the eigenspace is one-dimensional, and None when it is degenerate."""
        rng = np.random.default_rng(43)
        psi = random_state(rng, 8, (2, 4))
        a = random_hermitian(rng, 8)
        assert max(a.decomposition.multiplicities) == 1
        readout = RegisterReadout(psi, None, a)
        for j in range(8):
            got = readout.outcome(j, mode)
            strict = readout.outcome(j, STRICT)
            assert got.subsystem_post_state.dims == (8,)
            assert strict.post_state.dims == (2, 4)
            np.testing.assert_array_equal(got.subsystem_post_state.amplitudes,
                                          strict.post_state.amplitudes)
            assert abs(np.vdot(got.subsystem_post_state.amplitudes,
                               got.post_state.amplitudes)) > 1 - 1e-10
        lifted = RegisterReadout(psi, None, lift(random_hermitian(rng, 4), 1, (2, 4)))
        for j in range(4):
            out = lifted.outcome(j, mode)
            assert out.projector_rank == 2
            assert out.subsystem_post_state is None

    @pytest.mark.parametrize("mode", [LUEDERS, STRICT])
    def test_outcome_at_cap_stays_small(self, mode):
        """A Simon n = 8 register outcome lives on 2^16 real amplitudes
        (0.5 MiB per state); measuring it and reading every public attribute,
        the post-states included, holds at most the projection, which becomes
        the post-state's buffer uncopied: 0.5 MiB and a little."""
        readout = alg.simon_readout(alg.simon_oracle(8, 0b10110011, np.random.default_rng(0)))
        zero = int(np.flatnonzero(readout.probabilities == 0)[0])
        nonzero = int(np.flatnonzero(readout.probabilities)[-1])
        tracemalloc.start()
        try:
            for rng, force in [(np.random.default_rng(0), None), (np.random.default_rng(1), None),
                               (None, nonzero), (None, zero)]:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                out = readout.outcome(readout.draw(rng) if force is None else force, mode)
                read = {name: getattr(out, name) for name in dir(out) if not name.startswith("_")}
                peak = tracemalloc.get_traced_memory()[1] - start
                assert peak < 1.1 * 2 ** 20
                assert read["projector_rank"] == 256
                assert read["determined"] == (mode is LUEDERS)
                assert read["subsystem_post_state"].dims == (256,)
                state = read["post_state"] if mode is LUEDERS else read["lueders_post_state"]
                if force == zero:
                    assert state is None and read["probability"] == 0.0
                else:
                    # the post-state itself was traced, so the bound is not vacuous
                    assert state.dims == (256, 256) and peak >= state.amplitudes.nbytes
                del out, read, state
        finally:
            tracemalloc.stop()

    def test_subsystem_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            RegisterReadout(bell_state(BellKind.PHI_PLUS), 2)

    def test_born_vector_is_read_only(self):
        """`draw` caches the running sum of the Born vector on its first draw,
        so no write may change the vector under it."""
        rng = np.random.default_rng(79)
        psi = random_state(rng, 8, (2, 4))
        a, b = random_hermitian(rng, 8), planted_observable(rng, (1, 1, 1, 1))[0]
        for probabilities in (RegisterReadout(psi, None, a).probabilities,
                              RegisterReadout(psi, 1, b).probabilities,
                              RegisterReadout(psi, 1).probabilities,
                              born_probabilities(a, psi), partial_probabilities(b, 1, psi)):
            assert not probabilities.flags.writeable
            with pytest.raises(ValueError):
                probabilities[0] = 1.0

    @pytest.mark.parametrize("subsystem,a,size", [
        (None, Observable(np.diag([0.0, 1.0, 2.0, 2.0])), 3),  # whole space
        (1, SIGMA3, 2),                                        # local
        (None, None, 4),                                       # computational basis
    ], ids=["whole", "local", "computational"])
    @pytest.mark.parametrize("mode", [LUEDERS, STRICT])
    def test_outcome_index_out_of_range(self, subsystem, a, size, mode):
        """`outcome` takes only the index of an outcome: a negative one would
        wrap to the last outcome, and one past the end would fail in numpy."""
        readout = RegisterReadout(random_state(np.random.default_rng(4), 4, (2, 2)), subsystem, a)
        assert readout.probabilities.size == size
        assert readout.outcome(size - 1, mode).probability == readout.probabilities[-1]
        for bad in (-1, size):
            with pytest.raises(IndexOutOfRange):
                readout.outcome(bad, mode)


class TestOneReadout:
    """Every measurement projects onto the eigenspace of what is measured (von
    Neumann 1932; Lueders 1951), so a local readout is the whole-space readout
    of its lift, and a whole-space readout sums each degenerate eigenspace."""

    def test_local_readout_is_its_lift(self):
        """Any local `a`, degenerate or not, on any factor: its multiplicities
        are planted, and the other factors may be one-dimensional."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        planted_mults = st.lists(st.integers(1, 3), min_size=1, max_size=5).filter(
            lambda mults: 2 <= sum(mults) <= 6)
        other_dims = st.lists(st.integers(1, 4), max_size=3)

        @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
        @hypothesis.given(planted_mults, other_dims, st.integers(0, 3),
                          st.integers(0, 2 ** 32 - 1))
        def check(mults, others, k, seed):
            k %= len(others) + 1
            dims = (*others[:k], sum(mults), *others[k:])
            rng = np.random.default_rng(seed)
            psi = random_state(rng, int(np.prod(dims)), dims)
            a = planted_observable(rng, mults)[0]
            rest = psi.dim // dims[k]
            lifted = lift(a, k, dims)
            assert a.decomposition.multiplicities == tuple(mults)
            assert lifted.decomposition.multiplicities == tuple(m * rest for m in mults)
            local, whole = RegisterReadout(psi, k, a), RegisterReadout(psi, None, lifted)
            np.testing.assert_allclose(local.probabilities, whole.probabilities, atol=1e-12)
            for j, m in enumerate(mults):
                for mode in (LUEDERS, STRICT):
                    got, ref = local.outcome(j, mode), whole.outcome(j, mode)
                    assert got.projector_rank == ref.projector_rank == m * rest
                    assert got.determined == ref.determined == (mode is LUEDERS or m * rest == 1)
                    # the post-state where determined, else the Lueders diagnostic
                    got_state = got.post_state or got.lueders_post_state
                    ref_state = ref.post_state or ref.lueders_post_state
                    assert phase_equal(got_state, ref_state, 1e-10)

        check()

    def test_degenerate_observable_on_the_only_subsystem(self):
        """With nothing else in the system, subsystem 0 is the whole space, so
        a degenerate `a` there reads as the whole-space readout does."""
        psi = random_state(np.random.default_rng(47), 4, (4,))
        a = Observable(np.diag([0.0, 0.0, 1.0, 2.0]))
        local, whole = RegisterReadout(psi, 0, a), RegisterReadout(psi, None, a)
        np.testing.assert_array_equal(local.probabilities, whole.probabilities)
        assert local.probabilities.size == 3
        for j in range(3):
            for mode in (LUEDERS, STRICT):
                got, ref = local.outcome(j, mode), whole.outcome(j, mode)
                assert got.projector_rank == ref.projector_rank == (2 if j == 0 else 1)
                assert got.determined == ref.determined == (mode is LUEDERS or j > 0)
                for name in ("post_state", "lueders_post_state", "subsystem_post_state"):
                    g, r = getattr(got, name), getattr(ref, name)
                    assert (g is None) == (r is None), name
                    if g is not None:
                        assert g.dims == r.dims
                        np.testing.assert_array_equal(g.amplitudes, r.amplitudes)

    def test_planted_degenerate_whole_space(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        planted_mults = st.lists(st.integers(1, 6), min_size=1, max_size=8).filter(
            lambda mults: sum(mults) <= 64)

        @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
        @hypothesis.given(planted_mults, st.integers(0, 2 ** 32 - 1))
        def check(mults, seed):
            rng = np.random.default_rng(seed)
            a, planted = planted_observable(rng, mults)
            psi = random_state(rng, a.dim)
            readout = RegisterReadout(psi, None, a)
            np.testing.assert_allclose(readout.probabilities,
                                       brute_force_probabilities(a.matrix, psi.amplitudes),
                                       atol=1e-9)
            for g, (m, cols) in enumerate(zip(mults, planted)):
                strict, lueders = readout.outcome(g, STRICT), readout.outcome(g, LUEDERS)
                assert strict.projector_rank == lueders.projector_rank == m
                assert strict.determined == (m == 1)
                assert (strict.subsystem_post_state is None) == (m > 1)
                projected = cols @ (cols.conj().T @ psi.amplitudes)
                assert abs(np.vdot(projected / np.linalg.norm(projected),
                                   lueders.post_state.amplitudes)) > 1 - 1e-10

        check()


    @pytest.mark.parametrize("kind", ["whole", "lifted", "local"])
    @pytest.mark.parametrize("mode", [LUEDERS, STRICT])
    def test_one_shot_calls_draw_as_one_readout(self, kind, mode):
        """Repeated `measure` or `partial_measure` calls on one state, each on
        a readout of its own, give what one prepared readout gives from the
        same stream."""
        rng = np.random.default_rng(67)
        psi = random_state(rng, 16, (4, 4))
        local = planted_observable(rng, (1, 1, 1, 1))[0]
        a, subsystem = {"whole": (planted_observable(rng, (2, 1, 3, 2, 1, 4, 3))[0], None),
                        "lifted": (lift(local, 1, (4, 4)), None),
                        "local": (local, 1)}[kind]

        def one_shot(rng):
            if subsystem is None:
                return measure(a, psi, mode, rng)
            return partial_measure(a, subsystem, psi, mode, rng)

        got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = [one_shot(got_rng) for _ in range(50)]
        readout = RegisterReadout(psi, subsystem, a)
        ref = [readout.outcome(readout.draw(ref_rng), mode) for _ in range(50)]
        assert len({out.eigenvalue for out in got}) > 1
        for g, r in zip(got, ref):
            assert g.eigenvalue == r.eigenvalue
            assert g.probability == r.probability
            assert g.determined == r.determined
            assert g.projector_rank == r.projector_rank
            assert_same_state(g.post_state, r.post_state)
            assert_same_state(g.lueders_post_state, r.lueders_post_state)


def counting(monkeypatch, owner, name):
    """Replace `owner.name` by a wrapper that counts its calls in the returned list."""
    calls, fn = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestComputedOnce:
    """Each lazy value of the engine is computed once, and only when read."""

    def test_decomposition(self, monkeypatch):
        rng = np.random.default_rng(83)
        eigh = counting(monkeypatch, np.linalg, "eigh")
        a = random_hermitian(rng, 4)
        psi = random_state(rng, 8, (2, 4))
        assert not eigh
        dec = a.decomposition
        assert a.decomposition is dec
        for _ in range(2):
            RegisterReadout(psi, 1, a).outcome(0, STRICT).lueders_post_state
        assert len(eigh) == 1
        lifted = lift(a, 1, (2, 4))
        assert lifted.decomposition is lifted.decomposition
        assert lifted.decomposition.multiplicities == (2, 2, 2, 2)
        assert len(eigh) == 1

    def test_running_sum(self, monkeypatch):
        psi = random_state(np.random.default_rng(89), 8, (2, 4))
        cumsum = counting(monkeypatch, np, "cumsum")
        readout, undrawn = RegisterReadout(psi, 1), RegisterReadout(psi, 1)
        rng = np.random.default_rng(0)
        draws = [readout.draw(rng) for _ in range(10)]
        assert len(cumsum) == 1 and len(set(draws)) > 1
        undrawn.outcome(0, LUEDERS).post_state
        assert len(cumsum) == 1

    @pytest.mark.parametrize("mode", [LUEDERS, STRICT])
    def test_unread_outcome_at_cap_builds_no_state(self, mode):
        """An outcome on 2^16 amplitudes holds its projection, not its 1 MiB
        post-state, until a post-state is read."""
        readout = alg.simon_readout(alg.simon_oracle(8, 0b10110011, np.random.default_rng(0)))
        idx = readout.draw(np.random.default_rng(0))
        assert traced_peak(lambda: readout.outcome(idx, mode)) < 64 * 2 ** 10

    @pytest.mark.parametrize("mode", [LUEDERS, STRICT])
    def test_post_states_are_built_once(self, mode):
        rng = np.random.default_rng(97)
        psi = random_state(rng, 8, (2, 4))
        local = RegisterReadout(psi, 1, planted_observable(rng, (1, 1, 1, 1))[0])
        whole = RegisterReadout(psi, None, random_hermitian(rng, 8))
        for out in (local.outcome(2, mode), whole.outcome(5, mode)):
            states = [getattr(out, name) for name in
                      ("post_state", "lueders_post_state", "subsystem_post_state")]
            assert sum(state is not None for state in states) == 2
            assert out.post_state is states[0]
            assert out.lueders_post_state is states[1]
            assert out.subsystem_post_state is states[2]
