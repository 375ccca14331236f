from functools import lru_cache

import numpy as np
import pytest

from postulate_sim import hilbert, protocols
from postulate_sim.hilbert import StateVector
from postulate_sim.measurement import (
    RegisterReadout,
    SemanticsMode,
    born_probabilities,
    lift,
    partial_probabilities,
)
from postulate_sim.protocols import (
    BellKind,
    DegeneracyReport,
    bell_basis_observable,
    bell_state,
    Teleportation,
)
from test_hilbert import phase_equal, tensor_state

INV_SQRT2 = 1 / np.sqrt(2)
LUEDERS = SemanticsMode.LUEDERS
STRICT = SemanticsMode.STRICT_VON_NEUMANN


@lru_cache(maxsize=1)
def lifted_bell_observable():
    """Dense reference: the Bell observable lifted to B x I on (4, 2), an 8x8
    matrix whose `eigh` finds each Bell eigenvalue twice."""
    return lift(bell_basis_observable(), 0, (4, 2))


def random_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return StateVector(v / np.linalg.norm(v))


# the Pauli correction of each Bell branch, written out independently of the package
CORRECTIONS = {
    BellKind.PHI_PLUS: ("I", np.eye(2)),
    BellKind.PHI_MINUS: ("sigma3", np.array([[1, 0], [0, -1]])),
    BellKind.PSI_PLUS: ("sigma1", np.array([[0, 1], [1, 0]])),
    BellKind.PSI_MINUS: ("sigma3*sigma1", np.array([[0, 1], [-1, 0]])),
}


def assert_branch_applies(psi, kind, label, gate):
    """The Lueders branch `kind` reports `label`, applies `gate` to Bob's
    state before correction to give his state after it, and restores `psi`."""
    res = Teleportation(psi, LUEDERS).branch(kind.value)
    assert res.correction == label
    corrected = StateVector(np.asarray(gate) @ res.bob_state_before_correction.amplitudes)
    assert phase_equal(corrected, res.bob_state_after_correction, 1e-12)
    assert phase_equal(res.bob_state_after_correction, psi, 1e-10)
    return res


class TestBellStates:
    def test_phi_plus(self):
        np.testing.assert_allclose(
            bell_state(BellKind.PHI_PLUS).amplitudes, np.array([1, 0, 0, 1]) * INV_SQRT2
        )

    def test_psi_minus(self):
        np.testing.assert_allclose(
            bell_state(BellKind.PSI_MINUS).amplitudes, np.array([0, 1, -1, 0]) * INV_SQRT2
        )

    def test_orthonormal(self):
        for a in BellKind:
            for b in BellKind:
                ov = bell_state(a).overlap(bell_state(b))
                assert abs(ov - (1 if a is b else 0)) < 1e-12

    def test_computational_basis_identities(self):
        # |00> = (phi+ + phi-)/sqrt2 and friends
        phip, phim = bell_state(BellKind.PHI_PLUS), bell_state(BellKind.PHI_MINUS)
        psip, psim = bell_state(BellKind.PSI_PLUS), bell_state(BellKind.PSI_MINUS)
        basis = np.eye(4)
        identities = [
            (basis[0], phip.amplitudes + phim.amplitudes),
            (basis[1], psip.amplitudes + psim.amplitudes),
            (basis[2], psip.amplitudes - psim.amplitudes),
            (basis[3], phip.amplitudes - phim.amplitudes),
        ]
        for lhs, rhs in identities:
            np.testing.assert_allclose(lhs, rhs * INV_SQRT2, atol=1e-12)


class TestBellObservable:
    def test_eigenvectors(self):
        dec = bell_basis_observable().decomposition
        for kind in BellKind:
            v = StateVector(dec.blocks[kind.value][:, 0], (2, 2))
            assert phase_equal(v, bell_state(kind), 1e-12)

    def test_lifted_multiplicities(self):
        dec = lifted_bell_observable().decomposition
        assert dec.multiplicities == (2, 2, 2, 2)
        assert max(dec.multiplicities) > 1


class TestCorrectionGates:
    def test_matrices(self):
        psi = StateVector([0.6, 0.8j])
        assert_branch_applies(psi, BellKind.PHI_PLUS, "I", np.eye(2))
        assert_branch_applies(psi, BellKind.PHI_MINUS, "sigma3", [[1, 0], [0, -1]])
        assert_branch_applies(psi, BellKind.PSI_PLUS, "sigma1", [[0, 1], [1, 0]])
        assert_branch_applies(psi, BellKind.PSI_MINUS, "sigma3*sigma1", [[0, 1], [-1, 0]])

    def test_unitary(self):
        rng = np.random.default_rng(17)
        for kind, (label, g) in CORRECTIONS.items():
            np.testing.assert_allclose(g @ g.conj().T, np.eye(2), atol=1e-12)
            for _ in range(5):
                assert_branch_applies(random_qubit(rng), kind, label, g)

    def test_psi_minus_restores(self):
        alpha, beta = 0.6, 0.8
        g = np.array([[0, 1], [-1, 0]])
        np.testing.assert_allclose(g @ np.array([-beta, alpha]), [alpha, beta], atol=1e-12)
        res = assert_branch_applies(StateVector([alpha, beta]), BellKind.PSI_MINUS,
                                    "sigma3*sigma1", g)
        assert phase_equal(res.bob_state_before_correction, StateVector([-beta, alpha]), 1e-10)


class TestTeleport:
    def test_phi_minus_branch(self):
        alpha, beta = 0.6, 0.8
        res = Teleportation(StateVector([alpha, beta]), LUEDERS).branch(BellKind.PHI_MINUS.value)
        assert phase_equal(res.bob_state_before_correction, StateVector([alpha, -beta]), 1e-10)
        assert phase_equal(res.bob_state_after_correction, StateVector([alpha, beta]), 1e-10)
        assert res.correction == "sigma3"
        assert res.outcome_kind.classical_bits == (0, 1)

    def test_basis_input(self):
        rng = np.random.default_rng(9)
        run = Teleportation(StateVector([1, 0]), LUEDERS)
        for _ in range(10):
            res = run.branch(run.draw(rng))
            assert phase_equal(res.bob_state_after_correction, StateVector([1, 0]), 1e-10)

    def test_strict_blocked_every_branch(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            run = Teleportation(random_qubit(rng), STRICT)
            res = run.branch(run.draw(rng))
            assert run.blocked is not None
            assert res.bob_state_after_correction is None
            assert res.bob_state_before_correction is None
            assert run.blocked.multiplicities == [2, 2, 2, 2]
            assert run.blocked.dimension == 8
            assert run.blocked.distinct_eigenvalues == 4

    def test_fidelity_all_branches(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            psi = random_qubit(rng)
            run = Teleportation(psi, LUEDERS)
            for kind in BellKind:
                res = run.branch(kind.value)
                fid = abs(psi.overlap(res.bob_state_after_correction)) ** 2
                assert fid == pytest.approx(1.0, abs=1e-10)
                assert run.probabilities[kind.value] == pytest.approx(0.25, abs=1e-10)

    def test_pre_correction_states_match_listing(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            psi = random_qubit(rng)
            alpha, beta = psi.amplitudes
            expected = {
                BellKind.PHI_PLUS: [alpha, beta],
                BellKind.PHI_MINUS: [alpha, -beta],
                BellKind.PSI_PLUS: [beta, alpha],
                BellKind.PSI_MINUS: [-beta, alpha],
            }
            run = Teleportation(psi, LUEDERS)
            for kind, amps in expected.items():
                res = run.branch(kind.value)
                target = StateVector(np.array(amps) / np.linalg.norm(amps))
                assert phase_equal(res.bob_state_before_correction, target, 1e-10)

    def test_outcome_uniformity(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            psi = random_qubit(rng)
            total = tensor_state(psi, bell_state(BellKind.PHI_PLUS)).reshaped((4, 2))
            probs = born_probabilities(lifted_bell_observable(), total)
            np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-10)

    def test_sampled_outcomes_cover_all_branches(self):
        rng = np.random.default_rng(3)
        run = Teleportation(random_qubit(rng), LUEDERS)
        seen = {run.branch(run.draw(rng)).outcome_kind for _ in range(100)}
        assert seen == set(BellKind)

    def test_rejects_multiqubit_input(self):
        with pytest.raises(ValueError):
            Teleportation(bell_state(BellKind.PHI_PLUS), LUEDERS)


class TestTeleportation:
    """The prepared run: its Born vector, its branches and its strict verdict."""

    @pytest.mark.parametrize("mode", [LUEDERS, STRICT])
    def test_library_is_prepare_plus_one_draw(self, mode):
        rng = np.random.default_rng(31)
        for _ in range(20):
            run = Teleportation(random_qubit(rng), mode)
            np.testing.assert_array_equal(run.probabilities, partial_probabilities(
                bell_basis_observable(), 0, run.psi))
            np.testing.assert_allclose(run.probabilities, born_probabilities(
                lifted_bell_observable(), run.psi), rtol=0, atol=1e-12)

    def test_branches_match_lifted_reference(self):
        """Every branch agrees with the dense lifted observable: Bob's
        state is the Bell factor contracted out of its Lueders post-state,
        and the strict rank is its eigenvalue's multiplicity under `eigh`."""
        rng = np.random.default_rng(41)
        lifted = lifted_bell_observable()
        for _ in range(50):
            psi = random_qubit(rng)
            lueders, strict = Teleportation(psi, LUEDERS), Teleportation(psi, STRICT)
            for kind in BellKind:
                ref = RegisterReadout(lueders.psi, None, lifted).outcome(kind.value, LUEDERS)
                assert ref.eigenvalue == pytest.approx(kind.value, abs=1e-12)
                bob = bell_state(kind).amplitudes.conj() @ ref.post_state.amplitudes.reshape(4, 2)
                res = lueders.branch(kind.value)
                p = lueders.probabilities[kind.value]
                assert p == pytest.approx(ref.probability, abs=1e-12)
                assert phase_equal(res.bob_state_before_correction,
                                   StateVector(bob / np.linalg.norm(bob)), 1e-10)
                mult = lifted.decomposition.multiplicities[kind.value]
                assert strict.outcome(kind.value, STRICT).projector_rank == mult
                assert strict.blocked.multiplicities[kind.value] == mult

    def test_strict_verdict_needs_no_merged_eigenvalues(self, monkeypatch):
        """With no eigenvalue merging at all, the dense 8x8 `eigh` splits
        every Bell eigenvalue, but the verdict, which is the rank of
        |B_k><B_k| x I, stays [2, 2, 2, 2]."""
        monkeypatch.setattr(hilbert, "DEGEN_TOL", -1.0)
        fresh = protocols.bell_basis_observable.__wrapped__
        monkeypatch.setattr(protocols, "bell_basis_observable", fresh)
        assert hilbert.spectral_decompose(lift(fresh(), 0, (4, 2))).multiplicities == (1,) * 8
        run = Teleportation(random_qubit(np.random.default_rng(42)), STRICT)
        assert run.blocked == DegeneracyReport(8, 4, [2, 2, 2, 2])
        for kind in BellKind:
            assert run.branch(kind.value).bob_state_before_correction is None

    def test_rejects_wide_input(self):
        with pytest.raises(ValueError):
            Teleportation(StateVector(np.eye(4)[0], (4,)), LUEDERS)
