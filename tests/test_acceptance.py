"""End-to-end acceptance suite.

One test per criterion; each prints a PASS line on success so the suite can
be read as a checklist (`pytest -s tests/test_acceptance.py`).
"""
import json
import time

import numpy as np
import pytest

from postulate_sim import algorithms as alg
from postulate_sim import cli
from postulate_sim.hilbert import Observable, StateVector
from postulate_sim.measurement import (
    SemanticsMode,
    born_probabilities,
    build_refinement,
    measure,
    partial_measure,
    partial_probabilities,
)
from postulate_sim.protocols import (
    BellKind,
    Teleportation,
    bell_state,
)
from test_algorithms import argument_observable, assert_mode_independent, simon_trial
from test_hilbert import phase_equal, tensor_op, tensor_state
from test_measurement import apply_map
from test_protocols import lifted_bell_observable

LUEDERS = SemanticsMode.LUEDERS
STRICT = SemanticsMode.STRICT_VON_NEUMANN
INV_SQRT2 = 1 / np.sqrt(2)


def random_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return StateVector(v / np.linalg.norm(v))


def random_state(rng, dim, dims=None):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(v / np.linalg.norm(v), dims)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Observable((m + m.conj().T) / 2)


def popcount_parity(x):
    return bin(x).count("1") % 2


def test_criterion_01_bell_basis_identities():
    """Timed as the best of 5 runs of the body, so that a scheduler slice
    lost to another process cannot alone exceed the 1 ms bound."""
    def identities():
        start = time.perf_counter()
        phip, phim = bell_state(BellKind.PHI_PLUS), bell_state(BellKind.PHI_MINUS)
        psip, psim = bell_state(BellKind.PSI_PLUS), bell_state(BellKind.PSI_MINUS)
        basis = np.eye(4)
        pairs = [
            (basis[0], (phip.amplitudes + phim.amplitudes) * INV_SQRT2),
            (basis[1], (psip.amplitudes + psim.amplitudes) * INV_SQRT2),
            (basis[2], (psip.amplitudes - psim.amplitudes) * INV_SQRT2),
            (basis[3], (phip.amplitudes - phim.amplitudes) * INV_SQRT2),
        ]
        for lhs, rhs in pairs:
            assert np.max(np.abs(lhs - rhs)) < 1e-12
        return time.perf_counter() - start

    elapsed = min(identities() for _ in range(5))
    assert elapsed < 1e-3
    print(f"\nPASS criterion 1: four Bell-basis identities within 1e-12 ({elapsed * 1e6:.0f} us)")


def test_criterion_02_four_branch_collapse_table():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        psi = random_qubit(rng)
        alpha, beta = psi.amplitudes
        total = tensor_state(psi, bell_state(BellKind.PHI_PLUS)).reshaped((4, 2))
        listing = {
            BellKind.PHI_PLUS: [alpha, beta],
            BellKind.PHI_MINUS: [alpha, -beta],
            BellKind.PSI_PLUS: [beta, alpha],
            BellKind.PSI_MINUS: [-beta, alpha],
        }
        for kind, bob in listing.items():
            out = measure(lifted_bell_observable(), total, LUEDERS, None,
                          force_index=kind.value)
            expected = tensor_state(
                bell_state(kind), StateVector(np.array(bob) / np.linalg.norm(bob))
            ).reshaped((4, 2))
            assert phase_equal(out.post_state, expected, 1e-10)
    print("PASS criterion 2: all four collapse branches match the listed "
          "three-particle states for 100 random inputs")


def test_criterion_03_teleportation_success_lueders():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    for _ in range(1000):
        psi = random_qubit(rng)
        run = Teleportation(psi, LUEDERS)
        for kind in BellKind:
            res = run.branch(kind.value)
            fid = abs(psi.overlap(res.bob_state_after_correction)) ** 2
            assert abs(fid - 1.0) < 1e-10
            assert abs(run.probabilities[kind.value] - 0.25) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 3: fidelity 1 and probability 0.25 on 1000x4 branches ({elapsed:.2f} s)")


def test_criterion_04_teleportation_refusal_strict(capsys):
    rng = np.random.default_rng(4)
    for _ in range(50):
        run = Teleportation(random_qubit(rng), STRICT)
        res = run.branch(run.draw(rng))
        assert run.blocked is not None
        assert run.blocked.multiplicities == [2, 2, 2, 2]
        assert res.bob_state_after_correction is None
        assert res.bob_state_before_correction is None
    code = cli.main(["teleport", "--mode", "von-neumann", "--alpha", "0.6,0",
                     "--beta", "0.8,0", "--trials", "5"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["blocked"]["multiplicities"] == [2, 2, 2, 2]
    with capsys.disabled():
        print("PASS criterion 4: strict von Neumann refuses every teleport; CLI exits 2")


def test_criterion_05_born_rule_oracle_equivalence():
    rng = np.random.default_rng(5)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        a = random_hermitian(rng, dim)
        psi = random_state(rng, dim)
        probs = born_probabilities(a, psi)
        # independent oracle: fresh eigensolve, explicit projectors
        values, vectors = np.linalg.eigh(a.matrix)
        oracle = []
        i = 0
        while i < dim:
            j = i
            while j + 1 < dim and values[j + 1] - values[j] <= 1e-9:
                j += 1
            proj = vectors[:, i:j + 1] @ vectors[:, i:j + 1].conj().T
            oracle.append(float(np.linalg.norm(proj @ psi.amplitudes) ** 2))
            i = j + 1
        np.testing.assert_allclose(probs, oracle, atol=1e-9)
        assert abs(probs.sum() - 1.0) < 1e-9
    print("PASS criterion 5: Born probabilities match brute-force oracle for 200 operators")


def test_criterion_06_proj_factorization():
    rng = np.random.default_rng(6)
    done = 0
    while done < 200:
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a = random_hermitian(rng, d1)
        if max(a.decomposition.multiplicities) > 1:
            continue
        psi = random_state(rng, d1 * d2, (d1, d2))
        out = partial_measure(a, 0, psi, LUEDERS, rng)
        post = out.post_state.amplitudes.reshape(d1, d2)
        local = out.subsystem_post_state.amplitudes
        phi = local.conj() @ post
        rebuilt = np.kron(local, phi / np.linalg.norm(phi))
        assert abs(np.vdot(rebuilt, out.post_state.amplitudes)) > 1 - 1e-10
        done += 1
    print("PASS criterion 6: Lueders post-state factorizes with the measured "
          "subsystem in the outcome eigenstate (200 states)")


def test_criterion_07_refinement_soundness():
    rng = np.random.default_rng(7)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        base = random_hermitian(rng, dim)
        # mix in genuinely degenerate operators via lifting when dim is even
        if dim % 2 == 0 and rng.random() < 0.5:
            base = tensor_op(random_hermitian(rng, dim // 2), Observable(np.eye(2)))
        ref = build_refinement(base)
        assert max(ref.refined.decomposition.multiplicities) == 1
        comm = base.matrix @ ref.refined.matrix - ref.refined.matrix @ base.matrix
        assert np.max(np.abs(comm)) < 1e-9
        np.testing.assert_allclose(apply_map(ref), base.matrix, atol=1e-9)
    print("PASS criterion 7: refinement observable nondegenerate, commuting, f(C)=A (100 operators)")


def test_criterion_08_deutsch_jozsa():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    for n in range(1, 11):
        for value in (0, 1):
            oracle = alg.constant_oracle(n, value)
            state = alg.dj_final_state(oracle).reshaped((2 ** n, 2))
            p0 = partial_probabilities(argument_observable(n), 0, state)[0]
            assert abs(p0 - 1.0) < 1e-10
    for _ in range(100):
        n = int(rng.integers(1, 11))
        oracle = alg.balanced_oracle(n, rng)
        state = alg.dj_final_state(oracle).reshaped((2 ** n, 2))
        p0 = partial_probabilities(argument_observable(n), 0, state)[0]
        assert p0 < 1e-10
        seed = int(rng.integers(0, 2 ** 32))
        readout = alg.dj_readout(oracle)
        assert_mode_independent(readout, [seed])
        assert readout.draw(np.random.default_rng(seed)) != 0  # the verdict is "balanced"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 8: DJ exact for n<=10, constant and balanced, both modes ({elapsed:.2f} s)")


def test_criterion_09_simon():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        s = int(rng.integers(1, 2 ** n))
        oracle = alg.simon_oracle(n, s, rng)
        state = alg.simon_final_state(oracle).reshaped((2 ** n, 2 ** n))
        probs = partial_probabilities(argument_observable(n), 0, state)
        for j in range(2 ** n):
            expected = 1 / 2 ** (n - 1) if popcount_parity(j & s) == 0 else 0.0
            assert abs(probs[j] - expected) < 1e-10
        res = simon_trial(oracle, rng)
        assert res.period == s
        assert all(popcount_parity(j & s) == 0 for j in res.samples)
    print("PASS criterion 9: Simon support = dual subspace, uniform, period recovered (50 periods)")


def test_criterion_10_grover():
    for n in range(1, 9):
        for m in (1, 2):
            if m >= 2 ** n:
                continue
            readout, marked = alg.grover_readout(n, list(range(m)))
            theta = np.arcsin(np.sqrt(m / 2 ** n))
            closed = np.sin((2 * alg.grover_iterations(n, m) + 1) * theta) ** 2
            assert abs(readout.probabilities[marked].sum() - closed) < 1e-10
    readout, marked = alg.grover_readout(2, [1])
    assert alg.grover_iterations(2, 1) == 1
    assert abs(readout.probabilities[marked].sum() - 1.0) < 1e-10
    print("PASS criterion 10: Grover probability matches sin^2((2k+1)theta); n=2 exact hit")


def test_criterion_11_semantics_independence(capsys, tmp_path):
    rng = np.random.default_rng(11)
    for seed in range(20):
        assert_mode_independent(alg.dj_readout(alg.balanced_oracle(5, rng)), [seed])
        so = alg.simon_oracle(4, int(rng.integers(1, 16)), rng)
        assert_mode_independent(alg.simon_readout(so), [seed])
        assert simon_trial(so, np.random.default_rng(seed)).period == so.hidden_period
        assert_mode_independent(alg.grover_readout(4, [seed % 16])[0], [seed])
    # the shipped path: the CLI's report does not depend on --mode
    oracle = tmp_path / "s101.txt"
    alg.save_oracle(alg.simon_oracle(3, 0b101, np.random.default_rng(6)), oracle)
    for argv in (["dj", "--n", "5", "--kind", "balanced", "--seed", "6", "--trials", "20"],
                 ["simon", "--n", "4", "--period", "0110", "--seed", "2", "--trials", "5"],
                 ["simon", "--oracle", str(oracle), "--seed", "3", "--trials", "5"],
                 ["grover", "--n", "4", "--marked", "3,9", "--seed", "8", "--trials", "20"]):
        reports = {}
        for mode in ("lueders", "von-neumann"):
            assert cli.main(argv + ["--mode", mode]) == 0
            reports[mode] = json.loads(capsys.readouterr().out)
            assert reports[mode]["config"].pop("mode") == mode
        assert reports["lueders"] == reports["von-neumann"]
    with capsys.disabled():
        print("PASS criterion 11: DJ/Simon/Grover outcomes and CLI reports identical "
              "under both semantics at fixed seed")


@pytest.mark.parametrize("argv", [
    ["teleport", "--alpha", "0.6,0", "--beta", "0.8,0", "--trials", "100", "--seed", "42"],
    ["teleport", "--mode", "von-neumann", "--trials", "10", "--seed", "1"],
    ["dj", "--n", "5", "--kind", "balanced", "--seed", "6", "--trials", "4"],
    ["simon", "--n", "4", "--period", "0110", "--seed", "2", "--trials", "2"],
    ["grover", "--n", "4", "--marked", "3,9", "--trials", "10", "--seed", "8"],
    ["measure", "--observable", "x", "--alpha", "0.8,0", "--beta", "0,0.6", "--trials", "20"],
])
def test_criterion_12_cli_determinism(capsys, argv):
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    assert first.encode() == second.encode()
    with capsys.disabled():
        print(f"PASS criterion 12: byte-identical report for {' '.join(argv[:2])}")
