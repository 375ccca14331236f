"""The measurement postulates as properties of arbitrary inputs.

Strict von Neumann (1932) collapses an outcome only onto a one-dimensional
eigenspace of the whole space; Lueders (1951) projects onto the eigenspace
of any rank. Where the strict rule gives a post-state, both must agree.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from postulate_sim import algorithms as alg
from postulate_sim import kernels
from postulate_sim.hilbert import Observable, StateVector
from postulate_sim.measurement import RegisterReadout, SemanticsMode, build_refinement, lift
from postulate_sim.protocols import BellKind, DegeneracyReport, Teleportation
from test_hilbert import phase_equal, planted_observable, random_state
from test_measurement import apply_map

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

LUEDERS = SemanticsMode.LUEDERS
STRICT = SemanticsMode.STRICT_VON_NEUMANN


@st.composite
def planted_cases(draw):
    """(dims, subsystem, multiplicities, seed): 2-3 factors of total dim at
    most 64, and an observable on the whole space (subsystem None) or on one
    factor, whose dimension is split into planted eigenspaces."""
    dims = tuple(draw(st.lists(st.integers(1, 8), min_size=2, max_size=3)
                      .filter(lambda d: math.prod(d) <= 64)))
    subsystem = draw(st.sampled_from((None,) + tuple(range(len(dims)))))
    dim = math.prod(dims) if subsystem is None else dims[subsystem]
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1)))) if dim > 1 else []
    mults = tuple(int(m) for m in np.diff([0, *cuts, dim]))
    return dims, subsystem, mults, draw(st.integers(0, 2 ** 32 - 1))


def planted_readout(case):
    """The planted observable and random state of a `planted_cases` case, and
    `read(state)`, the `RegisterReadout` of a state in the observable's
    eigenbasis, on the whole space or on the case's subsystem."""
    dims, subsystem, mults, seed = case
    rng = np.random.default_rng(seed)
    a, _ = planted_observable(rng, mults)
    psi = random_state(rng, math.prod(dims), dims)
    return a, psi, lambda state: RegisterReadout(state, subsystem, a)


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(planted_cases())
def test_strict_collapse_iff_rank_one(case):
    """Every outcome, forced in turn: its projector rank is the planted
    multiplicity times the rest dimension; strict von Neumann gives a
    post-state iff that rank is 1, and it is then the Lueders state up to
    phase."""
    a, psi, read = planted_readout(case)
    mults, rest, readout = case[2], psi.dim // a.dim, read(psi)
    assert a.decomposition.multiplicities == mults
    for idx, mult in enumerate(mults):
        strict, lueders = (readout.outcome(idx, mode) for mode in (STRICT, LUEDERS))
        assert strict.projector_rank == lueders.projector_rank == mult * rest
        assert strict.determined == (strict.post_state is not None) == (mult * rest == 1)
        if strict.determined:
            assert phase_equal(strict.post_state, lueders.post_state, 1e-10)
        else:
            assert phase_equal(strict.lueders_post_state, lueders.post_state, 1e-10)


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(planted_cases())
def test_born_vector_and_draw_do_not_depend_on_the_mode(case):
    """The Born vector is a distribution, every outcome carries its entry
    under both semantics, and the same seeded stream draws the same outcomes
    under both, never one of probability 0."""
    _, psi, read = planted_readout(case)
    readout = read(psi)
    born = readout.probabilities
    assert np.all(born >= 0) and abs(born.sum() - 1) <= 1e-12
    for idx, p in enumerate(born):
        assert readout.outcome(idx, STRICT).probability == p
        assert readout.outcome(idx, LUEDERS).probability == p
    stream = {mode: np.random.default_rng(case[-1]) for mode in (STRICT, LUEDERS)}
    for _ in range(20):
        strict, lueders = (readout.outcome(readout.draw(stream[mode]), mode)
                           for mode in (STRICT, LUEDERS))
        assert strict.eigenvalue == lueders.eigenvalue and strict.probability > 0


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(planted_cases())
def test_lueders_post_state_is_repeatable(case):
    """Every outcome of nonzero probability, forced in turn: the Lueders
    post-state is a unit vector in its eigenspace, so measuring it again gives
    the same outcome with probability 1 and leaves it as it is."""
    _, psi, read = planted_readout(case)
    readout = read(psi)
    for idx in np.flatnonzero(readout.probabilities):
        post = readout.outcome(int(idx), LUEDERS).post_state
        again = read(post).outcome(int(idx), LUEDERS)
        assert abs(np.linalg.norm(post.amplitudes) - 1) <= 1e-12
        assert abs(again.probability - 1) <= 1e-12
        assert phase_equal(again.post_state, post, 1e-12)


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(planted_cases())
def test_refinement_reads_the_degenerate_observable(case):
    """Von Neumann's reading of a degenerate A: a nondegenerate C and a map f
    with f(C) = A, so measuring C and applying f is measuring A. f applied to
    C's own decomposition rebuilds A, and C's Born vector summed over each
    preimage of f is A's Born vector."""
    a, psi, read = planted_readout(case)
    ref = build_refinement(a)
    dec = ref.refined.decomposition
    assert max(dec.multiplicities) == 1
    np.testing.assert_allclose(apply_map(ref), a.matrix, rtol=0, atol=1e-9)
    labels = [ref.value_map[int(round(ev))] for ev in dec.eigenvalues]
    born = RegisterReadout(psi, case[1], ref.refined).probabilities
    mapped = [sum(p for label, p in zip(labels, born) if label == ev)
              for ev in a.decomposition.eigenvalues]
    np.testing.assert_allclose(mapped, read(psi).probabilities, rtol=0, atol=1e-12)


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(planted_cases(), st.integers(0, 2))
def test_local_outcome_pins_its_factor(case, k):
    """Teleportation's argument in general form: a nondegenerate local `a` on
    factor k of a system with a rest. Each outcome's projector |b_j><b_j| x I
    has the rank of the rest, so strict von Neumann leaves every outcome
    undetermined; its Lueders post-state still holds the factor at |b_j>,
    so reading it again gives outcome j with probability 1."""
    dims, _, _, seed = case
    k %= len(dims)
    rest = math.prod(dims) // dims[k]
    hypothesis.assume(rest > 1)
    rng = np.random.default_rng(seed)
    a, planted = planted_observable(rng, (1,) * dims[k])
    psi = random_state(rng, math.prod(dims), dims)
    readout = RegisterReadout(psi, k, a)
    for j, b in enumerate(planted):
        strict = readout.outcome(j, STRICT)
        assert not strict.determined and strict.post_state is None
        assert strict.projector_rank == rest
        again = RegisterReadout(strict.lueders_post_state, k, a).outcome(j, LUEDERS)
        assert abs(again.probability - 1) <= 1e-12
        assert phase_equal(again.subsystem_post_state, StateVector(b[:, 0]), 1e-12)


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(planted_cases().filter(lambda case: case[1] is not None))
def test_local_readout_is_its_lift(case):
    """Measuring a local `a` on factor k is measuring I x a x I on the whole
    space: the same Born vector, projector ranks and strict verdicts, and
    the same Lueders states up to phase."""
    a, psi, read = planted_readout(case)
    local, whole = read(psi), RegisterReadout(psi, None, lift(a, case[1], case[0]))
    np.testing.assert_allclose(local.probabilities, whole.probabilities, rtol=0, atol=1e-12)
    for idx in range(len(case[2])):
        for mode in (STRICT, LUEDERS):
            got, ref = local.outcome(idx, mode), whole.outcome(idx, mode)
            assert got.projector_rank == ref.projector_rank
            assert got.determined == ref.determined
        got, ref = local.outcome(idx, LUEDERS), whole.outcome(idx, LUEDERS)
        assert phase_equal(got.post_state, ref.post_state, 1e-10)


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(planted_cases(), st.sampled_from((1e-12, 1.0, 1e12)))
def test_degeneracy_does_not_depend_on_units_or_basis(case, c):
    """The multiplicities of a planted A are those of c U A U^dag for a
    random unitary U at every scale c: the merge tolerance and the
    Hermiticity check are both relative to the operator's largest entry."""
    _, _, mults, seed = case
    rng = np.random.default_rng(seed)
    a, _ = planted_observable(rng, mults)
    u = np.linalg.qr(rng.normal(size=(a.dim, a.dim)) + 1j * rng.normal(size=(a.dim, a.dim)))[0]
    rotated = Observable(c * (u @ a.matrix @ u.conj().T))
    assert rotated.decomposition.multiplicities == a.decomposition.multiplicities == mults


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(st.integers(0, 2 ** 32 - 1))
def test_teleport_restores_under_lueders_only(seed):
    """Teleportation of a random input qubit. Under Lueders (1951) each of
    the four Bell branches has probability 1/4 and its corrected state is the
    input; Bob's states before correction average to I/2, so the Bell
    outcome alone carries no signal. Under strict von Neumann (1932) every
    Bell projector |B_k><B_k| x I has rank 2: the run is blocked as a whole
    and no branch has a Bob state."""
    psi = random_state(np.random.default_rng(seed), 2, (2,))
    run = Teleportation(psi, LUEDERS)
    assert run.blocked is None
    rho = np.zeros((2, 2), dtype=np.complex128)
    for kind in BellKind:
        p, res = run.probabilities[kind.value], run.branch(kind.value)
        assert p == pytest.approx(0.25, abs=1e-10)
        assert abs(psi.overlap(res.bob_state_after_correction)) ** 2 == pytest.approx(1, abs=1e-10)
        bob = res.bob_state_before_correction.amplitudes
        rho += p * np.outer(bob, bob.conj())
    np.testing.assert_allclose(rho, np.eye(2) / 2, rtol=0, atol=1e-10)

    strict = Teleportation(psi, STRICT)
    assert strict.blocked == DegeneracyReport(8, 4, [2, 2, 2, 2])
    for kind in BellKind:
        res = strict.branch(kind.value)
        assert res.bob_state_before_correction is None and res.bob_state_after_correction is None


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(st.integers(0, 2 ** 32 - 1))
def test_bell_outcomes_are_equally_likely_to_the_bit(seed):
    """Each Bell outcome has probability 1/4 whatever the input qubit. Read
    through the exact Bell states, the four probabilities are one float, in
    either semantics: no Bell outcome is favoured by rounding."""
    psi = random_state(np.random.default_rng(seed), 2, (2,))
    for mode in (LUEDERS, STRICT):
        probabilities = Teleportation(psi, mode).probabilities
        assert probabilities.shape == (4,)
        assert np.all(probabilities == probabilities[0]), (mode, probabilities.tolist())


def walsh_signs(n):
    """(-1)^popcount(j & k) for all n-bit j (rows) and k (columns), as int64."""
    x = np.arange(2 ** n)
    return 1 - 2 * (np.bitwise_count(np.bitwise_and.outer(x, x)).astype(np.int64) & 1)


def exact_born(sums, n):
    """Born vector of integer amplitude sums over 2^n: row j's squares, summed
    and divided by 4^n in exact rationals, then rounded to float."""
    return np.array([float(Fraction(int(t), 4 ** n)) for t in (sums ** 2).sum(axis=1)])


@hypothesis.settings(max_examples=50, deadline=None, database=None, derandomize=True)
@hypothesis.given(st.integers(2, 8), st.data())
def test_simon_born_vector_is_exact(n, data):
    """Simon's Born vector over a random period and a shuffle of its coset
    labels is the exact P(j) = sum_v (sum_{k: f(k)=v} (-1)^popcount(j & k))^2
    / 4^n to the last bit: every amplitude is an integer over 2^n, so every
    square and every sum is a dyadic rational that a double holds exactly."""
    s = data.draw(st.integers(1, 2 ** n - 1))
    oracle = alg.simon_oracle(n, s, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
    signs, sums = walsh_signs(n), np.zeros((2 ** n, 2 ** n), dtype=np.int64)
    for k, v in enumerate(oracle.table):
        sums[:, v] += signs[:, k]
    born = alg.simon_readout(oracle).probabilities
    assert born.tobytes() == exact_born(sums, n).tobytes()


@hypothesis.settings(max_examples=50, deadline=None, database=None, derandomize=True)
@hypothesis.given(st.integers(1, 10), st.integers(0, 2 ** 32 - 1), st.sampled_from((None, 0, 1)))
def test_dj_born_vector_is_exact_within_three_ulp(n, seed, value):
    """DJ's Born vector, balanced or constant, lies within 3 ulp of the exact
    k(z)^2 / 4^n, k(z) = sum_x (-1)^(f(x) + popcount(x & z)), and is exactly 0
    where k(z) is: each entry sums the squares of two amplitudes
    k(z)/2^n * fl(1/sqrt(2)), whose rounding is the only error."""
    oracle = (alg.balanced_oracle(n, kernels.seed_stream(seed)) if value is None
              else alg.constant_oracle(n, value))
    k = walsh_signs(n) @ (1 - 2 * oracle.table)
    born, exact = alg.dj_readout(oracle).probabilities, exact_born(k[:, None], n)
    np.testing.assert_array_max_ulp(born, exact, 3)
    assert np.array_equal(born == 0, exact == 0)
