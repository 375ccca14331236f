"""The measurement postulates as properties of arbitrary inputs.

Strict von Neumann (1932) collapses an outcome only onto a one-dimensional
eigenspace of the whole space; Lueders (1951) projects onto the eigenspace
of any rank. Where the strict rule gives a post-state, both must agree.
"""
import math
from functools import partial

import numpy as np
import pytest

from postulate_sim.measurement import (SemanticsMode, born_probabilities, measure,
                                       partial_measure, partial_probabilities)
from postulate_sim.protocols import BellKind, DegeneracyReport, Teleportation
from test_hilbert import phase_equal, planted_observable, random_state

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
    """The planted observable and random state of a `planted_cases` case, the
    state's Born vector, and `measure(state, mode, rng, force_index)` of the
    observable, on the whole space or on the case's subsystem."""
    dims, subsystem, mults, seed = case
    rng = np.random.default_rng(seed)
    a, _ = planted_observable(rng, mults)
    psi = random_state(rng, math.prod(dims), dims)
    if subsystem is None:
        return a, psi, born_probabilities(a, psi), partial(measure, a)
    return a, psi, partial_probabilities(a, subsystem, psi), partial(partial_measure, a, subsystem)


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(planted_cases())
def test_strict_collapse_iff_rank_one(case):
    """Every outcome, forced in turn: its projector rank is the planted
    multiplicity times the rest dimension; strict von Neumann gives a
    post-state iff that rank is 1, and it is then the Lueders state up to
    phase."""
    a, psi, _, outcome = planted_readout(case)
    mults, rest = case[2], psi.dim // a.dim
    assert a.decomposition.multiplicities == mults
    for idx, mult in enumerate(mults):
        strict, lueders = (outcome(psi, mode, None, idx) for mode in (STRICT, LUEDERS))
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
    _, psi, born, outcome = planted_readout(case)
    assert np.all(born >= 0) and abs(born.sum() - 1) <= 1e-12
    for idx, p in enumerate(born):
        assert outcome(psi, STRICT, None, idx).probability == p
        assert outcome(psi, LUEDERS, None, idx).probability == p
    stream = {mode: np.random.default_rng(case[-1]) for mode in (STRICT, LUEDERS)}
    for _ in range(20):
        strict, lueders = (outcome(psi, mode, stream[mode]) for mode in (STRICT, LUEDERS))
        assert strict.eigenvalue == lueders.eigenvalue and strict.probability > 0


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(planted_cases())
def test_lueders_post_state_is_repeatable(case):
    """Every outcome of nonzero probability, forced in turn: the Lueders
    post-state is a unit vector in its eigenspace, so measuring it again gives
    the same outcome with probability 1 and leaves it as it is."""
    _, psi, born, outcome = planted_readout(case)
    for idx in np.flatnonzero(born):
        post = outcome(psi, LUEDERS, None, int(idx)).post_state
        again = outcome(post, LUEDERS, None, int(idx))
        assert abs(np.linalg.norm(post.amplitudes) - 1) <= 1e-12
        assert abs(again.probability - 1) <= 1e-12
        assert phase_equal(again.post_state, post, 1e-12)


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
