"""The measurement postulates as properties of arbitrary inputs.

Strict von Neumann (1932) collapses an outcome only onto a one-dimensional
eigenspace of the whole space; Lueders (1951) projects onto the eigenspace
of any rank. Where the strict rule gives a post-state, both must agree.
"""
import math

import numpy as np
import pytest

from postulate_sim.measurement import SemanticsMode, measure, partial_measure
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


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(planted_cases())
def test_strict_collapse_iff_rank_one(case):
    """Every outcome, forced in turn: its projector rank is the planted
    multiplicity times the rest dimension; strict von Neumann gives a
    post-state iff that rank is 1, and it is then the Lueders state up to
    phase."""
    dims, subsystem, mults, seed = case
    rng = np.random.default_rng(seed)
    a, _ = planted_observable(rng, mults)
    psi = random_state(rng, math.prod(dims), dims)
    rest = psi.dim // a.dim

    def outcome(mode, idx):
        if subsystem is None:
            return measure(a, psi, mode, None, force_index=idx)
        return partial_measure(a, subsystem, psi, mode, None, force_index=idx)

    assert a.decomposition.multiplicities == mults
    for idx, mult in enumerate(mults):
        strict, lueders = outcome(STRICT, idx), outcome(LUEDERS, idx)
        assert strict.projector_rank == lueders.projector_rank == mult * rest
        assert strict.determined == (strict.post_state is not None) == (mult * rest == 1)
        if strict.determined:
            assert phase_equal(strict.post_state, lueders.post_state, 1e-10)
        else:
            assert phase_equal(strict.lueders_post_state, lueders.post_state, 1e-10)
