"""The `postulate-sim` command runners; each returns (payload dict, exit code).

`cli.main` imports this module, and numpy with it, once argv has parsed and
passed its checks. Each runner imports its own engine module when it runs.
"""
from __future__ import annotations

import math
import sys
from collections import Counter

import numpy as np

from . import kernels
from .errors import EXIT_BLOCKED, EXIT_OK, PostulateSimError
from .hilbert import Observable, StateVector
from .measurement import RegisterReadout, SemanticsMode

_PAULIS = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def _state_json(state: StateVector) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in state.amplitudes]


def _input_qubit(alpha: complex, beta: complex) -> StateVector:
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise PostulateSimError(f"amplitudes must be finite, got alpha={alpha}, beta={beta}")
    # the largest component, not the largest modulus: abs(1e308+1e308j) overflows
    scale = max(abs(alpha.real), abs(alpha.imag), abs(beta.real), abs(beta.imag))
    if scale == 0:
        raise PostulateSimError("alpha and beta cannot both be zero")
    try:
        norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:
        norm_sq = math.inf
    if sys.float_info.min <= norm_sq < math.inf:
        scale = 1.0
    else:
        # the squares underflow or overflow: divide by the largest component first
        alpha, beta = alpha / scale, beta / scale
        norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    norm = np.sqrt(norm_sq)
    size = scale * float(norm)  # a Python float: inf past the float range, no warning
    if abs(size - 1.0) > 1e-6:
        print(f"warning: renormalizing input amplitudes (|psi| = {size:.8g})", file=sys.stderr)
    return StateVector(np.array([alpha, beta]) / norm, (2,))


def _draws(sampler, args) -> list[int]:
    """One index per trial from a prepared sampler, each from its own stream:
    schedule-independent, trial t's stream derives from (seed, t) alone."""
    return [sampler.draw(rng) for rng in kernels.trial_streams(args.seed, args.trials)]


def _entries(indices: list[int], entry) -> list:
    """The report entry of every drawn index, built once per distinct index."""
    built = {idx: entry(idx) for idx in dict.fromkeys(indices)}
    return [built[idx] for idx in indices]


def _run_teleport(args) -> tuple[dict, int]:
    from . import protocols
    psi = _input_qubit(args.alpha, args.beta)
    run = protocols.Teleportation(psi, SemanticsMode(args.mode))
    indices = _draws(run, args)
    blocked = run.blocked

    def entry(idx):
        result = run.branch(idx)
        entry = {"outcome": result.outcome_kind.label,
                 "bits": list(result.outcome_kind.classical_bits), "determined": blocked is None}
        if blocked is None:
            entry["fidelity"] = float(abs(psi.overlap(result.bob_state_after_correction)) ** 2)
        return entry

    born = {kind.label: float(run.probabilities[kind.value]) for kind in protocols.BellKind}
    outcomes = _entries(indices, entry)
    counts = Counter(e["outcome"] for e in outcomes)
    payload = {
        "born_probabilities": born,
        "outcomes": outcomes,
        "frequencies": {k: counts.get(k, 0) / args.trials for k in sorted(born)},
        "blocked": None if blocked is None else blocked._asdict(),
    }
    return payload, EXIT_OK if blocked is None else EXIT_BLOCKED


def _dj_oracle(args):
    from . import algorithms
    if args.oracle:
        return algorithms.load_oracle(args.oracle, "dj")
    if args.n is None:
        raise PostulateSimError("dj: provide --oracle or --n")
    if args.kind == "constant":
        return algorithms.constant_oracle(args.n, args.value)
    return algorithms.balanced_oracle(args.n, kernels.seed_stream(args.seed))


def _run_dj(args) -> tuple[dict, int]:
    from . import algorithms
    oracle = _dj_oracle(args)
    readout = algorithms.dj_readout(oracle)
    outcomes = _entries(_draws(readout, args), lambda z: {
        "verdict": "constant" if z == 0 else "balanced", "sampled_z": z})
    payload = {
        "n": oracle.n,
        "oracle_is_constant": oracle.is_constant,
        "zero_probability": float(readout.probabilities[0]),
        "outcomes": outcomes,
        "verdicts": dict(sorted(Counter(e["verdict"] for e in outcomes).items())),
    }
    return payload, EXIT_OK


def _run_simon(args) -> tuple[dict, int]:
    from . import algorithms
    if args.oracle:
        oracle = algorithms.load_oracle(args.oracle, "simon")
    else:
        if args.n is None or args.period is None:
            raise PostulateSimError("simon: provide --oracle or both --n and --period")
        oracle = algorithms.simon_oracle(args.n, algorithms.parse_bits(args.period))
        if len(args.period) != args.n:
            # as in an oracle file, the period is written with exactly n digits
            raise PostulateSimError(
                f"period {args.period} has {len(args.period)} bits, expected {args.n}")
    n = oracle.n
    readout = algorithms.simon_readout(oracle)
    trials = []
    for rng in kernels.trial_streams(args.seed, args.trials):
        res = algorithms.simon_period(readout, n, rng, args.max_samples)
        trials.append({
            "period": f"{res.period:0{n}b}",
            "samples": [f"{j:0{n}b}" for j in res.samples],
        })
    payload = {
        "n": n,
        "hidden_period": f"{oracle.hidden_period:0{n}b}",
        "outcomes": trials,
        "all_recovered": all(t["period"] == f"{oracle.hidden_period:0{n}b}" for t in trials),
    }
    return payload, EXIT_OK


def _run_grover(args) -> tuple[dict, int]:
    from . import algorithms
    readout, marked = algorithms.grover_readout(args.n, args.marked)
    outcomes = _entries(_draws(readout, args), lambda idx: {"found": idx, "hit": idx in marked})
    payload = {
        "n": args.n,
        "marked": marked,
        "iterations": algorithms.grover_iterations(args.n, len(marked)),
        "marked_probability": float(np.sum(readout.probabilities[marked])),
        "outcomes": outcomes,
        "hit_rate": sum(e["hit"] for e in outcomes) / args.trials,
    }
    return payload, EXIT_OK


def _run_measure(args) -> tuple[dict, int]:
    mode = SemanticsMode(args.mode)
    psi = _input_qubit(args.alpha, args.beta)
    readout = RegisterReadout(psi, None, Observable(_PAULIS[args.observable], (2,)))

    def entry(idx):
        outcome = readout.outcome(idx, mode)
        entry = {"eigenvalue": outcome.eigenvalue, "determined": outcome.determined}
        if outcome.post_state is not None:
            entry["post_state"] = _state_json(outcome.post_state)
        return entry

    outcomes = _entries(_draws(readout, args), entry)
    counts = Counter(e["eigenvalue"] for e in outcomes)
    eigenvalues = readout.decomposition.eigenvalues
    payload = {
        "observable": args.observable,
        "born_probabilities": {str(ev): float(p)
                               for ev, p in zip(eigenvalues, readout.probabilities)},
        "outcomes": outcomes,
        "frequencies": {str(ev): c / args.trials for ev, c in sorted(counts.items())},
    }
    return payload, EXIT_OK


RUNNERS = {
    "teleport": _run_teleport,
    "dj": _run_dj,
    "simon": _run_simon,
    "grover": _run_grover,
    "measure": _run_measure,
}
