"""Command-line harness producing deterministic JSON (or text) reports.

Exit codes: 0 success, 1 usage or validation error, 2 blocked by degeneracy
(teleportation under strict von Neumann semantics).
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections import Counter

import numpy as np

from . import __version__, algorithms, kernels, protocols
from .errors import PostulateSimError
from .hilbert import Observable, StateVector
from .measurement import RegisterReadout, SemanticsMode

SCHEMA = "postulate-sim/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BLOCKED = 2

# five times the largest documented run (teleport --trials 20000)
MAX_TRIALS = 100_000

_PAULIS = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the blocked verdict owns that code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# tokens that start with '-' but are values, not options: argparse's own
# negative numbers, and any comma-separated list such as -0.6,0 or -1,2,3
_NEGATIVE_VALUE = re.compile(r"^-\d+$|^-\d*\.\d+$|^-[^,]*(,[^,]*)+$")


def _complex_pair(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="postulate-sim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--mode", default="lueders", choices=["lueders", "von-neumann"])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--format", default="json", choices=["json", "text"])

    def amplitudes(p):
        p.add_argument("--alpha", type=_complex_pair, default=complex(1, 0), metavar="RE,IM")
        p.add_argument("--beta", type=_complex_pair, default=complex(0, 0), metavar="RE,IM")
        p._negative_number_matcher = _NEGATIVE_VALUE

    p = sub.add_parser("teleport", help="teleport one qubit through a Bell pair")
    amplitudes(p)
    common(p)

    p = sub.add_parser("dj", help="Deutsch-Jozsa constant/balanced decision")
    p.add_argument("--oracle", help="truth-table file; omit to generate via --kind")
    p.add_argument("--n", type=int, help="input width when generating an oracle")
    p.add_argument("--kind", choices=["constant", "balanced"], default="constant")
    p.add_argument("--value", type=int, default=0, choices=[0, 1],
                   help="output of a generated constant oracle")
    common(p)

    p = sub.add_parser("simon", help="recover a hidden XOR period")
    p.add_argument("--oracle", help="truth-table file; omit to generate via --period")
    p.add_argument("--n", type=int, help="input width when generating an oracle")
    p.add_argument("--period", type=str, help="hidden period bitstring for a generated oracle")
    p.add_argument("--max-samples", type=int, default=50)
    common(p)

    p = sub.add_parser("grover", help="search for marked indices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--marked", type=_int_list, required=True, metavar="I,J,...")
    p._negative_number_matcher = _NEGATIVE_VALUE
    common(p)

    p = sub.add_parser("measure", help="measure a Pauli observable on one qubit")
    p.add_argument("--observable", default="z", choices=sorted(_PAULIS))
    amplitudes(p)
    common(p)

    return parser


# ---------------------------------------------------------------------------
# command runners; each returns (payload dict, exit code)

def _draws(sampler, args) -> list[int]:
    """One index per trial from a prepared sampler, each from its own stream:
    schedule-independent, trial t's stream derives from (seed, t) alone."""
    return [sampler.draw(rng) for rng in kernels.trial_streams(args.seed, args.trials)]


def _entries(indices: list[int], entry) -> list:
    """The report entry of every drawn index, built once per distinct index."""
    built = {idx: entry(idx) for idx in dict.fromkeys(indices)}
    return [built[idx] for idx in indices]


def _run_teleport(args) -> tuple[dict, int]:
    psi = _input_qubit(args.alpha, args.beta)
    run = protocols.Teleportation(psi, SemanticsMode.from_string(args.mode))
    indices = _draws(run, args)

    def entry(idx):
        result = run.branch(idx)
        entry = {"outcome": result.outcome_kind.label, "bits": list(result.classical_bits),
                 "determined": result.blocked is None}
        if result.blocked is None:
            entry["fidelity"] = float(abs(psi.overlap(result.bob_state_after_correction)) ** 2)
        return entry

    born = {kind.label: float(run.probabilities[kind.value]) for kind in protocols.BellKind}
    outcomes = _entries(indices, entry)
    counts = Counter(e["outcome"] for e in outcomes)
    blocked = run.branch(indices[-1]).blocked
    payload = {
        "born_probabilities": born,
        "outcomes": outcomes,
        "frequencies": {k: counts.get(k, 0) / args.trials for k in sorted(born)},
        "blocked": None if blocked is None else {
            "dimension": blocked.dimension,
            "distinct_eigenvalues": blocked.distinct_eigenvalues,
            "multiplicities": blocked.multiplicities,
        },
    }
    return payload, EXIT_OK if blocked is None else EXIT_BLOCKED


def _dj_oracle(args) -> algorithms.BooleanOracle:
    if args.oracle:
        return algorithms.load_oracle(args.oracle, "dj")
    if args.n is None:
        raise PostulateSimError("dj: provide --oracle or --n")
    if args.kind == "constant":
        return algorithms.constant_oracle(args.n, args.value)
    return algorithms.balanced_oracle(args.n, kernels.seed_stream(args.seed))


def _run_dj(args) -> tuple[dict, int]:
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
    mode = SemanticsMode.from_string(args.mode)
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


_RUNNERS = {
    "teleport": _run_teleport,
    "dj": _run_dj,
    "simon": _run_simon,
    "grover": _run_grover,
    "measure": _run_measure,
}


def _config_echo(args) -> dict:
    skip = {"command", "format"}
    cfg = {"command": args.command, "mode": args.mode, "seed": args.seed, "trials": args.trials}
    for key, value in sorted(vars(args).items()):
        if key in skip or key in cfg:
            continue
        if isinstance(value, complex):
            value = [value.real, value.imag]
        cfg[key] = value
    return cfg


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


def emit_report(report: dict, fmt: str = "json") -> str:
    if fmt == "json":
        outcomes = report.get("outcomes")
        if not outcomes:
            return _dumps(report) + "\n"
        # the same text as _dumps(report), but each distinct entry object
        # (runners share one per drawn index) is encoded once, at depth 2
        distinct = {id(entry): entry for entry in outcomes}
        encoded = {key: _dumps(entry).replace("\n", "\n    ") for key, entry in distinct.items()}
        items = ",\n    ".join([encoded[id(entry)] for entry in outcomes])
        # a raw newline plus two spaces before a key occurs only at the top level
        head, _, tail = _dumps({**report, "outcomes": None}).partition('\n  "outcomes": null')
        return f'{head}\n  "outcomes": [\n    {items}\n  ]{tail}\n'
    lines = [f"postulate-sim {report['version']} :: {report['config']['command']} "
             f"(mode={report['config']['mode']}, seed={report['config']['seed']}, "
             f"trials={report['config']['trials']})"]
    for key, value in report.items():
        if key in ("schema", "version", "config", "outcomes"):
            continue
        lines.append(f"  {key}: {value}")
    outcomes = report.get("outcomes", [])
    lines.append(f"  outcomes: {len(outcomes)} trial(s)")
    for entry in outcomes[:10]:
        lines.append(f"    {entry}")
    if len(outcomes) > 10:
        lines.append(f"    ... {len(outcomes) - 10} more")
    return "\n".join(lines) + "\n"


def run(args) -> tuple[dict, int]:
    payload, code = _RUNNERS[args.command](args)
    report = {"schema": SCHEMA, "version": __version__, "config": _config_echo(args)}
    report.update(payload)
    return report, code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.trials > MAX_TRIALS:
        # the report grows by up to about 1.3 KiB per trial
        parser.error(f"--trials must be <= {MAX_TRIALS}")
    try:
        report, code = run(args)
        # allow_nan=False: a non-finite number is an error, not a report
        text = emit_report(report, args.format)
    except (PostulateSimError, OSError, ValueError) as exc:
        print(f"postulate-sim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"postulate-sim: error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
