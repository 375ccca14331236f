"""Command-line harness producing deterministic JSON (or text) reports.

Exit codes: 0 success, 1 usage or validation error, 2 blocked by degeneracy
(teleportation under strict von Neumann semantics).
"""
from __future__ import annotations

import argparse
import gc
import os
import re
import sys

from . import __version__
from .errors import EXIT_USAGE, PostulateSimError

SCHEMA = "postulate-sim/1"

# five times the largest documented run (teleport --trials 20000)
MAX_TRIALS = 100_000


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
    p.add_argument("--observable", default="z", choices=["x", "y", "z"])
    amplitudes(p)
    common(p)

    return parser


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
    import json  # loaded only to encode a report
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


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        # run as the program: what exists before argv parses lives until exit, so
        # no collection walks it again; a library call leaves its caller's collector
        gc.freeze()
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.trials > MAX_TRIALS:
        # the report grows by up to about 1.3 KiB per trial
        parser.error(f"--trials must be <= {MAX_TRIALS}")
    try:
        try:
            if argv is None:
                # numpy and the engine load with the collector off and are frozen
                # with the startup state; the run's own garbage is still collected
                gc.disable()
                try:
                    from . import commands
                    gc.freeze()
                finally:
                    gc.enable()
            # numpy and the engine load here, once argv has parsed and passed its
            # checks (run as the program, they are loaded above already)
            from . import commands
        except (ImportError, AttributeError) as exc:
            # a failed load, such as numpy's under a low address-space limit;
            # numpy wraps its cause in pages of advice, so the cause is reported
            while exc.__cause__ is not None:
                exc = exc.__cause__
            print(f"postulate-sim: error: cannot load the engine: {' '.join(str(exc).split())}",
                  file=sys.stderr)
            return EXIT_USAGE
        payload, code = commands.RUNNERS[args.command](args)
        report = {"schema": SCHEMA, "version": __version__, "config": _config_echo(args),
                  **payload}
        # allow_nan=False: a non-finite number is an error, not a report
        text = emit_report(report, args.format)
    except (PostulateSimError, OSError, ValueError) as exc:
        print(f"postulate-sim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # a bare MemoryError() has no text: name the command instead
        detail = f": {exc}" if str(exc) else ""
        print(f"postulate-sim: error: out of memory in {args.command}{detail}", file=sys.stderr)
        return EXIT_USAGE
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # on devnull, the interpreter's own flush at exit cannot fail again
        # (Python docs, `signal`, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"postulate-sim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
