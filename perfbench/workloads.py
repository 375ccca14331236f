"""Seeded op lists of the four workloads, and the correctness gate of an op.

An op is one fresh process: a `postulate-sim` command, or the
general-observable library driver in `observable_op.py`. Each workload is a
fixed cycle of op shapes (command, width, trial count); the seed picks only
the contents (input qubits, periods, marked sets, observables, per-op
`--seed`), so every seed costs the same and two runs compare like for like.
Reference answers are computed here from the generated inputs, never by the
package.
"""
from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")
EXIT_OK, EXIT_BLOCKED = 0, 2
TOL = 1e-9


@dataclass(frozen=True)
class Op:
    driver: str                      # "cli" or "observable"
    argv: tuple
    trials: int                      # trials it runs; for the driver, sampled measurements
    expect_exit: int
    check: Optional[Callable[[dict], Optional[str]]]


# ---------------------------------------------------------------------------
# correctness gate

def strict_json(text: str):
    """Parse RFC 8259 JSON: NaN and Infinity are rejected."""
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in report")
    return json.loads(text, parse_constant=reject)


def judge(op: Op, exit_code: Optional[int], signal: Optional[int], stdout: bytes,
          stderr: bytes) -> Optional[str]:
    """Why the op failed, or None if it passed."""
    if signal is not None:
        return f"killed by signal {signal}"
    if b"MemoryError" in stderr:
        return "MemoryError"
    if exit_code != op.expect_exit:
        return f"exit code {exit_code}, expected {op.expect_exit}"
    if op.check is None:  # `--version`: one line, no report
        return None if stdout.startswith(b"postulate-sim ") else f"version output {stdout[:80]!r}"
    try:
        report = strict_json(stdout.decode())
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    if not isinstance(report, dict):
        return "report is not a JSON object"
    try:
        return op.check(report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {exc!r}"


def _close(a, b, tol=TOL) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= tol


def check_teleport(report: dict, lueders: bool, trials: int) -> Optional[str]:
    outcomes = report["outcomes"]
    if len(outcomes) != trials:
        return f"{len(outcomes)} outcomes for {trials} trials"
    born = report["born_probabilities"]
    if sorted(born) != sorted(BELL_LABELS) or not all(_close(p, 0.25) for p in born.values()):
        return f"Bell-outcome probabilities {born} are not 1/4 each"
    if not _close(sum(report["frequencies"].values()), 1.0):
        return "frequencies do not sum to 1"
    for entry in outcomes:
        label = entry["outcome"]
        if label not in BELL_LABELS or entry["bits"] != list(divmod(BELL_LABELS.index(label), 2)):
            return f"outcome {label} with bits {entry['bits']}"
        if entry["determined"] != lueders:
            return f"determined={entry['determined']} under {'lueders' if lueders else 'von-neumann'}"
        if lueders and not _close(entry["fidelity"], 1.0):
            return f"fidelity {entry['fidelity']} is not 1"
    expected = None if lueders else {"dimension": 8, "distinct_eigenvalues": 4,
                                     "multiplicities": [2, 2, 2, 2]}
    if report["blocked"] != expected:
        return f"blocked report {report['blocked']}, expected {expected}"
    return None


def check_dj(report: dict, n: int, constant_value: Optional[int], trials: int) -> Optional[str]:
    # sum over x of (-1)^f(x): (-1)^v 2^n for a constant oracle f = v, 0 for a balanced one
    signed_sum = 0 if constant_value is None else (-1) ** constant_value * 2 ** n
    reference = (signed_sum / 2 ** n) ** 2
    kind = "balanced" if constant_value is None else "constant"
    if report["n"] != n or report["oracle_is_constant"] != (constant_value is not None):
        return f"n={report['n']}, oracle_is_constant={report['oracle_is_constant']}"
    if not _close(report["zero_probability"], reference):
        return f"zero_probability {report['zero_probability']}, expected {reference}"
    verdicts = [entry["verdict"] for entry in report["outcomes"]]
    if verdicts != [kind] * trials or report["verdicts"] != {kind: trials}:
        return f"verdicts {report['verdicts']}, expected {trials} x {kind}"
    return None


def check_simon(report: dict, n: int, period: int, trials: int) -> Optional[str]:
    bits = f"{period:0{n}b}"
    if report["n"] != n or report["hidden_period"] != bits:
        return f"hidden period {report['hidden_period']}, expected {bits}"
    outcomes = report["outcomes"]
    if len(outcomes) != trials or report["all_recovered"] is not True:
        return "not every trial recovered the period"
    for entry in outcomes:
        if entry["period"] != bits:
            return f"recovered period {entry['period']}, expected {bits}"
        for sample in entry["samples"]:
            if bin(int(sample, 2) & period).count("1") % 2:
                return f"sample {sample} is not orthogonal to the period {bits}"
    return None


def grover_reference(n: int, marked_count: int) -> tuple[int, float]:
    """Iteration count and sin^2((2k+1) theta) with sin^2 theta = M / N."""
    size = 2 ** n
    k = int(math.floor(math.pi / 4 * math.sqrt(size / marked_count)))
    theta = math.asin(math.sqrt(marked_count / size))
    return k, math.sin((2 * k + 1) * theta) ** 2


def check_grover(report: dict, n: int, marked: list, trials: int) -> Optional[str]:
    k, probability = grover_reference(n, len(marked))
    if report["n"] != n or report["marked"] != sorted(marked) or report["iterations"] != k:
        return f"n={report['n']} marked={report['marked']} iterations={report['iterations']}"
    if not _close(report["marked_probability"], probability):
        return f"marked_probability {report['marked_probability']}, expected {probability}"
    outcomes = report["outcomes"]
    if len(outcomes) != trials:
        return f"{len(outcomes)} outcomes for {trials} trials"
    for entry in outcomes:
        if not 0 <= entry["found"] < 2 ** n or entry["hit"] != (entry["found"] in marked):
            return f"outcome {entry}"
    if not _close(report["hit_rate"], sum(e["hit"] for e in outcomes) / trials):
        return "hit_rate does not match the outcomes"
    return None


def observable_samples(samples: int) -> dict:
    """Sampled measurements of one driver op, by kind (see observable_op.run)."""
    return {"lueders": samples, "von-neumann": samples, "lift": samples, "partial": 2 * samples}


def check_observable(report: dict, dim: int, samples: int) -> Optional[str]:
    if report["dim"] != dim or report["multiplicities"] != report["planted_multiplicities"]:
        return f"multiplicities {report['multiplicities']} != planted"
    if sum(report["planted_multiplicities"]) != dim:
        return "planted multiplicities do not cover the space"
    born, reference = report["born_probabilities"], report["born_reference"]
    if len(born) != len(reference) or not _close(sum(born), 1.0):
        return f"Born probabilities sum to {sum(born)}"
    if not all(_close(p, q) for p, q in zip(born, reference)):
        return "Born probabilities differ from the planted reference"
    for key, error in report["max_errors"].items():
        if not _close(error, 0.0, 1e-8):
            return f"{key} deviates by {error}"
    if report["flag_mismatches"] != 0:
        return f"{report['flag_mismatches']} determined/degeneracy mismatches"
    expected = observable_samples(samples)
    if report["samples"] != expected:
        return f"samples {report['samples']}, expected {expected}"
    return None


# ---------------------------------------------------------------------------
# workloads

def _cli_seed(rng: random.Random) -> str:
    return str(rng.randrange(2 ** 31))


def _complex_arg(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


class Workload:
    name = ""
    cycle = 1

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def prepare(self) -> list:
        """(python code, argv) of helper processes to run, untimed, before the first op."""
        return []

    def op(self, i: int) -> Op:
        raise NotImplementedError


class Teleport(Workload):
    """Alternating Lueders (exit 0) and strict von Neumann (exit 2) teleports."""
    name = "teleport"
    cycle = 2
    # a strict trial skips the receiver state, so 500 cost about what 400 Lueders
    # trials do: one cost tier keeps the median off the boundary between two
    TRIALS = {"lueders": 400, "von-neumann": 500}

    def op(self, i):
        rng = self.rng(i)
        mode = ("lueders", "von-neumann")[i % 2]
        theta, pa, pb = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        alpha = math.cos(theta / 2) * complex(math.cos(pa), math.sin(pa))
        beta = math.sin(theta / 2) * complex(math.cos(pb), math.sin(pb))
        trials = self.TRIALS[mode]
        argv = ("teleport", "--mode", mode, f"--alpha={_complex_arg(alpha)}",
                f"--beta={_complex_arg(beta)}", "--trials", str(trials), "--seed", _cli_seed(rng))
        lueders = mode == "lueders"
        return Op("cli", argv, trials, EXIT_OK if lueders else EXIT_BLOCKED,
                  functools.partial(check_teleport, lueders=lueders, trials=trials))


class SimonSample(Workload):
    """Simon at n = 8 (2^16 amplitudes); every other op reads a saved oracle file."""
    name = "simon-sample"
    cycle = 2
    N = 8
    ORACLE_FILES = 4

    def _oracle(self, k: int) -> tuple[int, int, str]:
        rng = random.Random(f"{self.name}:{self.seed}:oracle{k}")
        period = rng.randrange(1, 2 ** self.N)
        return period, rng.randrange(2 ** 31), str(self.workdir / f"simon{k}.txt")

    def prepare(self):
        code = ("import sys, numpy as np; from postulate_sim.algorithms import simon_oracle, save_oracle\n"
                "for arg in sys.argv[1:]:\n"
                "    n, s, r, path = arg.split(':', 3)\n"
                "    save_oracle(simon_oracle(int(n), int(s), np.random.default_rng(int(r))), path)")
        specs = [f"{self.N}:{p}:{r}:{path}"
                 for p, r, path in map(self._oracle, range(self.ORACLE_FILES))]
        return [(code, specs)]

    def op(self, i):
        rng = self.rng(i)
        if i % 2:
            period, _, path = self._oracle((i // 2) % self.ORACLE_FILES)
            source = ("--oracle", path)
        else:
            period = rng.randrange(1, 2 ** self.N)
            source = ("--n", str(self.N), "--period", f"{period:0{self.N}b}")
        argv = ("simon", *source, "--trials", "1", "--seed", _cli_seed(rng))
        return Op("cli", argv, 1, EXIT_OK,
                  functools.partial(check_simon, n=self.N, period=period, trials=1))


class WideRegister(Workload):
    """DJ and Grover at n = 10-12: dense readout observables, few trials."""
    name = "wide-register"
    # (command, n, DJ constant value / Grover marked count, trials). Costs sit in
    # three tiers: one grover n=12 op, two grover n=11 ops, four n=10 ops. With
    # whole cycles the median falls inside the n=10 tier, and the op with ten
    # ops beyond it inside the n=11 tier for 4 to 10 cycles a run.
    SHAPES = (("dj", 10, None, 2), ("grover", 11, 2, 3), ("dj", 10, 0, 2),
              ("grover", 10, 1, 3), ("grover", 12, 2, 2), ("grover", 11, 1, 3),
              ("grover", 10, 3, 3))
    cycle = len(SHAPES)

    def op(self, i):
        rng = self.rng(i)
        command, n, param, trials = self.SHAPES[i % self.cycle]
        seed = ("--seed", _cli_seed(rng), "--trials", str(trials))
        if command == "dj":
            if param is None:
                kind = ("--kind", "balanced")
            else:
                param = rng.randrange(2)
                kind = ("--kind", "constant", "--value", str(param))
            return Op("cli", ("dj", "--n", str(n), *kind, *seed), trials, EXIT_OK,
                      functools.partial(check_dj, n=n, constant_value=param, trials=trials))
        marked = sorted(rng.sample(range(2 ** n), param))
        argv = ("grover", "--n", str(n), "--marked", ",".join(map(str, marked)), *seed)
        return Op("cli", argv, trials, EXIT_OK,
                  functools.partial(check_grover, n=n, marked=marked, trials=trials))


class GeneralObservable(Workload):
    """Library driver on non-diagonal observables with planted degeneracies."""
    name = "general-observable"
    DIMS = (64, 256, 128)
    SAMPLES = 40
    cycle = len(DIMS)

    def op(self, i):
        dim = self.DIMS[i % self.cycle]
        argv = ("--seed", _cli_seed(self.rng(i)), "--dim", str(dim), "--samples", str(self.SAMPLES))
        return Op("observable", argv, sum(observable_samples(self.SAMPLES).values()), EXIT_OK,
                  functools.partial(check_observable, dim=dim, samples=self.SAMPLES))


WORKLOADS = {w.name: w for w in (Teleport, SimonSample, WideRegister, GeneralObservable)}
