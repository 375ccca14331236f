"""Benchmark of postulate-sim: seeded workloads of one-process ops.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from anywhere; the package is imported from `src/` next to this
directory, so nothing needs installing. An op is one fresh Python process:
a `postulate-sim` command, or the general-observable driver
(`observable_op.py`). Ops run one at a time in a closed loop with a single
client, in whole cycles of the workload for about `--seconds`. Each
op is timed from spawn to exit, its peak RSS is read from `os.wait4`, its
address space is capped, and its output is checked against references
computed here (see workloads.py).

The run is pinned to one CPU, its ops run numpy with one BLAS thread, and
two fixed pure-Python probes are timed in this process while every op runs:
the end-to-end times are op wall times scaled to a host on which the probes
take ARITH_REF_S and WALK_REF_S, which cancels most of the drift of a shared
host's speed.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs the ops of half
the time untraced, then the same ops again with every public function of
the package wrapped in spans (tracing.py), and reports per-layer metrics as
means per op. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it record
the environment and every metric with its unit, op count and error rate.
`--all` runs both modes on every workload and prints all of that.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from tracing import PROB_VECTOR_CALLS, SAMPLE_CALLS  # noqa: E402
from workloads import WORKLOADS, Op, judge  # noqa: E402

# Address-space cap of each op. Today's widest op (grover --n 12) peaks at
# about 1.1 GB of address space; a regression past the cap fails that op
# instead of exhausting a shared machine.
AS_LIMIT = 3 * 2 ** 30
# setup_s probes: one every SETUP_EVERY_S of the window, so they sample the same
# stretch of machine time as the ops, and at least SETUP_MIN of them
SETUP_EVERY_S = 2.0
SETUP_MIN = 5
TAIL_BEYOND = 10          # op_tail_s: highest percentile with this many ops beyond it
OP_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0      # a run stops starting ops after this, so it exits within 180 s
# every op runs numpy single-threaded: on a few shared cores, extra BLAS
# threads spin against the op's own thread and time the scheduler
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Host speed. A shared host's speed drifts by 20 % and more within seconds
# and over minutes, so raw wall times of runs made at different moments
# differ by more than any useful bound. While an op runs, this process times
# two probes of PROBE_N steps on the CPU the op runs on, alternating every
# PROBE_EVERY_S (about 4 % of the CPU): an arithmetic loop that stays in the
# core's caches, and a walk over a shuffled list of floats that misses them.
# An op's slowness is the geometric mean of the probes' mean times over their
# reference times (about a 2-vCPU VM's medians); its wall time divided by
# that is the time it would take on the reference host. The probes use
# thread CPU time, so waiting for the CPU while the op runs is not counted.
PROBE_N = 10_000
PROBE_EVERY_S = 0.025
ARITH_REF_S = 0.001
WALK_REF_S = 0.0011
# 13 full walks of PROBE_N floats, about 4 MB with the list: past L2, in L3.
# Kept small because an op's peak RSS counts this process's pages until exec.
WALK_LEN = 13 * PROBE_N
WALK_OFFSETS = itertools.count(0, PROBE_N)


@functools.lru_cache(maxsize=None)
def walk_data() -> list:
    rng = random.Random(0)
    data = [rng.random() for _ in range(WALK_LEN)]
    rng.shuffle(data)
    return data


def arith_probe() -> float:
    start = time.thread_time()
    acc = 0
    for i in range(PROBE_N):
        acc += i * i % 7
    return time.thread_time() - start


def walk_probe() -> float:
    data = walk_data()
    offset = next(WALK_OFFSETS) % len(data)
    start = time.thread_time()
    acc = 0.0
    for x in data[offset:offset + PROBE_N]:
        acc += x
    return time.thread_time() - start


def sample_speed(arith: list, walk: list, stop: threading.Event) -> None:
    """Alternate the probes every PROBE_EVERY_S until `stop` is set."""
    while not stop.wait(PROBE_EVERY_S):
        if len(arith) <= len(walk):
            arith.append(arith_probe())
        else:
            walk.append(walk_probe())


def slowness(arith: list, walk: list) -> float:
    """How many times longer the probes took than on the reference host."""
    return math.sqrt(statistics.mean(arith) / ARITH_REF_S * statistics.mean(walk) / WALK_REF_S)


def prelude(as_limit: int) -> str:
    """Child-side start of every op: cap its address space, find the benchmark modules."""
    return ("import resource, sys; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({as_limit}, {as_limit})); "
            f"sys.path.insert(1, {str(BENCH)!r}); ")


# the cli entry is what the `postulate-sim` console script runs
ENTRY = {"cli": "from postulate_sim.cli import main; sys.exit(main())",
         "observable": "from observable_op import main; sys.exit(main())"}
VERSION_OP = Op("cli", ("--version",), 0, 0, check=None)
ENV_PROBE = ("import json, numpy, postulate_sim; from postulate_sim import kernels; "
             "print(json.dumps({'numpy': numpy.__version__, 'postulate_sim': postulate_sim.__version__, "
             "'USE_NUMBA': bool(getattr(kernels, 'USE_NUMBA', False))}))")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "trials_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MiB",
}


@dataclass
class OpResult:
    op: Op
    wall_s: float             # measured wall time
    maxrss_kb: int
    stdout: bytes
    problem: Optional[str]
    trace: Optional[dict] = None
    ref_s: float = 0.0        # wall time scaled to the reference host speed


class Runner:
    """Spawns ops one at a time and records what each did."""

    def __init__(self, workdir: Path, deadline: float, as_limit: int = AS_LIMIT):
        self.workdir = workdir
        self.deadline = deadline
        self.prelude = prelude(as_limit)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env.update(dict.fromkeys(BLAS_ENV, "1"))
        self.results: list[OpResult] = []   # every op run, for attempted / failed
        walk_data()  # built before the first op is timed

    def spawn(self, code: str, argv, timeout: float):
        """Run `python -c code argv...`; return wall, exit code (-signal if killed),
        rusage, stdout, stderr, and its slowness (see PROBE_N)."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        arith, walk, stop = [], [], threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", code, *argv], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            sampler = threading.Thread(target=sample_speed, args=(arith, walk, stop))
            sampler.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                wall = time.perf_counter() - start
                stop.set()
                sampler.join()
                timer.cancel()
        if not walk:  # an op shorter than two probe intervals: probe right after it
            arith.append(arith_probe())
            walk.append(walk_probe())
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, proc.returncode, usage, out_path.read_bytes(), err_path.read_bytes(),
                slowness(arith, walk))

    def run(self, op: Op, traced: bool = False) -> OpResult:
        timeout = max(1.0, min(OP_TIMEOUT_S, self.deadline + 20.0 - time.monotonic()))
        trace_path = self.workdir / "trace.json"
        if traced:
            code = self.prelude + ("import tracing; "
                                   f"sys.exit(tracing.run_traced({str(trace_path)!r}, {op.driver!r}))")
            trace_path.unlink(missing_ok=True)
        else:
            code = self.prelude + ENTRY[op.driver]
        wall, code_or_signal, usage, stdout, stderr, slow = self.spawn(code, op.argv, timeout)
        exit_code, killed_by = (code_or_signal, None) if code_or_signal >= 0 else (None, -code_or_signal)
        problem = judge(op, exit_code, killed_by, stdout, stderr)
        trace = None
        if traced:
            try:
                trace = json.loads(trace_path.read_text())
            except (OSError, ValueError):
                problem = problem or "traced op wrote no span summary"
        result = OpResult(op, wall, usage.ru_maxrss, stdout, problem, trace, wall / slow)
        self.results.append(result)
        if problem:
            print(f"FAILED op {' '.join(op.argv)}: {problem}", file=sys.stderr)
            if stderr:
                print(stderr.decode(errors="replace")[-2000:], file=sys.stderr)
        return result

    def window(self, workload, seconds: float, deadline: float,
               probes: Optional[list] = None) -> list[OpResult]:
        """Whole cycles of the workload, ending at the cycle boundary nearest to
        `seconds` (or at the deadline).

        With `probes`, a `postulate-sim --version` runs between ops every
        SETUP_EVERY_S and its result is appended there.
        """
        results, start = [], time.monotonic()
        last_probe = -SETUP_EVERY_S
        while True:
            cycle_start = time.monotonic()
            for _ in range(workload.cycle):
                if probes is not None and time.monotonic() - last_probe >= SETUP_EVERY_S:
                    last_probe = time.monotonic()
                    probes.append(self.run(VERSION_OP))
                results.append(self.run(workload.op(len(results))))
                if time.monotonic() > deadline:
                    return results
            now = time.monotonic()
            if now - start + (now - cycle_start) / 2 >= seconds:
                return results

    def prepare(self, workload) -> None:
        for code, argv in workload.prepare():
            _, exit_code, _, _, stderr, _ = self.spawn(self.prelude + code, argv, OP_TIMEOUT_S)
            if exit_code != 0:
                raise SystemExit(f"perfbench: preparing {workload.name} failed:\n{stderr.decode()}")


def flag_if_different(first: OpResult, again: OpResult, problem: str) -> None:
    """Determinism gate: identical argv must print byte-identical stdout."""
    if again.stdout != first.stdout and not again.problem:
        again.problem = problem
        print(f"FAILED op {' '.join(again.op.argv)}: {problem}", file=sys.stderr)


# ---------------------------------------------------------------------------
# metrics

def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(probes: list[OpResult], ops: list[OpResult]) -> dict:
    """End-to-end metrics; times are reference-speed times (OpResult.ref_s)."""
    walls = [r.ref_s for r in ops]
    value, _ = tail(walls)
    return {
        "setup_s": statistics.median(r.ref_s for r in probes),
        "trials_per_s": sum(r.op.trials for r in ops if not r.problem) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": value,
        "peak_rss_mb": max(r.maxrss_kb for r in ops) / 1024.0,
    }


def merge_traces(traces: list[dict]) -> dict:
    """Sum per-op span summaries."""
    total = {"names": {}, "groups": {}, "layer_self_s": {}, "simon_samples": 0, "counters": {}}
    for trace in traces:
        for section in ("names", "groups"):
            for key, entry in trace[section].items():
                acc = total[section].setdefault(key, {})
                for field, value in entry.items():
                    acc[field] = acc.get(field, 0) + value
        for section in ("layer_self_s", "counters"):
            for key, value in trace[section].items():
                total[section][key] = total[section].get(key, 0) + value
        total["simon_samples"] += trace["simon_samples"]
    return total


def _name(t, key, field="s"):
    return t["names"].get(key, {}).get(field, 0)


def _group(t, key, field="s"):
    return t["groups"].get(key, {}).get(field, 0)


def _ratio(t):
    samples = sum(_name(t, k, "calls") for k in SAMPLE_CALLS)
    return sum(_name(t, k, "calls") for k in PROB_VECTOR_CALLS) / samples if samples else 0.0


# name -> (unit, value from summed spans); all but the ratio are divided by the op count
PER_LAYER = {
    "cli.main_s": ("s/op", lambda t: _name(t, "cli.main")),
    "cli.self_s": ("s/op", lambda t: t["layer_self_s"].get("cli", 0.0)),
    "cli.emit_report_s": ("s/op", lambda t: _name(t, "cli.emit_report")),
    "cli.report_bytes": ("B/op", lambda t: t["counters"].get("cli.report_bytes", 0)),
    "protocols.teleport_calls": ("calls/op", lambda t: _name(t, "protocols.teleport", "calls")),
    "protocols.teleport_s": ("s/op", lambda t: _name(t, "protocols.teleport")),
    "protocols.teleport_self_s": ("s/op", lambda t: _name(t, "protocols.teleport", "self_s")),
    "protocols.bell_state_calls": ("calls/op", lambda t: _name(t, "protocols.bell_state", "calls")),
    "algorithms.oracle_build_s": ("s/op", lambda t: _group(t, "algorithms.oracle_build")),
    "algorithms.argument_observable_s": ("s/op", lambda t: _name(t, "algorithms.argument_observable")),
    "algorithms.final_state_s": ("s/op", lambda t: _group(t, "algorithms.final_state")),
    "algorithms.trial_calls": ("calls/op", lambda t: _group(t, "algorithms.trial", "calls")),
    "algorithms.trial_s": ("s/op", lambda t: _group(t, "algorithms.trial")),
    "algorithms.self_s": ("s/op", lambda t: t["layer_self_s"].get("algorithms", 0.0)),
    "algorithms.simon_samples": ("samples/op", lambda t: t["simon_samples"]),
    "algorithms.gf2_solve_s": ("s/op", lambda t: _name(t, "algorithms.gf2_solve")),
    "kernels.dj_amplitudes_s": ("s/op", lambda t: _name(t, "kernels.dj_argument_amplitudes")),
    "kernels.simon_amplitudes_s": ("s/op", lambda t: _name(t, "kernels.simon_state_amplitudes")),
    "kernels.grover_amplitudes_s": ("s/op", lambda t: _name(t, "kernels.grover_amplitudes")),
    "kernels.gf2_rref_calls": ("calls/op", lambda t: _name(t, "kernels.gf2_rref", "calls")),
    "kernels.gf2_rref_s": ("s/op", lambda t: _name(t, "kernels.gf2_rref")),
    "measurement.measure_calls": ("calls/op", lambda t: _name(t, "measurement.measure", "calls")),
    "measurement.measure_s": ("s/op", lambda t: _name(t, "measurement.measure")),
    "measurement.partial_measure_calls": (
        "calls/op", lambda t: _name(t, "measurement.partial_measure", "calls")),
    "measurement.partial_measure_s": ("s/op", lambda t: _name(t, "measurement.partial_measure")),
    "measurement.partial_probabilities_calls": (
        "calls/op", lambda t: _name(t, "measurement.partial_probabilities", "calls")),
    "measurement.partial_probabilities_s": ("s/op", lambda t: _name(t, "measurement.partial_probabilities")),
    "measurement.born_probabilities_calls": (
        "calls/op", lambda t: _name(t, "measurement.born_probabilities", "calls")),
    "measurement.born_probabilities_s": ("s/op", lambda t: _name(t, "measurement.born_probabilities")),
    "measurement.lift_s": ("s/op", lambda t: _name(t, "measurement.lift")),
    "measurement.build_refinement_s": ("s/op", lambda t: _name(t, "measurement.build_refinement")),
    "measurement.self_s": ("s/op", lambda t: t["layer_self_s"].get("measurement", 0.0)),
    "measurement.prob_vectors_per_sample": ("vectors/sample", _ratio),
    "hilbert.state_calls": ("calls/op", lambda t: _name(t, "hilbert.StateVector.__init__", "calls")),
    "hilbert.state_s": ("s/op", lambda t: _name(t, "hilbert.StateVector.__init__")),
    "hilbert.observable_calls": ("calls/op", lambda t: _name(t, "hilbert.Observable.__init__", "calls")),
    "hilbert.observable_s": ("s/op", lambda t: _name(t, "hilbert.Observable.__init__")),
    "hilbert.observable_bytes": ("B/op", lambda t: t["counters"].get("hilbert.observable_bytes", 0)),
    "hilbert.spectral_decompose_calls": (
        "calls/op", lambda t: _name(t, "hilbert.spectral_decompose", "calls")),
    "hilbert.spectral_decompose_s": ("s/op", lambda t: _name(t, "hilbert.spectral_decompose")),
    "hilbert.tensor_s": ("s/op", lambda t: _group(t, "hilbert.tensor")),
}
PER_OP_EXEMPT = {"measurement.prob_vectors_per_sample"}


def per_layer(untraced: list[OpResult], traced: list[OpResult]) -> dict:
    total = merge_traces([r.trace for r in traced if r.trace])
    n = len(traced)
    metrics = {name: value(total) / (1 if name in PER_OP_EXEMPT else n)
               for name, (_, value) in PER_LAYER.items()}
    metrics["trace.overhead_s"] = (sum(r.ref_s for r in traced) - sum(r.ref_s for r in untraced)) / n
    return metrics


def units(trace: bool) -> dict:
    if trace:
        return {**{name: unit for name, (unit, _) in PER_LAYER.items()}, "trace.overhead_s": "s/op"}
    return dict(END_TO_END)


# ---------------------------------------------------------------------------
# one run

def environment(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "postulate_sim").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = git.stdout.strip() or None
    _, code, _, stdout, stderr, _ = runner.spawn(ENV_PROBE, [], OP_TIMEOUT_S)
    if code != 0:
        raise SystemExit(f"perfbench: cannot import postulate_sim from {SRC}:\n{stderr.decode()}")
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        **json.loads(stdout),
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "blas_env": {key: runner.env.get(key) for key in BLAS_ENV},
        "speed_probes": {"steps": PROBE_N, "every_s": PROBE_EVERY_S,
                         "arith_ref_s": ARITH_REF_S, "walk_ref_s": WALK_REF_S},
        "address_space_limit": AS_LIMIT,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run: the contract's result object, and details for the printed summary."""
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    cpus = os.sched_getaffinity(0)
    try:
        runner = Runner(workdir, deadline)
        env = environment(runner, name, seed, seconds, trace)
        print(json.dumps({"environment": env}, sort_keys=True))
        # ops inherit the pin, so the reference loop times the CPU they run on
        os.sched_setaffinity(0, {env["pinned_cpu"]})
        workload = WORKLOADS[name](seed, workdir)
        runner.prepare(workload)
        if trace:
            untraced = runner.window(workload, seconds / 2, started + RUN_BUDGET_S / 2)
            traced = []
            for before in untraced:
                traced.append(runner.run(before.op, traced=True))
                flag_if_different(before, traced[-1], "traced report differs from the untraced one")
                if time.monotonic() > deadline:
                    break
            metrics = per_layer(untraced[:len(traced)], traced)
            detail = {"ops": len(traced)}
        else:
            runner.run(VERSION_OP)  # warm-up: byte-compiles the package on a fresh checkout
            probes = []
            ops = runner.window(workload, seconds, deadline, probes)
            flag_if_different(ops[0], runner.run(ops[0].op), "repeated op printed a different report")
            while len(probes) < SETUP_MIN:
                probes.append(runner.run(VERSION_OP))
            metrics = end_to_end(probes, ops)
            _, percentile = tail([r.ref_s for r in ops])
            detail = {"ops": len(ops), "op_tail_percentile": percentile,
                      "ops_beyond_tail": round(len(ops) * (100.0 - percentile) / 100.0),
                      "setup_probes": len(probes),
                      "host_speed": statistics.median(r.ref_s / r.wall_s for r in ops),  # 1 / slowness
                      "unscaled_op_p50_s": statistics.median(r.wall_s for r in ops),
                      "unscaled_setup_s": statistics.median(r.wall_s for r in probes)}
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    failed = sum(1 for r in runner.results if r.problem)
    result = {
        "correct": failed == 0,
        "attempted": len(runner.results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units(trace)[k]} for k, v in metrics.items()},
    }
    detail.update(error_rate=failed / len(runner.results), wall_s=time.monotonic() - started)
    return result, detail


def print_metrics(name: str, trace: bool, result: dict, detail: dict) -> None:
    mode = "traced" if trace else "end-to-end"
    print(f"# {name} ({mode}): " + ", ".join(f"{k}={v}" for k, v in detail.items()))
    for key, metric in result["metrics"].items():
        print(f"{name:20s} {key:42s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{name:20s} {'error_rate':42s} {detail['error_rate']:>16.6g} failed/attempted")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running op is killed and reaped and the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    if not (SRC / "postulate_sim" / "cli.py").is_file():
        print(f"perfbench: no postulate_sim package under {SRC}", file=sys.stderr)
        return 1

    if not args.all:
        result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_metrics(args.workload, bool(args.trace), result, detail)
        print(json.dumps(result))
        return 0

    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result, detail = run_workload(name, args.seed, args.seconds, trace)
            print_metrics(name, trace, result, detail)
            ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
