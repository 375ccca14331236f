"""Tests of the benchmark itself: correctness gate, span arithmetic, tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import contextlib
import io
import json
import math
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, judge  # noqa: E402


def cli_report(*argv):
    from postulate_sim import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def simon_op(period=0b101):
    return Op("cli", (), 2, 0, lambda r: workloads.check_simon(r, n=3, period=period, trials=2))


# ---------------------------------------------------------------------------
# correctness gate

class TestGate:
    def test_genuine_simon_report_passes(self):
        code, out = cli_report("simon", "--n", "3", "--period", "101", "--trials", "2", "--seed", "4")
        assert judge(simon_op(), code, None, out.encode(), b"") is None

    def test_wrong_period_fails(self):
        code, out = cli_report("simon", "--n", "3", "--period", "101", "--trials", "2", "--seed", "4")
        tampered = out.replace('"101"', '"011"')
        assert tampered != out
        assert "period" in judge(simon_op(), code, None, tampered.encode(), b"")

    def test_declared_period_is_the_reference(self):
        code, out = cli_report("simon", "--n", "3", "--period", "101", "--trials", "2", "--seed", "4")
        assert judge(simon_op(period=0b011), code, None, out.encode(), b"") is not None

    def test_nan_fails(self):
        code, out = cli_report("grover", "--n", "4", "--marked", "3", "--trials", "2")
        report = json.loads(out)
        op = Op("cli", (), 2, 0, lambda r: workloads.check_grover(r, n=4, marked=[3], trials=2))
        assert judge(op, code, None, out.encode(), b"") is None
        report["marked_probability"] = math.nan
        tampered = json.dumps(report)
        assert "NaN" in tampered
        assert "strict JSON" in judge(op, code, None, tampered.encode(), b"")

    def test_wrong_exit_code_fails(self):
        code, out = cli_report("teleport", "--mode", "von-neumann", "--trials", "3")
        assert code == 2
        op = Op("cli", (), 3, workloads.EXIT_BLOCKED,
                lambda r: workloads.check_teleport(r, lueders=False, trials=3))
        assert judge(op, code, None, out.encode(), b"") is None
        assert "exit code" in judge(op, 0, None, out.encode(), b"")

    def test_kill_and_memory_error_fail(self):
        op = Op("cli", (), 1, 0, lambda r: None)
        assert "signal" in judge(op, None, 9, b"{}", b"")
        assert judge(op, 0, None, b"{}", b"Traceback\nMemoryError\n") == "MemoryError"

    def test_teleport_fidelity_and_multiplicities(self):
        code, out = cli_report("teleport", "--alpha=0.6,0", "--beta=0,0.8", "--trials", "20", "--seed", "3")
        op = Op("cli", (), 20, 0, lambda r: workloads.check_teleport(r, lueders=True, trials=20))
        assert judge(op, code, None, out.encode(), b"") is None
        report = json.loads(out)
        report["outcomes"][5]["fidelity"] = 1 - 1e-6
        assert "fidelity" in judge(op, code, None, json.dumps(report).encode(), b"")

        code, out = cli_report("teleport", "--mode", "von-neumann", "--trials", "4")
        report = json.loads(out)
        report["blocked"]["multiplicities"] = [2, 2, 4]
        op = Op("cli", (), 4, 2, lambda r: workloads.check_teleport(r, lueders=False, trials=4))
        assert "blocked" in judge(op, code, None, json.dumps(report).encode(), b"")

    def test_dj_zero_probability_reference(self):
        code, out = cli_report("dj", "--n", "5", "--kind", "constant", "--value", "1", "--trials", "2")
        op = Op("cli", (), 2, 0, lambda r: workloads.check_dj(r, n=5, constant_value=1, trials=2))
        assert judge(op, code, None, out.encode(), b"") is None
        report = json.loads(out)
        report["zero_probability"] = 0.5
        assert "zero_probability" in judge(op, code, None, json.dumps(report).encode(), b"")

    def test_grover_reference_is_exact_formula(self):
        k, p = workloads.grover_reference(2, 1)
        assert k == 1 and p == pytest.approx(1.0)

    def test_observable_driver_report(self):
        import observable_op
        report = observable_op.run(seed=5, dim=32, samples=6)
        op = Op("observable", (), 30, 0, lambda r: workloads.check_observable(r, dim=32, samples=6))
        text = json.dumps(report)
        assert judge(op, 0, None, text.encode(), b"") is None
        report["born_probabilities"][0] += 1e-3
        assert "Born" in judge(op, 0, None, json.dumps(report).encode(), b"")


# ---------------------------------------------------------------------------
# span arithmetic

def span(name, start, end, parent):
    return [name, start, end, parent]


class TestSpans:
    # cli.main [0, 10]
    #   algorithms.simon [1, 9]
    #     measurement.partial_measure [2, 5]
    #       hilbert.StateVector.__init__ [3, 4]
    #     measurement.partial_measure [6, 8]
    #   cli.emit_report [9, 10]
    SPANS = [
        span("cli.main", 0.0, 10.0, -1),
        span("algorithms.simon", 1.0, 9.0, 0),
        span("measurement.partial_measure", 2.0, 5.0, 1),
        span("hilbert.StateVector.__init__", 3.0, 4.0, 2),
        span("measurement.partial_measure", 6.0, 8.0, 1),
        span("cli.emit_report", 9.0, 10.0, 0),
    ]

    def test_self_times(self):
        s = tracing.summarize(self.SPANS)
        assert s["names"]["cli.main"] == {"calls": 1, "s": 10.0, "self_s": 1.0}
        assert s["names"]["algorithms.simon"]["self_s"] == pytest.approx(3.0)
        assert s["names"]["measurement.partial_measure"] == {"calls": 2, "s": 5.0, "self_s": 4.0}
        assert s["layer_self_s"] == pytest.approx(
            {"cli": 2.0, "algorithms": 3.0, "measurement": 4.0, "hilbert": 1.0})
        # self times partition the root span
        assert sum(s["layer_self_s"].values()) == pytest.approx(10.0)
        assert s["simon_samples"] == 2
        assert s["groups"]["algorithms.trial"] == {"calls": 1, "s": 8.0}

    def test_nested_members_are_not_counted_twice(self):
        spans = [span("hilbert.tensor_many", 0.0, 4.0, -1),
                 span("hilbert.tensor_state", 1.0, 2.0, 0),
                 span("hilbert.tensor_state", 2.0, 3.0, 0),
                 span("hilbert.tensor_state", 5.0, 6.0, -1)]
        s = tracing.summarize(spans)
        assert s["groups"]["hilbert.tensor"] == {"calls": 4, "s": 5.0}
        assert s["names"]["hilbert.tensor_state"]["s"] == 3.0

    def test_merge_and_per_op_means(self):
        one = tracing.summarize(self.SPANS, {"cli.report_bytes": 100})
        total = run.merge_traces([one, one])
        assert total["names"]["measurement.partial_measure"]["calls"] == 4
        assert total["counters"]["cli.report_bytes"] == 200
        untraced = [run.OpResult(None, 9.0, 0, b"", None, ref_s=1.0)] * 2
        traced = [run.OpResult(None, 9.0, 0, b"", None, one, ref_s=1.5)] * 2
        metrics = run.per_layer(untraced, traced)
        assert metrics["measurement.partial_measure_calls"] == 2
        assert metrics["measurement.partial_measure_s"] == pytest.approx(5.0)
        assert metrics["cli.report_bytes"] == 100
        assert metrics["measurement.prob_vectors_per_sample"] == 1.0
        assert metrics["trace.overhead_s"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# tracer

class TestTracer:
    @pytest.fixture
    def tracer(self):
        t = tracing.Tracer()
        t.install()
        yield t
        t.uninstall()

    def test_every_importing_namespace_is_patched(self, tracer):
        import postulate_sim
        from postulate_sim import algorithms, cli, hilbert, measurement, protocols
        wrapped = measurement.measure
        assert getattr(wrapped, "__wrapped_by_perfbench__", False)
        for ns in (algorithms, protocols, cli, postulate_sim):
            assert ns.measure is wrapped, ns.__name__
        assert algorithms.partial_measure is measurement.partial_measure
        assert protocols.tensor_state is hilbert.tensor_state
        assert getattr(hilbert.tensor_state, "__wrapped_by_perfbench__", False)

    def test_calls_through_other_modules_are_recorded(self, tracer):
        import numpy as np
        from postulate_sim import protocols
        from postulate_sim.measurement import SemanticsMode
        psi = protocols.StateVector([0.6, 0.8])
        protocols.teleport(psi, SemanticsMode.LUEDERS, np.random.default_rng(0))
        names = {s[tracing.NAME] for s in tracer.spans}
        assert {"protocols.teleport", "measurement.measure", "hilbert.tensor_state",
                "hilbert.StateVector.__init__", "protocols.bell_state"} <= names

    def test_aliases_share_one_wrapper_and_uninstall_restores(self):
        from postulate_sim import kernels, measurement
        original = measurement.measure
        t = tracing.Tracer()
        t.install()
        try:
            assert kernels.gf2_rref is kernels.gf2_rref_numpy
            assert kernels.gf2_rref.__name__ == "gf2_rref_numpy"
        finally:
            t.uninstall()
        assert measurement.measure is original
        from postulate_sim import algorithms
        assert algorithms.measure is original


# ---------------------------------------------------------------------------
# harness

def test_tail_has_ten_ops_beyond():
    walls = [float(i) for i in range(1, 41)]
    value, pct = run.tail(walls)
    assert value == 30.0 and sum(w > value for w in walls) == 10 and pct == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.units(trace=False)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.units(trace=True)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_workloads_are_seeded():
    for cls in workloads.WORKLOADS.values():
        a, b, c = cls(7, Path("w")), cls(7, Path("w")), cls(8, Path("w"))
        ops = [w.op(i).argv for w in (a, b, c) for i in range(cls.cycle)]
        n = cls.cycle
        assert ops[:n] == ops[n:2 * n] != ops[2 * n:]


def test_runner_times_and_checks_ops(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 60)
    ok = runner.run(run.VERSION_OP)
    assert ok.problem is None and ok.wall_s > 0 and ok.maxrss_kb > 0
    op = workloads.WORKLOADS["teleport"](1, tmp_path).op(1)
    blocked = runner.run(op)
    assert blocked.problem is None
    again = runner.run(op)
    run.flag_if_different(blocked, again, "differs")
    assert again.problem is None
    again.stdout += b" "
    run.flag_if_different(blocked, again, "differs")
    assert again.problem == "differs"


def test_op_times_are_scaled_to_the_reference_speed(tmp_path, monkeypatch):
    # the probes take twice their reference times: the host runs at half speed
    monkeypatch.setattr(run, "arith_probe", lambda: 2 * run.ARITH_REF_S)
    monkeypatch.setattr(run, "walk_probe", lambda: 2 * run.WALK_REF_S)
    runner = run.Runner(tmp_path, time.monotonic() + 60)
    probes = [runner.run(run.VERSION_OP) for _ in range(3)]
    for r in probes:
        assert r.ref_s == pytest.approx(r.wall_s / 2)
    metrics = run.end_to_end(probes, probes)
    assert metrics["setup_s"] == pytest.approx(sorted(r.wall_s for r in probes)[1] / 2)
    assert metrics["op_p50_s"] == metrics["setup_s"]
    assert runner.env["OPENBLAS_NUM_THREADS"] == "1"


def test_memory_guard_fails_the_op(tmp_path):
    # grover --n 11 needs about 400 MB of address space; under a 300 MB cap
    # its allocation fails inside the child, which the gate reports
    runner = run.Runner(tmp_path, time.monotonic() + 60, as_limit=300 * 2 ** 20)
    op = workloads.WORKLOADS["wide-register"](1, tmp_path).op(1)
    assert op.argv[:3] == ("grover", "--n", "11")
    result = runner.run(op)
    assert result.problem in ("MemoryError", "exit code 1, expected 0")
