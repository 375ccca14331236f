import errno
import gc
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

from postulate_sim import algorithms as alg
from postulate_sim import cli, commands, kernels, protocols


TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
# address-space cap of a child: enough for the interpreter and numpy, so a
# regression that allocates a huge array fails the test instead of the machine
AS_LIMIT = 2 ** 30


@pytest.fixture(autouse=True)
def plain_json_reference(monkeypatch):
    """Every JSON report a test here produces, in-process, must be the plain
    `json.dumps` text, which `emit_report` builds from once-encoded entries."""
    emit = cli.emit_report

    def checked(report, fmt="json"):
        text = emit(report, fmt)
        if fmt == "json":
            plain = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
            if text != plain:
                # no assert: pytest's diff of two long reports takes minutes
                at = next(i for i, (x, y) in enumerate(zip(text + "\0", plain)) if x != y)
                pytest.fail(f"emit_report differs from json.dumps at {at}: "
                            f"{text[at - 40:at + 40]!r} != {plain[at - 40:at + 40]!r}")
        return text

    monkeypatch.setattr(cli, "emit_report", checked)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv, timeout=60.0):
    """Run `postulate-sim argv` in a child under RLIMIT_AS; return its exit code,
    stdout, stderr and peak RSS in KiB (the child's own rusage, from wait4)."""
    return run_limited("from postulate_sim.cli import main; sys.exit(main())", *argv,
                       timeout=timeout)


def run_limited(code, *argv, timeout=60.0, stdout=None):
    """Run Python `code` with `argv` in a child under RLIMIT_AS, with the
    package and this directory importable; return as `run_cli_process`. An
    open file `stdout` takes the child's stdout, and the stdout returned is
    then empty."""
    code = ("import resource, sys; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({AS_LIMIT}, {AS_LIMIT})); " + code)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                                stdin=subprocess.DEVNULL, stdout=stdout or out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss


class TestTeleportCommand:
    def test_lueders_success(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--mode", "lueders", "--alpha", "0.6,0",
            "--beta", "0.8,0", "--trials", "200", "--seed", "7",
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "postulate-sim/1"
        assert report["blocked"] is None
        for p in report["born_probabilities"].values():
            assert p == pytest.approx(0.25, abs=1e-10)
        for trial in report["outcomes"]:
            assert trial["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_von_neumann_blocked_exit_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--mode", "von-neumann", "--alpha", "0.6,0",
            "--beta", "0.8,0", "--trials", "3",
        )
        assert code == 2
        report = json.loads(out)
        assert report["blocked"]["multiplicities"] == [2, 2, 2, 2]
        assert all(not t["determined"] for t in report["outcomes"])

    def test_renormalization_warning(self, capsys):
        code, _, err = run_cli(capsys, "teleport", "--alpha", "3,0", "--beta", "4,0")
        assert code == 0
        assert "renormalizing" in err

    def test_frequencies_converge(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--alpha", "0.6,0", "--beta", "0.8,0",
            "--trials", "10000", "--seed", "3",
        )
        report = json.loads(out)
        for freq in report["frequencies"].values():
            assert abs(freq - 0.25) < 0.02


def report_digest(code, out):
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


# sha256 of (exit code, stdout) per argv, recorded before the trial loops
# drew from one prepared state: any change to the draw order or to the report
# bytes shows here. The two teleport digests were re-recorded when the Bell
# basis became a local readout, and again when it was stated instead of
# solved by `eigh`; each time only the rounding of born_probabilities and
# fidelity moved
PINNED_REPORTS = {
    ("teleport", "--alpha", "0.6,0", "--beta", "0,0.8", "--trials", "50", "--seed", "11"):
        "bd3268917d77f055c2e4b469b32ab4e52064effc85f15fa3a899d1282ee8dec5",
    ("grover", "--n", "3", "--marked", "2,5", "--trials", "20", "--seed", "4"):
        "31cbbc37dc0c7c2d30c6d121c61ab03d7ac84db153aa8e9863213fdab63e279d",
    ("measure", "--observable", "x", "--alpha", "0.6,0", "--beta", "0.8,0",
     "--trials", "30", "--seed", "9"):
        "18402dd46f4b26f600443def75f279ec0e9c77c0e9f35e2484aaddf1e4fd5fec",
    ("dj", "--n", "4", "--kind", "balanced", "--seed", "2", "--trials", "5"):
        "0d7ed413b731e37a9bc1ebd904d3e5af5d9f3a91ba28487eee34748808fefd2a",
    ("simon", "--n", "4", "--period", "1011", "--trials", "6", "--seed", "5"):
        "fafd7f2e6a50c7d32bcbb8a398a1c300a0a7519e42e3ef94c0293892589fcf5c",
    ("simon", "--oracle", "s101.txt", "--trials", "4", "--seed", "3"):
        "40abd283d1ba91fd97c4ac1def43d937df1c7492cad3e49769c03507ff247a02",
    ("teleport", "--mode", "von-neumann", "--alpha", "0.6,0", "--beta", "0.8,0",
     "--trials", "40", "--seed", "2"):
        "553eddbe9fe0444dbc211e4ec4662513082e80f9f1cbf6232b39e0800c533d1a",
    ("measure", "--mode", "von-neumann", "--observable", "y", "--alpha", "0.6,0",
     "--beta", "0,0.8", "--trials", "30", "--seed", "8"):
        "b741c6f83537aa020a6a791b52bd7bf53ad7e80db0faf6b0e81a830794d0f5f1",
}


# `measure` over each Pauli in both modes, on a complex input, recorded while
# `eigh` still solved the Paulis: their stated bases must keep these bytes
MEASURE_REPORTS = {
    ("measure", "--observable", name, "--mode", mode, "--alpha", "0.48,0.64",
     "--beta", "-0.36,0.48", "--trials", "30", "--seed", "5"): digest
    for name, mode, digest in [
        ("x", "lueders", "99c3541bc5fbaaee6e74b6ce60114d6c3da0ca2d38f5a343a8aa5b42237dc9b6"),
        ("x", "von-neumann", "71f1503cd0ef98b5b18841e3e3a8ad4b5f9f1c737b54447576ce0fdaa152ecb5"),
        ("y", "lueders", "bc0970824e46d5cf622cb0600b17558186e325c742085a6d25f658c039ebaa7f"),
        ("y", "von-neumann", "f17005584785999031905f2314a6e4b1df227425162725f781f33aa6d8f45ba9"),
        ("z", "lueders", "01e312c9c834fc753bef08ad6802b18cc69fc145d7bc2c87644fa4dbc0786bd8"),
        ("z", "von-neumann", "3833b1e149b4b4f8740c2eea17a4e4de6c4c4c2d2eb3e3ed3f275c893ba0d925"),
    ]
}


class TestDeterminism:
    @pytest.mark.parametrize("argv", list(PINNED_REPORTS))
    def test_byte_identical_reports(self, capsys, monkeypatch, tmp_path, argv):
        # a relative oracle path, so the echoed config does not depend on tmp_path
        monkeypatch.chdir(tmp_path)
        alg.save_oracle(alg.simon_oracle(3, 0b101, np.random.default_rng(6)), "s101.txt")
        code, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        assert report_digest(code, first) == PINNED_REPORTS[argv]

    def test_no_report_needs_an_eigensolver(self, capsys, monkeypatch, tmp_path):
        """Every basis a command reads is stated: with `eigh` raising, each
        pinned report and `measure` over every Pauli in both modes keep their
        bytes. The Bell observable is built afresh, under the raising `eigh`."""
        from postulate_sim import protocols
        monkeypatch.chdir(tmp_path)
        alg.save_oracle(alg.simon_oracle(3, 0b101, np.random.default_rng(6)), "s101.txt")

        def refuse(_):
            raise AssertionError("a CLI run called np.linalg.eigh")
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        protocols.bell_basis_observable.cache_clear()
        for argv, digest in {**PINNED_REPORTS, **MEASURE_REPORTS}.items():
            code, out, _ = run_cli(capsys, *argv)
            assert report_digest(code, out) == digest, argv

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "grover", "--n", "2", "--marked", "1", "--trials", "5")
        report = json.loads(out)
        assert json.loads(json.dumps(report, sort_keys=True)) == report


def count_calls(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestPreparedOnce:
    """A run builds its state once; its trials only draw."""

    @pytest.mark.parametrize("argv,kernel", [
        (("grover", "--n", "10", "--marked", "3", "--trials", "50"), "grover_amplitudes"),
        (("dj", "--n", "6", "--kind", "balanced", "--trials", "50"), "dj_argument_amplitudes"),
        (("simon", "--n", "4", "--period", "1011", "--trials", "10"), "simon_state_amplitudes"),
    ])
    def test_kernel_runs_once_per_run(self, capsys, monkeypatch, argv, kernel):
        calls = count_calls(monkeypatch, kernels, kernel)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(json.loads(out)["outcomes"]) == int(argv[-1])
        assert len(calls) == 1

    @pytest.mark.parametrize("mode,exit_code", [("lueders", 0), ("von-neumann", 2)])
    def test_teleport_builds_at_most_four_branches(self, capsys, monkeypatch, mode, exit_code):
        calls = count_calls(monkeypatch, protocols, "TeleportResult")
        code, out, _ = run_cli(capsys, "teleport", "--mode", mode, "--alpha", "0.6,0",
                               "--beta", "0,0.8", "--trials", "1000", "--seed", "5")
        assert code == exit_code
        assert len(json.loads(out)["outcomes"]) == 1000
        assert 1 <= len(calls) <= 4


class TestAlgorithmCommands:
    def test_dj_constant(self, capsys):
        code, out, _ = run_cli(capsys, "dj", "--n", "3", "--kind", "constant", "--value", "1")
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"] == {"constant": 1}
        assert report["zero_probability"] == pytest.approx(1.0, abs=1e-10)

    def test_dj_oracle_file(self, capsys, tmp_path):
        oracle = alg.balanced_oracle(3, np.random.default_rng(5))
        path = tmp_path / "dj.txt"
        alg.save_oracle(oracle, path)
        code, out, _ = run_cli(capsys, "dj", "--oracle", str(path), "--trials", "3")
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"] == {"balanced": 3}

    def test_dj_negative_seed_folds_to_64_bits(self, capsys):
        """The balanced oracle's seed folds as every trial seed does, so -1
        reads as 2^64 - 1 instead of failing in numpy."""
        argv = ("dj", "--n", "3", "--kind", "balanced", "--trials", "4", "--seed")
        code, out, err = run_cli(capsys, *argv, "-1")
        assert code == 0, err
        report = json.loads(out)
        assert report["verdicts"] == {"balanced": 4}
        code, folded, _ = run_cli(capsys, *argv, str(2 ** 64 - 1))
        assert code == 0
        assert json.loads(folded)["outcomes"] == report["outcomes"]

    def test_simon_oracle_file(self, capsys, tmp_path):
        oracle = alg.simon_oracle(3, 0b101, np.random.default_rng(6))
        path = tmp_path / "s101.txt"
        alg.save_oracle(oracle, path)
        code, out, _ = run_cli(capsys, "simon", "--oracle", str(path), "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["hidden_period"] == "101"
        assert report["outcomes"][0]["period"] == "101"
        assert report["all_recovered"] is True

    def test_simon_generated(self, capsys):
        code, out, _ = run_cli(capsys, "simon", "--n", "4", "--period", "1001", "--trials", "3")
        assert code == 0
        assert json.loads(out)["all_recovered"] is True

    def test_grover(self, capsys):
        code, out, _ = run_cli(capsys, "grover", "--n", "2", "--marked", "3", "--trials", "10")
        assert code == 0
        report = json.loads(out)
        assert report["marked_probability"] == pytest.approx(1.0, abs=1e-10)
        assert report["hit_rate"] == 1.0

    def test_measure(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--observable", "z", "--alpha", "0.6,0", "--beta", "0.8,0",
            "--trials", "100", "--seed", "0",
        )
        assert code == 0
        report = json.loads(out)
        assert report["born_probabilities"]["-1.0"] == pytest.approx(0.64, abs=1e-10)
        assert report["born_probabilities"]["1.0"] == pytest.approx(0.36, abs=1e-10)

    @pytest.mark.parametrize("alpha,same_as", [
        ("1e-160,0", "1,0"), ("1e-200,0", "1,0"), ("1e200,0", "1,0"), ("1e308,1e308", "1,1"),
    ])
    def test_measure_rescales_extreme_amplitudes(self, capsys, alpha, same_as):
        """The squares of these amplitudes underflow or overflow (1e308+1e308j
        even in its modulus), yet each input reports as the same state written
        with ordinary amplitudes, apart from the echoed alpha."""
        reports = []
        for a in (alpha, same_as):
            code, out, _ = run_cli(capsys, "measure", "--alpha", a, "--beta", "0,0",
                                   "--trials", "3")
            assert code == 0
            report = json.loads(out)
            del report["config"]["alpha"]
            reports.append(report)
        assert reports[0] == reports[1]

    def test_semantics_independent_outcomes(self, capsys):
        outs = {}
        for mode in ("lueders", "von-neumann"):
            _, out, _ = run_cli(capsys, "grover", "--n", "3", "--marked", "5",
                                "--mode", mode, "--trials", "25", "--seed", "13")
            outs[mode] = json.loads(out)["outcomes"]
        assert outs["lueders"] == outs["von-neumann"]


class TestNegativeValues:
    @pytest.mark.parametrize("argv,exit_code", [
        (("teleport", "--alpha", "-0.6,0", "--beta", "0.8,0", "--trials", "20"), 0),
        (("teleport", "--mode", "von-neumann", "--alpha", "0.6,0", "--beta", "-0.8,-0.1"), 2),
        (("measure", "--observable", "x", "--alpha", "-0.6,0", "--beta", "-0.8,0.1",
          "--trials", "20"), 0),
        (("measure", "--beta", "-1e-3,-inf"), 1),
    ])
    def test_amplitude_as_separate_token(self, capsys, argv, exit_code):
        """`--alpha -0.6,0` reports as `--alpha=-0.6,0` does."""
        joined = []
        for arg in argv:
            if joined and joined[-1] in ("--alpha", "--beta"):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        code, out, err = run_cli(capsys, *argv)
        assert code == exit_code, err
        assert (code, out, err) == run_cli(capsys, *joined)

    @pytest.mark.parametrize("argv", [("teleport",), ("measure",),
                                      ("grover", "--n", "3", "--marked", "5")], ids=lambda a: a[0])
    def test_negative_seed(self, capsys, argv):
        """The parsers that take negative lists still take a negative seed."""
        code, out, err = run_cli(capsys, *argv, "--seed", "-1", "--trials", "5")
        assert code == 0, err
        assert json.loads(out)["config"]["seed"] == -1
        assert (code, out, err) == run_cli(capsys, *argv, "--seed=-1", "--trials", "5")

    @pytest.mark.parametrize("marked,exit_code", [("-1,2", 1), ("-1,2,3", 1), ("-3", 1),
                                                  ("-0,5", 0)])
    def test_marked_as_separate_token(self, capsys, marked, exit_code):
        """`--marked -1,2` reaches the range check, as `--marked=-1,2` does."""
        argv = ("grover", "--n", "3", "--trials", "5")
        code, out, err = run_cli(capsys, *argv, "--marked", marked)
        assert code == exit_code, err
        if exit_code:
            assert "marked indices must lie in [0, 8)" in err
        assert (code, out, err) == run_cli(capsys, *argv, f"--marked={marked}")


README = TESTS.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The arguments of every `postulate-sim` line in the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
            if line.startswith("postulate-sim ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_examples(capsys, monkeypatch, tmp_path, argv):
    """Each documented command runs as written, with the oracle files it
    names; the strict teleport exits 2 and every other command 0."""
    monkeypatch.chdir(tmp_path)
    alg.save_oracle(alg.balanced_oracle(3, np.random.default_rng(5)), "my_oracle.txt")
    alg.save_oracle(alg.simon_oracle(3, 0b101, np.random.default_rng(6)), "s101.txt")
    code, out, err = run_cli(capsys, *argv)
    assert code == (2 if argv[0] == "teleport" and "von-neumann" in argv else 0), err
    assert json.loads(out)["config"]["command"] == argv[0]


class TestErrors:
    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["teleport", "--mode", "bogus"])
        assert exc.value.code == 1

    def test_missing_oracle_exit_1(self, capsys):
        assert cli.main(["simon", "--oracle", "/nonexistent/path.txt"]) == 1

    def test_invalid_oracle_file_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("garbage\n")
        assert cli.main(["dj", "--oracle", str(path)]) == 1

    @pytest.mark.parametrize("text,line", [
        ("00 1\n01 1\n10 0\n11 0\n00 0\n01 0\n", 5),  # balanced, then repeated as constant
        ("0 1\n1 0\n10 1\n11 0\n", 3),                # 1-bit inputs, then 2-bit ones
    ], ids=["repeated", "mixed_widths"])
    def test_inconsistent_oracle_file_exit_1(self, capsys, tmp_path, text, line):
        path = tmp_path / "oracle.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "dj", "--oracle", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"postulate-sim: error: {path}:{line}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command,width,qubits", [("dj", 20, 21), ("simon", 9, 18)])
    def test_oracle_width_checked_on_first_line(self, capsys, tmp_path, command, width, qubits):
        # the width error comes from line 1, before the malformed line 2 is read
        output = "0" if command == "dj" else "0" * width
        path = tmp_path / "wide.txt"
        path.write_text(f"{'0' * width} {output}\nnot an oracle line\n")
        code, out, err = run_cli(capsys, command, "--oracle", str(path))
        assert (code, out) == (1, "")
        assert err == (f"postulate-sim: error: n={width} needs {qubits} qubits; "
                       f"the dimension cap 65536 allows 16\n")

    @pytest.mark.parametrize("period", ["0101", "00000001", "01"])
    def test_period_width_must_be_n(self, capsys, period):
        code, out, err = run_cli(capsys, "simon", "--n", "3", "--period", period)
        assert (code, out) == (1, "")
        assert err == f"postulate-sim: error: period {period} has {len(period)} bits, expected 3\n"

    @pytest.mark.parametrize("period", ["0b101", "1_01", " 101", "101 ", "+101", "-101", "",
                                        "\uff11\uff10\uff11", "2"])
    def test_period_must_be_bits(self, capsys, period):
        code, out, err = run_cli(capsys, "simon", "--n", "3", f"--period={period}")
        assert (code, out) == (1, "")
        assert err == f"postulate-sim: error: expected a bit string of 0s and 1s, got {period!r}\n"

    @pytest.mark.parametrize("x,spelled", [
        (2, "+10 0"), (1, "0b1 0"), (2, "1_0 0"), (2, "\u0660\u0661\u0660 0"),
        (5, "101 +0"), (5, "101 0b0"), (5, "101 0_0"), (5, "101 -0"),
    ])
    def test_oracle_fields_must_be_bits(self, capsys, tmp_path, x, spelled):
        # a constant 3-bit oracle with the line of input x spelled otherwise
        lines = [f"{i:03b} 0" for i in range(8)]
        lines[x] = spelled
        path = tmp_path / "oracle.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "dj", "--oracle", str(path))
        assert (code, out) == (1, "")
        bad = next(field for field in spelled.split() if not set(field) <= {"0", "1"})
        assert err == (f"postulate-sim: error: {path}:{x + 1}: "
                       f"expected a bit string of 0s and 1s, got {bad!r}\n")

    def test_zero_amplitudes_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "measure", "--alpha", "0,0", "--beta", "0,0")
        assert (code, out) == (1, "")
        assert err == "postulate-sim: error: alpha and beta cannot both be zero\n"

    @pytest.mark.parametrize("trials,message", [
        ("0", "--trials must be >= 1"),
        (str(cli.MAX_TRIALS + 1), f"--trials must be <= {cli.MAX_TRIALS}"),
        (str(2 ** 70), f"--trials must be <= {cli.MAX_TRIALS}"),
    ])
    def test_trials_out_of_range_exit_1(self, capsys, trials, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["teleport", "--trials", trials])
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        assert captured.err.splitlines()[-1] == f"postulate-sim: error: {message}"

    def test_dj_without_inputs_exit_1(self, capsys):
        assert cli.main(["dj"]) == 1

    def test_marked_must_be_integers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["grover", "--n", "2", "--marked", "1,x"])
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        assert captured.err.splitlines()[-1] == ("postulate-sim grover: error: argument "
                                                 "--marked: expected comma-separated integers, "
                                                 "got '1,x'")

    @pytest.mark.parametrize("argv,message", [
        (("grover", "--n", "0", "--marked", "0"), "register width must be >= 1, got 0"),
        (("simon", "--n", "4"), "simon: provide --oracle or both --n and --period"),
        (("simon", "--n", "4", "--period", "0000"),
         "hidden period must be a nonzero 4-bit value, got 0"),
    ], ids=["grover_n0", "simon_no_period", "simon_zero_period"])
    def test_generated_oracle_inputs_exit_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"postulate-sim: error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("grover", "--n", "40", "--marked", "1"),
        ("dj", "--n", "-1"),
        ("dj", "--n", "40"),
        ("simon", "--n", "20", "--period", "1"),
        ("dj", "--oracle", "{oracle40}"),
        ("simon", "--oracle", "{oracle40}"),
        ("teleport", "--alpha", "nan,0", "--beta", "1,0"),
        ("measure", "--alpha", "inf,0", "--beta", "1,0"),
    ], ids="_".join)
    def test_rejected_before_allocation(self, tmp_path, argv):
        oracle40 = tmp_path / "wide.txt"
        oracle40.write_text("0" * 40 + " 1\n")
        argv = [a.format(oracle40=oracle40) for a in argv]
        code, out, err, _ = run_cli_process(*argv)
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert err.startswith("postulate-sim: error: ") and len(err.splitlines()) == 1

    def test_memory_error_exit_1(self, capsys, monkeypatch):
        for exc, line in [
            (MemoryError("Unable to allocate 8.00 TiB"),
             "postulate-sim: error: out of memory in grover: Unable to allocate 8.00 TiB"),
            (MemoryError(), "postulate-sim: error: out of memory in grover"),
        ]:
            def exhausted(args):
                raise exc
            monkeypatch.setitem(commands.RUNNERS, "grover", exhausted)
            code, out, err = run_cli(capsys, "grover", "--n", "2", "--marked", "1")
            assert (code, out, err) == (1, "", line + "\n")

    def test_non_finite_report_exit_1(self, capsys, monkeypatch):
        monkeypatch.setitem(commands.RUNNERS, "grover", lambda args: ({"x": float("nan")}, 0))
        code, out, err = run_cli(capsys, "grover", "--n", "2", "--marked", "1")
        assert (code, out) == (1, "")
        assert err.startswith("postulate-sim: error: ")

    def test_non_finite_outcome_entry_exit_1(self, capsys, monkeypatch):
        shared = {"found": 1, "hit": True}
        outcomes = [shared, {"found": 2, "hit": float("nan")}, shared]
        monkeypatch.setitem(commands.RUNNERS, "grover", lambda args: ({"outcomes": outcomes}, 0))
        code, out, err = run_cli(capsys, "grover", "--n", "2", "--marked", "1")
        assert (code, out) == (1, "")
        assert err.startswith("postulate-sim: error: ") and len(err.splitlines()) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize("argv", [
    ("teleport", "--trials", "5"),
    ("teleport", "--trials", "500", "--format", "text"),
], ids=lambda v: "_".join(v))
def test_failed_write_is_one_line_error(argv):
    """A report that cannot be written, on a stdout that is full, ends in a
    one-line error and exit 1: no traceback, and no second failure from the
    interpreter's own flush at exit."""
    with open("/dev/full", "wb") as full:
        code, out, err, _ = run_limited(
            "from postulate_sim.cli import main; sys.exit(main())", *argv, stdout=full)
    assert (code, out) == (1, "")
    assert err == f"postulate-sim: error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n"


@pytest.mark.parametrize("command,case", [
    ("simon", "fifo"), ("dj", "dev_zero"), ("simon", "directory"), ("dj", "long_line"),
])
def test_unreadable_oracle_is_one_line_error(tmp_path, command, case):
    """An oracle path that is not a regular file, or a line past the bound,
    ends in one short error line and exit 1: a FIFO with no writer does not
    block, /dev/zero is not read, and a 3 MB line is quoted by a prefix."""
    path = {"fifo": tmp_path / "fifo", "dev_zero": Path("/dev/zero"),
            "directory": tmp_path, "long_line": tmp_path / "long.txt"}[case]
    if case == "fifo":
        os.mkfifo(path)
    elif case == "long_line":
        path.write_text("0" * 3_000_000 + "\n")
    code, out, err, _ = run_limited(
        "from postulate_sim.cli import main; sys.exit(main())", command, "--oracle", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("postulate-sim: error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1 and len(err) < len(str(path)) + 100
    assert str(path) in err  # the cause is named, not an empty out-of-memory message


@pytest.mark.parametrize("argv,imported", [
    (("teleport", "--trials", "20"), False),
    (("measure", "--observable", "x", "--trials", "20"), False),
    (("grover", "--n", "3", "--marked", "5", "--trials", "20"), False),
    (("simon", "--n", "3", "--period", "101", "--trials", "5"), False),
    (("dj", "--n", "3", "--kind", "constant", "--trials", "5"), False),
    # the balanced oracle's permutation is drawn by `kernels.seed_stream`
    (("dj", "--n", "3", "--kind", "balanced"), False),
    (("dj", "--n", "15", "--kind", "balanced", "--seed", "-1"), False),
    (("dj", "--n", "3", "--kind", "balanced", "--format", "text", "--seed", "4294967296"), False),
], ids=lambda v: "_".join(v) if isinstance(v, tuple) else None)
def test_trial_streams_skip_numpy_random(argv, imported):
    """Trial streams come from `kernels.trial_streams` and a balanced oracle's
    permutation from `kernels.seed_stream`, so no run imports `numpy.random`."""
    code, out, err, _ = run_limited(
        "from postulate_sim.cli import main; code = main(); "
        "print('numpy.random' in sys.modules, file=sys.stderr); sys.exit(code)", *argv)
    assert code == 0 and (out.startswith("postulate-sim ") if "text" in argv else json.loads(out))
    assert err == f"{imported}\n"


def load_probe(*modules):
    """Child code that prints, on stderr at exit, which of `modules` it loaded."""
    return ("import atexit; atexit.register(lambda: print(sorted(m for m in "
            f"{modules!r} if m in sys.modules), file=sys.stderr)); ")


# prints, at interpreter exit, which of numpy, the engine's base module and
# the report encoder loaded
ENGINE_PROBE = load_probe("json", "numpy", "postulate_sim.hilbert")


@pytest.mark.parametrize("argv,code,head", [
    (("--version",), 0, "postulate-sim 0.1.0\n"),
    (("--help",), 0, "usage: postulate-sim [-h] [--version]"),
    (("teleport", "--help"), 0, "usage: postulate-sim teleport [-h]"),
    (("teleport", "--trials", "0"), 1, "postulate-sim: error: --trials must be >= 1"),
    (("teleport", "--trials", "100001"), 1, "postulate-sim: error: --trials must be <= 100000"),
    (("teleport", "--alpha", "x"), 1,
     "postulate-sim teleport: error: argument --alpha: expected 're,im', got 'x'"),
    (("measure", "--observable", "q"), 1, "postulate-sim measure: error: argument --observable: "),
    ((), 1, "postulate-sim: error: the following arguments are required: command"),
], ids=lambda v: "_".join(v) or "none" if isinstance(v, tuple) else None)
def test_usage_paths_skip_the_engine(capsys, monkeypatch, argv, code, head):
    """`--version`, help and usage errors end before numpy, the engine or the
    report encoder `json` loads, with the same exit code and output as in-process: the text on stdout, or
    the usage and then a one-line error on stderr."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    expected = capsys.readouterr()
    got = run_limited(ENGINE_PROBE + "from postulate_sim.cli import main; sys.exit(main())", *argv)
    assert got[:3] == (exc.value.code, expected.out, expected.err + "[]\n")
    if code == 0:
        assert (exc.value.code, expected.err) == (0, "") and expected.out.startswith(head)
    else:
        lines = expected.err.splitlines()
        assert (exc.value.code, expected.out) == (1, "") and lines[0].startswith("usage: ")
        assert lines[-1].startswith(head) and sum(": error: " in line for line in lines) == 1


@pytest.mark.parametrize("argv", [
    ("--version",),
    ("teleport", "--trials", "0"),
    ("teleport", "--trials", "3"),
], ids=lambda v: "_".join(v))
def test_program_freezes_its_startup_state(capsys, monkeypatch, argv):
    """Run as the program, `main` freezes the collector once the parser is
    built, also on the paths where argparse exits; the output and exit code
    are those of the in-process call, which leaves the caller's collector as
    it found it."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    frozen = gc.get_freeze_count()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert gc.get_freeze_count() == frozen
    expected = capsys.readouterr()
    got = run_limited("import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count(), "
                      "file=sys.stderr)); from postulate_sim.cli import main; sys.exit(main())",
                      *argv)
    count = got[2].splitlines()[-1]
    assert got[:3] == (code, expected.out, expected.err + count + "\n") and int(count) > 0


# child code that prints, on stderr at exit, whether the collector is on and
# how many objects it holds frozen, then runs the CLI as the program
GC_PROBE = ("import atexit, gc; atexit.register(lambda: print(gc.isenabled(), "
            "gc.get_freeze_count(), file=sys.stderr)); "
            "from postulate_sim.cli import main; sys.exit(main())")


@pytest.mark.parametrize("argv", [
    ("teleport", "--trials", "3"),
    ("measure", "--observable", "x", "--trials", "3"),
    ("dj", "--n", "3", "--kind", "balanced", "--trials", "3"),
    ("simon", "--n", "3", "--period", "101", "--trials", "3"),
    ("grover", "--n", "3", "--marked", "5", "--trials", "3"),
], ids=lambda v: v[0])
def test_program_freezes_the_engine(capsys, argv):
    """Run as the program, `main` loads numpy and the engine with the
    collector off, freezes them, and turns the collector back on: at exit it
    is on, and it holds more frozen than a `--version` run, which never loads
    the engine. The output and exit code are those of the in-process call,
    which leaves the caller's collector as it found it, here turned off."""
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    gc.disable()
    try:
        code = cli.main(list(argv))
        assert (gc.isenabled(), gc.get_freeze_count()) == (False, frozen)
    finally:
        if enabled:
            gc.enable()
    expected = capsys.readouterr()
    version = run_limited(GC_PROBE, "--version")[2].split()
    got = run_limited(GC_PROBE, *argv)
    probe = got[2].splitlines()[-1]
    assert got[:3] == (code, expected.out, expected.err + probe + "\n")
    assert probe.startswith("True ") and int(probe.split()[1]) > int(version[-1])


def test_memory_error_while_the_engine_loads():
    """A MemoryError raised while the engine loads, run as the program, ends
    as one from a runner does: one line naming the command, exit 1, no
    traceback, and the collector back on at exit."""
    finder = ("import sys\n"
              "class Exhausted:\n"
              "    def find_spec(self, name, path=None, target=None):\n"
              "        if name == 'postulate_sim.commands':\n"
              "            raise MemoryError\n"
              "sys.meta_path.insert(0, Exhausted())\n")
    code, out, err, _ = run_limited(finder + GC_PROBE, "teleport", "--trials", "3")
    *lines, probe = err.splitlines()
    assert (code, out, lines) == (1, "", ["postulate-sim: error: out of memory in teleport"])
    assert probe.startswith("True ")


@pytest.mark.parametrize("module,error", [
    ("numpy", "ImportError"),
    ("numpy", "AttributeError"),
    ("numpy._core._multiarray_umath", "ImportError"),
], ids=["numpy-import", "numpy-attribute", "numpy-extension"])
def test_failed_engine_load_is_one_line(module, error):
    """An ImportError or AttributeError raised while numpy and the engine
    load, as numpy's own under a low address-space limit, ends in one line
    with exit 1 and no traceback, and the collector is back on at exit.
    numpy wraps a failed C extension in pages of advice; the line gives the
    cause."""
    finder = ("import sys\n"
              "class Refused:\n"
              "    def find_spec(self, name, path=None, target=None):\n"
              f"        if name == {module!r}:\n"
              f"            raise {error}('refused: ' + name)\n"
              "sys.meta_path.insert(0, Refused())\n")
    code, out, err, _ = run_limited(finder + GC_PROBE, "teleport", "--trials", "3")
    *lines, probe = err.splitlines()
    assert (code, out) == (1, "")
    assert lines == [f"postulate-sim: error: cannot load the engine: refused: {module}"]
    assert probe.startswith("True ")


def test_import_error_after_the_load_keeps_its_traceback():
    """Only the load is guarded: an ImportError raised by a runner is a bug,
    and its traceback shows."""
    code, out, err, _ = run_limited(
        "from postulate_sim import cli, commands\n"
        "def broken(args):\n"
        "    raise ImportError('raised by a runner')\n"
        "commands.RUNNERS['teleport'] = broken\n"
        "sys.exit(cli.main(['teleport', '--trials', '3']))\n")
    assert code == 1 and out == ""
    assert err.startswith("Traceback") and err.endswith("ImportError: raised by a runner\n")


@pytest.mark.parametrize("argv,loaded", [
    (("teleport", "--trials", "3"), ["postulate_sim.protocols"]),
    (("measure", "--trials", "3"), []),
    (("dj", "--n", "3", "--trials", "3"), ["postulate_sim.algorithms"]),
    (("simon", "--n", "3", "--period", "101", "--trials", "3"), ["postulate_sim.algorithms"]),
    (("grover", "--n", "3", "--marked", "5", "--trials", "3"), ["postulate_sim.algorithms"]),
], ids=["teleport", "measure", "dj", "simon", "grover"])
def test_each_command_loads_only_its_engine(argv, loaded):
    """No command runs both halves of the package: teleport and measure load
    no `algorithms`, DJ, Simon and Grover no `protocols`, measure neither,
    and no command loads `dataclasses`."""
    probe = load_probe("dataclasses", "postulate_sim.algorithms", "postulate_sim.protocols")
    code, out, err, _ = run_limited(probe + "from postulate_sim.cli import main; sys.exit(main())",
                                    *argv)
    assert (code, err) == (0, f"{loaded}\n")
    assert len(json.loads(out)["outcomes"]) == 3


def test_module_entry_prints_the_version():
    """`python -m postulate_sim.cli`, the entry README documents, runs `main`
    through the `__main__` guard."""
    proc = subprocess.run([sys.executable, "-m", "postulate_sim.cli", "--version"],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"postulate-sim {cli.__version__}\n"


def test_observable_choices_are_the_paulis():
    """The parser lists its `--observable` choices literally, so numpy stays
    unloaded; they must name exactly the runner's Pauli matrices."""
    measure = cli.build_parser()._subparsers._group_actions[0].choices["measure"]
    action = next(a for a in measure._actions if a.dest == "observable")
    assert action.choices == sorted(commands._PAULIS)


def test_package_exports_load_on_first_read():
    code, out, err, _ = run_limited(
        "import postulate_sim; print('numpy' in sys.modules); "
        "cls = postulate_sim.Observable; from postulate_sim import hilbert; "
        "print('numpy' in sys.modules, cls is hilbert.Observable)")
    assert (code, out, err) == (0, "False\nTrue True\n", "")


def test_grover_at_dimension_cap():
    """n = 16 fills the 2^16 cap; the register readout needs no 2^16 x 2^16 operator."""
    n, marked = 16, [4660, 51966]
    code, out, err, peak_kib = run_cli_process(
        "grover", "--n", str(n), "--marked", ",".join(map(str, marked)), "--trials", "3")
    assert code == 0, err
    report = json.loads(out)
    k = math.floor(math.pi / 4 * math.sqrt(2 ** n / len(marked)))
    theta = math.asin(math.sqrt(len(marked) / 2 ** n))
    assert report["iterations"] == k
    assert report["marked_probability"] == pytest.approx(math.sin((2 * k + 1) * theta) ** 2,
                                                         abs=1e-10)
    assert peak_kib < 200 * 1024


def test_dj_at_dimension_cap():
    """n = 15 plus the ancilla fills the 2^16 cap; the Walsh-Hadamard kernel
    needs no 2^15 x 2^15 sign matrix."""
    code, out, err, peak_kib = run_cli_process(
        "dj", "--n", "15", "--kind", "balanced", "--trials", "5")
    assert code == 0, err
    report = json.loads(out)
    assert report["zero_probability"] == 0
    assert report["verdicts"] == {"balanced": 5}
    assert peak_kib < 200 * 1024


class TestEmitReport:
    def test_empty_outcomes_valid_json(self):
        report = {
            "schema": cli.SCHEMA,
            "version": "0.1.0",
            "config": {"command": "teleport", "mode": "lueders", "seed": 0, "trials": 0},
            "outcomes": [],
        }
        parsed = json.loads(cli.emit_report(report, "json"))
        assert parsed["outcomes"] == []

    def test_without_outcomes_plain_text(self):
        report = {"schema": cli.SCHEMA, "version": "0.1.0", "x": [1.5, None], "y": {"b": 1, "a": 2}}
        assert cli.emit_report(report, "json") == (
            json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")

    def test_shared_and_nested_entries_plain_text(self):
        # Simon-like entries with nested lists, one entry object shared by
        # several trials, an entry equal to but distinct from another, and
        # strings that look like the layout
        shared = {"period": "101", "samples": ["010", "111"], "z": {"k": [1, [2, {}]]}}
        outcomes = [shared, {"period": "101", "samples": []}, shared,
                    dict(shared), {"period": '\n  "outcomes": null', "samples": ["\n"]}, shared]
        report = {"schema": cli.SCHEMA, "config": {"command": "simon", "oracle": "outcomes"},
                  "outcomes": outcomes, "all_recovered": True, "z_last": 1e-300}
        assert cli.emit_report(report, "json") == (
            json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")

    def test_round_trip_identity(self):
        report = {
            "schema": cli.SCHEMA,
            "version": "0.1.0",
            "config": {"command": "grover", "mode": "lueders", "seed": 5, "trials": 2},
            "outcomes": [{"found": 3, "hit": True}],
            "marked_probability": 0.9613189697265625,
        }
        assert json.loads(cli.emit_report(report, "json")) == report


class TestTextFormat:
    def test_one_screen_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--alpha", "0.6,0", "--beta", "0.8,0",
            "--trials", "50", "--format", "text",
        )
        assert code == 0
        assert "teleport" in out
        assert len(out.splitlines()) < 25
