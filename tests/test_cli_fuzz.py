"""argv fuzzing of the CLI: every input ends in a strict-JSON report (exit 0
or 2) or a one-line error (exit 1), never in a traceback."""
import contextlib
import io
import json
import os

import pytest

from postulate_sim import cli
from test_cli import run_limited

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


# the options of each command besides --mode, --seed, --trials and --format
_FUZZ_FLAGS = {
    "teleport": ("--alpha", "--beta"),
    "dj": ("--oracle", "--n", "--kind", "--value"),
    "simon": ("--oracle", "--n", "--period", "--max-samples"),
    "grover": ("--n", "--marked"),
    "measure": ("--observable", "--alpha", "--beta"),
}


def _fuzz_argv(oracle_paths):
    """Strategy for argv: a command, then its flags with values near and past
    their valid ranges, and maybe one stray token. Trial and sample counts
    stay small, or past the trial bound, so every example is quick; `--help`, `--version` and
    `--format text` are left out because their output is not a JSON report."""
    small = st.integers(-1, 4).map(str)
    widths = st.one_of(st.integers(-2, 17), st.sampled_from([40, 2 ** 70])).map(str)
    number = st.one_of(st.floats(), st.sampled_from([0.0, 1.0, 1e200, -1e-320]))
    values = {
        "--mode": st.sampled_from(["lueders", "von-neumann", "bogus"]),
        "--seed": st.one_of(st.integers(-3, 3), st.sampled_from([2 ** 64 + 1, -2 ** 70])).map(str),
        # past cli.MAX_TRIALS: exit 1 at once, not a report that grows until memory runs out
        "--trials": st.one_of(small, st.sampled_from(["100001", str(2 ** 70)])),
        "--max-samples": small,
        "--format": st.just("json"),
        "--alpha": st.tuples(number, number).map(lambda p: f"{p[0]},{p[1]}"),
        "--beta": st.tuples(number, number).map(lambda p: f"{p[0]},{p[1]}"),
        "--n": widths,
        "--kind": st.sampled_from(["constant", "balanced"]),
        "--value": small,
        "--period": st.one_of(st.text("01", max_size=18), small),
        "--marked": st.lists(st.integers(-3, 2 ** 17), max_size=4).map(
            lambda m: ",".join(map(str, m))),
        "--observable": st.sampled_from(["x", "y", "z", "w"]),
        "--oracle": st.sampled_from(oracle_paths),
    }
    stray = st.text(max_size=6).filter(lambda t: not t.startswith("-") and t != "text")

    def command_argv(command):
        flags = ["--mode", "--seed", "--trials", "--format", *_FUZZ_FLAGS.get(command, values)]
        option = st.sampled_from(flags).flatmap(
            lambda flag: values[flag].map(lambda value: [flag, value]))
        return st.tuples(st.lists(option, max_size=6), st.lists(stray, max_size=1)).map(
            lambda t: [command, *sum(t[0], []), *t[1]])

    return st.sampled_from([*_FUZZ_FLAGS, "bogus"]).flatmap(command_argv)


def _check_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if out:
        json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in report of {argv}"))
    if code == 1:
        assert out == "" and err.strip(), (argv, out, err)


def fuzz_cli(oracle_paths, max_examples):
    """Run the argv fuzz in this process; raises on the first failing argv."""
    @hypothesis.settings(max_examples=max_examples, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(_fuzz_argv(oracle_paths))
    @hypothesis.example(["teleport", "--alpha", "1e200,0"])
    @hypothesis.example(["measure", "--alpha", "nan,0", "--beta", "1,0"])
    @hypothesis.example(["dj", "--n", "16", "--kind", "balanced"])
    def fuzz(argv):
        _check_argv(argv)

    for path in oracle_paths:  # each path at least once, whatever the draws reach
        fuzz = hypothesis.example(["dj", "--oracle", path])(fuzz)
    fuzz()


def test_cli_fuzz(tmp_path):
    """The fuzz runs in one child under RLIMIT_AS, so no example can exhaust
    the machine's memory."""
    paths = []
    for name, text in [
        ("dj.txt", "".join(f"{x:03b} {x >> 2}\n" for x in range(8))),
        ("simon.txt", "".join(f"{x:02b} {min(x, x ^ 3):02b}\n" for x in range(4))),
        ("wide.txt", "0" * 40 + " 1\n"),
        ("garbage.txt", "garbage\n"),
        ("long.txt", "1" * 3_000_000 + " 1\n"),
    ]:
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    os.mkfifo(tmp_path / "fifo")  # no writer: opening it for reading must not wait
    paths += [str(tmp_path), str(tmp_path / "missing.txt"), str(tmp_path / "fifo"), "/dev/zero"]
    code, out, err, _ = run_limited(
        f"import test_cli_fuzz; test_cli_fuzz.fuzz_cli({paths!r}, 300)", timeout=300.0)
    assert code == 0, out + err
