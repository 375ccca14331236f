"""Line reach of the tests: every executable line of `src/postulate_sim` that
no test runs in-process.

    python tests/line_reach.py

runs pytest on `tests/` in this process under a `sys.settrace` function that
traces only frames of the package's modules, and takes each module's
executable lines from its code objects (`co_lines`, recursively). It prints
every line that no test ran and exits 1 when pytest fails, when a test left
the trace function removed, when an unreached line is not in `CHILD_ONLY`,
or when a line in `CHILD_ONLY` ran after all. pytest does not collect this
file: its name does not start with `test_`.
"""
from __future__ import annotations

import os
import sys
import types
from pathlib import Path
from typing import Optional

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "postulate_sim"

# Lines left unreached in-process on purpose: only a child process runs them,
# and the tracer follows no child. Each entry is (module, consecutive lines as
# written, which must occur once in the module, why only a child runs them,
# the test whose child does).
CHILD_ONLY = [
    ("cli.py", ("        gc.freeze()",),
     "the startup freeze runs only as the program (argv None)",
     "test_cli.py::test_program_freezes_its_startup_state"),
    ("cli.py", ("                gc.disable()",
                "                try:",
                "                    from . import commands",
                "                    gc.freeze()",
                "                finally:",
                "                    gc.enable()"),
     "the engine loads with the collector off only as the program (argv None)",
     "test_cli.py::test_program_freezes_the_engine"),
    ("cli.py", ("        except (ImportError, AttributeError) as exc:",
                "            # a failed load, such as numpy's under a low address-space limit;",
                "            # numpy wraps its cause in pages of advice, so the cause is reported",
                "            while exc.__cause__ is not None:",
                "                exc = exc.__cause__",
                "            print(f\"postulate-sim: error: cannot load the engine: "
                "{' '.join(str(exc).split())}\",",
                "                  file=sys.stderr)",
                "            return EXIT_USAGE"),
     "a failed engine load needs an import finder installed before the package loads",
     "test_cli.py::test_failed_engine_load_is_one_line"),
    ("cli.py", ("    except OSError as exc:",
                "        # on devnull, the interpreter's own flush at exit cannot fail again",
                "        # (Python docs, `signal`, \"Note on SIGPIPE\")",
                "        devnull = os.open(os.devnull, os.O_WRONLY)",
                "        os.dup2(devnull, sys.stdout.fileno())",
                "        os.close(devnull)",
                "        print(f\"postulate-sim: error: {exc}\", file=sys.stderr)",
                "        return EXIT_USAGE"),
     "the write-error path replaces the process's stdout, on a full device",
     "test_cli.py::test_failed_write_is_one_line_error"),
    ("cli.py", ("    sys.exit(main())",),
     "the `__main__` guard runs only under `python -m postulate_sim.cli`",
     "test_cli.py::test_module_entry_prints_the_version"),
    ("measurement.py",
     ("        raise DimensionMismatch(f\"total dimension {dim} exceeds cap {MAX_DIM}\")",),
     "the lift's cap is checked under an address-space limit, should it allocate",
     "test_measurement.py::TestLift::test_cap_checked_before_allocation"),
    ("measurement.py",
     ("        raise DimensionMismatch(f\"lifted dimension {dim} exceeds the dense cap "
      "{_LIFT_DIM}\")",),
     "the dense cap is checked under an address-space limit, should it allocate",
     "test_measurement.py::TestLift::test_dense_size_checked_before_allocation"),
]


def executable_lines(path: Path) -> set[int]:
    """The line numbers that some code object compiled from `path` holds."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def occurrences(module: str, lines: tuple[str, ...]) -> list[int]:
    """The line numbers at which `lines` occur, consecutively, in `module`."""
    source = (PACKAGE / module).read_text().splitlines()
    return [i + 1 for i in range(len(source) - len(lines) + 1)
            if tuple(source[i:i + len(lines)]) == lines]


def child_only_lines() -> dict[tuple[str, int], str]:
    """The test named by each `CHILD_ONLY` entry, at each of its line
    numbers; an entry must occur once in its module."""
    found = {}
    for module, lines, _, test in CHILD_ONLY:
        starts = occurrences(module, lines)
        if len(starts) != 1:
            raise SystemExit(f"{module}: {lines[0]!r}... occurs {len(starts)} times, not once")
        found.update({(module, starts[0] + i): test for i in range(len(lines))})
    return found


class _TraceGuard:
    """A pytest plugin that checks, before each test, that the trace is installed."""

    def __init__(self, trace):
        self.trace = trace
        self.lost: list[str] = []

    def pytest_runtest_setup(self, item):
        if sys.gettrace() is not self.trace:
            self.lost.append(item.nodeid)
            sys.settrace(self.trace)


def run_traced() -> tuple[int, dict[str, set[int]], list[str]]:
    """pytest's exit code, the lines each package module ran, and the tests
    before which the trace function was found removed."""
    reached: dict[str, set[int]] = {}
    tracers: dict[str, Optional[tuple]] = {}

    def tracer_for(filename: str):
        if Path(os.path.realpath(filename)).parent != PACKAGE:
            return None
        lines = reached.setdefault(Path(filename).name, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line, lines

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            tracers[filename] = tracer_for(filename)
        if tracers[filename] is None:
            return None
        on_line, lines = tracers[filename]
        # a call reports the first line, the only one of a one-line lambda
        lines.add(frame.f_lineno)
        return on_line

    guard = _TraceGuard(on_call)
    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(on_call)
    try:
        code = pytest.main([str(TESTS), "-q", "-p", "no:cacheprovider"], plugins=[guard])
    finally:
        sys.settrace(None)
    return int(code), reached, guard.lost


def main() -> int:
    expected = child_only_lines()
    code, reached, lost = run_traced()
    failed = code != 0 or bool(lost)
    if code != 0:
        print(f"line_reach: pytest exited {code}")
    for nodeid in lost:
        print(f"line_reach: the trace function was removed before {nodeid}")
    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        source = path.read_text().splitlines()
        total += len(lines)
        ran = reached.get(path.name, set())
        for number in sorted(lines - ran):
            unreached += 1
            test = expected.get((path.name, number))
            note = f"only a child runs it: {test}" if test else "UNREACHED"
            failed |= test is None
            print(f"{path.relative_to(TESTS.parent)}:{number}: {source[number - 1].strip()}"
                  f"  [{note}]")
        for module, number in expected:
            if module == path.name and number in ran:
                failed = True
                print(f"{module}:{number}: listed in CHILD_ONLY but reached in-process")
    print(f"line_reach: {total - unreached} of {total} executable lines reached in-process; "
          f"{len(CHILD_ONLY)} entries list the lines that only a child runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
