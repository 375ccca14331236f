"""The benchmark's general-observable correctness gate, run on the library.

`perfbench/observable_op.py` drives the library on non-diagonal observables
with planted degeneracies and reports its deviations from plain-numpy
references; `perfbench/workloads.check_observable` is the gate that fails
the op. Both are imported as they are, so a change that breaks the library
numerics fails here before any benchmark run.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


observable_op, workloads = load("observable_op"), load("workloads")


@pytest.mark.parametrize("dim", [16, 32, 64])
@pytest.mark.parametrize("seed", [0, 1])
def test_observable_op_passes_the_gate(seed, dim):
    report = observable_op.run(seed, dim, 8)
    assert workloads.check_observable(report, dim, 8) is None
