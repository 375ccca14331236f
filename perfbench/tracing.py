"""Out-of-package span tracing for one benchmark op.

`Tracer.install()` wraps the public functions, and the constructors and
public methods of the non-data classes, of every `postulate_sim` module from
outside. A name bound in several namespaces (`from .measurement import
measure` binds `measure` in `algorithms`, `protocols`, `cli` and the package
itself) is replaced in each of them by the same wrapper, so a call is traced
whichever module makes it. Spans stay in memory; `summarize` turns them into
per-name and per-layer totals, and `run_traced` writes that summary to a
file when the op ends.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "protocols", "algorithms", "kernels", "measurement", "hilbert")
PACKAGE = "postulate_sim"

# A span is [name, start, end, parent index or -1]; names are "layer.qualname".
NAME, START, END, PARENT = range(4)

# calls that each compute one probability vector, and the subset that draws a sample
PROB_VECTOR_CALLS = ("measurement.born_probabilities", "measurement.partial_probabilities",
                     "measurement.measure", "measurement.partial_measure")
SAMPLE_CALLS = ("measurement.measure", "measurement.partial_measure")

# span names summed into one per-layer metric (see run.PER_LAYER)
GROUPS = {
    "algorithms.oracle_build": ("algorithms.constant_oracle", "algorithms.balanced_oracle",
                                "algorithms.simon_oracle", "algorithms.load_oracle"),
    "algorithms.final_state": ("algorithms.dj_final_state", "algorithms.simon_final_state"),
    "algorithms.trial": ("algorithms.deutsch_jozsa", "algorithms.simon", "algorithms.grover"),
    "hilbert.tensor": ("hilbert.tensor_state", "hilbert.tensor_op", "hilbert.tensor_many"),
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _traceable_function(obj, module_name: str) -> bool:
    return (callable(obj) and not inspect.isclass(obj)
            and getattr(obj, "__module__", None) == module_name)


def _traceable_class(obj, module_name: str) -> bool:
    return (inspect.isclass(obj) and obj.__module__ == module_name
            and not issubclass(obj, (enum.Enum, BaseException))
            and not dataclasses.is_dataclass(obj))


class Tracer:
    """Records nested spans of calls into the package, one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            public = {a: o for a, o in vars(mod).items() if not a.startswith("_")}
            for attr, obj in public.items():
                if id(obj) in wrappers:
                    continue
                if _traceable_function(obj, mod.__name__):
                    # aliases (kernels.gf2_rref = gf2_rref_numpy) share one span name:
                    # the shortest public name the module binds it to
                    alias = min((a for a, o in public.items() if o is obj), key=len)
                    name = f"{layer}.{alias}"
                    wrappers[id(obj)] = (obj, self.wrap(name, obj, _AFTER.get(name)))
                elif _traceable_class(obj, mod.__name__):
                    self._wrap_methods(layer, obj)
        for ns in (importlib.import_module(PACKAGE), *modules.values()):
            for attr, obj in list(vars(ns).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj) or (attr.startswith("_") and attr != "__init__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            self._restore.append((cls, attr, obj))
            setattr(cls, attr, self.wrap(name, obj, _AFTER.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _observable_bytes(tracer, args, _result):
    tracer.count("hilbert.observable_bytes", args[0].matrix.nbytes)


def _report_bytes(tracer, _args, result):
    tracer.count("cli.report_bytes", len(result.encode()))


_AFTER = {
    "hilbert.Observable.__init__": _observable_bytes,
    "cli.emit_report": _report_bytes,
}


# ---------------------------------------------------------------------------
# span arithmetic

def summarize(spans, counters=None) -> dict:
    """Totals of one op's span tree.

    - `names`: per span name, calls, seconds and self seconds;
    - `groups`: the same calls and seconds for each set in GROUPS;
    - `layer_self_s`: per layer, the sum of its spans' self times, i.e. the
      time that layer ran with no deeper traced call active;
    - `simon_samples`: samples drawn inside `algorithms.simon`.

    A span's self time is its duration minus the durations of its direct
    children. Seconds of a name or group count only its outermost spans, so
    a call nested in another of the same set is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    names: dict[str, dict] = {}
    layers: dict[str, float] = {}
    for i, span in enumerate(spans):
        dur = span[END] - span[START]
        entry = names.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += dur if _outermost(spans, span, {span[NAME]}) else 0.0
        entry["self_s"] += dur - child_time[i]
        layers[_layer(span[NAME])] = layers.get(_layer(span[NAME]), 0.0) + dur - child_time[i]
    return {
        "names": names,
        "groups": {group: _totals(spans, set(members)) for group, members in GROUPS.items()},
        "layer_self_s": layers,
        "simon_samples": _calls_under(spans, SAMPLE_CALLS, "algorithms.simon"),
        "counters": dict(counters or {}),
    }


def _outermost(spans, span, members: set) -> bool:
    parent = span[PARENT]
    while parent >= 0 and spans[parent][NAME] not in members:
        parent = spans[parent][PARENT]
    return parent < 0


def _totals(spans, members: set) -> dict:
    calls, seconds = 0, 0.0
    for span in spans:
        if span[NAME] in members:
            calls += 1
            if _outermost(spans, span, members):
                seconds += span[END] - span[START]
    return {"calls": calls, "s": seconds}


def _calls_under(spans, names, ancestor: str) -> int:
    """Spans named in `names` whose nearest `algorithms` ancestor is `ancestor`."""
    total = 0
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent >= 0 and _layer(spans[parent][NAME]) != "algorithms":
            parent = spans[parent][PARENT]
        total += parent >= 0 and spans[parent][NAME] == ancestor
    return total


# ---------------------------------------------------------------------------
# child-process entry

def run_traced(out_path: str, driver: str) -> int:
    """Install the tracer, run one op's entry point, write the summary."""
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        if driver == "cli":
            code = sys.modules[f"{PACKAGE}.cli"].main()
        else:
            code = importlib.import_module("observable_op").main()
    finally:
        with open(out_path, "w") as fh:
            json.dump(summarize(tracer.spans, tracer.counters), fh)
    return code
