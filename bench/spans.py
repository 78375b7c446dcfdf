"""Span recorder that wraps seqstat's public functions from outside the package.

A wrapped name is replaced in the module whose globals the caller looks it
up in, so calls the package makes to itself are recorded as well as the
calls the benchmark makes.  Spans keep ``(name, start, end, parent, pass)``
in flat arrays; the benchmark writes them out when the run ends.  Nothing
under ``src/`` is changed: uninstalling puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from concurrent.futures import ProcessPoolExecutor

# (module, attribute, layer).  Each entry is a public name that the module
# calls through its own globals, or that the benchmark calls through the
# module, so wrapping it there sees every call on the measured paths.
TARGETS = (
    ("seqstat.cli", "main", "cli"),
    ("seqstat.cli", "estimate", "simulator"),
    ("seqstat.simulator", "estimate", "simulator"),
    ("seqstat.simulator", "sample_indices", "probability"),
    ("seqstat.simulator", "bit_generator", "probability"),
    ("seqstat.simulator", "solve_fixed_point", "fixedpoint"),
    ("seqstat.simulator", "gjs", "divergence"),
    ("seqstat.simulator", "gutman_binary", "classifiers"),
    ("seqstat.simulator", "gutman_multiclass", "classifiers"),
    ("seqstat.probability", "bit_generator", "probability"),
    ("seqstat.classifiers", "gjs", "divergence"),
    ("seqstat.fixedpoint", "solve_fixed_point", "fixedpoint"),
    ("seqstat.fixedpoint", "multiclass_thetas", "fixedpoint"),
    ("seqstat.fixedpoint", "gjs", "divergence"),
    ("seqstat.fixedpoint", "chernoff", "divergence"),
    ("seqstat.fixedpoint", "kl", "probability"),
    ("seqstat.exponents", "exponent_report", "fixedpoint"),
    ("seqstat.exponents", "gjs", "divergence"),
    ("seqstat.exponents", "gjs_array", "divergence"),
    ("seqstat.exponents", "kl_array", "divergence"),
    ("seqstat.exponents", "gutman_bayes_exponent", "exponents"),
    ("seqstat.exponents", "compare_sequential_vs_gutman", "exponents"),
    ("seqstat.exponents", "bayes_multiclass_gutman", "exponents"),
)

LAYERS = ("probability", "divergence", "fixedpoint", "exponents", "classifiers", "simulator", "cli")
POOL_SPAN = "simulator.pool"
SOLVE_SPAN = "fixedpoint.solve_fixed_point"


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_of = array("i")
        self.pass_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # (iterations, residual) of every FixedPointResult, keyed by span index
        self.solve_results: dict[int, tuple[int, float]] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_of.append(self.pass_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        keep_result = name == SOLVE_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep_result:
                self.solve_results[idx] = (result.iterations, result.residual)
            return result

        return traced

    def _pool_class(self):
        tracer = self
        nid = self._name_id(POOL_SPAN)

        class TracedPool(ProcessPoolExecutor):
            """Process pool whose lifetime in the parent is one span."""

            def __enter__(self):
                self._span = tracer._open(nid)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close(self._span)

        return TracedPool

    def install(self) -> None:
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{layer}.{attr}"))
        simulator = importlib.import_module("seqstat.simulator")
        self._saved.append((simulator, "ProcessPoolExecutor", simulator.ProcessPoolExecutor))
        simulator.ProcessPoolExecutor = self._pool_class()

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # ------------------------------------------------------------------
    # derived figures

    def spans(self, passes: set[int]) -> list[int]:
        return [i for i in range(len(self.start)) if self.pass_of[i] in passes]

    def durations(self, name: str, passes: set[int]) -> list[float]:
        nid = self._name_ids.get(name)
        return [
            self.end[i] - self.start[i]
            for i in self.spans(passes)
            if self.name[i] == nid
        ]

    def self_times(self, passes: set[int]) -> dict[str, float]:
        """Seconds of self time per layer: span time not covered by child spans."""
        idx = self.spans(passes)
        child = {i: 0.0 for i in idx}
        for i in idx:
            p = self.parent[i]
            if p in child:
                child[p] += self.end[i] - self.start[i]
        out = {layer: 0.0 for layer in LAYERS}
        for i in idx:
            layer = self.names[self.name[i]].split(".", 1)[0]
            out[layer] += (self.end[i] - self.start[i]) - child[i]
        return out

    def solves(self, passes: set[int]) -> list[tuple[int, float]]:
        return [v for i, v in self.solve_results.items() if self.pass_of[i] in passes]

    def dump(self) -> dict:
        return {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "pass"],
            "spans": [
                [self.name[i], self.start[i], self.end[i], self.parent[i], self.pass_of[i]]
                for i in range(len(self.start))
            ],
        }
