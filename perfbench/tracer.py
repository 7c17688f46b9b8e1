"""Span tracer for the package's layer-boundary functions.

install() wraps the named module-level functions and rebinds each wrapper
wherever a module of the package holds the original, so calls made
inside the package (``moduli.chars_for_flag``, ``cli.enumerate_c_i`` and
the like) are seen too.  Only the functions the per-layer metrics name
are wrapped: wrapping every public helper (``ray_vector``,
``field_from_tag``, ...) would split a layer's time into helper rows and
record hundreds of thousands of spans per run.

Spans are kept in memory as parallel arrays (name, parent, start, end)
and written out once, after the run.  A span's self time is its duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

PACKAGE = "toricbundles"

# counts taken from return values at the layer boundary
COUNTERS = {
    "incidence.enumerate_c_i": ("incidence.configs_returned", len),
    "incidence.solutions": ("incidence.configs_returned", len),
    "moduli.generate_conditions": ("moduli.atoms", lambda conds: len(conds.atoms)),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = []
        self.counts = {}
        self._patches = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id):
        span = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(0)
        self.span_end.append(0)
        self.stack.append(span)
        return span

    def _close(self, span, start, end):
        self.stack.pop()
        self.span_start[span] = start
        self.span_end[span] = end

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name` (the benchmark's job span)."""
        span = self._open(self._name_id(name))
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span, start, perf_counter_ns())

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, start, perf_counter_ns())
            if counter is not None:
                key, measure = counter
                tracer.counts[key] = tracer.counts.get(key, 0) + measure(result)
            return result

        return wrapper

    def install(self, names):
        """Wrap each "module.function" of the package; a missing name raises."""
        wrappers = {}
        for name in names:
            layer, attr = name.split(".")
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            obj = getattr(module, attr, None)
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                raise LookupError(f"{PACKAGE}.{name} is not a function defined there")
            wrappers[obj] = self._wrap(name, obj)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patches.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def summary(self):
        """{name: (calls, self seconds)} over every recorded span."""
        n = len(self.span_start)
        child = [0] * n
        for s in range(n):
            parent = self.span_parent[s]
            if parent >= 0:
                child[parent] += self.span_end[s] - self.span_start[s]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for s in range(n):
            name_id = self.span_name[s]
            calls[name_id] += 1
            self_ns[name_id] += self.span_end[s] - self.span_start[s] - child[s]
        return {
            name: (calls[i], self_ns[i] / 1e9) for i, name in enumerate(self.names)
        }

    def write(self, path):
        """All spans as gzipped JSON: names plus [name, parent, start, end]."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write('{"names":' + json.dumps(self.names) + ',"spans":[')
            for s in range(len(self.span_start)):
                if s:
                    handle.write(",")
                handle.write(
                    f"[{self.span_name[s]},{self.span_parent[s]},"
                    f"{self.span_start[s]},{self.span_end[s]}]"
                )
            handle.write("]}\n")
