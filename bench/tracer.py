"""Span recording around the public functions of mutdyn's layers.

``Tracer.install`` rebinds every attribute of the loaded ``mutdyn``
modules that names a traced function, so calls made through any
module's lookup (``mutdyn.cli.iterate_orbit``,
``mutdyn.orbits.growth_classification``, ``mutdyn.exchange.mutate``,
...) go through a wrapper that records a span.  ``uninstall`` puts the
originals back.  The program's source is never touched.

A span is ``[name, start, end, parent index, op id]``; spans stay in
memory until the benchmark writes them out.  Counts that only the
call's arguments or result can tell (orbit steps, bytes, members) are
recorded at the same boundary.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter


def _orbit_span_name(args, kwargs):
    kind = kwargs["kind"] if "kind" in kwargs else args[1]
    return f"orbits.iterate_orbit.{kind.value}"


def _count_orbit(counts, name, args, kwargs, orbit):
    counts[name + ".steps"] += orbit.steps
    counts[name + ".truncated"] += int(orbit.truncated)


def _count_drift(counts, name, args, kwargs, drift):
    steps = kwargs["steps"] if "steps" in kwargs else args[4]
    counts[name + ".orbit_steps"] += int(drift.size) * int(steps)


def _count_class(counts, name, args, kwargs, result):
    counts[name + ".members"] += result.size


def _count_export(counts, name, args, kwargs, text):
    # the exports are ASCII, so characters are bytes
    counts[name + ".bytes"] += len(text)
    obj = args[0]
    if hasattr(obj, "points"):
        rows = len(obj.points)
    elif hasattr(obj, "cells"):
        rows = len(obj.cells)
    else:
        rows = obj.size
    counts["export.rows"] += rows


def _count_cli(counts, name, args, kwargs, code):
    argv = args[0] if args else kwargs.get("argv")
    if argv and "--out" in argv:
        counts["cli.bytes_written"] += os.path.getsize(argv[argv.index("--out") + 1])


# (module, function, span namer, counter); span name defaults to module.function
TARGETS = (
    ("orbits", "iterate_orbit", _orbit_span_name, _count_orbit),
    ("orbits", "growth_classification", None, None),
    ("orbits", "phi_drift_batch", None, _count_drift),
    ("orbits", "scan_grid", None, None),
    ("orbits", "monotonic_angle_audit", None, None),
    ("tropical", "detect_period", None, None),
    ("tropical", "first_sign_coherent_index", None, None),
    ("tropical", "tau_closed_form", None, None),
    ("tropical", "mu_c", None, None),
    ("tropical", "tau", None, None),
    ("rational", "mu_x_log", None, None),
    ("rational", "symplectic_residual", None, None),
    ("exchange", "mutation_class", None, _count_class),
    ("exchange", "mutate", None, None),
    ("export", "export_json", None, _count_export),
    ("export", "export_csv", None, _count_export),
    ("cli", "main", None, _count_cli),
)


def span_names() -> list:
    """Every span name the wrappers of ``TARGETS`` can record."""
    from mutdyn.orbits import OrbitKind

    names = []
    for mod, fname, namer, _ in TARGETS:
        base = f"{mod}.{fname}"
        if namer is _orbit_span_name:
            names += [f"{base}.{kind.value}" for kind in OrbitKind]
        else:
            names.append(base)
    return names


class Tracer:
    """Spans and counts for one traced stretch of a workload."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = None
        self._stack = []
        self._patched = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def _wrap(self, fn, name, namer, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            idx = self.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                counter(self.counts, span_name, args, kwargs, result)
            return result

        wrapper.bench_span = name
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in sys.modules.items() if n == "mutdyn" or n.startswith("mutdyn.")
        ]
        for mod, fname, namer, counter in TARGETS:
            original = getattr(importlib.import_module("mutdyn." + mod), fname)
            wrapper = self._wrap(original, f"{mod}.{fname}", namer, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def installed_wrappers() -> list:
    """Attributes of loaded mutdyn modules that are still span wrappers."""
    return [
        f"{n}.{attr}"
        for n, m in sys.modules.items()
        if n == "mutdyn" or n.startswith("mutdyn.")
        for attr, value in vars(m).items()
        if hasattr(value, "bench_span")
    ]
