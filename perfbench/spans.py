"""Spans around the public functions of each potlab layer.

A ``Tracer`` replaces each listed function with a wrapper that records a
span (name, parent, start, end, detail) in memory, and puts every
original back on ``restore``.  Names bound by ``from .x import y`` are
patched in every potlab module that holds them, so a call through
``potlab.harness.checks.solve_vi`` is traced as well as one through
``potlab.solver.solve_vi``.  Methods are patched on the class that
defines them.  Nothing under ``src/`` is changed; tracing is from outside.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

from potlab import field, grid, orlicz, potentials, solver
from potlab.harness import checks, cli

LAYERS = ("solver", "orlicz", "grid", "field", "potentials", "harness")

# leaf solves: each returns one Solution and is one solver call
SOLVES = ("solve_vi", "solve_equation", "solve_frozen")
SOLVER_FUNCS = SOLVES + ("solve_op_sequence", "comparison_chain", "mollify_measure",
                         "apply_operator")
GROWTH_METHODS = ("g", "dg", "kernel", "G", "G_inverse", "g_inverse")
GRID_FUNCS = ("ball_average", "disk_integral", "ball_mass")
FIELD_FUNCS = ("oscillation_ladder", "dini_integral")
POTENTIAL_FUNCS = ("wolff", "wolff_psi", "frac_maximal", "sharp_maximal",
                   "sharp_maximal_vector", "obstacle_maximal")
CHECK_NAMES = ("caccioppoli", "reverse_holder", "sobolev_median",
               "maximal_estimates", "gradient_bounds")


def _solve_detail(args, kwargs, sol):
    """Span detail of a leaf solve: mesh and iterations."""
    return {"n": sol.u.grid.n, "iters": sol.iterations}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


class Tracer:
    """In-memory span recorder with reversible patches."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, detail]
        self.cache_hits = 0
        self.cache_misses = 0
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, detail=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[3] = clock()
                last = getattr(exc, "last", None)
                rec[4] = {"error": type(exc).__name__,
                          "iters": getattr(last, "iterations", 0)}
                raise
            finally:
                stack.pop()
            rec[3] = clock()
            if detail is not None:
                rec[4] = detail(args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def patch_function(self, module, attr, name, detail=None):
        """Wrap ``module.attr`` and every potlab module-level alias of it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, detail)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("potlab"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def patch_method(self, cls, attr, name, detail=None):
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], detail))

    def patch_cache(self, cls):
        """Count hits and misses of ``cls.get``: a miss runs the builder."""
        original = cls.__dict__["get"]
        tracer = self

        def get(cache, key, builder):
            built = []

            def build():
                built.append(True)
                return builder()

            value = original(cache, key, build)
            if built:
                tracer.cache_misses += 1
            else:
                tracer.cache_hits += 1
            return value

        self._set(cls, "get", functools.wraps(original)(get))

    def install(self, cache_classes=(checks.SolveCache,)):
        for attr in SOLVER_FUNCS:
            detail = _solve_detail if attr in SOLVES else None
            self.patch_function(solver, attr, f"solver.{attr}", detail)
        for cls in (orlicz.GrowthFunction, *orlicz.GrowthFunction.__subclasses__()):
            for attr in GROWTH_METHODS:
                if attr in cls.__dict__:
                    self.patch_method(cls, attr, f"orlicz.{attr}")
        for attr in GRID_FUNCS:
            self.patch_function(grid, attr, f"grid.{attr}")
        self.patch_method(field.VectorField, "oscillation_ladder", "field.oscillation_ladder")
        self.patch_function(field, "dini_integral", "field.dini_integral")
        for attr in POTENTIAL_FUNCS:
            self.patch_function(potentials, attr, f"potentials.{attr}")
        for check in list(checks.CHECKS):
            self._set(checks.CHECKS, check,
                      self.wrap(f"harness.check.{check}", checks.CHECKS[check]))
        self.patch_function(checks, "build_context", "harness.build_context")
        for attr in ("write_check_csv", "write_summary"):
            self.patch_function(checks, attr, "harness.report_io", _written_bytes)
        self.patch_function(cli, "main", "harness.verify")
        for cls in cache_classes:
            self.patch_cache(cls)

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, parent, start, end, detail) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end, "detail": detail}) + "\n")

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the durations of its direct children."""
        dur = np.array([s[3] - s[2] for s in self.spans])
        out = dur.copy()
        for s, d in zip(self.spans, dur):
            if s[1] >= 0:
                out[s[1]] -= d
        return out


def layer_metrics(tracer: Tracer, reps: int, prefix: str = "") -> dict:
    """Per-layer figures of the recorded spans, per traced repetition:
    {metric name: (value, unit)}."""
    spans = tracer.spans
    selfs = tracer.self_times() if spans else np.zeros(0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    calls: dict = {}
    secs: dict = {}
    for (name, _, start, end, _), own in zip(spans, selfs):
        layer_self[name.split(".")[0]] += own
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + (end - start)

    out = {}

    def put(name, value, unit, per_rep=True):
        out[prefix + name] = (value / reps if per_rep else value, unit)

    solves = [s for s in spans if s[0] in {f"solver.{f}" for f in SOLVES}]
    details = [s[4] or {} for s in solves]
    iters = sum(d.get("iters", 0) for d in details)
    put("solver.calls", len(solves), "count")
    put("solver.iters", iters, "count")
    for n in (64, 128):
        put(f"solver.iters_n{n}", sum(d["iters"] for d in details if d.get("n") == n), "count")
    put("solver.self_s", layer_self["solver"], "s")
    solve_s = sum(s[3] - s[2] for s in solves)
    put("solver.ms_per_iter", 1e3 * solve_s / iters if iters else 0.0, "ms", per_rep=False)
    put("solver.errors", sum("error" in d for d in details), "count")
    put("orlicz.calls", sum(calls.get(f"orlicz.{f}", 0) for f in GROWTH_METHODS), "count")
    put("orlicz.s", layer_self["orlicz"], "s")
    for layer, funcs in (("grid", GRID_FUNCS), ("field", FIELD_FUNCS),
                         ("potentials", POTENTIAL_FUNCS)):
        for f in funcs:
            n = calls.get(f"{layer}.{f}", 0)
            t = secs.get(f"{layer}.{f}", 0.0)
            put(f"{layer}.{f}.calls", n, "count")
            put(f"{layer}.{f}.s", t, "s")
            if layer == "potentials":
                put(f"{layer}.{f}.ms_per_call", 1e3 * t / n if n else 0.0, "ms", per_rep=False)
        put(f"{layer}.self_s", layer_self[layer], "s")
    for c in CHECK_NAMES:
        put(f"harness.check.{c}.s", secs.get(f"harness.check.{c}", 0.0), "s")
    put("harness.build_context.s", secs.get("harness.build_context", 0.0), "s")
    put("harness.cache.hits", tracer.cache_hits, "count")
    put("harness.cache.misses", tracer.cache_misses, "count")
    put("harness.report_io.s", secs.get("harness.report_io", 0.0), "s")
    put("harness.report_bytes",
        sum((s[4] or {}).get("bytes", 0) for s in spans if s[0] == "harness.report_io"), "bytes")
    put("harness.self_s", layer_self["harness"], "s")
    put("trace.self_s_sum", float(selfs.sum()), "s")
    put("trace.spans", len(spans), "count")
    return out
