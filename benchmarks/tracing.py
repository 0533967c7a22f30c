"""Span tracing of chaincast's public functions, for the traced benchmark run.

``install`` wraps every public function and public method of each layer
module, and replaces the original in *every* chaincast namespace that binds
it (``from .orthopoly import orthonormal_table`` in ``secondary`` is a
separate binding).  A few private functions that carry a route the public
ones hide are wrapped too (``ROUTE_PROBES``).  Spans stay in memory until
the run ends; ``aggregate`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("quadrature", "measures", "orthopoly", "chainmap", "stieltjes",
          "secondary", "residual", "convergence", "cli")

ROUTE_PROBES = {
    ("orthopoly", "_generic_coefficients"): "orthopoly.generic",
    ("orthopoly", "_stieltjes_sweep"): "orthopoly.stieltjes_sweep",
    ("stieltjes", "_reducer_lipschitz"): "stieltjes.reducer.lipschitz",
    ("stieltjes", "_reducer_derivative_form"): "stieltjes.reducer.derivative",
}

# Work counted at a span: from the arguments (recorded even when the call
# raises) or from the result.
ARG_SIZES = {
    "secondary.SecondarySequence.density": lambda args: np.size(args[2]),
    "stieltjes.reducer": lambda args: np.size(args[1]),
    "stieltjes.reducer.lipschitz": lambda args: len(args[1]),
}
RESULT_SIZES = {
    "measures.Measure.discretize": lambda r: len(r[0]),
    "quadrature.map_nodes": lambda r: len(r[0]),
    "quadrature.integrate": lambda r: float(r[1]),
    "orthopoly.orthonormal_table": lambda r: r.size,
    "orthopoly.secondary_table": lambda r: r.size,
}


class Tracer:
    """In-memory span recorder: (id, parent, job, name, start, end, size, ok)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = 0
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def wrap(self, name, fn):
        arg_size = ARG_SIZES.get(name)
        result_size = RESULT_SIZES.get(name)
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            size = arg_size(args) if arg_size else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, self.job, name, start,
                              time.perf_counter(), size, False))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            if result_size:
                size = result_size(result)
            spans.append((sid, parent, self.job, name, start, end, size, True))
            return result

        return traced

    def write(self, path) -> None:
        keys = ("id", "parent", "job", "name", "start", "end", "size", "ok")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _class_members(cls):
    for attr, obj in vars(cls).items():
        if attr.startswith("_") and attr != "__call__":
            continue
        if isinstance(obj, classmethod):
            yield attr, obj.__func__, classmethod
        elif inspect.isfunction(obj):
            yield attr, obj, None


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the layers' public callables; returns what ``uninstall`` needs."""
    wrappers: dict[int, tuple] = {}
    restore: list[tuple] = []
    for layer in LAYERS:
        mod = importlib.import_module(f"chaincast.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
            elif inspect.isclass(obj):
                for member, fn, kind in _class_members(obj):
                    wrapped = tracer.wrap(f"{layer}.{attr}.{member}", fn)
                    restore.append((obj, member, vars(obj)[member]))
                    setattr(obj, member, kind(wrapped) if kind else wrapped)
    for (layer, attr), name in ROUTE_PROBES.items():
        obj = getattr(importlib.import_module(f"chaincast.{layer}"), attr)
        wrappers[id(obj)] = (obj, tracer.wrap(name, obj))
    for modname, mod in list(sys.modules.items()):
        if modname != "chaincast" and not modname.startswith("chaincast."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                restore.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    return restore


def uninstall(restore: list[tuple]) -> None:
    for owner, attr, obj in reversed(restore):
        setattr(owner, attr, obj)


# name -> (unit, better); the per_layer list of BENCHMARK.json, in order.
# Counts and times are per job; ratios and maxima are over the traced run.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.validate.busy_s": ("s", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "orthopoly.recurrence_coefficients.closed.calls": ("count", "lower"),
    "orthopoly.recurrence_coefficients.closed.busy_s": ("s", "lower"),
    "orthopoly.recurrence_coefficients.generic.calls": ("count", "lower"),
    "orthopoly.recurrence_coefficients.generic.busy_s": ("s", "lower"),
    "orthopoly.generic.levels_per_call": ("count", "lower"),
    "orthopoly.stieltjes_sweep.calls": ("count", "lower"),
    "orthopoly.stieltjes_sweep.busy_s": ("s", "lower"),
    "measures.Measure.discretize.calls": ("count", "lower"),
    "measures.Measure.discretize.busy_s": ("s", "lower"),
    "measures.Measure.discretize.nodes": ("count", "lower"),
    "chainmap.chain_coefficients.self_s": ("s", "lower"),
    "chainmap.measure_from_sd.busy_s": ("s", "lower"),
    "stieltjes.reducer.analytic.calls": ("count", "lower"),
    "stieltjes.reducer.analytic.busy_s": ("s", "lower"),
    "stieltjes.reducer.analytic.points": ("count", "lower"),
    "stieltjes.reducer.lipschitz.calls": ("count", "lower"),
    "stieltjes.reducer.lipschitz.busy_s": ("s", "lower"),
    "stieltjes.reducer.lipschitz.points": ("count", "lower"),
    "stieltjes.reducer.kernel_cells": ("count", "lower"),
    "stieltjes.reducer.max_kernel_mb": ("MB", "lower"),
    "stieltjes.stieltjes_transform.calls": ("count", "lower"),
    "stieltjes.stieltjes_transform.busy_s": ("s", "lower"),
    "stieltjes.find_gap_zero.busy_s": ("s", "lower"),
    "secondary.SecondarySequence.density.calls": ("count", "lower"),
    "secondary.SecondarySequence.density.points": ("count", "lower"),
    "secondary.SecondarySequence.density.self_s": ("s", "lower"),
    "orthopoly.orthonormal_table.calls": ("count", "lower"),
    "orthopoly.orthonormal_table.cells": ("count", "lower"),
    "orthopoly.secondary_table.calls": ("count", "lower"),
    "orthopoly.secondary_table.cells": ("count", "lower"),
    "residual.ResidualDensity.build.busy_s": ("s", "lower"),
    "residual.ResidualDensity.__call__.busy_s": ("s", "lower"),
    "quadrature.integrate.calls": ("count", "lower"),
    "quadrature.integrate.self_s": ("s", "lower"),
    "quadrature.integrate.converged_ratio": ("ratio", "higher"),
    "quadrature.map_nodes.calls": ("count", "lower"),
    "quadrature.map_nodes.nodes": ("count", "lower"),
    "convergence.szego_check.calls": ("count", "lower"),
    "convergence.szego_check.busy_s": ("s", "lower"),
    "convergence.szego_check.self_s": ("s", "lower"),
    "convergence.convergence_report.calls": ("count", "lower"),
    "convergence.convergence_report.busy_s": ("s", "lower"),
    "convergence.convergence_report.self_s": ("s", "lower"),
    "trace.job_s": ("s", "lower"),
    "trace.spans_per_job": ("count", "lower"),
    "trace.jobs_per_s": ("1/s", "higher"),
    "trace.untraced_jobs_per_s": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


def aggregate(spans, jobs: int, import_s: float = 0.0) -> dict[str, float]:
    """Per-layer metrics (``PER_LAYER`` names without the ``trace.*`` ones)."""
    by_id = {s[0]: s for s in spans}
    kids: dict[int, list] = defaultdict(list)
    for s in spans:
        kids[s[1]].append(s)

    def dur(s):
        return s[5] - s[4]

    def nested_in_same(s):
        parent = by_id.get(s[1])
        while parent is not None:
            if parent[3] == s[3]:
                return True
            parent = by_id.get(parent[1])
        return False

    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    size = defaultdict(float)
    for s in spans:
        name = s[3]
        calls[name] += 1
        if not nested_in_same(s):
            busy[name] += dur(s)
        self_s[name] += dur(s) - sum(dur(c) for c in kids[s[0]])
        if s[6] is not None:
            size[name] += s[6]
        # Route splits: a span's route is the probe among its children.
        child_names = {c[3] for c in kids[s[0]]}
        if name == "orthopoly.recurrence_coefficients":
            route = "generic" if "orthopoly.generic" in child_names else "closed"
            if s[7] or route == "generic":
                calls[f"{name}.{route}"] += 1
                busy[f"{name}.{route}"] += dur(s)
        elif name == "stieltjes.reducer" and s[7] and not child_names & {
                "stieltjes.reducer.lipschitz", "stieltjes.reducer.derivative"}:
            calls["stieltjes.reducer.analytic"] += 1
            busy["stieltjes.reducer.analytic"] += dur(s)
            size["stieltjes.reducer.analytic"] += s[6]
        elif name == "measures.Measure.discretize":
            parent = by_id.get(s[1])
            if parent is not None and parent[3] == "orthopoly.generic":
                calls["generic_levels"] += 1
        elif name == "stieltjes.reducer.lipschitz":
            for c in kids[s[0]]:
                if c[3] == "quadrature.map_nodes" and c[6] is not None:
                    cells = (s[6] or 0) * c[6]
                    size["kernel_cells"] += cells
                    size["max_kernel_mb"] = max(size["max_kernel_mb"],
                                                cells * 8 / 2**20)

    per_job = max(jobs, 1)
    out = {"cli.import_s": import_s / per_job}
    for metric in PER_LAYER:
        if metric in out or metric.startswith("trace."):
            continue
        name, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = calls[name] / per_job
        elif stat == "busy_s":
            out[metric] = busy[name] / per_job
        elif stat == "self_s":
            out[metric] = self_s[name] / per_job
        elif stat in ("nodes", "points", "cells"):
            out[metric] = size[name] / per_job
    integ = calls["quadrature.integrate"]
    out["quadrature.integrate.converged_ratio"] = (
        size["quadrature.integrate"] / integ if integ else 1.0)
    gen = calls["orthopoly.generic"]
    out["orthopoly.generic.levels_per_call"] = (
        calls["generic_levels"] / gen if gen else 0.0)
    out["stieltjes.reducer.kernel_cells"] = size["kernel_cells"] / per_job
    out["stieltjes.reducer.max_kernel_mb"] = size["max_kernel_mb"]
    return out
