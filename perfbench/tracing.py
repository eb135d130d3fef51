"""Per-layer spans for the traced benchmark run, recorded from outside.

The program itself carries no instrumentation.  ``Tracer.install`` wraps
the public entry points of each layer and rebinds the wrapper under every
name a ``daugavetlab`` module holds the function by, so calls between
modules (criteria -> operators, scenarios -> criteria, disk -> disk) are
seen too.  ``uninstall`` restores the originals.

Per-point calls (``ScalarField.__call__``, ``total_variation``, ...) are
never wrapped: at tens of thousands of calls per unit the wrapper would
cost more than the work.  Their share is measured by direct passes over
each unit's objects instead (see ``run.py``).

A span is ``[id, name, start, end, parent id, unit, counts]``.  Spans are
kept in memory for the whole run and written out at the end.  A layer's
self time is its span's duration minus the durations of its direct
children; spans of one unit are nested and sequential (one thread).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "daugavetlab"

FAMILY_PASSES = ("operators.profile", "operators.perturbed_norm",
                 "operators.operator_norm", "operators.convex_combo")

#: (module, function, span name, what to count).  A name missing from the
#: program is skipped, so the tracer keeps working when an entry point is
#: removed; its layer then reports zero.
ENTRY_POINTS = (
    ("operators", "perturbation_profile", "operators.profile", "grid"),
    ("operators", "perturbed_norm", "operators.perturbed_norm", "grid"),
    ("operators", "operator_norm", "operators.operator_norm", "grid"),
    ("operators", "convex_combo_perturbed_norm", "operators.convex_combo", "grid"),
    ("operators", "rotation_max_norm", "operators.lambda_search", None),
    ("criteria", "equation_holds", "criteria.equation", None),
    ("criteria", "criterion_sweep", "criteria.sweep", None),
    ("criteria", "s_epsilon_fraction", "criteria.s_epsilon", None),
    ("criteria", "counterexample_nonconstant_modulus", "criteria.counterexample", None),
    ("criteria", "counterexample_fat_preimage", "criteria.counterexample", None),
    ("criteria", "refinement_convergence", "criteria.refinement", None),
    ("criteria", "convex_center_check", "criteria.convex", None),
    ("disk", "disk_norm_lower_bound", "disk.ladder", "ladder"),
    ("disk", "certified_counterexample_bound", "disk.certified", None),
    ("disk", "check_c_conditions", "disk.c_conditions", None),
    ("sampling", "random_unimodular_field", "sampling.generate", "capture"),
    ("sampling", "random_constant_modulus_field", "sampling.generate", "capture"),
    ("sampling", "random_nonconstant_weight", "sampling.generate", "capture"),
    ("sampling", "random_symbol", "sampling.generate", "capture"),
    ("sampling", "random_measure", "sampling.generate", "capture"),
    ("sampling", "random_finite_rank", "sampling.generate", "capture"),
    ("sampling", "random_fat_preimage_setup", "sampling.generate", "capture"),
)


def _grid_size(args, kwargs, grid_type) -> int | None:
    """Size of the grid argument: a grid object or a plain point count."""
    for arg in (*args, *kwargs.values()):
        if isinstance(arg, grid_type):
            return arg.n
    for arg in (*args, *kwargs.values()):
        if isinstance(arg, int) and not isinstance(arg, bool):
            return arg
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.unit: int | None = None
        # (function name, result, grid size, parent span name) of every
        # instance the sampling layer produced in the current unit
        self.captured: list[tuple] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, time.perf_counter(), None, parent,
                self.unit, {}]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes itself."""
        span = self._open(name)
        try:
            yield span[6]
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, count: str | None, grid_type):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count == "grid":
                size = _grid_size(args, kwargs, grid_type)
                if size is not None:
                    span[6]["grid_points"] = size
            elif count == "ladder":
                span[6]["functions"] = result.family_size
                span[6]["evals"] = result.family_size * result.samples
            elif count == "capture":
                parent = tracer.spans[span[4]][1] if span[4] is not None else None
                tracer.captured.append((fn.__name__, result,
                                        _grid_size(args, kwargs, grid_type), parent))
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        grid_type = sys.modules[PACKAGE].GridCircle
        for modname, attr, name, count in ENTRY_POINTS:
            home = sys.modules.get(f"{PACKAGE}.{modname}")
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, name, count, grid_type)
            for module in modules:
                keys = [k for k, v in vars(module).items() if v is fn]
                for key in keys:
                    self._patched.append((module, key, fn))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Self seconds, call count and summed counters per span name."""
    child_time: dict[int, float] = defaultdict(float)
    for sid, _name, start, end, parent, _unit, _counts in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for sid, name, start, end, _parent, _unit, counts in spans:
        entry = totals[name]
        entry["self_s"] += (end - start) - child_time[sid]
        entry["calls"] += 1
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value
    return dict(totals)
