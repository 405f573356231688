"""Span recorder for the traced benchmark run.

The recorder lives entirely in the benchmark: it replaces public functions
of the ``assouad_lab`` modules with wrappers that open a span around the
original call, and puts the originals back afterwards.  ``src/`` is never
edited.  Each name is patched where callers look it up: the CLI binds
``build_index``, ``deepest_level`` and ``load_points`` by name, so those
are patched in ``assouad_lab.cli`` as well as in their defining module.

A name that a later version of the package no longer has is skipped and
listed in ``Tracer.missing``; its layer then reads 0.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Parent-linked spans, kept in memory until the pass ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped != span.sid:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn, counters=None):
        """Wrapper recording a span around ``fn``; ``counters(args, result)``
        returns a dict of work counts for the span."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counters is not None:
                try:
                    span.counters = counters(args, kwargs, result)
                except (AttributeError, TypeError, ValueError, OSError):
                    span.counters = {}  # an API change loses the count, not the run
            return result

        return traced

    def install(self, targets) -> None:
        """Patch every ``(module[:Class], attribute, span name, counters)`` target."""
        for where, attr, name, counters in targets:
            module_name, _, class_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{where}.{attr}")
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counters))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of it its direct children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def span_summary(spans: list[Span]) -> list[dict]:
    """Every span but the per-call counting ones, in start order, with the
    counting time below each folded into ``count_s``."""
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    count_s: dict[int, float] = {}
    for s in spans:
        if s.name == "estimators.count":
            parent = s.parent
            while parent is not None:
                count_s[parent] = count_s.get(parent, 0.0) + (s.end - s.start)
                parent = by_id[parent].parent
    return [
        {"name": s.name, "parent": None if s.parent is None else by_id[s.parent].name,
         "s": s.end - s.start, "self_s": selfs[s.sid], "count_s": count_s.get(s.sid, 0.0),
         **s.counters}
        for s in spans if s.name != "estimators.count"
    ]


# ---- counters ------------------------------------------------------------
# Counters read only public attributes of the arguments and the result.
# Those marked "computed" are derived from sizes, not counted by the program.


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _file_bytes(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def load_counters(args, kwargs, result):
    return {"bytes": _file_bytes(_arg(args, kwargs, 0, "path"))}


def emit_counters(args, kwargs, result):
    return {"bytes": _file_bytes(_arg(args, kwargs, 1, "path"))}


def points_counters(args, kwargs, result):
    return {"points": len(result)}


def index_counters(args, kwargs, result):
    return {
        "points": len(_arg(args, kwargs, 0, "ps")),
        "cells": sum(result.occupied_count(m) for m in range(result.max_level + 1)),
        "levels": result.max_level,
    }


def fps_counters(args, kwargs, result):
    # computed: one distance pass over all N points per FPS round
    n = len(_arg(args, kwargs, 0, "points"))
    return {"dist_evals": n * len(result) if n > len(result) else 0}


def count_counters(args, kwargs, result):
    # computed: every occupied cell at the level is tested against every radius
    idx, level = args[0], _arg(args, kwargs, 1, "level")
    return {"calls": 1, "cell_tests": idx.occupied_count(int(level)) * len(result)}


def bounds_counters(args, kwargs, result):
    return {"thetas": len(_arg(args, kwargs, 0, "theta_grid"))}


def one(name):
    return lambda args, kwargs, result: {name: 1}


TARGETS = (
    ("assouad_lab.cli", "load_points", "geometry.load", load_counters),
    ("assouad_lab.geometry", "load_points", "geometry.load", load_counters),
    ("assouad_lab.geometry:PointSet", "to_csv", "geometry.emit", emit_counters),
    ("assouad_lab.geometry:PointSet", "to_json", "geometry.emit", emit_counters),
    ("assouad_lab.families", "sample_family", "families.sample", points_counters),
    ("assouad_lab.maps", "apply_map", "maps.apply", points_counters),
    ("assouad_lab.cli", "build_index", "index.build", index_counters),
    ("assouad_lab.index", "build_index", "index.build", index_counters),
    ("assouad_lab.cli", "deepest_level", "index.deepest", None),
    ("assouad_lab.index", "deepest_level", "index.deepest", None),
    ("assouad_lab.estimators", "select_centers", "estimators.centers", None),
    ("assouad_lab.estimators", "farthest_point_sample", "estimators.fps", fps_counters),
    ("assouad_lab.index:MultiScaleIndex", "count_intersecting_many", "estimators.count",
     count_counters),
    ("assouad_lab.estimators", "estimate_spectrum", "estimators.sweep", one("sweeps")),
    ("assouad_lab.estimators", "estimate_box_dim", "estimators.box", one("box_calls")),
    ("assouad_lab.bounds", "spectrum_bound_report", "bounds.report", bounds_counters),
)

#: Per-layer metric -> (unit, better).  Times are seconds per pass of the
#: workload's timed calls and counts are totals over that pass; the unit
#: ``computed-count`` marks counts derived from sizes.
LAYER_METRICS = {
    "geometry.load_s": ("s", "lower"),
    "geometry.load_bytes": ("bytes", "lower"),
    "geometry.emit_s": ("s", "lower"),
    "geometry.emit_bytes": ("bytes", "lower"),
    "families.sample_s": ("s", "lower"),
    "families.points": ("count", "lower"),
    "maps.apply_s": ("s", "lower"),
    "maps.points": ("count", "lower"),
    "index.build_s": ("s", "lower"),
    "index.points": ("count", "lower"),
    "index.cells": ("count", "lower"),
    "index.levels": ("count", "lower"),
    "estimators.centers_s": ("s", "lower"),
    "estimators.fps_s": ("s", "lower"),
    "estimators.hotspots_s": ("s", "lower"),
    "estimators.fps_dist_evals": ("computed-count", "lower"),
    "estimators.count_s": ("s", "lower"),
    "estimators.count_calls": ("count", "lower"),
    "estimators.count_cell_tests": ("computed-count", "lower"),
    "estimators.fit_s": ("s", "lower"),
    "estimators.box_s": ("s", "lower"),
    "estimators.sweeps": ("count", "lower"),
    "estimators.box_calls": ("count", "lower"),
    "bounds.report_s": ("s", "lower"),
    "bounds.thetas": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_values(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but ``trace.overhead_s``)."""
    selfs = self_times(spans)
    self_by: dict[str, float] = {}
    total_by: dict[str, float] = {}
    counts: dict[str, float] = {}
    for s in spans:
        self_by[s.name] = self_by.get(s.name, 0.0) + selfs[s.sid]
        total_by[s.name] = total_by.get(s.name, 0.0) + (s.end - s.start)
        for key, v in s.counters.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + v
    centers = total_by.get("estimators.centers", 0.0)
    fps = total_by.get("estimators.fps", 0.0)
    return {
        "geometry.load_s": self_by.get("geometry.load", 0.0),
        "geometry.load_bytes": counts.get("geometry.load.bytes", 0),
        "geometry.emit_s": self_by.get("geometry.emit", 0.0),
        "geometry.emit_bytes": counts.get("geometry.emit.bytes", 0),
        "families.sample_s": self_by.get("families.sample", 0.0),
        "families.points": counts.get("families.sample.points", 0),
        "maps.apply_s": self_by.get("maps.apply", 0.0),
        "maps.points": counts.get("maps.apply.points", 0),
        "index.build_s": self_by.get("index.build", 0.0) + self_by.get("index.deepest", 0.0),
        "index.points": counts.get("index.build.points", 0),
        "index.cells": counts.get("index.build.cells", 0),
        "index.levels": counts.get("index.build.levels", 0),
        "estimators.centers_s": centers,
        "estimators.fps_s": fps,
        "estimators.hotspots_s": centers - fps,
        "estimators.fps_dist_evals": counts.get("estimators.fps.dist_evals", 0),
        "estimators.count_s": total_by.get("estimators.count", 0.0),
        "estimators.count_calls": counts.get("estimators.count.calls", 0),
        "estimators.count_cell_tests": counts.get("estimators.count.cell_tests", 0),
        "estimators.fit_s": self_by.get("estimators.sweep", 0.0),
        "estimators.box_s": total_by.get("estimators.box", 0.0),
        "estimators.sweeps": counts.get("estimators.sweep.sweeps", 0),
        "estimators.box_calls": counts.get("estimators.box.box_calls", 0),
        "bounds.report_s": self_by.get("bounds.report", 0.0),
        "bounds.thetas": counts.get("bounds.report.thetas", 0),
        "cli.self_s": self_by.get("cli.main", 0.0),
    }
