"""Spans at the layer boundaries of sematlas, recorded from outside the package.

The benchmark does not edit sematlas.  A ``Recorder`` rebinds public names
wherever a ``sematlas`` module binds them (so both the benchmark's own calls
and the calls one module makes into another go through a wrapper), records
one span per call, and puts every original back on exit.

Each span has a name, a start, an end and a parent.  A span's self time is
its duration minus the durations of its direct children; spans nest strictly
(one thread, stack discipline), so the self times of all spans in one
repetition plus the benchmark's own time add up to that repetition's wall
time exactly.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: Every traced name: (span name, module, attribute).  ``core.PolyhedralMap``
#: wraps the class's ``__init__`` (construction plus validation), so every
#: map built anywhere is one span.  Functions that callers reach as module
#: attributes (``semmap.save``) are rebound on their own module, so a call
#: inside that module (``save`` -> ``serialize``) nests as a child span.
TRACED = (
    ("cli.main", "sematlas.cli", "main"),
    ("enumeration.enumerate_sems", "sematlas.enumeration", "enumerate_sems"),
    ("classify.canonical_form", "sematlas.classify", "canonical_form"),
    ("classify.find_isomorphism", "sematlas.classify", "find_isomorphism"),
    ("classify.is_vertex_transitive", "sematlas.classify", "is_vertex_transitive"),
    ("classify.homological_systole", "sematlas.classify", "homological_systole"),
    ("classify.edge_graph_char_poly", "sematlas.classify", "edge_graph_char_poly"),
    ("core.PolyhedralMap", "sematlas.core", "PolyhedralMap.__init__"),
    ("core.is_orientable", "sematlas.core", "is_orientable"),
    ("core.is_semi_equivelar", "sematlas.core", "is_semi_equivelar"),
    ("core.surface_id", "sematlas.core", "surface_id"),
    ("constructions.build", "sematlas.constructions", "equivelar_series"),
    ("constructions.build", "sematlas.constructions", "truncate"),
    ("constructions.build", "sematlas.constructions", "dual"),
    ("constructions.build", "sematlas.constructions", "subdivide_to_3636"),
    ("constructions.build", "sematlas.constructions", "subdivide_3464_to_346"),
    ("constructions.build", "sematlas.constructions", "double_cover"),
    ("constructions.verify_covering", "sematlas.constructions", "verify_covering"),
    ("semmap.parse", "sematlas.semmap", "parse"),
    ("semmap.serialize", "sematlas.semmap", "serialize"),
    ("semmap.save", "sematlas.semmap", "save"),
    ("atlas.load_fixture", "sematlas.atlas", "load_fixture"),
)

SEARCH = "enumeration.enumerate_sems"
CANONICAL = "classify.canonical_form"
CONSTRUCT = "core.PolyhedralMap"

#: The spans behind the machine-independent counters.  Untraced
#: repetitions wrap only these, so the counters exist on every run.
COUNTED = frozenset({SEARCH, CANONICAL, CONSTRUCT})

CLASSIFY_TIMED = ("canonical_form", "find_isomorphism", "is_vertex_transitive",
                  "homological_systole", "edge_graph_char_poly")

#: Modules whose self times partition a traced repetition; ``bench`` is the
#: benchmark's own code (the repetition minus all top-level spans).
MODULES = ("cli", "enumeration", "classify", "core", "constructions",
           "semmap", "atlas", "bench")


def self_metric(module: str) -> str:
    return "enumeration.search_self_s" if module == "enumeration" else f"{module}.self_s"


def _per_layer_spec() -> list[tuple[str, str, str]]:
    spec = [
        ("enumeration.enumerate_sems.calls", "count", "lower"),
        ("enumeration.enumerate_sems.total_s", "s", "lower"),
        ("enumeration.enumerate_sems.cell_max_s", "s", "lower"),
        ("enumeration.completed_maps", "count", "lower"),
        ("enumeration.classes", "count", "higher"),
        ("enumeration.dedupe_yield", "ratio", "higher"),
    ]
    for fn in CLASSIFY_TIMED:
        spec += [
            (f"classify.{fn}.calls", "count", "lower"),
            (f"classify.{fn}.total_s", "s", "lower"),
            (f"classify.{fn}.p50_ms", "ms", "lower"),
            (f"classify.{fn}.tail_ms", "ms", "lower"),
            (f"classify.{fn}.tail_rank", "pct", "higher"),
        ]
    spec += [
        ("core.PolyhedralMap.calls", "count", "lower"),
        ("core.PolyhedralMap.total_s", "s", "lower"),
        ("core.is_orientable.total_s", "s", "lower"),
        ("core.is_semi_equivelar.total_s", "s", "lower"),
        ("constructions.build.total_s", "s", "lower"),
        ("constructions.verify_covering.total_s", "s", "lower"),
        ("semmap.parse.total_s", "s", "lower"),
        ("semmap.serialize.total_s", "s", "lower"),
        ("semmap.save.total_s", "s", "lower"),
        ("atlas.load_fixture.total_s", "s", "lower"),
    ]
    spec += [(self_metric(m), "s", "lower") for m in MODULES]
    spec += [
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return spec


#: (name, unit, better) of every metric a traced run prints, in order.
PER_LAYER = tuple(_per_layer_spec())


def sematlas_modules() -> list:
    """Every loaded module of the sematlas package, the package included."""
    return [m for k, m in list(sys.modules.items())
            if (k == "sematlas" or k.startswith("sematlas.")) and m is not None]


class Recorder:
    """Context manager that rebinds the named layer entry points.

    ``spans`` holds ``[name, start, end, parent_index, detail]`` lists;
    ``detail`` is ``(type, n, maps returned)`` for search spans.
    """

    def __init__(self, names):
        self.names = frozenset(names)
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if name == SEARCH:
                    t = args[0] if args else kwargs.get("t")
                    n = args[1] if len(args) > 1 else kwargs.get("n")
                    span[4] = (str(t), n, len(result))
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def __enter__(self):
        modules = sematlas_modules()
        for name, module_name, attr in TRACED:
            if name not in self.names:
                continue
            module = sys.modules.get(module_name)
            if attr == "PolyhedralMap.__init__":
                cls = getattr(module, "PolyhedralMap", None)
                if cls is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._rebind(cls, "__init__", self._wrap(name, cls.__init__))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, wrapped)
        return self

    def _rebind(self, owner, key, value):
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
        return False


def counters(spans) -> dict:
    """Machine-independent counts: per search cell, and call totals."""
    completed = defaultdict(int)
    for s in spans:
        if s[0] == CANONICAL and s[3] >= 0 and spans[s[3]][0] == SEARCH:
            completed[s[3]] += 1
    cells = [[s[4][0], s[4][1], completed[i], s[4][2]]
             for i, s in enumerate(spans) if s[0] == SEARCH and s[4] is not None]
    return {
        "cells": cells,  # [type, n, completed maps, classes]
        "completed_maps": sum(c[2] for c in cells),
        "classes": sum(c[3] for c in cells),
        "canonical_form_calls": sum(1 for s in spans if s[0] == CANONICAL),
        "polyhedral_map_constructions": sum(1 for s in spans if s[0] == CONSTRUCT),
    }


def self_times(spans, wall: float) -> dict[str, float]:
    """Self time per module; ``bench`` gets the wall time no span covers."""
    child_time = [0.0] * len(spans)
    top = 0.0
    for s in spans:
        d = s[2] - s[1]
        if s[3] >= 0:
            child_time[s[3]] += d
        else:
            top += d
    out = dict.fromkeys(MODULES, 0.0)
    for i, s in enumerate(spans):
        out[s[0].split(".", 1)[0]] += (s[2] - s[1]) - child_time[i]
    out["bench"] = wall - top
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, rank): the highest percentile with at least ten samples above it.

    With n samples that is the (n - 10)-th smallest, at rank 100 (n - 10) / n.
    Below 20 samples no rank above the median qualifies, and the median is
    returned with rank 50.
    """
    n = len(samples)
    if n == 0:
        return 0.0, 0.0
    xs = sorted(samples)
    if n < 20:
        return median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def median(xs) -> float:
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def per_layer(traced_reps, untraced_walls) -> dict[str, float]:
    """Per-layer metrics from traced repetitions ``[(wall, spans), ...]``.

    Counts, totals and self times come from the repetition with the median
    wall time, so the self times add up to ``trace.wall_s``; ``p50_ms`` and
    ``tail_ms`` pool the samples of every traced repetition.
    """
    ordered = sorted(traced_reps, key=lambda r: r[0])
    wall, spans = ordered[(len(ordered) - 1) // 2]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[0]].append(s[2] - s[1])
    pooled = defaultdict(list)
    for _, rep_spans in traced_reps:
        for s in rep_spans:
            pooled[s[0]].append(s[2] - s[1])
    c = counters(spans)
    search = by_name[SEARCH]
    out = {
        "enumeration.enumerate_sems.calls": len(search),
        "enumeration.enumerate_sems.total_s": sum(search),
        "enumeration.enumerate_sems.cell_max_s": max(search, default=0.0),
        "enumeration.completed_maps": c["completed_maps"],
        "enumeration.classes": c["classes"],
        "enumeration.dedupe_yield": (c["classes"] / c["completed_maps"]
                                     if c["completed_maps"] else 0.0),
    }
    for fn in CLASSIFY_TIMED:
        key = f"classify.{fn}"
        value, rank = tail(pooled[key])
        out[f"{key}.calls"] = len(by_name[key])
        out[f"{key}.total_s"] = sum(by_name[key])
        out[f"{key}.p50_ms"] = 1000 * median(pooled[key]) if pooled[key] else 0.0
        out[f"{key}.tail_ms"] = 1000 * value
        out[f"{key}.tail_rank"] = rank
    out["core.PolyhedralMap.calls"] = len(by_name[CONSTRUCT])
    for key in ("core.PolyhedralMap", "core.is_orientable", "core.is_semi_equivelar",
                "constructions.build", "constructions.verify_covering",
                "semmap.parse", "semmap.serialize", "semmap.save",
                "atlas.load_fixture"):
        out[f"{key}.total_s"] = sum(by_name[key])
    for module, value in self_times(spans, wall).items():
        out[self_metric(module)] = value
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - median(untraced_walls)
    return out
