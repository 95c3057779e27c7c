"""Spans around the package's public functions, recorded from outside `src/`.

`install` replaces each traced function with a timing wrapper wherever the
package's modules look it up (its defining module, the modules that import
it by name, and the package namespace), so calls from one module into
another nest as child spans. `restore` puts the originals back. Spans stay in
memory as (function, start, end, parent, request, raised) until `write`.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from pathlib import Path
from typing import Iterable

PACKAGE = "biclique_imbalance"

TRACED = {
    "cli": ("main",),
    "graph": (
        "parse_edge_list",
        "parse_ordering",
        "bipartition",
        "is_complete_bipartite",
        "ordering_imbalance",
        "vertex_imbalance",
    ),
    "complete": (
        "min_imbalance_formula",
        "construct_optimal_complete",
        "verify_optimal_complete",
    ),
    "chained": (
        "decompose",
        "min_imbalance_chained",
        "construct_optimal_chained",
    ),
    "oracle": ("brute_force_min", "enumerate_optima"),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Collects spans; `request` tags each span with the instance being run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, float, float, int, int, bool]] = []
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            stack.append(index)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.request, raised)

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in TRACED]
        for name_id, name in enumerate(NAMES):
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path, header: str) -> None:
        with path.open("w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n# function\tstart\tend\tparent\trequest\traised\n")
            for name_id, start, end, parent, request, raised in self.spans:
                fh.write(f"{NAMES[name_id]}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\t{int(raised)}\n")


def self_times(spans: list[tuple[int, float, float, int, int, bool]]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name_id, start, end, parent, _req, _raised in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_n, start, end, _p, _r, _x) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def loglog_slope(points: Iterable[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); 0.0 without two distinct x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
