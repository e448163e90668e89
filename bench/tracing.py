"""Out-of-program tracing for the benchmark's traced run.

``Tracer`` wraps every binding of the public functions of each ordtri module
(and the public classmethods of its classes), including names that another
module imported, such as ``ordtri.triangles.enumerate_lines``, and the private
pair kernel ``incidence._scaled_line_key``, whose calls measure pair passes.  A wrapper in
``geom`` only counts calls, because a span would swamp an O(1) predicate;
every other wrapper records a span (name, start ns, end ns, parent, run id).
Spans and counts stay in memory until ``dump``; ``uninstall`` puts every
original object back.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from collections import Counter, defaultdict
from math import comb
from time import perf_counter_ns

LAYERS = ("geom", "incidence", "triangles", "bounds", "generators", "pointfile", "cli")
COUNT_ONLY = ("geom",)

# The pair kernel that keys one point pair by its line.  It is private, so it
# is wrapped on purpose: its calls outside line_census, divided by C(n,2),
# measure the pair loops that key pairs by line (a loop over a subset of the
# points counts as its share of a full pass).  line_census groups pairs by
# direction inline, one loop per call, so each of its calls adds one pass.
PAIR_KEY = "incidence._scaled_line_key"
CENSUS = "incidence.line_census"

# Per-layer metrics: name -> (unit, better, [(end-to-end metric, workload)]
# it should move).  A name ending in _s is a span self time.
PER_LAYER = {
    "pointfile.parse_s": ("s", "lower", [("wall_per_ref", "bounds-projection")]),
    "pointfile.bytes": ("bytes", "lower", [("wall_per_ref", "bounds-projection")]),
    "incidence.line_census_s": ("s", "lower", [("wall_per_ref", "count-random"),
                                               ("cpu_per_ref", "count-random")]),
    "incidence.line_census_calls": ("count", "lower", [("wall_per_ref", "count-random")]),
    "incidence.enumerate_lines_s": ("s", "lower", [("wall_per_ref", "fast-random"), ("peak_rss_mb", "fast-random"),
                                                   ("wall_per_ref", "bounds-projection")]),
    "incidence.enumerate_lines_calls": ("count", "lower", [("wall_per_ref", "fast-random")]),
    "incidence.find_ordinary_line_s": ("s", "lower", [("wall_per_ref", "fast-random")]),
    "incidence.classify_degeneracy_s": ("s", "lower", []),
    "incidence.points_on_line_s": ("s", "lower", [("wall_per_ref", "fast-random"), ("wall_per_ref", "grid-count")]),
    "incidence.points_on_line_calls": ("count", "lower", [("wall_per_ref", "fast-random")]),
    "incidence.pair_passes": ("count", "lower", [("wall_per_ref", "count-random"), ("wall_per_ref", "fast-random")]),
    "incidence.lines": ("count", "lower", []),
    "incidence.coord_bits": ("bits", "lower", [("wall_per_ref", "bounds-projection")]),
    "incidence.self_s": ("s", "lower", [("wall_per_ref", "count-random"), ("wall_per_ref", "fast-random")]),
    "geom.canonical_line_of_calls": ("count", "lower", [("wall_per_ref", "fast-random")]),
    "geom.line_through_calls": ("count", "lower", [("wall_per_ref", "fast-random")]),
    "geom.intersect_calls": ("count", "lower", [("wall_per_ref", "grid-count")]),
    "geom.incident_calls": ("count", "lower", [("wall_per_ref", "bounds-projection")]),
    "geom.orientation_calls": ("count", "lower", []),
    "triangles.count_s": ("s", "lower", [("wall_per_ref", "grid-count")]),
    "triangles.rich_lines": ("count", "lower", [("wall_per_ref", "grid-count")]),
    "triangles.poor_graph_s": ("s", "lower", [("wall_per_ref", "bounds-projection")]),
    "triangles.poor_edges": ("count", "lower", [("wall_per_ref", "bounds-projection")]),
    "triangles.rich_line_s": ("s", "lower", [("wall_per_ref", "fast-random")]),
    "triangles.find_s": ("s", "lower", []),
    "triangles.oracle_calls": ("count", "lower", [("wall_per_ref", "fast-random")]),
    "triangles.self_s": ("s", "lower", [("wall_per_ref", "grid-count")]),
    "bounds.incidence_s": ("s", "lower", [("wall_per_ref", "bounds-projection")]),
    "bounds.incidence_tests": ("count", "lower", [("wall_per_ref", "bounds-projection")]),
    "bounds.check_st_s": ("s", "lower", []),
    "bounds.eg_s": ("s", "lower", []),
    "bounds.medium_sum_s": ("s", "lower", []),
    "bounds.self_s": ("s", "lower", [("wall_per_ref", "bounds-projection")]),
    "cli.self_s": ("s", "lower", []),
    "cli.report_bytes": ("bytes", "lower", []),
    "trace.overhead_ratio": ("ratio", "lower", []),
}


class Tracer:
    """Install with ``with Tracer() as t:``; call ``t.run(fn, *args)`` once per
    traced invocation."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start_ns, end_ns, parent, run]
        self.runs: list[dict] = []           # per run: calls and tallies
        self.run_id = -1
        self._calls: Counter = Counter()
        self._tallies: Counter = Counter()
        self._inputs: list = []              # point sets parsed in this run
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- installing ----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        layers = {layer: importlib.import_module(f"ordtri.{layer}") for layer in LAYERS}
        modules = [importlib.import_module("ordtri"), *layers.values()]
        wrappers = {}
        for layer, mod in layers.items():
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}", layer in COUNT_ONLY)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, raw in list(vars(obj).items()):
                        if not attr.startswith("_") and isinstance(raw, classmethod):
                            fn = self._wrap(raw.__func__, f"{layer}.{name}.{attr}",
                                            layer in COUNT_ONLY)
                            self._restore.append((obj, attr, raw))
                            setattr(obj, attr, classmethod(fn))
        key = layers["incidence"]._scaled_line_key
        wrappers[key] = self._wrap_pair_key(key)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name: str, count_only: bool):
        calls = self._calls
        if count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            record = [name, 0, 0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return spanned

    def _wrap_pair_key(self, fn):
        calls, spans, stack = self._calls, self.spans, self._stack

        @functools.wraps(fn)
        def keyed(*args, **kwargs):
            if not stack or spans[stack[-1]][0] != CENSUS:
                calls[PAIR_KEY] += 1
            return fn(*args, **kwargs)
        return keyed

    # --- running -------------------------------------------------------------

    def run(self, fn, *args):
        """One traced invocation of fn; its calls and tallies go to self.runs."""
        self.run_id += 1
        self._calls.clear()
        self._tallies.clear()
        self._inputs.clear()
        try:
            return fn(*args)
        finally:
            bits = 0
            for points in self._inputs:  # after the run: may compute the cache
                for x, y in points.scaled_ints[0]:
                    bits = max(bits, abs(x).bit_length(), abs(y).bit_length())
            self._tallies["incidence.coord_bits"] = bits
            pairs = comb(max(map(len, self._inputs), default=0), 2)
            self._tallies["incidence.pair_passes"] = round(
                self._calls[CENSUS] + (self._calls[PAIR_KEY] / pairs if pairs else 0), 2)
            self.runs.append({"calls": dict(self._calls), "tallies": dict(self._tallies)})
            self._inputs.clear()

    def self_times(self, run: int) -> dict[str, float]:
        """Seconds per span name: duration minus the time of its child spans."""
        total = defaultdict(int)
        for name, start, end, parent, run_id in self.spans:
            if run_id != run:
                continue
            total[name] += end - start
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return {name: ns / 1e9 for name, ns in total.items()}

    def main_seconds(self, run: int) -> float:
        return sum(end - start for name, start, end, parent, run_id in self.spans
                   if run_id == run and parent < 0) / 1e9

    def layer_metrics(self, run: int, report_bytes: int) -> dict[str, float]:
        """Every PER_LAYER metric of one run except trace.overhead_ratio."""
        own = self.self_times(run)
        calls = Counter(self.runs[run]["calls"])
        tallies = Counter(self.runs[run]["tallies"])

        def s(*names):
            return sum(own.get(n, 0.0) for n in names)

        def layer_s(layer):
            return sum((v for n, v in own.items() if n.startswith(layer + ".")), 0.0)

        return {
            "pointfile.parse_s": s("pointfile.parse_points"),
            "pointfile.bytes": tallies["pointfile.bytes"],
            "incidence.line_census_s": s("incidence.line_census"),
            "incidence.line_census_calls": calls["incidence.line_census"],
            "incidence.enumerate_lines_s": s("incidence.enumerate_lines"),
            "incidence.enumerate_lines_calls": calls["incidence.enumerate_lines"],
            "incidence.find_ordinary_line_s": s("incidence.find_ordinary_line"),
            "incidence.classify_degeneracy_s": s("incidence.classify_degeneracy"),
            "incidence.points_on_line_s": s("incidence.points_on_line"),
            "incidence.points_on_line_calls": calls["incidence.points_on_line"],
            "incidence.pair_passes": tallies["incidence.pair_passes"],
            "incidence.lines": tallies["incidence.lines"],
            "incidence.coord_bits": tallies["incidence.coord_bits"],
            "incidence.self_s": layer_s("incidence"),
            "geom.canonical_line_of_calls": calls["geom.CanonicalLine.of"],
            "geom.line_through_calls": calls["geom.line_through"],
            "geom.intersect_calls": calls["geom.intersect"],
            "geom.incident_calls": calls["geom.incident"],
            "geom.orientation_calls": calls["geom.orientation"],
            "triangles.count_s": s("triangles.count_c_ordinary"),
            "triangles.rich_lines": tallies["triangles.rich_lines"],
            "triangles.poor_graph_s": s("triangles.build_poor_graph"),
            "triangles.poor_edges": tallies["triangles.poor_edges"],
            "triangles.rich_line_s": s("triangles.find_case_rich_line"),
            "triangles.find_s": s("triangles.find_c_ordinary"),
            "triangles.oracle_calls": calls["triangles.enumerate_all_c_ordinary"],
            "triangles.self_s": layer_s("triangles"),
            "bounds.incidence_s": s("bounds.check_incidence_bound", "bounds.count_incidences"),
            "bounds.incidence_tests": tallies["bounds.incidence_tests"],
            "bounds.check_st_s": s("bounds.check_st", "bounds.st_threshold"),
            "bounds.eg_s": s("bounds.check_eg", "bounds.count_triangles", "bounds.eg_lower_bound"),
            "bounds.medium_sum_s": s("bounds.check_medium_sum"),
            "bounds.self_s": layer_s("bounds"),
            "cli.self_s": layer_s("cli"),
            "cli.report_bytes": report_bytes,
        }

    def dump(self, path) -> None:
        """Write every span and every run's counts as one JSON document."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "run"],
                       "spans": self.spans, "runs": self.runs}, fh)
        os.replace(tmp, path)


# --- observers: tallies read from a wrapped call's arguments and result -------

def _parse_points(t: Tracer, args, kwargs, result) -> None:
    t._tallies["pointfile.bytes"] += os.fstat(args[0].fileno()).st_size
    t._inputs.append(result)


def _lines(t: Tracer, args, kwargs, result) -> None:
    t._tallies["incidence.lines"] = max(t._tallies["incidence.lines"], result.line_count)
    if getattr(result, "rich_threshold", None) is not None:
        t._tallies["triangles.rich_lines"] = max(t._tallies["triangles.rich_lines"],
                                                  len(result.rich))


def _poor_graph(t: Tracer, args, kwargs, result) -> None:
    profile, c = args[1], args[2]
    t._tallies["triangles.poor_edges"] += result.edge_count
    t._tallies["triangles.rich_lines"] = max(
        t._tallies["triangles.rich_lines"], sum(1 for l in profile.entries.values() if l > c))


def _incidences(t: Tracer, args, kwargs, result) -> None:
    t._tallies["bounds.incidence_tests"] += len(args[0]) * len(args[1])


_OBSERVERS = {
    "pointfile.parse_points": _parse_points,
    "incidence.enumerate_lines": _lines,
    "incidence.line_census": _lines,
    "triangles.build_poor_graph": _poor_graph,
    "bounds.count_incidences": _incidences,
}
