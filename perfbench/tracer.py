"""Span tracing from outside the program: wraps viewret's public functions.

`install` replaces every public function of the traced modules under each
name a viewret module binds it to. The CLI's ``from .select import
score_grid`` binds ``viewret.cli.score_grid``, and ``select_viewpoint`` calls
``orient_axis`` through ``viewret.select``'s own globals, so wrapping only
the defining module would miss most calls. Spans nest by call stack; a
span's self time is its duration minus the durations of its direct
children. Nothing under ``src/`` changes, and an untraced run never calls
`install`, so it measures the program as shipped.

The workloads run single-threaded (the CLI's ``threads=1``), which is what
lets one stack stand for the call tree.
"""

import functools
import importlib
import os
import sys
import time
import types

import numpy as np

TRACED_MODULES = ("geometry", "select", "render", "features", "encode", "io", "scansim",
                  "evaluate", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# per-span counters, computed from a call's arguments and result after the
# span has closed, so they cost the parent span and not the layer itself
COUNTERS = {
    "select.score_grid": lambda a, k, r: {"cells": int(r.quantity.size)},
    "encode.fit_gmm": lambda a, k, r: {"iterations": len(r.log_likelihoods),
                                       "rows": len(_arg(a, k, 0, "features"))},
    "encode.fisher_vector": lambda a, k, r: {
        "rows": len(np.atleast_2d(np.asarray(_arg(a, k, 0, "features"))))},
    "features.extract_features": lambda a, k, r: {"rows": len(r)},
    "encode.query_db": lambda a, k, r: {"entries": len(_arg(a, k, 0, "db").entries)},
    "io.read_descriptor_db": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "scansim.simulate_scan": lambda a, k, r: {"points": len(r.cloud)},
}

# (metric name, unit) reported by a traced run; `<span>.<stat>` reads the
# aggregate of span `<span>`, `<module>.errors` the ViewretErrors that left
# that module, and `trace.*` the tracer's own bookkeeping
PER_LAYER = (
    ("select.score_grid.self_s", "s"),
    ("select.score_grid.total_s", "s"),
    ("select.score_grid.cells", "count"),
    ("render.render_point_cloud.calls", "count"),
    ("render.render_point_cloud.self_s", "s"),
    ("render.eight_connected_count.self_s", "s"),
    ("render.foreground_count.self_s", "s"),
    ("geometry.project_points.self_s", "s"),
    ("select.orient_axis.self_s", "s"),
    ("select.ransac_viewpoint.self_s", "s"),
    ("select.best_resolution_for_viewpoint.self_s", "s"),
    ("encode.fit_gmm.self_s", "s"),
    ("encode.fit_gmm.iterations", "count"),
    ("encode.fit_gmm.s_per_iteration", "s"),
    ("encode.fit_gmm.rows", "count"),
    ("encode.gmm_posteriors.self_s", "s"),
    ("encode.fisher_vector.calls", "count"),
    ("encode.fisher_vector.self_s", "s"),
    ("encode.fisher_vector.total_s", "s"),
    ("encode.fisher_vector.rows", "count"),
    ("features.extract_features.calls", "count"),
    ("features.extract_features.self_s", "s"),
    ("features.extract_features.rows", "count"),
    ("render.render_mesh.calls", "count"),
    ("render.render_mesh.self_s", "s"),
    ("encode.pool_database_features.self_s", "s"),
    ("encode.build_db.self_s", "s"),
    ("encode.query_db.self_s", "s"),
    ("encode.query_db.entries", "count"),
    ("io.read_descriptor_db.self_s", "s"),
    ("io.read_descriptor_db.bytes", "bytes"),
    ("io.read_gmm.self_s", "s"),
    ("io.load_xyz.self_s", "s"),
    ("io.write_gmm.self_s", "s"),
    ("io.write_descriptor_db.self_s", "s"),
    ("io.load_manifest.self_s", "s"),
    ("evaluate.run_benchmark.self_s", "s"),
    ("scansim.simulate_scan.self_s", "s"),
    ("scansim.simulate_scan.points", "count"),
    ("evaluate.make_synthetic_dataset.self_s", "s"),
    ("geometry.normalize_pose.self_s", "s"),
    ("cli.run.self_s", "s"),
) + tuple((f"{module}.errors", "count") for module in TRACED_MODULES) + (
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_s", "s"),
)


class Tracer:
    """Records nested spans in memory and aggregates them by name."""

    def __init__(self, error_type=Exception, clock=time.perf_counter):
        self.clock = clock
        self.error_type = error_type
        self.origin = clock()
        self.spans = []          # [id, parent id or -1, name, start, end], in close order
        self.stats = {}          # name -> {"calls", "self_s", "total_s", counters...}
        self.errors = {}         # module -> ViewretErrors that crossed out of it
        self._stack = []         # open spans: [id, name, start, child seconds]
        self._next_id = 0

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(frame, exc)
                raise
            self._exit(frame, None)
            if counter is not None:
                stat = self.stats[name]
                for key, value in counter(args, kwargs, result).items():
                    stat[key] = stat.get(key, 0) + value
            return result

        return traced

    def _enter(self, name):
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = self.clock()
        return frame

    def _exit(self, frame, exc):
        end = self.clock()
        span_id, name, start, child_s = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        stat = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        stat["calls"] += 1
        stat["self_s"] += duration - child_s
        stat["total_s"] += duration
        self.spans.append([span_id, parent[0] if parent is not None else -1, name,
                           start - self.origin, end - self.origin])
        if isinstance(exc, self.error_type):
            module = name.split(".", 1)[0]
            if parent is None or parent[1].split(".", 1)[0] != module:
                self.errors[module] = self.errors.get(module, 0) + 1

    def top_level_s(self) -> float:
        return sum(end - start for _, parent, _, start, end in self.spans if parent < 0)

    def layer_metrics(self, wall_s: float) -> dict:
        """Every PER_LAYER value except trace.overhead_s, which needs the untraced run.

        A span that never ran reads 0, so each workload reports the same names.
        """
        out = {}
        for metric, _ in PER_LAYER:
            owner, stat = metric.rsplit(".", 1)
            if owner == "trace":
                continue
            if stat == "errors":
                out[metric] = self.errors.get(owner, 0)
                continue
            agg = self.stats.get(owner, {})
            if stat == "s_per_iteration":
                iterations = agg.get("iterations", 0)
                out[metric] = agg["self_s"] / iterations if iterations else 0.0
            else:
                out[metric] = agg.get(stat, 0)
        out["trace.wall_s"] = wall_s
        out["trace.spans"] = len(self.spans)
        out["trace.uncovered_s"] = wall_s - self.top_level_s()
        return out


def install(tracer: Tracer, package: str = "viewret") -> list:
    """Wrap the traced modules' public functions everywhere viewret binds them.

    Returns the replaced bindings for `uninstall`.
    """
    names = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"{package}.{short}")
        for attr, obj in vars(module).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                names[obj] = f"{short}.{attr}"
    wrappers = {fn: tracer.wrap(fn, name) for fn, name in names.items()}
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == package or module_name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                patched.append((module, attr, obj))
    return patched


def uninstall(patched: list) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)
