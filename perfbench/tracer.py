"""Span recording around the public functions of each weakkam module, and
the reduction of recorded spans to per-layer metrics.

`Tracer.install` replaces each traced function in every loaded ``weakkam.*``
module namespace that holds it, so a caller that imported the name (``from
.measures import lp_solve``) calls the wrapper too.  Each call records one
span: name, start, end, parent span and pass id.  Counters of real work
(sweeps, pivots, bytes) are read from arguments and return values at the
same boundary.  Nothing under ``src/`` is modified.

This module imports neither weakkam nor numpy at import time: the harness
process uses the reduction half, the pass process the recording half.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

# ---------------------------------------------------------------------------
# counters read at the traced boundaries
# ---------------------------------------------------------------------------


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + int(value)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _returned(fn):
    """Hook that calls `fn(counters, result)` for calls that returned."""
    def hook(counters, args, kwargs, result, exc):
        if exc is None:
            fn(counters, result)
    return hook


def nnz(A):
    if hasattr(A, "nnz"):                     # scipy.sparse
        return int(A.nnz)
    import numpy as np
    return int(np.count_nonzero(A))


def _lp_size(counters, problem):
    """Largest LP built so far: rows, columns and nonzeros of its A."""
    rows, cols = problem.A.shape
    for key, value in (("rows", rows), ("cols", cols), ("nnz", nnz(problem.A))):
        key = f"measures.lp_{key}"
        counters[key] = max(counters.get(key, 0), int(value))


def _relax_sweeps(counters, args, kwargs, result, exc):
    if exc is None:
        _add(counters, "critical.relax_sweeps", result[1])
        return
    # relax_batch raises NegativeCycle only once its sweep cap is used up
    cap = _arg(args, kwargs, 3, "max_sweeps")
    if cap is None:
        cap = 2 * _arg(args, kwargs, 2, "D0").shape[1] + 64
    _add(counters, "critical.relax_sweeps", cap)


def _aubry(counters, result):
    nodes, _cycle, exact, _eps = result
    _add(counters, "critical.aubry_nodes", len(nodes))
    _add(counters, "critical.aubry_candidates", exact.sum())


def _mather_retry(counters, args, kwargs, result, exc):
    # both callers of a warm-started Mather LP retry it cold when it raises
    if exc is not None and _arg(args, kwargs, 2, "basis0") is not None:
        _add(counters, "simplex.cold_retries", 1)


def _simplex(counters, result):
    _add(counters, "simplex.pivots", result.iterations)
    _add(counters, "simplex.dropped_rows", len(result.dropped_rows))


def _barrier_queries(counters, args, kwargs, result, exc):
    if exc is None:
        _add(counters, "limits.barrier_queries",
             len(_arg(args, kwargs, 2, "query_nodes")))


def _io_bytes(counters, path):
    _add(counters, "io.bytes", os.path.getsize(path))


# (module, function, hook); the span name is "<module>.<function>"
TARGETS = [
    ("cli", "build_context", None),
    ("grids", "build_transition", None),
    ("grids", "interpolate", None),
    ("discounted", "solve_discounted",
     _returned(lambda c, r: _add(c, "discounted.sweeps", r.iterations))),
    ("models", "lagrangian_table", None),
    ("models", "support_batch", None),
    ("models", "support_function", None),
    ("models", "sublevel_radius", None),
    ("critical", "edge_costs", None),
    ("critical", "reverse_edge_costs", None),
    ("critical", "relax_batch", _relax_sweeps),
    ("critical", "critical_value",
     _returned(lambda c, r: _add(c, "critical.bisection_levels", len(r.trace)))),
    ("critical", "aubry_set", _returned(_aubry)),
    ("critical", "intrinsic_distance", None),
    ("measures", "build_ergodic_lp", _returned(_lp_size)),
    ("measures", "build_discounted_lp", _returned(_lp_size)),
    ("measures", "build_mather_polytope", _returned(_lp_size)),
    ("measures", "lp_solve", None),
    ("measures", "optimize_over_mather", _mather_retry),
    ("simplex", "solve_lp", _returned(_simplex)),
    ("limits", "sample_vertex_measures",
     _returned(lambda c, r: _add(c, "limits.vertices", len(r)))),
    ("limits", "enric1_values", _barrier_queries),
    ("limits", "selected_solution_deflim", None),
    ("io", "write_csv", _returned(_io_bytes)),
    ("io", "write_json", _returned(_io_bytes)),
    ("io", "write_line_svg", _returned(_io_bytes)),
    ("io", "write_manifest", None),
]

# the pass process opens this span around each cli.main call
ROOT_SPAN = "cli.main"

# per-layer busy seconds: the union of the intervals of the listed spans
# (a span nested inside another span of the same metric is not counted twice)
LAYER_TIMES = {
    "cli.build_context_s": ["cli.build_context"],
    "grids.transition_s": ["grids.build_transition"],
    "grids.interpolate_s": ["grids.interpolate"],
    "discounted.solve_s": ["discounted.solve_discounted"],
    "models.lagrangian_s": ["models.lagrangian_table"],
    "models.support_s": ["models.support_batch", "models.support_function",
                         "models.sublevel_radius"],
    "critical.reverse_costs_s": ["critical.reverse_edge_costs"],
    "critical.edge_costs_s": ["critical.edge_costs"],
    "critical.bisection_s": ["critical.critical_value"],
    "critical.relax_s": ["critical.relax_batch"],
    "critical.aubry_s": ["critical.aubry_set"],
    "critical.distance_s": ["critical.intrinsic_distance"],
    "measures.lp_build_s": ["measures.build_ergodic_lp", "measures.build_discounted_lp",
                            "measures.build_mather_polytope"],
    "measures.lp_solve_s": ["measures.lp_solve", "measures.optimize_over_mather"],
    "simplex.solve_s": ["simplex.solve_lp"],
    "limits.vertex_sampling_s": ["limits.sample_vertex_measures"],
    "limits.barrier_s": ["limits.enric1_values"],
    "limits.trace_s": ["limits.selected_solution_deflim"],
    "io.write_s": ["io.write_csv", "io.write_json", "io.write_line_svg",
                   "io.write_manifest"],
}

# per-layer call counts: the number of spans with the listed names
LAYER_CALLS = {
    "grids.interpolate_calls": ["grids.interpolate"],
    "discounted.solves": ["discounted.solve_discounted"],
    "models.sublevel_radius_calls": ["models.sublevel_radius"],
    "critical.relax_calls": ["critical.relax_batch"],
    "critical.distance_fields": ["critical.intrinsic_distance"],
    "measures.lp_solves": ["measures.lp_solve", "measures.optimize_over_mather"],
    "simplex.solves": ["simplex.solve_lp"],
    "io.files": ["io.write_csv", "io.write_json", "io.write_line_svg"],
}

# counters filled by the hooks above
LAYER_COUNTERS = [
    "discounted.sweeps", "critical.relax_sweeps", "critical.bisection_levels",
    "critical.aubry_candidates", "critical.aubry_nodes", "measures.lp_rows",
    "measures.lp_cols", "measures.lp_nnz", "simplex.pivots", "simplex.dropped_rows",
    "simplex.cold_retries", "limits.vertices", "limits.barrier_queries", "io.bytes",
]

MODULES = ["cli", "grids", "discounted", "models", "critical", "measures",
           "simplex", "limits", "io"]

# every per-layer metric a traced run reports, besides trace.overhead_s
LAYER_METRICS = (list(LAYER_TIMES) + list(LAYER_CALLS) + LAYER_COUNTERS
                 + ["measures.lp_dense_mb"] + [f"{m}.self_s" for m in MODULES])


# ---------------------------------------------------------------------------
# recording (pass process)
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span store of one pass process, written out once at exit."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.names = []
        self.name_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = [-1]
        self.counters = {}
        self.patched = []
        self.missing = []

    def wrap(self, name, fn, hook=None):
        """Return `fn` wrapped so that every call records a span."""
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end, parent, stack = (self.name_of, self.start, self.end,
                                              self.parent, self.stack)
        counters, clock = self.counters, time.monotonic

        def traced(*args, **kwargs):
            k = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(k)
            result = exc = None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end[k] = clock()
                stack.pop()
                if hook is not None:
                    hook(counters, args, kwargs, result, exc)

        traced.__wrapped__ = fn
        return traced

    def install(self, package="weakkam"):
        """Patch each traced function wherever a module of `package` holds it."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")}
        for mod_name, fn_name, hook in TARGETS:
            home = modules.get(f"{package}.{mod_name}")
            fn = getattr(home, fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self.wrap(f"{mod_name}.{fn_name}", fn, hook)
            for holder_name, holder in modules.items():
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapper)
                        self.patched.append(f"{holder_name}.{attr}")

    def dump(self, path):
        """Write a JSON header to `path` and the span columns to `path`.bin."""
        with open(f"{path}.bin", "wb") as fh:
            for col in (self.name_of, self.start, self.end, self.parent):
                col.tofile(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pass": self.pass_id, "spans": len(self.start),
                       "names": self.names, "counters": self.counters,
                       "patched": self.patched, "missing": self.missing}, fh)


def load(path):
    """Read back what `Tracer.dump` wrote."""
    with open(path, "r", encoding="utf-8") as fh:
        trace = json.load(fh)
    n = trace["spans"]
    with open(f"{path}.bin", "rb") as fh:
        for key, code in (("name", "q"), ("start", "d"), ("end", "d"), ("parent", "q")):
            col = array(code)
            col.fromfile(fh, n)
            trace[key] = col
    return trace


# ---------------------------------------------------------------------------
# reduction (harness process)
# ---------------------------------------------------------------------------

def layer_metrics(trace):
    """Per-layer metrics of one traced pass, and a per-span table.

    Returns (metrics, spans).  `metrics` holds every name in LAYER_METRICS.
    `spans` maps each span name to its call count, inclusive seconds (its
    outermost calls only) and self seconds (duration minus the time its
    child spans cover).  The module self times `<module>.self_s` partition
    the time spent inside the root `cli.main` spans.
    """
    names = trace["names"]
    name_of, start, end, parent = (trace["name"], trace["start"], trace["end"],
                                   trace["parent"])
    n = len(name_of)
    dur = [end[k] - start[k] for k in range(n)]
    child = [0.0] * n
    for k in range(n):
        if parent[k] >= 0:
            child[parent[k]] += dur[k]

    metric_of = {s: metric for metric, group in LAYER_TIMES.items() for s in group}
    metric_ids = [metric_of.get(name) for name in names]
    busy = {metric: 0.0 for metric in LAYER_TIMES}
    # the metrics and the names open on the chain from a span to the root,
    # itself included; spans are stored in call order, so parents come first
    chain = [None] * n
    memo = {}
    spans = {name: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0} for name in names}
    for k in range(n):
        up = chain[parent[k]] if parent[k] >= 0 else frozenset()
        name = names[name_of[k]]
        metric = metric_ids[name_of[k]]
        row = spans[name]
        row["calls"] += 1
        row["self_s"] += dur[k] - child[k]
        if name not in up:
            row["inclusive_s"] += dur[k]
        if metric is not None and metric not in up:
            busy[metric] += dur[k]
        key = (id(up), name)
        if key not in memo:
            memo[key] = (up, up | {name, metric})
        chain[k] = memo[key][1]
    spans = {name: row for name, row in spans.items() if row["calls"]}

    metrics = dict(busy)
    for metric, group in LAYER_CALLS.items():
        metrics[metric] = sum(spans[s]["calls"] for s in group if s in spans)
    for key in LAYER_COUNTERS:
        metrics[key] = trace["counters"].get(key, 0)
    # what the dense LP layer allocates for the largest A (computed, not measured)
    metrics["measures.lp_dense_mb"] = (metrics["measures.lp_rows"]
                                       * metrics["measures.lp_cols"] * 8 / 1e6)
    for mod in MODULES:
        metrics[f"{mod}.self_s"] = sum((row["self_s"] for name, row in spans.items()
                                        if name.split(".")[0] == mod), 0.0)
    return metrics, spans
