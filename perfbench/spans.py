"""Spans around the package's public functions, and what they add up to.

The child side (`Tracer`) replaces every module binding of each traced
function with a wrapper that appends (name, start, end, parent, extra) to an
in-memory list; the list is written once, when the process exits.  The
parent side turns the spans of one iteration's processes into the per-layer
metrics declared in spec.PER_LAYER.

Traced names are looked up at install time.  A name that no longer exists
(a later refactor renamed or fused it) is recorded as missing, never raised.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time

# (module, attribute path) for every traced call site.  `_collision_at` is
# private: it is the row loop of the blow-up quadrature, wrapped as the probe
# that counts kernel evaluations.
TARGETS = [
    ("manifold", "h"),
    ("manifold", "f_plus"),
    ("quadrature", "graded_midpoint_nodes"),
    ("grid", "interp_weights"),
    ("equilibria", "match_rj"),
    ("collision", "ResonanceTable.__init__"),
    ("linearized", "assemble"),
    ("linearized", "multiplier_a"),
    ("linearized", "multiplier_at"),
    ("linearized", "measure_linear_decay"),
    ("linearized", "save_operator"),
    ("linearized", "load_operator"),
    ("linearized", "load_or_assemble"),
    ("dynamics", "PerturbationTables.__init__"),
    ("dynamics", "PerturbationTables.quadratic"),
    ("dynamics", "PerturbationTables.cubic"),
    ("dynamics", "evolve_perturbation"),
    ("experiments", "lp_blowup_norm"),
    ("experiments", "_collision_at"),
    ("experiments", "verify_suite"),
    ("experiments", "spectrum_experiment"),
]

PACKAGE = "phononlab"


def _nbytes(*arrays) -> int:
    total = 0
    for a in arrays:
        if isinstance(a, tuple):
            total += _nbytes(*a)
        else:
            total += int(a.nbytes)
    return total


# extra facts recorded on a span after the call returns, computed from the
# call's arguments and result (sizes, not timings)
def _extra_table(args, kwargs, result):
    tab = args[0]
    return {"bytes": _nbytes(tab.P1, tab.P3, tab.W, tab.i1, tab.i3)}


def _extra_perturbation_tables(args, kwargs, result):
    pt = args[0]
    tab = pt.tab
    return {"g_bytes": _nbytes(pt.G0, pt.G1, pt.G2, pt.G3),
            "gather_bytes": _nbytes(tab.i1) + _nbytes(tab.i3)}


def _extra_evolve(args, kwargs, result):
    op = kwargs.get("operator", args[3] if len(args) > 3 else None)
    return {"matrix_bytes": int(op.matrix.nbytes)} if op is not None else None


def _extra_save(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


def _extra_blowup_norm(args, kwargs, result):
    eps = kwargs.get("eps", args[0])
    return {"eps_log2": round(-math.log2(eps))}


def _extra_collision_at(args, kwargs, result):
    p0_vals, f, z_nodes = args[0], args[1], args[2]
    support = int((f(z_nodes) != 0.0).sum())
    return {"rows": int(p0_vals.size), "nodes": int(z_nodes.size), "support": support}


EXTRAS = {
    "collision.ResonanceTable.__init__": _extra_table,
    "dynamics.PerturbationTables.__init__": _extra_perturbation_tables,
    "dynamics.evolve_perturbation": _extra_evolve,
    "linearized.save_operator": _extra_save,
    "experiments.lp_blowup_norm": _extra_blowup_norm,
    "experiments._collision_at": _extra_collision_at,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list = []   # [name, t0, t1, parent, extra]
        self.missing: list = []
        self._stack: list = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extra_fn = EXTRAS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra_fn is not None:
                rec[4] = extra_fn(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = PACKAGE, targets=TARGETS) -> None:
        """Wrap every target, at every module binding that refers to it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for modname, attr in targets:
            name = f"{modname}.{attr}"
            mod = sys.modules.get(f"{package}.{modname}")
            owner, _, leaf = attr.rpartition(".")
            holder = mod
            for part in filter(None, owner.split(".")):
                holder = getattr(holder, part, None)
            fn = getattr(holder, leaf, None) if holder is not None else None
            if fn is None or not callable(fn):
                self.missing.append(name)
                continue
            traced = self.wrap(name, fn)
            if owner:  # a method: the class attribute is its only binding
                setattr(holder, leaf, traced)
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, traced)

    def dump(self) -> dict:
        return {"spans": self.spans, "missing": self.missing}


# ---------------------------------------------------------------------------
# parent side: spans -> metrics

def self_time(spans, i: int, children: dict) -> float:
    """Duration of span i minus the part of it its child spans cover."""
    _, t0, t1, _, _ = spans[i]
    covered = 0.0
    end = t0
    for j in sorted(children.get(i, ()), key=lambda k: spans[k][1]):
        c0, c1 = max(spans[j][1], end), min(spans[j][2], t1)
        if c1 > c0:
            covered += c1 - c0
            end = c1
    return (t1 - t0) - covered


def child_index(spans) -> dict:
    out: dict = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            out.setdefault(s[3], []).append(i)
    return out


def _ancestors(spans, i):
    p = spans[i][3]
    while p >= 0:
        yield p
        p = spans[p][3]


def outermost(spans, name: str) -> list[int]:
    """Spans called `name` with no ancestor of the same name."""
    return [i for i, s in enumerate(spans) if s[0] == name
            and all(spans[a][0] != name for a in _ancestors(spans, i))]


def _descends(spans, children, i, name) -> bool:
    todo = list(children.get(i, ()))
    while todo:
        j = todo.pop()
        if spans[j][0] == name:
            return True
        todo.extend(children.get(j, ()))
    return False


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def layer_metrics(processes: list[dict]) -> tuple[dict, set]:
    """Per-layer metrics from the span dumps of one iteration's processes.

    Returns (metrics, names seen); the spans of different processes are
    independent trees and are summed.
    """
    m: dict = {"linearized.cache_hits": 0, "linearized.cache_misses": 0,
               "linearized.cache_mb": 0.0, "experiments.blowup_norm_s.eps2m4": 0.0,
               "experiments.blowup_norm_s.eps2m9": 0.0}
    seen: set = set()

    def add(key, val):
        m[key] = m.get(key, 0.0) + val

    quad, cub = [], []
    table_mb = 0.0
    g_bytes = gather_bytes = matrix_bytes = 0
    evals = support = 0
    for proc in processes:
        spans = proc["spans"]
        children = child_index(spans)
        seen.update(s[0] for s in spans)

        def total(name):
            return sum(spans[i][2] - spans[i][1] for i in outermost(spans, name))

        def selfs(name):
            return sum(self_time(spans, i, children) for i in outermost(spans, name))

        def count(name):
            return sum(1 for s in spans if s[0] == name)

        add("manifold.h_s", total("manifold.h"))
        add("manifold.f_plus_s", total("manifold.f_plus"))
        add("quadrature.graded_nodes_s", total("quadrature.graded_midpoint_nodes"))
        add("quadrature.graded_nodes_calls", count("quadrature.graded_midpoint_nodes"))
        add("grid.interp_weights_s", total("grid.interp_weights"))
        add("equilibria.match_rj_s", total("equilibria.match_rj"))
        add("collision.table_build_s", total("collision.ResonanceTable.__init__"))
        add("collision.table_builds", count("collision.ResonanceTable.__init__"))
        add("linearized.assemble_self_s", selfs("linearized.assemble"))
        add("linearized.multiplier_s", total("linearized.multiplier_a"))
        add("linearized.multiplier_at_s", total("linearized.multiplier_at"))
        add("linearized.decay_s", total("linearized.measure_linear_decay"))
        add("linearized.cache_write_s", total("linearized.save_operator"))
        add("linearized.cache_read_s", total("linearized.load_operator"))
        for i in outermost(spans, "linearized.load_or_assemble"):
            if _descends(spans, children, i, "linearized.assemble"):
                add("linearized.cache_misses", 1)
            elif _descends(spans, children, i, "linearized.load_operator"):
                add("linearized.cache_hits", 1)
        add("dynamics.rhs_calls", count("dynamics.PerturbationTables.quadratic"))
        add("dynamics.tables_build_s", total("dynamics.PerturbationTables.__init__"))
        add("dynamics.evolve_self_s", selfs("dynamics.evolve_perturbation"))
        add("experiments.verify_s", total("experiments.verify_suite"))
        add("experiments.spectrum_self_s", selfs("experiments.spectrum_experiment"))
        for name, t0, t1, _, extra in spans:
            if name == "dynamics.PerturbationTables.quadratic":
                quad.append(1e3 * (t1 - t0))
            elif name == "dynamics.PerturbationTables.cubic":
                cub.append(1e3 * (t1 - t0))
            elif extra is None:
                continue
            elif name == "collision.ResonanceTable.__init__":
                table_mb = max(table_mb, extra["bytes"] / 1e6)
            elif name == "linearized.save_operator":
                add("linearized.cache_mb", extra["bytes"] / 1e6)
            elif name == "dynamics.PerturbationTables.__init__":
                g_bytes = max(g_bytes, extra["g_bytes"])
                gather_bytes = max(gather_bytes, extra["gather_bytes"])
            elif name == "dynamics.evolve_perturbation":
                matrix_bytes = max(matrix_bytes, extra["matrix_bytes"])
            elif name == "experiments.lp_blowup_norm":
                add(f"experiments.blowup_norm_s.eps2m{extra['eps_log2']}", t1 - t0)
            elif name == "experiments._collision_at":
                evals += extra["rows"] * extra["nodes"]
                support += extra["rows"] * extra["support"]
    m["collision.table_mb"] = table_mb
    m["dynamics.quadratic_ms.p50"] = statistics.median(quad) if quad else 0.0
    m["dynamics.quadratic_ms.p99"] = percentile(quad, 99)
    m["dynamics.cubic_ms.p50"] = statistics.median(cub) if cub else 0.0
    m["dynamics.cubic_ms.p99"] = percentile(cub, 99)
    # computed, not measured: one RHS is L @ g plus quadratic and cubic, each
    # of which reads the four channel weights and gathers at p1 and p3
    m["dynamics.rhs_bytes"] = (matrix_bytes + 2 * (g_bytes + gather_bytes)
                               if g_bytes else 0)
    m["experiments.blowup_kernel_evals"] = evals
    m["experiments.blowup_support_share"] = support / evals if evals else 0.0
    return m, seen


# which span a per-layer metric is read from; a metric whose span never
# occurred in an iteration is reported as not exercised (or missing)
SOURCE = {
    "manifold.h_s": "manifold.h",
    "manifold.f_plus_s": "manifold.f_plus",
    "quadrature.graded_nodes_s": "quadrature.graded_midpoint_nodes",
    "quadrature.graded_nodes_calls": "quadrature.graded_midpoint_nodes",
    "grid.interp_weights_s": "grid.interp_weights",
    "equilibria.match_rj_s": "equilibria.match_rj",
    "collision.table_build_s": "collision.ResonanceTable.__init__",
    "collision.table_builds": "collision.ResonanceTable.__init__",
    "collision.table_mb": "collision.ResonanceTable.__init__",
    "linearized.assemble_self_s": "linearized.assemble",
    "linearized.multiplier_s": "linearized.multiplier_a",
    "linearized.multiplier_at_s": "linearized.multiplier_at",
    "linearized.decay_s": "linearized.measure_linear_decay",
    "linearized.cache_write_s": "linearized.save_operator",
    "linearized.cache_read_s": "linearized.load_operator",
    "linearized.cache_hits": "linearized.load_or_assemble",
    "linearized.cache_misses": "linearized.load_or_assemble",
    "linearized.cache_mb": "linearized.save_operator",
    "dynamics.rhs_calls": "dynamics.PerturbationTables.quadratic",
    "dynamics.quadratic_ms.p50": "dynamics.PerturbationTables.quadratic",
    "dynamics.quadratic_ms.p99": "dynamics.PerturbationTables.quadratic",
    "dynamics.cubic_ms.p50": "dynamics.PerturbationTables.cubic",
    "dynamics.cubic_ms.p99": "dynamics.PerturbationTables.cubic",
    "dynamics.tables_build_s": "dynamics.PerturbationTables.__init__",
    "dynamics.evolve_self_s": "dynamics.evolve_perturbation",
    "dynamics.rhs_bytes": "dynamics.PerturbationTables.__init__",
    "experiments.blowup_norm_s.eps2m4": "experiments.lp_blowup_norm",
    "experiments.blowup_norm_s.eps2m9": "experiments.lp_blowup_norm",
    "experiments.blowup_kernel_evals": "experiments._collision_at",
    "experiments.blowup_support_share": "experiments._collision_at",
    "experiments.verify_s": "experiments.verify_suite",
    "experiments.spectrum_self_s": "experiments.spectrum_experiment",
}
