"""What the benchmark measures: workloads, metrics, bounds and BENCHMARK.json.

This module is the single source of the benchmark's declared surface.
`BENCHMARK.json` at the repository root is generated from it
(`python3 perfbench/run.py --write-spec`) and the self-test checks that the
committed file still matches.
"""

from __future__ import annotations

import json
import re

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15

# name -> one-line reason, including the per-layer metrics each workload is
# expected to move and the ones it should leave flat (the control role).
WORKLOADS = {
    "relax": "nonlin n=256 cubic, eps in [5e-3,2e-2]: perturbation RHS loop. "
             "Moves dynamics.* and cpu_s; collision.table_build_s and "
             "linearized.assemble_self_s stay flat",
    "spectral": "rj-match, cold spectrum, cached lin-decay, multiplier, n=1024, "
                "(b,2b), b in [0.8,1.25]: table build, assembly, eigh, cache. "
                "Moves collision.*, linearized.*, equilibria.*, setup_s",
    "blowup": "lp_blowup_norm p=2 at eps 2^-4, 2^-9 plus verify_suite, p0 in "
              "[1.8,2.2]: h/f_plus row loop. Moves experiments.blowup_*, "
              "manifold.*; table, cache, dynamics stay flat",
}

# (name, unit, better, bound).  The timing bounds are the largest allowed:
# on the 2-core sandbox the benchmark was tuned on, a fixed numpy loop ran
# 0.82x to 1.37x its median speed in regimes lasting 5-20 s, so per-run
# medians of 15-35 s runs differ by up to ~30% between runs of one commit.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# (name, unit, better); values come from the traced run only
PER_LAYER = [
    ("manifold.h_s", "s", "lower"),
    ("manifold.f_plus_s", "s", "lower"),
    ("quadrature.graded_nodes_s", "s", "lower"),
    ("quadrature.graded_nodes_calls", "count", "lower"),
    ("grid.interp_weights_s", "s", "lower"),
    ("equilibria.match_rj_s", "s", "lower"),
    ("collision.table_build_s", "s", "lower"),
    ("collision.table_builds", "count", "lower"),
    ("collision.table_mb", "MB", "lower"),
    ("linearized.assemble_self_s", "s", "lower"),
    ("linearized.multiplier_s", "s", "lower"),
    ("linearized.multiplier_at_s", "s", "lower"),
    ("linearized.decay_s", "s", "lower"),
    ("linearized.cache_write_s", "s", "lower"),
    ("linearized.cache_read_s", "s", "lower"),
    ("linearized.cache_hits", "count", "higher"),
    ("linearized.cache_misses", "count", "lower"),
    ("linearized.cache_mb", "MB", "lower"),
    ("dynamics.rhs_calls", "count", "lower"),
    ("dynamics.quadratic_ms.p50", "ms", "lower"),
    ("dynamics.quadratic_ms.p99", "ms", "lower"),
    ("dynamics.cubic_ms.p50", "ms", "lower"),
    ("dynamics.cubic_ms.p99", "ms", "lower"),
    ("dynamics.tables_build_s", "s", "lower"),
    ("dynamics.evolve_self_s", "s", "lower"),
    ("dynamics.rhs_bytes", "bytes", "lower"),
    ("experiments.blowup_norm_s.eps2m4", "s", "lower"),
    ("experiments.blowup_norm_s.eps2m9", "s", "lower"),
    ("experiments.blowup_kernel_evals", "count", "lower"),
    ("experiments.blowup_support_share", "ratio", "lower"),
    ("experiments.verify_s", "s", "lower"),
    ("experiments.spectrum_self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.processes", "count", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("cli.manifest_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def benchmark_json() -> dict:
    """The BENCHMARK.json document, key for key."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def validate(doc: dict) -> list[str]:
    """Problems with a BENCHMARK.json document; empty when it is valid."""
    errs = []
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != want:
        errs.append(f"top-level keys {sorted(doc)} != {sorted(want)}")
        return errs
    cmd = doc["command"]
    if not (1 <= len(cmd) <= 32) or any(not isinstance(c, str) or len(c) > 200 for c in cmd):
        errs.append("command must be 1..32 strings of at most 200 characters")
    if any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        errs.append("command may not name absolute paths or leave the repo")
    if not (1 <= len(doc["paths"]) <= 16):
        errs.append("paths must hold 1..16 directories")
    for p in doc["paths"]:
        if not _PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            errs.append(f"bad path {p!r}")
    rs = doc["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        errs.append("run_seconds must be a whole number in [1, 60]")
    if not (2 <= len(doc["workloads"]) <= 8):
        errs.append("2..8 workloads required")
    if not (1 <= len(doc["end_to_end"]) <= 16):
        errs.append("1..16 end-to-end metrics required")
    if not (1 <= len(doc["per_layer"]) <= 128):
        errs.append("1..128 per-layer metrics required")
    seen = set()
    for w in doc["workloads"]:
        why = w.get("why", "")
        if not why or len(why) > 200 or "\n" in why:
            errs.append(f"workload {w.get('name')}: why must be one line of 1..200 chars")
    for group, keys in (("workloads", {"name", "why"}),
                        ("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in doc[group]:
            name = m.get("name", "")
            if not _NAME.match(name):
                errs.append(f"bad name {name!r}")
            if name in seen:
                errs.append(f"name {name!r} used twice")
            seen.add(name)
            if set(m) != keys:
                errs.append(f"{group} entry {name!r} keys {sorted(m)} != {sorted(keys)}")
            if group != "workloads":
                if not _UNIT.match(m.get("unit", "")):
                    errs.append(f"bad unit for {name!r}")
                if m.get("better") not in ("lower", "higher"):
                    errs.append(f"bad 'better' for {name!r}")
    bounds = {m["name"]: m.get("bound") for m in doc["end_to_end"]}
    for name, bd in bounds.items():
        if not (isinstance(bd, (int, float)) and 0 < bd <= 0.25):
            errs.append(f"bound of {name!r} must be in (0, 0.25]")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errs.append("setup_s with unit s and better=lower is required")
    elif setup[0]["bound"] < max(bounds.values()):
        errs.append("setup_s must carry the largest bound")
    if len(json.dumps(doc).encode()) > 64 * 1024:
        errs.append("document larger than 64 KiB")
    return errs
