"""phononlab benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload relax --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Each workload runs as a closed loop with one client: an iteration spawns
its processes one after another (the next starts when the previous exits),
every iteration starts from an empty output and cache dir, and iterations
repeat until --seconds is used up (at least the workload's minimum).  Each
child is reaped with os.wait4, so CPU time and peak RSS are that process's
own.

--trace 0 times the iterations untraced and prints the end-to-end metrics
(medians over iterations).  --trace 1 runs one untraced iteration as the
reference, then traced iterations whose spans give the per-layer metrics;
trace.overhead_s is the difference of the two walls.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give every metric with its sample
count, the failures, the provenance and the layers a run did not exercise.
Without the package sources under src/ it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import spec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HARD_LIMIT_S = 165.0   # a run must end within 180 s
# import-only spawns that add setup_s samples: this many before the loop and
# one after each timed iteration, so the samples spread over the whole run
SETUP_PROBES = 2
# work counts that must repeat exactly across iterations of one seed
EXACT_VISIBLE = ("cli.processes", "cli.artifact_bytes", "cache_writes", "artifacts")
EXACT_TRACED = ("dynamics.rhs_calls", "collision.table_builds", "linearized.cache_hits",
                "linearized.cache_misses", "experiments.blowup_kernel_evals",
                "quadrature.graded_nodes_calls")


def child_env() -> dict:
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.pop("PHONON_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


ENV = child_env()


def spawn(job: list[str], trace: bool, logdir: Path, tag: str, deadline: float) -> dict:
    """Run one child to completion; returns its timings, rusage and report."""
    report_path = logdir / f"{tag}.json"
    with open(logdir / f"{tag}.out", "w") as out, open(logdir / f"{tag}.err", "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(report_path), str(int(trace)), *job],
            cwd=ROOT, env=ENV, stdout=out, stderr=err)
        # a child still running at the run's hard limit is killed, then reaped
        killer = threading.Timer(max(deadline - t_spawn, 0.0), proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"exit": proc.returncode, "t_spawn": t_spawn, "t_exit": t_exit,
           "cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_mb": ru.ru_maxrss / 1024.0,
           "report": {}}
    if report_path.exists():
        with open(report_path) as fh:
            rec["report"] = json.load(fh)
        if "t_imported" in rec["report"]:
            rec["import_s"] = rec["report"]["t_imported"] - t_spawn
    if rec["exit"] != 0:
        tail = (logdir / f"{tag}.err").read_text()[-600:]
        rec["failure"] = f"{tag} exited {rec['exit']}: {tail.strip()}"
    return rec


def snapshot(d: Path) -> dict:
    """(mtime, size, inode) of every file under d, to see what a process wrote."""
    if not d.exists():
        return {}
    return {str(p.relative_to(d)): (s.st_mtime_ns, s.st_size, s.st_ino)
            for p in d.rglob("*") if p.is_file() for s in [p.stat()]}


def artifacts(out: Path) -> dict:
    """sha256 of every file the run left, except the timing-bearing manifest."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def iteration(wl, params, workdir: Path, k: int, trace: bool, deadline: float) -> dict:
    itdir = workdir / f"i{k}"
    shutil.rmtree(itdir, ignore_errors=True)
    out, logs = itdir / "out", itdir / "logs"
    out.mkdir(parents=True)
    logs.mkdir()
    procs, failures = [], []
    for i, step in enumerate(wl.steps(params, out)):
        before = snapshot(out / "cache")
        rec = spawn(step.job, trace, logs, f"{i}-{step.label}", deadline)
        after = snapshot(out / "cache")
        rec["label"] = step.label
        rec["cache_writes"] = sum(1 for f, st in after.items() if before.get(f) != st)
        if (out / "manifest.json").exists():
            with open(out / "manifest.json") as fh:
                rec["manifest_wall_s"] = json.load(fh).get("wall_time_s") or 0.0
        procs.append(rec)
        if "failure" in rec:
            failures.append(rec["failure"])
            break
    it = {"k": k, "traced": trace, "procs": procs,
          "wall_s": procs[-1]["t_exit"] - procs[0]["t_spawn"],
          "cpu_s": sum(p["cpu_s"] for p in procs),
          "peak_rss_mb": max(p["maxrss_mb"] for p in procs)}
    if not failures:
        try:
            failures += wl.gate(params, out, procs)
        except (OSError, KeyError, ValueError) as exc:
            failures.append(f"output unreadable: {type(exc).__name__}: {exc}")
    arts = artifacts(out)
    sizes = sum((out / f).stat().st_size for f in arts)
    it["counts"] = {"cli.processes": len(procs), "cli.artifact_bytes": sizes,
                    "cache_writes": [p["cache_writes"] for p in procs], "artifacts": arts}
    if trace and not failures:
        reports = [p["report"] for p in procs]
        it["layers"], it["seen"] = spans.layer_metrics(reports)
        it["missing"] = sorted({m for r in reports for m in r.get("missing", [])})
        it["layers"].update({
            "cli.import_s": statistics.median(p["import_s"] for p in procs),
            "cli.processes": len(procs), "cli.artifact_bytes": sizes,
            "cli.manifest_wall_s": sum(p.get("manifest_wall_s", 0.0) for p in procs)})
    it["failures"] = failures
    if not failures:
        shutil.rmtree(itdir, ignore_errors=True)
    return it


def check_repeats(its: list[dict]) -> None:
    """Fail an iteration whose work counts differ from the first one's."""
    ok = [it for it in its if not it["failures"]]
    for it in ok[1:]:
        for key in EXACT_VISIBLE:
            if it["counts"][key] != ok[0]["counts"][key]:
                it["failures"].append(f"{key} differs from iteration {ok[0]['k']}")
    traced = [it for it in ok if it["traced"] and "layers" in it]
    for it in traced[1:]:
        for key in EXACT_TRACED:
            if it["layers"].get(key) != traced[0]["layers"].get(key):
                it["failures"].append(f"{key} {it['layers'].get(key)} != "
                                      f"{traced[0]['layers'].get(key)}")


def provenance(its, probes) -> dict:
    reports = [p["report"] for it in its for p in it["procs"]] + [p["report"] for p in probes]
    first = next((r for r in reports if "versions" in r), {})
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src" / "phononlab").glob("*.py")):
        digest.update(p.read_bytes())
    rev = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads_effective": sorted({r["blas_threads"] for r in reports
                                              if "blas_threads" in r}),
            "thread_env": ENV["OPENBLAS_NUM_THREADS"],
            **first.get("versions", {}), "git_revision": rev,
            "src_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json from perfbench/spec.py and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.render())
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "phononlab" / "cli.py").is_file():
        print(f"error: no phononlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    params = wl.params(args.seed)
    t0 = time.monotonic()
    hard = t0 + HARD_LIMIT_S
    workdir = ROOT / ".perfbench_work" / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "probes").mkdir(parents=True)

    def probe():
        probes.append(spawn(["import"], False, workdir / "probes", f"probe{len(probes)}", hard))

    probes: list[dict] = []
    for _ in range(SETUP_PROBES):
        probe()

    its: list[dict] = []
    for k in range(wl.warmup):  # checked and counted, not timed
        its.append(iteration(wl, params, workdir, k, False, hard))
        its[-1]["warmup"] = True
    deadline = time.monotonic() + args.seconds
    plan = [False] + [True] * wl.min_iterations if args.trace else None
    timed = 0
    while time.monotonic() < hard:
        it = iteration(wl, params, workdir, len(its), plan[timed] if plan else False, hard)
        its.append(it)
        timed += 1
        probe()
        if plan:
            if timed == len(plan):
                break
        elif (timed >= wl.min_iterations
              and time.monotonic() + it["wall_s"] > min(deadline, hard)):
            break
    check_repeats(its)

    failed = [it for it in its if it["failures"]]
    good = [it for it in its if not it["failures"]]
    untraced = [it for it in good if not it["traced"] and not it.get("warmup")]
    traced = [it for it in good if it["traced"]]
    import_samples = [p["import_s"] for p in probes if "import_s" in p] + \
        [p["import_s"] for it in good for p in it["procs"] if "import_s" in p]
    n_procs = len(wl.steps(params, Path("out")))

    print(f"workload {wl.name} seed {args.seed} params {params} trace {args.trace}")
    print("provenance " + json.dumps(provenance(its, probes), sort_keys=True))
    for it in its:
        steps = ", ".join(f"{p['label']} {p['t_exit'] - p['t_spawn']:.3f}s" for p in it["procs"])
        kind = "warm-up" if it.get("warmup") else "traced" if it["traced"] else "untraced"
        print(f"iteration {it['k']} {kind} "
              f"wall {it['wall_s']:.3f}s cpu {it['cpu_s']:.3f}s ({steps})")
        if it["failures"]:
            print(f"FAILED iteration {it['k']}: " + "; ".join(it["failures"]))
    print(f"fail_ratio {len(failed) / len(its):.4f} ({len(failed)}/{len(its)} iterations)")
    metrics: dict = {}
    if not args.trace and untraced:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = statistics.median(it[name] for it in untraced)
        # one iteration's setup: its process count times the median
        # per-process import time over probes and real processes
        metrics["setup_s"] = n_procs * statistics.median(import_samples)
        basis = {"setup_s": f"{n_procs} processes x median of {len(import_samples)} "
                            "per-process import times"}
        for name, unit, *_ in spec.END_TO_END:
            print(f"{name} {metrics[name]:.6g} {unit} "
                  f"({basis.get(name, f'median of {len(untraced)} iterations')})")
    elif args.trace and traced:
        keys = [n for n, _, _ in spec.PER_LAYER if n != "trace.overhead_s"]
        for name in keys:
            metrics[name] = statistics.median(it["layers"].get(name, 0.0) for it in traced)
        missing = set(traced[0]["missing"])
        seen = set().union(*(it["seen"] for it in traced))
        for name, src in spans.SOURCE.items():
            if src in missing:
                print(f"missing {name}: traced function {src} no longer exists")
            elif src not in seen:
                print(f"not exercised {name}: {src} is not called on {wl.name}")
        if untraced:
            metrics["trace.overhead_s"] = (statistics.median(it["wall_s"] for it in traced)
                                           - untraced[0]["wall_s"])
        for name, unit, _ in spec.PER_LAYER:
            if name in metrics:
                print(f"{name} {metrics[name]:.6g} {unit} (median of {len(traced)} traced)")
    units = {n: u for n, u, *_ in spec.END_TO_END + spec.PER_LAYER}
    wanted = [n for n, *_ in (spec.PER_LAYER if args.trace else spec.END_TO_END)]
    correct = not failed and all(n in metrics for n in wanted)
    result = {"correct": correct, "attempted": len(its), "failed": len(failed),
              "metrics": {n: {"value": metrics.get(n, 0.0), "unit": units[n]} for n in wanted}}
    if not failed:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
