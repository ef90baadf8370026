"""One benchmark process: import the package, optionally trace it, run a job.

    python3 perfbench/child.py REPORT TRACE cli ARGS...     # phononlab CLI
    python3 perfbench/child.py REPORT TRACE blowup OUTDIR P0
    python3 perfbench/child.py REPORT TRACE import            # setup probe

The parent spawns this with PYTHONPATH pointing at the checkout's `src`.
The moment the imports finish is written to REPORT (a JSON file) together
with the BLAS thread count seen after a BLAS call, library versions, the
job's exit code and, when TRACE is 1, the spans.  The report is written
once, when the job has finished.
"""

import json
import sys
import time


def _os_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def blowup(outdir: str, p0: float) -> int:
    """Two-point L^2 blow-up scaling at base point p0, then the identity suite."""
    from phononlab import collision, experiments

    pts = collision.blowup_points(p0)
    rows = [experiments.lp_blowup_norm(2.0 ** -k, 2.0, pts) for k in (4, 9)]
    with open(f"{outdir}/blowup.json", "w") as fh:
        json.dump({"p0": p0, "points": [pts.p0, pts.p1, pts.p2], "rows": rows},
                  fh, indent=1, sort_keys=True)
    checks = experiments.verify_suite()
    with open(f"{outdir}/verify.json", "w") as fh:
        json.dump({name: {"ok": bool(ok), "detail": detail} for name, ok, detail in checks},
                  fh, indent=1, sort_keys=True)
    return 0


def main() -> int:
    report_path, trace, job, args = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    import numpy
    import scipy

    import phononlab
    import phononlab.cli
    import phononlab.experiments
    t_imported = time.monotonic()

    a = numpy.ones((256, 256))
    a @ a
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    report = {
        "t_imported": t_imported,
        "blas_threads": _os_threads(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}"},
        "exit": None,
    }
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    code = 1
    try:
        if job == "import":  # setup probe: imports only
            code = 0
        elif job == "cli":
            code = phononlab.cli.main(args)
        elif job == "blowup":
            code = blowup(args[0], float(args[1]))
        else:
            raise ValueError(f"unknown job {job!r}")
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else 2
        report["error"] = f"SystemExit {exc.code}"
    except Exception as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        report["exit"] = code
        if tracer is not None:
            report.update(tracer.dump())
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
