"""Command-line experiment harness.

One process per run.  Each subcommand validates its configuration, runs the
corresponding experiment, and writes its artifacts plus a manifest.json
(config hash, package version, wall time, status) into the output
directory; the manifest is written even when the run fails (a bad
configuration's, with config, hash and env null, goes to --output-dir, else
the config file's output_dir, else out).  Every other manifest records the
run's environment ("env": row-block workers, Python and numpy versions);
`nonlin` also records its work counts there, and only there ("counters":
{"rhs_evals": ...}).  Exit codes:
0 success, 2 configuration error, 3 numerical error, 4 I/O error (an
artifact or cache file that cannot be read or written).

A flat key=value config file can seed any run; command-line flags win over
file values.  --threads (else the file's `threads`, else the PHONON_THREADS
environment variable; an integer >= 1) caps the BLAS worker count and the
row-block worker pool (`collision.map_blocks`); it must act before numpy is
imported, so the heavy modules are imported lazily inside run().
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

SUBCOMMANDS = ("multiplier", "spectrum", "lin-decay", "nonlin", "rj-match",
               "lp-blowup", "verify")

_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _apply_thread_cap(threads: int | None) -> None:
    """Export the cap, else PHONON_THREADS, to BLAS and the row-block pool."""
    name = "threads"
    if threads is None:
        name, threads = "PHONON_THREADS", os.environ.get("PHONON_THREADS")
        if not threads:
            return
    if not str(threads).isdecimal() or int(threads) < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {threads!r}")
    for var in ("PHONON_THREADS",) + _THREAD_ENV_VARS:
        os.environ[var] = str(threads)


def read_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment, and '-' in a key reads as '_'."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (need key=value): {raw.rstrip()}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="phononlab",
        description="Batch experiments for the FPUT-beta wave kinetic equation")
    ap.add_argument("--config", help="flat key=value config file; flags override it")
    ap.add_argument("--output-dir", help="artifact directory (default: out)")
    ap.add_argument("--threads", type=int, default=None,
                    help="cap BLAS and row-block workers (fallback: config, PHONON_THREADS)")
    ap.add_argument("--seed", type=int, help="deterministic RNG seed (default: 0)")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--grid-n", type=int, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)

    p = sub.add_parser("multiplier", help="collision-frequency edge scaling")
    common(p)
    p.add_argument("--fit-lo", type=float, default=None)
    p.add_argument("--fit-hi", type=float, default=None)

    p = sub.add_parser("spectrum", help="spectral structure of the linearized operator")
    common(p)

    p = sub.add_parser("lin-decay", help="semigroup weighted sup-norm decay")
    common(p)
    p.add_argument("--t-final", type=float, default=None)

    p = sub.add_parser("nonlin", help="nonlinear relaxation of a perturbed equilibrium")
    common(p)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--t-final", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--interp", choices=("linear", "cubic"), default=None)

    p = sub.add_parser("rj-match", help="invert (mass, energy) for an equilibrium")
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--energy", type=float, required=True)

    p = sub.add_parser("lp-blowup", help="L^p norm scaling of the collision operator")
    p.add_argument("--p", dest="p_exp", type=float, default=None)

    sub.add_parser("verify", help="run the closed-form identity suite")
    return ap


_DEFAULTS = {
    "multiplier": {"grid_n": 1024, "beta": 1.0, "gamma": 1.0,
                   "fit_lo": 1e-3, "fit_hi": 1e-1},
    "spectrum": {"grid_n": 512, "beta": 1.0, "gamma": 1.0},
    "lin-decay": {"grid_n": 512, "beta": 1.0, "gamma": 2.0, "t_final": 1e3},
    "nonlin": {"grid_n": 256, "beta": 1.0, "gamma": 1.0, "eps": 1e-2,
               "t_final": 1e3, "dt": 1.5, "interp": "cubic"},
    "rj-match": {},
    "lp-blowup": {"p_exp": 2.0},
    "verify": {},
}

_VALID_KEYS = {"grid_n", "beta", "gamma", "fit_lo", "fit_hi", "t_final",
               "eps", "dt", "interp", "mass", "energy", "p_exp", "seed",
               "output_dir", "threads"}


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags (a flag left unset is None)."""
    cfg = dict(_DEFAULTS[args.subcommand], seed=0, output_dir="out")
    if args.config:
        for key, val in read_config_file(args.config).items():
            if key not in _VALID_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            if key in ("interp", "output_dir"):
                cfg[key] = val
            elif key in ("grid_n", "seed", "threads"):
                cfg[key] = int(val)
            else:
                cfg[key] = float(val)
    for key, val in vars(args).items():
        if val is not None and key in _VALID_KEYS:
            cfg[key] = val
    n = cfg.get("grid_n")
    if n is not None and (n & (n - 1) or not 64 <= n <= 4096):
        raise ValueError(f"grid_n must be a power of two in [64, 4096], got {n}")
    return cfg


def _config_hash(cfg: dict) -> str:
    blob = json.dumps({k: cfg[k] for k in sorted(cfg)}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_series_csv(path, header, rows) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([f"{x:.17g}" for x in row])


def _run_subcommand(sub: str, cfg: dict, outdir, counters: dict) -> int:
    """Dispatch; returns the exit code and fills `counters` with the run's
    work counts (manifest only). Heavy imports happen here."""
    from . import experiments as ex
    from .grid import write_field_csv

    if sub == "multiplier":
        res = ex.multiplier_experiment(cfg["beta"], cfg["gamma"], cfg["grid_n"],
                                       cfg["fit_lo"], cfg["fit_hi"])
        write_field_csv(res.pop("a_field"), outdir / "a.csv")
        _write_series_csv(outdir / "a_fit_points.csv", ["p", "a"],
                          zip(res["fit_points_p"], res["fit_points_a"]))
        _write_json(outdir / "fit.json", res)
        print(f"multiplier exponent {res['exponent']:.4f} "
              f"(target {res['target_exponent']:.4f})")
    elif sub == "spectrum":
        res = ex.spectrum_experiment(cfg["beta"], cfg["gamma"], cfg["grid_n"],
                                     seed=cfg["seed"], cache_dir=outdir / "cache")
        evs = res.pop("eigenvalues")
        _write_series_csv(outdir / "eigenvalues.csv", ["index", "eigenvalue"],
                          [(float(i), float(v)) for i, v in enumerate(evs)])
        _write_json(outdir / "spectrum.json", res)
        print(f"near-null modes {res['near_null_count']}, "
              f"principal angle {res['principal_angle_rad']:.2e} rad, "
              f"dissipation ratio min {res['dissipation_ratio_min']:.4f}")
    elif sub == "lin-decay":
        res = ex.linear_decay_experiment(cfg["beta"], cfg["gamma"], cfg["grid_n"],
                                         cfg["t_final"], cache_dir=outdir / "cache")
        _write_series_csv(outdir / "decay_mu12.csv", ["t", "sup"], res.pop("series_mu12"))
        _write_series_csv(outdir / "decay_mu16.csv", ["t", "sup"], res.pop("series_mu16"))
        _write_json(outdir / "decay.json", res)
        print(f"decay exponents: mu=1/2 {res['exponent_mu12']:.3f}, "
              f"mu=1/6 {res['exponent_mu16']:.3f}")
    elif sub == "nonlin":
        res = ex.nonlinear_experiment(cfg["beta"], cfg["gamma"], cfg["grid_n"],
                                      cfg["eps"], cfg["t_final"], cfg["dt"],
                                      cfg["interp"], cache_dir=outdir / "cache")
        traj = res.pop("trajectory")
        traj.write_csv(outdir / "trajectory.csv")
        counters["rhs_evals"] = traj.rhs_evals
        _write_json(outdir / "nonlin.json", res)
        print(f"drift mass {res['mass_drift']:.2e} energy {res['energy_drift']:.2e}; "
              f"exponent {res['exponent_w12']:.3f}")
    elif sub == "rj-match":
        res = ex.rj_match_experiment(cfg["mass"], cfg["energy"])
        _write_json(outdir / "match.json", res)
        print(f"matched={res['matched']} ratio={res['ratio']:.6f}")
    elif sub == "lp-blowup":
        res = ex.lp_blowup_experiment(cfg["p_exp"])
        _write_series_csv(outdir / "norms.csv", ["eps", "norm"],
                          zip(res["eps"], res["norm"]))
        _write_json(outdir / "blowup.json", res)
        print(f"norm scaling slope {res['slope']:.3f} (target {res['target_slope']:.3f})")
    elif sub == "verify":
        checks = ex.verify_suite(seed=cfg["seed"])
        _write_json(outdir / "verify.json",
                    {name: {"ok": ok, "detail": detail} for name, ok, detail in checks})
        failed = [name for name, ok, _ in checks if not ok]
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if failed:
            return EXIT_NUMERICAL
    else:  # pragma: no cover
        raise ValueError(f"unhandled subcommand {sub}")
    return EXIT_OK


def run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .errors import PhononLabError

    manifest = {"subcommand": args.subcommand, "config": None, "config_hash": None,
                "version": _package_version(), "env": None, "status": "running",
                "wall_time_s": None}
    try:
        cfg = resolve_config(args)
        _apply_thread_cap(cfg.get("threads"))
    except (ValueError, OSError) as exc:
        # no env block: reading it may raise the same error (PHONON_THREADS=abc)
        print(f"configuration error: {exc}", file=sys.stderr)
        manifest.update(status=f"config-error: {exc}", wall_time_s=0.0)
        outdir = Path(args.output_dir or _file_output_dir(args.config) or "out")
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / "manifest.json", manifest)
        return EXIT_CONFIG

    outdir = Path(cfg.pop("output_dir"))
    outdir.mkdir(parents=True, exist_ok=True)
    manifest.update(config=cfg, env=_environment(),
                    config_hash=_config_hash({"subcommand": args.subcommand, **cfg}))
    counters: dict = {}
    t0 = time.time()
    try:
        code = _run_subcommand(args.subcommand, cfg, outdir, counters)
        manifest["status"] = "ok" if code == EXIT_OK else "check-failed"
    except PhononLabError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        manifest["status"] = f"numerical-error: {exc}"
        code = EXIT_NUMERICAL
    except (ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        manifest["status"] = f"config-error: {exc}"
        code = EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        manifest["status"] = f"io-error: {exc}"
        code = EXIT_IO
    finally:
        manifest["wall_time_s"] = round(time.time() - t0, 3)
        if counters:
            manifest["counters"] = counters
        _write_json(outdir / "manifest.json", manifest)
    return code


def _file_output_dir(path) -> str | None:
    """The config file's output_dir, if it names one and can be read."""
    try:
        return read_config_file(path).get("output_dir") if path else None
    except (ValueError, OSError):
        return None


def _environment() -> dict:
    import numpy

    from .collision import pool_workers
    return {"workers": pool_workers(), "python": sys.version.split()[0],
            "numpy": numpy.__version__}


def _package_version() -> str:
    try:
        from importlib.metadata import version
        return version("phononlab")
    except Exception:
        return "unknown"


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
