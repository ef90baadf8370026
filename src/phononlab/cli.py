"""Command-line experiment harness.

One process per run.  Each subcommand validates its configuration, runs its
experiment, and writes its artifacts and a manifest.json into the output
directory: config and its hash, `phononlab.__version__`, the wall time on
the monotonic clock, the status, "env" (slab workers, Python and numpy
versions), and for `nonlin` and `multiplier` their "counters".  The
manifest is written even when the run fails; a bad configuration's, with
config, hash and env null, goes to --output-dir, else the config file's
output_dir, else out.  Exit codes: 0 success; 1 internal error (any other
exception, a fault of the program, a bare ValueError included); 2
configuration error (a bad flag or file value, or a ConfigError from the
run's input guards); 3 numerical error (a PhononLabError, a non-finite
value bound for an artifact included, or a failed `verify` check); 4 I/O
error (an OSError; an output directory that cannot be made leaves no
manifest).

The thread cap must act before numpy is imported (`_apply_thread_cap`),
so the heavy modules, `experiments` and numpy, are imported only where a
run needs them (`_run_subcommand`, `_environment`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import ConfigError, NonFiniteError, PhononLabError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _apply_thread_cap(threads: int | None) -> None:
    """Export the cap (--threads, else the file's threads), else
    PHONON_THREADS, an integer >= 1, to BLAS and the slab workers
    (`experiments.pool_workers`).  It reaches BLAS only in a process that
    has not yet imported numpy, such as a fresh `phononlab` run; a caller
    in a process that has (the tests' `run_cli`, the benchmark's child)
    gets only the slab-worker cap."""
    name = "threads"
    if threads is None:
        name, threads = "PHONON_THREADS", os.environ.get("PHONON_THREADS")
        if not threads:
            return
    if not str(threads).isdecimal() or int(threads) < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {threads!r}")
    for var in ("PHONON_THREADS",) + _THREAD_ENV_VARS:
        os.environ[var] = str(threads)


def _config_lines(path) -> list:
    """(key, value) for each line of a flat key=value file, in order; '#'
    starts a comment, and '-' in a key reads as '_'."""
    pairs = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (need key=value): {raw.rstrip()}")
            key, val = line.split("=", 1)
            pairs.append((key.strip().replace("-", "_"), val.strip()))
    return pairs


def read_config_file(path) -> dict:
    """The settings of a flat key=value file (`_config_lines`).  A key set
    twice is refused, since only one value could be used."""
    out = {}
    for key, val in _config_lines(path):
        if key in out:
            raise ValueError(f"config key {key!r} is set more than once")
        out[key] = val
    return out


# Each subcommand's help line and settings with defaults, the one source of
# its flags, config-file keys and experiment keywords.  A setting's flag is
# --name-with-dashes (lp-blowup's p_exp is --p), typed as its default.
SUBCOMMANDS = {
    "multiplier": ("collision-frequency edge scaling",
                   {"grid_n": 1024, "beta": 1.0, "gamma": 1.0,
                    "fit_lo": 1e-3, "fit_hi": 1e-1}),
    "spectrum": ("spectral structure of the linearized operator",
                 {"grid_n": 512, "beta": 1.0, "gamma": 1.0}),
    "lin-decay": ("semigroup weighted sup-norm decay",
                  {"grid_n": 512, "beta": 1.0, "gamma": 2.0, "t_final": 1e3}),
    "nonlin": ("nonlinear relaxation of a perturbed equilibrium",
               {"grid_n": 256, "beta": 1.0, "gamma": 1.0, "eps": 1e-2,
                "t_final": 1e3, "dt": 1.5, "interp": "cubic"}),
    "rj-match": ("invert (mass, energy) for an equilibrium", {}),
    "lp-blowup": ("L^p norm scaling of the collision operator", {"p_exp": 2.0}),
    "verify": ("run the closed-form identity suite", {}),
}
INTERP_CHOICES = ("linear", "cubic")  # of --interp and a file's interp


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="phononlab",
        description="Batch experiments for the FPUT-beta wave kinetic equation")
    ap.add_argument("--config", help="flat key=value config file; flags override it")
    ap.add_argument("--output-dir", help="artifact directory (default: out)")
    ap.add_argument("--threads", type=int, default=None,
                    help="caps BLAS threads and the identity suite's slab workers "
                         "(fallback: config, PHONON_THREADS)")
    ap.add_argument("--seed", type=int, help="deterministic RNG seed (default: 0)")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (help_line, settings) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for key, default in settings.items():
            p.add_argument("--p" if key == "p_exp" else "--" + key.replace("_", "-"),
                           dest=key, type=type(default),
                           choices=INTERP_CHOICES if key == "interp" else None)
        if name == "rj-match":  # its inputs, which a config file cannot set
            p.add_argument("--mass", type=float, required=True)
            p.add_argument("--energy", type=float, required=True)
    return ap


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags (a flag left unset is None).
    A file value is typed as its default (threads as an int); any other key
    is an error, so no value is recorded that the run would not use."""
    sub = args.subcommand
    cfg = dict(SUBCOMMANDS[sub][1], seed=0, output_dir="out")
    if args.config:
        types = {key: type(val) for key, val in cfg.items()} | {"threads": int}
        for key, val in read_config_file(args.config).items():
            if key not in types:
                raise ValueError(f"config key {key!r} is not a setting of {sub} "
                                 f"(its keys: {', '.join(sorted(types))})")
            cfg[key] = types[key](val)
    for key, val in vars(args).items():
        if val is not None and key not in ("config", "subcommand"):
            cfg[key] = val
    if cfg["seed"] < 0:  # before any work; the generator refuses it
        raise ValueError(f"seed must be a nonnegative integer, got {cfg['seed']}")
    n = cfg.get("grid_n")
    if n is not None and (n & (n - 1) or not 64 <= n <= 4096):
        raise ValueError(f"grid_n must be a power of two in [64, 4096], got {n}")
    if cfg.get("interp", "linear") not in INTERP_CHOICES:
        raise ValueError(f"interp must be one of {', '.join(INTERP_CHOICES)}, "
                         f"got {cfg['interp']!r}")
    return cfg


def _config_hash(cfg: dict) -> str:
    blob = json.dumps({k: cfg[k] for k in sorted(cfg)}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _setting(value):
    """A setting as the manifest's config records it: a NaN or infinite
    float as the string its flag takes ("nan", "inf", "-inf"), since JSON
    has no such numbers."""
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path, payload: dict) -> None:
    """A JSON file with sorted keys: every artifact and the manifest.  A
    payload holding a NaN or infinite value is refused before it is
    written: JSON has no such numbers (RFC 8259)."""
    def check(obj, key):
        if isinstance(obj, dict):
            for k, v in obj.items():
                check(v, f"{key}/{k}")
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                check(v, f"{key}/{i}")
        else:
            _refuse_nonfinite(path, obj, f"key {key!r}")
    check(payload, "")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _refuse_nonfinite(path, value, where: str) -> None:
    """NonFiniteError (exit 3) naming the artifact and the column or key
    when `value` is a NaN or infinite number."""
    if isinstance(value, (int, float)) and not math.isfinite(value):
        raise NonFiniteError(f"{path.name}: non-finite value {value!r} in {where}; "
                             "the artifact is not written")


def _write_csv(path, header, rows) -> None:
    """Every CSV artifact: a header row, then one row per record, each value
    written with 17 significant digits (a float64 round-trips).  A NaN or
    infinite value is refused before the file is opened."""
    import csv
    rows = [tuple(row) for row in rows]
    for r, row in enumerate(rows, 1):
        for name, x in zip(header, row):
            _refuse_nonfinite(path, x, f"column {name!r}, row {r}")
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([f"{x:.17g}" for x in row])


def _run_subcommand(sub: str, cfg: dict, outdir, counters: dict) -> int:
    """Dispatch; returns the exit code and fills `counters` with the run's
    work counts (manifest only). Heavy imports happen here."""
    from . import experiments as ex

    settings = {key: cfg[key] for key in SUBCOMMANDS[sub][1]}
    if sub == "multiplier":
        res = ex.multiplier_experiment(**settings, cache_dir=outdir / "cache")
        counters["cache_hits"] = res.pop("cache_hits")
        a = res.pop("a_field")
        _write_csv(outdir / "a.csv", ["p", "value"], zip(a.grid.nodes, a.values))
        _write_csv(outdir / "a_fit_points.csv", ["p", "a"],
                   zip(res["fit_points_p"], res["fit_points_a"]))
        _write_json(outdir / "fit.json", res)
        print(f"multiplier exponent {res['exponent']:.4f} "
              f"(target {res['target_exponent']:.4f})")
    elif sub == "spectrum":
        res = ex.spectrum_experiment(**settings, seed=cfg["seed"],
                                     cache_dir=outdir / "cache")
        evs = res.pop("eigenvalues")
        _write_csv(outdir / "eigenvalues.csv", ["index", "eigenvalue"],
                   [(float(i), float(v)) for i, v in enumerate(evs)])
        _write_json(outdir / "spectrum.json", res)
        print(f"near-null modes {res['near_null_count']}, "
              f"principal angle {res['principal_angle_rad']:.2e} rad, "
              f"dissipation ratio min {res['dissipation_ratio_min']:.4f}")
    elif sub == "lin-decay":
        res = ex.linear_decay_experiment(**settings, cache_dir=outdir / "cache")
        _write_csv(outdir / "decay_mu12.csv", ["t", "sup"], res.pop("series_mu12"))
        _write_csv(outdir / "decay_mu16.csv", ["t", "sup"], res.pop("series_mu16"))
        _write_json(outdir / "decay.json", res)
        print(f"decay exponents: mu=1/2 {res['exponent_mu12']:.3f}, "
              f"mu=1/6 {res['exponent_mu16']:.3f}")
    elif sub == "nonlin":
        res = ex.nonlinear_experiment(**settings, cache_dir=outdir / "cache")
        traj = res.pop("trajectory")
        _write_csv(outdir / "trajectory.csv",
                   ["t", "mass", "energy", "entropy", "sup_w12", "sup_w16", "l2"],
                   zip(traj.times, traj.mass, traj.energy, traj.entropy,
                       traj.sup_w12, traj.sup_w16, traj.l2))
        counters.update(rhs_evals=traj.rhs_evals, rhs_table_entries=traj.rhs_table_entries)
        _write_json(outdir / "nonlin.json", res)
        print(f"drift mass {res['mass_drift']:.2e} energy {res['energy_drift']:.2e}; "
              f"exponent {res['exponent_w12']:.3f}")
    elif sub == "rj-match":
        res = ex.rj_match_experiment(cfg["mass"], cfg["energy"])
        _write_json(outdir / "match.json", res)
        print(f"matched={res['matched']} ratio={res['ratio']:.6f}")
    elif sub == "lp-blowup":
        res = ex.lp_blowup_experiment(**settings)
        _write_csv(outdir / "norms.csv", ["eps", "norm"],
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
    manifest = {"subcommand": args.subcommand, "config": None, "config_hash": None,
                "version": __version__, "env": None, "status": "running",
                "wall_time_s": None}
    try:
        cfg = resolve_config(args)
        _apply_thread_cap(cfg.get("threads"))
    except (ValueError, OSError) as exc:
        # no env block: reading it may raise the same error (PHONON_THREADS=abc)
        print(f"configuration error: {exc}", file=sys.stderr)
        manifest.update(status=f"config-error: {exc}", wall_time_s=0.0)
        outdir = _make_outdir(args.output_dir or _file_output_dir(args.config) or "out")
        if outdir is None:
            return EXIT_IO
        _write_json(outdir / "manifest.json", manifest)
        return EXIT_CONFIG

    outdir = _make_outdir(cfg.pop("output_dir"))
    if outdir is None:
        return EXIT_IO
    manifest.update(config={key: _setting(val) for key, val in cfg.items()},
                    env=_environment(),
                    config_hash=_config_hash({"subcommand": args.subcommand, **cfg}))
    counters: dict = {}
    t0 = time.monotonic()
    try:
        code = _run_subcommand(args.subcommand, cfg, outdir, counters)
        manifest["status"] = "ok" if code == EXIT_OK else "check-failed"
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        manifest["status"] = f"config-error: {exc}"
        code = EXIT_CONFIG
    except PhononLabError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        manifest["status"] = f"numerical-error: {exc}"
        code = EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        manifest["status"] = f"io-error: {exc}"
        code = EXIT_IO
    except Exception as exc:  # a fault of the program, not of its input
        cause = f"{type(exc).__name__}: {exc}"
        print(f"internal error: {cause}", file=sys.stderr)
        manifest["status"] = f"internal-error: {cause}"
        code = EXIT_INTERNAL
    finally:
        manifest["wall_time_s"] = round(time.monotonic() - t0, 3)
        if counters:
            manifest["counters"] = counters
        _write_json(outdir / "manifest.json", manifest)
    return code


def _make_outdir(path):
    """The output directory as a Path, made if missing; None, with the
    reason on stderr, when it cannot be made (a file has its name, say)."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return None
    return Path(path)


def _file_output_dir(path) -> str | None:
    """The config file's output_dir, if it can be read and names one once,
    whatever else is wrong with it (another key set twice, say)."""
    try:
        dirs = [val for key, val in _config_lines(path) if key == "output_dir"] if path else []
    except (ValueError, OSError):
        return None
    return dirs[0] if len(dirs) == 1 else None


def _environment() -> dict:
    import numpy

    from .experiments import pool_workers
    return {"workers": pool_workers(), "python": sys.version.split()[0],
            "numpy": numpy.__version__}


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
