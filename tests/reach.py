"""List every function under src/ that no subcommand enters.

    python3 tests/reach.py

Runs the seven CLI subcommands at their defaults in this process, with
`PHONON_THREADS=2` (so `verify_suite`'s slab threads run, traced like the
caller: `_grid_checks` runs only on them) and
`rj-match` at mass 3, energy 1, then `lin-decay` again on the warm
operator cache, and `multiplier` at `spectrum`'s n = 512 from a config
file, which reads `a` from `spectrum`'s cache (every run writes to one
output directory), all under a call tracer (`sys.settrace` and
`threading.settrace`).  It then prints every function of the package
(lambdas and nested functions included, comprehensions not) that was never
entered, as `path:line module:qualname`, each with its reason when
`ALLOWED` names it.  A function nested in an allowed one is covered by it.
Exits 1 when a run does not exit 0, when an unreached function is missing
from `ALLOWED`, or when an allowed function was entered or is no longer
defined (so the list cannot go stale); else 0.  It takes about 5 s on 2
cores.  The name keeps the script out of pytest collection.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import threading
from inspect import CO_OPTIMIZED
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phononlab"

# module:qualname -> why it stays although no default run enters it
ALLOWED = {
    # the paper's objects, which the tests pin (README, "Install and test")
    "collision:collision_operator": "C[f] on a grid: criterion 10",
    "collision:collision_map": "serves both C[f] callers, collision_operator "
                               "and evolve_nonlinear_f",
    "dynamics:evolve_nonlinear_f": "the paper's equation f' = C[f]; its tests pin "
                                   "conservation, entropy growth and the RK4 order",
    "linearized:bulk_edge_functionals": "TestBulkEdge pins the bulk-mass bound",
    # every subcommand's data is even, so none reads O's eigenvectors
    "linearized:LinOperator.odd_eigh": "semigroup_apply on data with an odd part; "
                                       "TestOddEigenvectors pins it",
    # L as one n x n array: every run applies L through its blocks
    "linearized:LinOperator.matrix": "read only by perfbench's traced relax runs, "
                                     "for its size",
    # reached by runs other than the defaults
    "cli:_file_output_dir": "a bad configuration given with --config",
}

# the config file of the warm multiplier run, written beside the artifacts
CONFIG = ("warm.cfg", "grid_n = 512\n")

# (name, argv) of each traced run, in order, all in one output directory,
# which is also the working directory; the second lin-decay reads the cache
# the first one wrote, and the second multiplier the one spectrum wrote
RUNS = [
    ("multiplier", ["multiplier"]),
    ("spectrum", ["spectrum"]),
    ("multiplier (warm cache, config file)", ["--config", CONFIG[0], "multiplier"]),
    ("lin-decay", ["lin-decay"]),
    ("lin-decay (warm cache)", ["lin-decay"]),
    ("nonlin", ["nonlin"]),
    ("rj-match", ["rj-match", "--mass", "3", "--energy", "1"]),
    ("lp-blowup", ["lp-blowup"]),
    ("verify", ["verify"]),
]


def functions() -> dict:
    """(file, first line, qualname) -> 'module:qualname' for every function
    compiled from the package's sources; comprehensions are left out, since
    they are expressions of their function (and inlined from Python 3.12)."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
            if code.co_flags & CO_OPTIMIZED and not (code.co_name.startswith("<")
                                                     and code.co_name != "<lambda>"):
                key = (code.co_filename, code.co_firstlineno, code.co_qualname)
                found[key] = f"{path.stem}:{code.co_qualname}"
    return found


def traced_runs(out: Path) -> tuple[set, list]:
    """The (file, first line, qualname) of every package function entered
    by RUNS, and the runs that did not exit 0."""
    sys.path.insert(0, str(PACKAGE.parent))
    os.environ["PHONON_THREADS"] = "2"
    from phononlab.cli import main

    files = {str(p) for p in PACKAGE.glob("*.py")}
    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename in files:
            entered.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    failed = []
    (out / CONFIG[0]).write_text(CONFIG[1])
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        for name, argv in RUNS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err, contextlib.chdir(out):
                code = main(["--output-dir", str(out), *argv])
            if code != 0:
                failed.append(f"{name} exited {code}: {err.getvalue().strip()}")
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return entered, failed


def main() -> int:
    names = functions()
    with tempfile.TemporaryDirectory() as tmp:
        entered, failed = traced_runs(Path(tmp))
    for line in failed:
        print(f"run failed: {line}")
    ok = not failed
    unreached = sorted(k for k in names if k not in entered)
    print(f"{len(unreached)} of {len(names)} functions never entered:")
    for key in unreached:
        name = names[key]
        owner = next((a for a in ALLOWED
                      if name == a or name.startswith(a + ".<locals>.")), None)
        ok = ok and owner is not None
        why = f"  ({ALLOWED[owner]})" if owner == name else (
            f"  (inside {owner})" if owner else "  NOT ALLOWED: delete it or add it to ALLOWED")
        print(f"  {Path(key[0]).relative_to(PACKAGE.parents[1])}:{key[1]} {name}{why}")
    stale = sorted(set(ALLOWED) & {names[k] for k in entered if k in names})
    for name in stale:
        print(f"allowed but entered: {name}; drop it from ALLOWED")
    gone = sorted(set(ALLOWED) - set(names.values()))
    for name in gone:
        print(f"allowed but not defined: {name}; drop it from ALLOWED")
    return 0 if ok and not stale and not gone else 1


if __name__ == "__main__":
    sys.exit(main())
