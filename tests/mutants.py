"""Plant known defects in copies of the tree and check that the tests catch each.

    python3 tests/mutants.py [NAME ...]

Each row of DEFECTS names a defect, a file under the tree, the exact old
text, the new text and the test files that guard it.  For each defect (or
only the named ones), src/ and tests/ are copied into a temporary
directory, every occurrence of the old text in the file is replaced, and
`pytest -x -q` runs the defect's test files there with
`PYTHONPATH=<copy>/src`.  A defect is killed when pytest reports a failed
test (exit 1) and survives when every test passes (exit 0); any other exit
(a collection error, say) is an error.  Prints one line per defect with its
verdict and time.  Exits 1 when a defect survives, when a run errs, or when
an old text is no longer found in its file (so the table cannot go stale);
else 0.  It takes 90-140 s on 2 cores, since each defect runs only its
own test files.  The name keeps the script out of pytest collection.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file, old text, new text, test files)
DEFECTS = [
    # the eleven first planted by hand
    ("self-mirror W not halved", "src/phononlab/collision.py",
     "self.W[self.i + self.j == n - 1] *= 0.5", "self.W[self.i + self.j == n - 1] *= 1.0",
     ["tests/test_dynamics.py", "tests/test_linearized.py"]),
    ("half-table sums doubled, not reflected", "src/phononlab/dynamics.py",
     "h = h + h[::-1]", "h = 2.0 * h", ["tests/test_dynamics.py"]),
    ("g3 for g2 in the last fused term", "src/phononlab/dynamics.py",
     "(g2, self.G3[s])", "(g3, self.G3[s])", ["tests/test_dynamics.py"]),
    ("EVEN_RTOL raised", "src/phononlab/linearized.py",
     "EVEN_RTOL = 1e-12", "EVEN_RTOL = 1e-3", ["tests/test_dynamics.py"]),
    ("one bracket term's sign", "src/phononlab/collision.py",
     "- f0 * f1 * f3 - f0 * f1 * f2", "+ f0 * f1 * f3 - f0 * f1 * f2",
     ["tests/test_collision.py", "tests/test_experiments.py"]),
    ("multiplier_a doubles in place of reflecting", "src/phononlab/linearized.py",
     "return Field(grid, grid.weight * (a + a[::-1]) / fb)",
     "return Field(grid, grid.weight * (2.0 * a) / fb)", ["tests/test_linearized.py"]),
    ("cache checksum not compared", "src/phononlab/linearized.py",
     "if got != crc:", "if False:", ["tests/test_linearized.py", "tests/test_cli.py"]),
    ("positivity check loosened", "src/phononlab/dynamics.py",
     "if np.min(f_vals) <= 0.0:", "if np.min(f_vals) < -1.0:", ["tests/test_dynamics.py"]),
    ("cache written in place", "src/phononlab/linearized.py",
     'tmp = Path(f"{path}.{os.getpid()}.tmp")', "tmp = Path(path)",
     ["tests/test_linearized.py"]),
    ("cache key not compared", "src/phononlab/linearized.py",
     "return op if (op.grid.n, op.params, op.interp) == (grid.n, params, interp) else None",
     "return op", ["tests/test_linearized.py"]),
    ("BLOWUP_FACTOR raised", "src/phononlab/dynamics.py",
     "BLOWUP_FACTOR = 1e3", "BLOWUP_FACTOR = 1e300", ["tests/test_dynamics.py"]),
    # the Horner interpolant
    ("sign of a cubic coefficient", "src/phononlab/grid.py",
     "a2 = 0.5 * dd[:n]", "a2 = -0.5 * dd[:n]", ["tests/test_grid.py"]),
    ("extended values shifted by one node", "src/phononlab/grid.py",
     "ext = np.concatenate((values, values[:", "ext = np.concatenate((values[1:], values[:1 + ",
     ["tests/test_grid.py"]),
    # the guards
    ("numerical error mapped to exit 1", "src/phononlab/cli.py",
     'manifest["status"] = f"numerical-error: {exc}"\n        code = EXIT_NUMERICAL',
     'manifest["status"] = f"numerical-error: {exc}"\n        code = EXIT_INTERNAL',
     ["tests/test_cli.py"]),
    ("MAX_STEPS bound", "src/phononlab/dynamics.py",
     "if self.t_final / self.dt > MAX_STEPS:", "if self.t_final / self.dt > 10 * MAX_STEPS:",
     ["tests/test_dynamics.py"]),
    ("check_table_n bound", "src/phononlab/collision.py",
     "if n > TABLE_MAX_N:", "if n > 2 * TABLE_MAX_N:",
     ["tests/test_collision.py", "tests/test_cli.py"]),
    ("--p domain", "src/phononlab/experiments.py",
     "if not 1.0 <= p_exp <= np.inf:", "if not 0.5 <= p_exp <= np.inf:",
     ["tests/test_experiments.py", "tests/test_cli.py"]),
    ("parity check counts at least two modes", "src/phononlab/linearized.py",
     "if n_null != 2:", "if n_null < 2:", ["tests/test_linearized.py"]),
    ("CSV writer takes non-finite values", "src/phononlab/cli.py",
     '_refuse_nonfinite(path, x, f"column {name!r}, row {r}")', "pass",
     ["tests/test_cli.py"]),
    # the run's clocks
    ("step time as (k + 1) dt", "src/phononlab/dynamics.py",
     "t = (k + 1) / n_steps * cfg.t_final", "t = (k + 1) * dt", ["tests/test_dynamics.py"]),
    ("wall time on the wall clock", "src/phononlab/cli.py",
     "time.monotonic()", "time.time()", ["tests/test_cli.py"]),
    # the heap of the streamed table
    ("table blocks of 2^16", "src/phononlab/collision.py",
     "_TABLE_BLOCK = 1 << 14", "_TABLE_BLOCK = 1 << 16", ["tests/test_collision.py"]),
    ("one-arena cap dropped", "src/phononlab/collision.py",
     ",\n        (_M_ARENA_MAX, 1)))", "))", ["tests/test_collision.py"]),
    # the fold of the assembly into the even and odd blocks
    ("opposite-side test inverted: S and X swapped", "src/phononlab/linearized.py",
     "row, col = fold * m + far, fold + far", "row, col = fold * m + mm - far, fold + far",
     ["tests/test_linearized.py"]),
    ("reflection n - idx", "src/phononlab/linearized.py",
     "np.minimum(k, n - 1 - k)", "np.minimum(k, n - k)", ["tests/test_linearized.py"]),
    # the libraries' loops: the pool's map and the array bisection
    ("pool results out of block order", "src/phononlab/collision.py",
     "map(fn, blocks))", "map(fn, blocks[::-1]))", ["tests/test_collision.py"]),
    ("bisection moves converged points", "src/phononlab/manifold.py",
     "np.where(wide & same, m, a)", "np.where(same, m, a)", ["tests/test_manifold.py"]),
    # a rejected run leaves only its manifest
    ("config key set twice takes the last value", "src/phononlab/cli.py",
     "if key in out:", "if False:", ["tests/test_cli.py"]),
    ("cache/ made before assemble", "src/phononlab/linearized.py",
     "op = assemble(params, grid, interp)\n        Path(cache_dir).mkdir(parents=True, exist_ok=True)",
     "Path(cache_dir).mkdir(parents=True, exist_ok=True)\n        op = assemble(params, grid, interp)",
     ["tests/test_cli.py"]),
    ("_file_output_dir reads the file strictly", "src/phononlab/cli.py",
     'dirs = [val for key, val in _config_lines(path) if key == "output_dir"] if path else []',
     'return read_config_file(path).get("output_dir") if path else None',
     ["tests/test_cli.py"]),
    # only what a run reads: O's eigenvectors on first use, a from the cache
    ("O's eigenvectors formed in assemble", "src/phononlab/linearized.py",
     "odd_eigenvalues = np.linalg.eigvalsh(O)", "odd_eigenvalues = np.linalg.eigh(O)[0]",
     ["tests/test_linearized.py"]),
    ("block skipped when its half is nonzero", "src/phononlab/linearized.py",
     "B @ h if h.any() else", "B @ h if not h.any() else", ["tests/test_linearized.py"]),
    ("warm multiplier skips the key check", "src/phononlab/linearized.py",
     "return op if (op.grid.n, op.params, op.interp) == (grid.n, params, interp) else None",
     "return op", ["tests/test_cli.py"]),
    ("multiplier makes cache/ on a miss", "src/phononlab/linearized.py",
     "    if not path.exists():\n        return None",
     "    if not path.exists():\n        path.parent.mkdir(parents=True, exist_ok=True)\n"
     "        return None", ["tests/test_cli.py"]),
    # collision_at on the calling thread, its weight's half angles once per node
    ("live term's row factors gathered from its column's", "src/phononlab/collision.py",
     "_weight(sx[row_at], cx[row_at], sz[at], cz[at], t[i])",
     "_weight(sz[at], cz[at], sz[at], cz[at], t[i])", ["tests/test_experiments.py"]),
    ("cos for sin in half_angles", "src/phononlab/manifold.py",
     "return np.sin(half), np.cos(half)", "return np.cos(half), np.cos(half)",
     ["tests/test_manifold.py"]),
    ("collision_at's blocks back on map_blocks", "src/phononlab/collision.py",
     "    for block in blocks:\n        run(block)\n", "    map_blocks(run, blocks)\n",
     ["tests/test_experiments.py"]),
    ("collision_at's weight-shape check removed", "src/phononlab/collision.py",
     "if z_wts.shape != z_nodes.shape:", "if False:", ["tests/test_experiments.py"]),
]


def _copy_tree(dst: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dst / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dst / "pyproject.toml")


def run_defect(name, path, old, new, tests) -> str:
    """'killed', 'survived', 'stale' (old text not found) or 'error: ...'."""
    source = (ROOT / path).read_text()
    if old not in source:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        (tree / path).write_text(source.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return f"error: pytest exit {proc.returncode} {' '.join(tail)}"


def main(argv: list[str]) -> int:
    rows = [row for row in DEFECTS if not argv or row[0] in argv]
    unknown = set(argv) - {row[0] for row in DEFECTS}
    if unknown:
        print(f"unknown defect(s): {', '.join(sorted(unknown))}")
        return 1
    bad = 0
    start = time.monotonic()
    for row in rows:
        t0 = time.monotonic()
        verdict = run_defect(*row)
        bad += verdict != "killed"
        print(f"{verdict:8s} {time.monotonic() - t0:5.1f}s  {row[0]}  ({row[1]})", flush=True)
    print(f"{len(rows) - bad} of {len(rows)} defects killed in "
          f"{time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
