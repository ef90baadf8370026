"""Compare the artifacts of two source trees, subcommand by subcommand.

    python3 tests/artifact_diff.py PARENT_TREE CHANGE_TREE [--max-scaled D]

Runs the seven CLI subcommands at small pinned configurations in each tree
(`PYTHONPATH=<tree>/src`, `PHONON_THREADS=2`), `spectrum` also at
n = 512, whose half table streams as four blocks (every other run fits in
one),
and `lp-blowup` also at the ends of its domain, p = 1 and p = inf, where
the bump heights differ.  It then prints one line per artifact:
`identical`, or the largest relative difference over its numeric fields
(CSV cells, JSON leaves) next to the largest absolute difference scaled
by the largest magnitude of its series:
a CSV file's worst column, which is named, or a JSON document as a whole.
The second figure shows how far a series moved when the first is set by a
value that is only rounding noise (an eigenvalue that should be zero, say);
scaling by column keeps an index or time column from diluting it.  That
second figure is the one judged: a series passes when it is at most D
(--max-scaled, default 0, so by default every numeric field must be
identical), and the line of a series above D names the artifact, the
column (or the JSON field that moved most) and D.  Of
`manifest.json` only `status` and `config_hash` are compared, since it also
records wall time and environment; a change that moves a hash shows.
Beside each manifest's verdict the line reports its `wall_time_s` on both
sides, as a report only: it decides nothing.  Any other binary artifact
must be the same bytes, and an operator cache is decoded (see below).  Exits 1
when an artifact exists on one side only, when the two sides differ in
anything but numbers, when a series moved by more than D, or when a
manifest's status or config hash differs; else 0.  The name keeps the
script out of pytest collection; tests/test_artifact_diff.py tests
`compare`.

Two operator caches whose bytes differ are decoded, for every layout in
CACHE_LAYOUTS: the line reads `format changed (tag A → B)` when the magic
tags differ, else `same format (tag A)`; the key in the two headers must
agree, and `a` and the sorted eigenvalues are judged as numeric series
under D.  Across a format change nothing else is compared.  Within one
format everything else but the checksum (the diagnostics, the blocks and
the eigenvectors, which no scaled difference measures) must be the same
bytes, and so must the whole file when `a` and the eigenvalues are:
otherwise the line reads `bytes differ`.  A tag missing from
CACHE_LAYOUTS fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

# the BLAS thread variables that the CLI caps, from this checkout's package
# (importing `phononlab.cli` loads no numpy)
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from phononlab.cli import _THREAD_ENV_VARS  # noqa: E402

RUNS = {
    "multiplier": ["multiplier", "--grid-n", "256"],
    "spectrum": ["spectrum", "--grid-n", "128"],
    "spectrum-512": ["spectrum", "--grid-n", "512"],
    "lin-decay": ["lin-decay", "--grid-n", "128", "--t-final", "400"],
    "nonlin": ["nonlin", "--grid-n", "128", "--t-final", "50", "--dt", "1.0"],
    "rj-match": ["rj-match", "--mass", "3.0", "--energy", "1.0"],
    "lp-blowup": ["lp-blowup", "--p", "2.0"],
    "lp-blowup-p1": ["lp-blowup", "--p", "1"],
    "lp-blowup-pinf": ["lp-blowup", "--p", "inf"],
    "verify": ["verify"],
}


def run_tree(tree: Path, out: Path) -> None:
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_ENV_VARS}
    env.update(PYTHONPATH=str(tree / "src"), PHONON_THREADS="2")
    for name, args in RUNS.items():
        subprocess.run([sys.executable, "-m", "phononlab.cli",
                        "--output-dir", str(out / name), *args],
                       env=env, cwd=out, capture_output=True, check=False)


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _leaves(obj, path=""):
    """(path, value) for every leaf of a JSON document."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{path}/{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}/{i}")
    else:
        yield path, obj


def _number(x):
    """x as a float if it is numeric (a JSON number or a CSV cell), else None."""
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _fields(path: Path) -> list:
    """(key, series, value) for every field: a CSV cell's series is its
    column's header, a JSON leaf's the whole document ('')."""
    if path.suffix == ".json":
        return [(k, "", v) for k, v in _leaves(json.loads(path.read_text()))]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [((r, c), rows[0][c], cell) for r, row in enumerate(rows)
            for c, cell in enumerate(row)]


# operator cache layouts: the magic tag, then the key (n, interp, beta, gamma),
# 4 diagnostics and a checksum (80 bytes in all), then float64 arrays, each
# named with its length for a grid of n nodes; the eigenvalues are the
# arrays named "eigenvalues*"
_CACHE_HEADER = 80


def _blocks_layout(n: int) -> list:
    """The even and odd blocks' layout, of 06 and of 07, whose blocks
    differ from 06's at rounding."""
    return [("a", n), ("even", n * n // 4), ("odd", n * n // 4),
            ("eigenvalues_even", n // 2), ("eigenvectors_even", n * n // 4),
            ("eigenvalues_odd", n // 2), ("eigenvectors_odd", n * n // 4)]


CACHE_LAYOUTS = {
    b"PHLNOP05": lambda n: [("a", n), ("matrix", n * n), ("eigenvalues", n),
                            ("eigenvectors", n * n)],
    b"PHLNOP06": _blocks_layout,
    b"PHLNOP07": _blocks_layout,
    # 08 drops the odd block's eigenvectors
    b"PHLNOP08": lambda n: _blocks_layout(n)[:-1],
}


def decode_cache(data: bytes):
    """(key, {"a": [...], "eigenvalues": sorted [...]}, rest) of an operator
    cache in a layout of CACHE_LAYOUTS, or None when its tag or size fits
    none; rest is the bytes of everything else but the checksum: the tag,
    the key, the diagnostics and every other array."""
    layout = CACHE_LAYOUTS.get(data[:8])
    if layout is None or len(data) < _CACHE_HEADER:
        return None
    key = struct.unpack_from("<qqdd", data, 8)
    arrays = layout(key[0])
    if len(data) != _CACHE_HEADER + 8 * sum(size for _, size in arrays):
        return None
    out, at = {"a": [], "eigenvalues": []}, _CACHE_HEADER
    rest = [data[:_CACHE_HEADER - 8]]
    for name, size in arrays:
        name = "eigenvalues" if name.startswith("eigenvalues") else name
        if name in out:
            out[name] += struct.unpack_from(f"<{size}d", data, at)
        else:
            rest.append(data[at:at + 8 * size])
        at += 8 * size
    out["eigenvalues"].sort()
    return key, out, b"".join(rest)


def _compare_caches(da: bytes, db: bytes, max_scaled: float) -> tuple[str, bool]:
    """The verdict on two operator caches whose bytes differ."""
    tags = [d[:8].decode(errors="replace") for d in (da, db)]
    same = tags[0] == tags[1]
    line = (f"same format (tag {tags[0]})" if same
            else f"format changed (tag {tags[0]} → {tags[1]})")
    got = [decode_cache(d) for d in (da, db)]
    if None in got:
        return f"{line}, not decoded", False
    (ka, va, ra), (kb, vb, rb) = got
    if ka != kb:
        return f"{line}, keys differ: {ka} vs {kb}", False
    if same and (ra != rb or va == vb):  # what D does not judge moved
        return "bytes differ", False
    worst = []
    for name in ("a", "eigenvalues"):
        diff = max(abs(x - y) for x, y in zip(va[name], vb[name]))
        scale = max(abs(x) for x in va[name] + vb[name])
        worst.append((diff / scale if scale else 0.0, name))
    ratio, name = max(worst)
    line = f"{line}, max abs diff / max |value| {ratio:.3e} ({name!r})"
    if ratio > max_scaled:
        return f"{line} exceeds --max-scaled {max_scaled:g}", False
    return line, True


def compare(a: Path, b: Path, max_scaled: float = 0.0) -> tuple[str, bool]:
    """(verdict line, ok) for one artifact present on both sides; a numeric
    series whose largest absolute difference, scaled by its largest
    magnitude, exceeds max_scaled fails it."""
    if a.name == "manifest.json":
        ma, mb = json.loads(a.read_text()), json.loads(b.read_text())
        wall = f"(wall_time_s {ma['wall_time_s']} vs {mb['wall_time_s']})"
        for key in ("status", "config_hash"):
            if ma[key] != mb[key]:
                return f"{key} {ma[key]!r} vs {mb[key]!r} {wall}", False
        return f"identical {wall}", True
    da, db = a.read_bytes(), b.read_bytes()
    if da == db:
        return "identical", True
    if a.suffix not in (".json", ".csv"):
        if da[:6] == db[:6] == b"PHLNOP":
            return _compare_caches(da, db, max_scaled)
        return "bytes differ", False
    fa, fb = _fields(a), _fields(b)
    if [f[:2] for f in fa] != [f[:2] for f in fb]:
        return "layout differs", False
    worst = 0.0
    moved = {}  # series: [max abs diff, max |value|, key of that diff]
    for (key, series, va), (_, _, vb) in zip(fa, fb):
        na, nb = _number(va), _number(vb)
        if na is None or nb is None or math.isnan(na) != math.isnan(nb):
            if va != vb:
                return f"field {key} differs: {va!r} vs {vb!r}", False
            continue
        worst = max(worst, _rel(na, nb))
        m = moved.setdefault(series, [0.0, 0.0, None])
        if abs(na - nb) > m[0]:
            m[0], m[2] = abs(na - nb), key
        m[1] = max(m[1], abs(na), abs(nb))
    if worst == 0.0:
        return "identical in value (formatting differs)", True
    ratio, series, key = max((d / m if m else 0.0, s, k) for s, (d, m, k) in moved.items())
    where = f" (column {series!r})" if a.suffix == ".csv" else f" (field {key!r})"
    line = f"max rel diff {worst:.3e}, max abs diff / max |value| {ratio:.3e}{where}"
    if ratio > max_scaled:
        return f"{line} exceeds --max-scaled {max_scaled:g}", False
    return line, True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare the artifacts of two source trees.")
    parser.add_argument("trees", nargs=2, metavar="TREE", help="PARENT_TREE CHANGE_TREE")
    parser.add_argument("--max-scaled", type=float, default=0.0, metavar="D",
                        help="largest scaled difference a numeric series may show "
                             "(default 0: identical)")
    args = parser.parse_args(argv)
    if not args.max_scaled >= 0.0:
        parser.error(f"--max-scaled must be at least 0, got {args.max_scaled}")
    trees = [Path(t).resolve() for t in args.trees]
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / side for side in ("parent", "change")]
        for tree, out in zip(trees, outs):
            out.mkdir()
            run_tree(tree, out)
        names = sorted({str(p.relative_to(out)) for out in outs
                        for p in out.rglob("*") if p.is_file()})
        for name in names:
            a, b = outs[0] / name, outs[1] / name
            if not (a.exists() and b.exists()):
                line, good = f"only in {'parent' if a.exists() else 'change'}", False
            else:
                line, good = compare(a, b, args.max_scaled)
            ok = ok and good
            print(f"{name}: {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
