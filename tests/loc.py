"""Count the code, docstring, comment and blank lines of each module under src/.

    python3 tests/loc.py [TREE]
    python3 tests/loc.py --same-code PARENT_TREE [TREE]

TREE defaults to this repository.  Each physical line of a module falls in
one class, the first that applies: code (a token other than a comment or a
docstring, so a code line with a trailing comment is code, and so is every
line of a string that is not a docstring), docstring (a line of a module,
class or function docstring, its blank lines included), comment, blank.
The first form prints one row per module and a total, and exits 0.

With --same-code it prints nothing when every module of TREE/src parses to
the same AST as the same module of PARENT_TREE/src, docstrings removed (so
comments, docstrings and layout may differ), and exits 0; else it names
each module that differs, is missing or is new, and exits 1.  The name
keeps the script out of pytest collection.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _documented(tree: ast.AST):
    """The module, classes and functions of `tree` whose body opens with a
    docstring."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                yield node


def count_lines(source: str) -> dict:
    """{kind: lines} of one module's source, over KINDS."""
    lines = source.splitlines()
    docs = (node.body[0] for node in _documented(ast.parse(source)))
    spans = [((d.lineno, d.col_offset), (d.end_lineno, d.end_col_offset)) for d in docs]
    kind = [None] * (len(lines) + 1)  # by 1-based line number
    rank = {k: r for r, k in enumerate(KINDS)}

    def mark(first, last, what):
        for ln in range(first, last + 1):
            if kind[ln] is None or rank[what] < rank[kind[ln]]:
                kind[ln] = what

    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            mark(tok.start[0], tok.end[0], "comment")
        elif tok.type not in _LAYOUT:
            doc = tok.type == tokenize.STRING and any(
                a <= tok.start and tok.end <= b for a, b in spans)
            mark(tok.start[0], tok.end[0], "docstring" if doc else "code")
    counts = dict.fromkeys(KINDS, 0)
    for ln in range(1, len(lines) + 1):
        counts[kind[ln] or "blank"] += 1
    return counts


def code_ast(source: str) -> str:
    """The module's AST with every docstring removed, as a comparable string."""
    tree = ast.parse(source)
    for node in _documented(tree):
        node.body = node.body[1:]
    return ast.dump(tree)


def modules(tree: Path) -> dict:
    """{path relative to TREE/src: source} of every module under TREE/src."""
    src = tree / "src"
    return {p.relative_to(src).as_posix(): p.read_text() for p in sorted(src.rglob("*.py"))}


def report(tree: Path) -> str:
    rows = [(name, count_lines(text)) for name, text in modules(tree).items()]
    total = {k: sum(c[k] for _, c in rows) for k in KINDS}
    width = max(len(name) for name, _ in rows + [("total", None)])
    out = [f"{'module':<{width}} " + " ".join(f"{k:>9}" for k in KINDS) + f" {'lines':>9}"]
    for name, c in rows + [("total", total)]:
        out.append(f"{name:<{width}} " + " ".join(f"{c[k]:>9}" for k in KINDS)
                   + f" {sum(c.values()):>9}")
    return "\n".join(out)


def differing(parent: Path, tree: Path) -> list:
    """Lines naming each module whose code differs between the two trees."""
    old, new = modules(parent), modules(tree)
    out = [f"missing: {name}" for name in sorted(old.keys() - new.keys())]
    out += [f"new: {name}" for name in sorted(new.keys() - old.keys())]
    out += [f"code differs: {name}" for name in sorted(old.keys() & new.keys())
            if code_ast(old[name]) != code_ast(new[name])]
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="loc.py", description=__doc__.splitlines()[0])
    ap.add_argument("--same-code", metavar="PARENT_TREE", type=Path)
    ap.add_argument("tree", nargs="?", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    if args.same_code is None:
        print(report(args.tree))
        return 0
    diff = differing(args.same_code, args.tree)
    for line in diff:
        print(line)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
