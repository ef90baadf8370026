import shutil
from pathlib import Path

import pytest

from loc import count_lines, main

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src").rglob("*.py"))


def counts(code, docstring, comment, blank):
    return {"code": code, "docstring": docstring, "comment": comment, "blank": blank}


@pytest.mark.parametrize("source,want", [
    ('"""One line."""\nx = 1\n', counts(1, 1, 0, 0)),
    ('def f():\n    """Two\n\n    lines."""\n    return 1\n', counts(2, 3, 0, 0)),
    ('x = 1\n"""not a docstring"""\n', counts(2, 0, 0, 0)),
    ('s = "a # b"\n', counts(1, 0, 0, 0)),
    ('x = 1  # trailing\n# alone\n\n', counts(1, 0, 1, 1)),
    ('class C:\n    """Doc."""  # note\n\n    y = """two\n\nlines"""\n',
     counts(4, 1, 0, 1)),
], ids=["module-docstring", "blank-inside-docstring", "string-expression",
        "hash-in-string", "trailing-comment", "class-docstring-and-long-string"])
def test_count_lines(source, want):
    assert count_lines(source) == want


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_counts_sum_to_the_line_count(module):
    source = module.read_text()
    assert sum(count_lines(source).values()) == len(source.splitlines())


@pytest.fixture
def trees(tmp_path):
    """Two copies of this tree's src/, the second to be edited."""
    for side in ("parent", "change"):
        shutil.copytree(ROOT / "src", tmp_path / side / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "parent", tmp_path / "change"


def edit(tree, old, new):
    path = tree / "src" / "phononlab" / "grid.py"
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))


def test_same_code_on_a_copy(trees, capsys):
    assert main(["--same-code", str(trees[0]), str(trees[1])]) == 0
    assert capsys.readouterr().out == ""


def test_same_code_after_a_docstring_and_comment_edit(trees):
    edit(trees[1], '"""Real values sampled on a Grid."""',
         '"""Real values\n    sampled on a Grid, reworded."""')
    edit(trees[1], "POS_FLOOR = 1e-12", "# a new comment\nPOS_FLOOR = 1e-12  # and another")
    assert main(["--same-code", str(trees[0]), str(trees[1])]) == 0


def test_one_token_of_code_differs(trees, capsys):
    edit(trees[1], "POS_FLOOR = 1e-12", "POS_FLOOR = 1e-13")
    assert main(["--same-code", str(trees[0]), str(trees[1])]) == 1
    assert capsys.readouterr().out == "code differs: phononlab/grid.py\n"


def test_a_missing_module_differs(trees, capsys):
    (trees[1] / "src" / "phononlab" / "fitting.py").unlink()
    assert main(["--same-code", str(trees[0]), str(trees[1])]) == 1
    assert capsys.readouterr().out == "missing: phononlab/fitting.py\n"
