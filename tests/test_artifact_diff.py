import json
import math

import pytest

from artifact_diff import compare, main


def write_csv(path, rows):
    path.write_text("t,value\n" + "".join(f"{t:.17g},{v:.17g}\n" for t, v in rows))
    return path


ROWS = [(1.0, 0.1), (2.0, -0.25), (4.0, 0.0625)]


@pytest.mark.parametrize("moved,max_scaled,ok", [
    (0.0, 0.0, True),
    (None, 1e-12, True),   # one ulp
    (None, 0.0, False),
    (1e-6, 1e-12, False),
], ids=["same", "ulp-at-1e-12", "ulp-at-0", "1e-6-at-1e-12"])
def test_csv_cell(tmp_path, moved, max_scaled, ok):
    rows = list(ROWS)
    t, v = rows[1]
    rows[1] = (t, math.nextafter(v, 1.0) if moved is None else v + moved)
    a = write_csv(tmp_path / "a.csv", ROWS)
    b = write_csv(tmp_path / "b.csv", rows)
    line, good = compare(a, b, max_scaled)
    assert good is ok
    if moved != 0.0:
        assert "(column 'value')" in line
        assert ("exceeds --max-scaled" in line) is not ok


def test_json_leaf_names_its_field(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"drift": 1e-9, "exponent": -0.75}))
    b.write_text(json.dumps({"drift": 1e-9, "exponent": -0.75 + 1e-6}))
    line, good = compare(a, b, 1e-12)
    assert not good and "(field '/exponent')" in line
    assert compare(a, b, 1e-5)[1]


def test_a_nan_against_a_number_differs(tmp_path):
    a = write_csv(tmp_path / "a.csv", ROWS)
    b = write_csv(tmp_path / "b.csv", ROWS[:2] + [(4.0, math.nan)])
    assert compare(a, b, 1.0) == ("field (3, 1) differs: '0.0625' vs 'nan'", False)


def test_negative_bound_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path), str(tmp_path), "--max-scaled", "-1"])
    assert exc.value.code == 2
    assert "--max-scaled must be at least 0" in capsys.readouterr().err
