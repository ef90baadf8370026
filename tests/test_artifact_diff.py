import json
import math
import struct

import pytest

from artifact_diff import CACHE_LAYOUTS, compare, main


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


def write_cache(path, tag, a, eigenvalues, n=4, fill=0.5):
    """A synthetic operator cache in the layout of `tag`, key (n, linear,
    1, 1); every array but a and the eigenvalues holds `fill`."""
    head = tag + struct.pack("<qqdd", n, 0, 1.0, 1.0) + struct.pack("<ddddQ", 0, 0, 0, 0, 0)
    values = {"a": list(a)}
    if tag == b"PHLNOP05":
        values["eigenvalues"] = list(eigenvalues)
    else:  # the even block's eigenvalues, then the odd block's
        values["eigenvalues_even"] = list(eigenvalues[::2])
        values["eigenvalues_odd"] = list(eigenvalues[1::2])
    body = b"".join(struct.pack(f"<{size}d", *values.get(name, [fill] * size))
                    for name, size in CACHE_LAYOUTS[tag](n))
    path.write_bytes(head + body)
    return path


A = [1.0, 2.0, 2.0, 1.0]
EIGS = [-3.0, -2.0, -1e-12, 0.0]


def test_cache_same_tag_is_compared_byte_for_byte(tmp_path):
    a = write_cache(tmp_path / "a.bin", b"PHLNOP06", A, EIGS)
    assert compare(a, write_cache(tmp_path / "b.bin", b"PHLNOP06", A, EIGS), 1.0) \
        == ("identical", True)
    # the same a and eigenvalues, another eigenvector: bytes differ at any D
    b = write_cache(tmp_path / "b.bin", b"PHLNOP06", A, EIGS, fill=0.25)
    assert compare(a, b, 1.0) == ("bytes differ", False)


def test_cache_same_tag_that_moved_is_judged_under_bound(tmp_path):
    # a moves by one ulp and nothing else does: judged under D, and the
    # default D = 0 stays strict
    a = write_cache(tmp_path / "a.bin", b"PHLNOP06", A, EIGS)
    moved = write_cache(tmp_path / "b.bin", b"PHLNOP06",
                        [1.0, math.nextafter(2.0, 3.0), 2.0, 1.0], EIGS)
    line, good = compare(a, moved, 1e-15)
    assert good
    assert line == "same format (tag PHLNOP06), max abs diff / max |value| 2.220e-16 ('a')"
    line, good = compare(a, moved, 0.0)
    assert not good and line.endswith("exceeds --max-scaled 0")
    # the same a, eigenvalues and arrays under another checksum
    data = bytearray(a.read_bytes())
    data[72] ^= 1
    (tmp_path / "c.bin").write_bytes(data)
    assert compare(a, tmp_path / "c.bin", 1.0) == ("bytes differ", False)


def test_cache_tag_change_within_bound(tmp_path):
    # the eigenvalues come in another order and move by one ulp of 3
    a = write_cache(tmp_path / "a.bin", b"PHLNOP05", A, EIGS)
    moved = [math.nextafter(-3.0, 0.0)] + EIGS[1:]
    b = write_cache(tmp_path / "b.bin", b"PHLNOP06", A, moved[::-1])
    line, good = compare(a, b, 1e-15)
    assert good
    assert line.startswith("format changed (tag PHLNOP05 → PHLNOP06)")
    assert "'eigenvalues'" in line
    line, good = compare(a, b, 0.0)
    assert not good and "exceeds --max-scaled" in line


def test_cache_tag_change_beyond_bound(tmp_path):
    a = write_cache(tmp_path / "a.bin", b"PHLNOP05", A, EIGS)
    b = write_cache(tmp_path / "b.bin", b"PHLNOP06", [1.0, 2.0, 2.0 + 1e-9, 1.0], EIGS)
    line, good = compare(a, b, 1e-13)
    assert not good
    assert line.startswith("format changed (tag PHLNOP05 → PHLNOP06)")
    assert "('a') exceeds --max-scaled" in line


def test_cache_tag_change_with_another_key_or_layout_fails(tmp_path):
    a = write_cache(tmp_path / "a.bin", b"PHLNOP05", A, EIGS)
    other_n = write_cache(tmp_path / "b.bin", b"PHLNOP06", A + A, EIGS + EIGS, n=8)
    assert "keys differ" in compare(a, other_n, 1.0)[0]
    unknown = tmp_path / "c.bin"
    unknown.write_bytes(b"PHLNOP99" + a.read_bytes()[8:])
    assert compare(a, unknown, 1.0) == \
        ("format changed (tag PHLNOP05 → PHLNOP99), not decoded", False)


def test_cache_without_odd_eigenvectors(tmp_path):
    # 08 holds a, E, O, E's eigenpairs and O's eigenvalues: from 07, a and
    # the eigenvalues are judged, and within 08 every byte
    a = write_cache(tmp_path / "a.bin", b"PHLNOP07", A, EIGS)
    moved = [math.nextafter(-3.0, 0.0)] + EIGS[1:]
    b = write_cache(tmp_path / "b.bin", b"PHLNOP08", A, moved)
    assert b.stat().st_size == 80 + 8 * (4 + 3 * 2 * 2 + 4)
    line, good = compare(a, b, 1e-15)
    assert good
    assert line.startswith("format changed (tag PHLNOP07 → PHLNOP08)")
    assert "'eigenvalues'" in line
    c = write_cache(tmp_path / "c.bin", b"PHLNOP08", A, moved, fill=0.25)
    assert compare(b, c, 1.0) == ("bytes differ", False)
