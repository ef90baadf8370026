"""Self-test of the benchmark's own logic, at tiny sizes and without the
package's heavy runs.  Run with:  python3 -m pytest -q perfbench
"""

import json
import sys
import types
from pathlib import Path

import pytest

import run
import spans
import spec
from workloads import WORKLOADS, rj_mass_energy

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# self time and span trees

def _span(name, t0, t1, parent=-1, extra=None):
    return [name, t0, t1, parent, extra]


def test_self_time_subtracts_the_union_of_children():
    s = [_span("a", 0.0, 10.0),
         _span("b", 1.0, 3.0, 0), _span("c", 2.0, 4.0, 0),   # overlapping children
         _span("d", 8.0, 12.0, 0)]                           # runs past the parent
    assert spans.self_time(s, 0, spans.child_index(s)) == pytest.approx(10.0 - 3.0 - 2.0)


def test_self_time_ignores_grandchildren():
    s = [_span("a", 0.0, 10.0), _span("b", 2.0, 6.0, 0), _span("c", 3.0, 4.0, 1)]
    children = spans.child_index(s)
    assert spans.self_time(s, 0, children) == pytest.approx(6.0)
    assert spans.self_time(s, 1, children) == pytest.approx(3.0)


def test_nested_same_name_counts_once():
    s = [_span("manifold.h", 0.0, 5.0), _span("manifold.h", 1.0, 2.0, 0),
         _span("manifold.h", 6.0, 7.0)]
    assert spans.outermost(s, "manifold.h") == [0, 2]


def test_percentile_nearest_rank():
    vals = list(range(1, 101))
    assert spans.percentile(vals, 50) == 50
    assert spans.percentile(vals, 99) == 99
    assert spans.percentile([], 99) == 0.0


def test_layer_metrics_cache_and_rhs_counts():
    s = [_span("linearized.load_or_assemble", 0.0, 4.0),
         _span("linearized.assemble", 0.5, 3.0, 0),
         _span("collision.ResonanceTable.__init__", 0.6, 1.0, 1, {"bytes": 2_000_000}),
         _span("linearized.save_operator", 3.0, 3.5, 0, {"bytes": 1_000_000}),
         _span("linearized.load_or_assemble", 5.0, 5.2),
         _span("linearized.load_operator", 5.0, 5.1, 4),
         _span("dynamics.PerturbationTables.quadratic", 6.0, 6.002),
         _span("dynamics.PerturbationTables.quadratic", 7.0, 7.004)]
    m, seen = spans.layer_metrics([{"spans": s}])
    assert m["linearized.cache_misses"] == 1 and m["linearized.cache_hits"] == 1
    assert m["linearized.assemble_self_s"] == pytest.approx(2.5 - 0.4)
    assert m["collision.table_builds"] == 1 and m["collision.table_mb"] == 2.0
    assert m["linearized.cache_mb"] == 1.0
    assert m["dynamics.rhs_calls"] == 2
    assert m["dynamics.quadratic_ms.p50"] == pytest.approx(3.0)
    assert "linearized.assemble" in seen


def test_every_per_layer_metric_is_produced():
    names = {n for n, _, _ in spec.PER_LAYER}
    m, _ = spans.layer_metrics([{"spans": []}])
    # the cli.* and trace.* metrics are measured by run.py, not read from spans
    produced = set(m) | {"cli.import_s", "cli.processes", "cli.artifact_bytes",
                         "cli.manifest_wall_s", "trace.overhead_s"}
    assert names == produced
    assert set(spans.SOURCE) <= names


# ---------------------------------------------------------------------------
# tracer installation on a stand-in package

def _fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    class T:
        def go(self, x):
            return a.f(x) * 2

    a.f, a.T = f, T
    b.f = f   # a `from .a import f` binding
    for name, mod in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    return a, b


def test_tracer_wraps_every_binding_and_reports_missing(monkeypatch):
    a, b = _fake_package(monkeypatch)
    tr = spans.Tracer()
    tr.install("fakepkg", [("a", "f"), ("a", "T.go"), ("a", "gone"), ("c", "f")])
    assert b.f is a.f and hasattr(a.f, "__wrapped__")
    assert a.T().go(1) == 4
    assert b.f(1) == 2
    names = [s[0] for s in tr.spans]
    assert names == ["a.T.go", "a.f", "a.f"]
    assert tr.spans[1][3] == 0 and tr.spans[2][3] == -1
    assert tr.missing == ["a.gone", "c.f"]
    json.dumps(tr.dump())


def test_tracer_records_span_when_call_raises(monkeypatch):
    a, _ = _fake_package(monkeypatch)
    tr = spans.Tracer()
    tr.install("fakepkg", [("a", "f")])
    with pytest.raises(TypeError):
        a.f(None)
    assert tr.spans[0][2] is not None and not tr._stack


# ---------------------------------------------------------------------------
# BENCHMARK.json and names

def test_spec_is_valid_and_committed():
    doc = spec.benchmark_json()
    assert spec.validate(doc) == []
    assert (ROOT / "BENCHMARK.json").read_text() == spec.render()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("bad", ["", "_x", "a b", "x" * 65, "a/b"])
def test_bad_metric_names_are_rejected(bad):
    doc = spec.benchmark_json()
    doc["per_layer"][0]["name"] = bad
    assert spec.validate(doc)


def test_spec_rejects_duplicates_and_loose_bounds():
    doc = spec.benchmark_json()
    doc["per_layer"][1]["name"] = doc["per_layer"][0]["name"]
    assert any("twice" in e for e in spec.validate(doc))
    doc = spec.benchmark_json()
    doc["end_to_end"][0]["bound"] = 0.3
    assert spec.validate(doc)
    doc = spec.benchmark_json()
    doc["workloads"][0]["extra"] = 1
    assert spec.validate(doc)


# ---------------------------------------------------------------------------
# gates

def _write(d, name, obj):
    (d / name).write_text(json.dumps(obj))


def test_relax_gate(tmp_path):
    wl = WORKLOADS["relax"]
    _write(tmp_path, "nonlin.json", {"mass_drift": 1e-16, "energy_drift": 2e-9,
                                     "exponent_w12": -0.69})
    assert wl.gate({}, tmp_path, []) == []
    _write(tmp_path, "nonlin.json", {"mass_drift": 1e-16, "energy_drift": 2e-6,
                                     "exponent_w12": -0.4})
    assert len(wl.gate({}, tmp_path, [])) == 2


def _spectral_outputs(d, b, **over):
    vals = {"matched": True, "roundtrip_residual": 1e-14, "beta": b, "gamma": 2 * b,
            "near_null_count": 2, "principal_angle_rad": 1e-5,
            "dissipation_ratio_min": 0.7, "exponent_mu12": -0.67, "exponent_mu16": -0.44}
    vals.update(over)
    _write(d, "match.json", {k: vals[k] for k in ("matched", "roundtrip_residual",
                                                   "beta", "gamma")})
    _write(d, "spectrum.json", {k: vals[k] for k in ("near_null_count",
                                                      "principal_angle_rad",
                                                      "dissipation_ratio_min")})
    _write(d, "decay.json", {k: vals[k] for k in ("exponent_mu12", "exponent_mu16")})
    _write(d, "fit.json", {"fit_points_a": [1.0] * 25})


def test_spectral_gate(tmp_path):
    wl = WORKLOADS["spectral"]
    procs = [{"label": "rj-match", "cache_writes": 0}, {"label": "spectrum", "cache_writes": 1},
             {"label": "lin-decay", "cache_writes": 0}, {"label": "multiplier", "cache_writes": 0}]
    _spectral_outputs(tmp_path, 1.0)
    assert wl.gate({"b": 1.0}, tmp_path, procs) == []
    _spectral_outputs(tmp_path, 1.0, gamma=2.0 + 1e-6, near_null_count=3,
                      exponent_mu16=-0.55)
    assert len(wl.gate({"b": 1.0}, tmp_path, procs)) == 3
    _spectral_outputs(tmp_path, 1.0)
    procs[2]["cache_writes"] = 1   # lin-decay rebuilt the operator: a cache miss
    assert len(wl.gate({"b": 1.0}, tmp_path, procs)) == 1


def test_blowup_gate(tmp_path):
    wl = WORKLOADS["blowup"]
    e4, e9 = 2.0 ** -4, 2.0 ** -9
    rows = [{"eps": e4, "norm": 1.0, "spike_peak": 1.0},
            {"eps": e9, "norm": (e9 / e4) ** -0.5, "spike_peak": (e9 / e4) ** -1.5}]
    _write(tmp_path, "blowup.json", {"rows": rows})
    _write(tmp_path, "verify.json", {"a": {"ok": True}})
    assert wl.gate({}, tmp_path, []) == []
    rows[1]["norm"] = (e9 / e4) ** -0.7
    _write(tmp_path, "blowup.json", {"rows": rows})
    _write(tmp_path, "verify.json", {"a": {"ok": False}})
    assert len(wl.gate({}, tmp_path, [])) == 2


def test_check_repeats_flags_changed_counts():
    def it(k, arts, rhs):
        return {"k": k, "traced": True, "failures": [],
                "counts": {"cli.processes": 1, "cli.artifact_bytes": 10,
                           "cache_writes": [1], "artifacts": arts},
                "layers": {"dynamics.rhs_calls": rhs}}
    its = [it(0, {"x": "1"}, 8), it(1, {"x": "1"}, 8), it(2, {"x": "2"}, 9)]
    run.check_repeats(its)
    assert not its[0]["failures"] and not its[1]["failures"]
    assert len(its[2]["failures"]) == 2


def test_seed_draws_are_deterministic_and_in_range():
    for name, key, lo, hi in (("relax", "eps", 5e-3, 2e-2), ("spectral", "b", 0.8, 1.25),
                              ("blowup", "p0", 1.8, 2.2)):
        wl = WORKLOADS[name]
        vals = [wl.params(s)[key] for s in range(50)]
        assert all(lo <= v <= hi for v in vals)
        assert wl.params(7) == wl.params(7) and len(set(vals)) == 50


def test_rj_mass_energy_closed_form():
    sys.path.insert(0, str(ROOT / "src"))
    from phononlab.equilibria import RjParams, mass_energy
    for b in (0.8, 1.25):
        m, e = rj_mass_energy(b, 2 * b)
        mq, eq = mass_energy(RjParams(b, 2 * b))
        assert m == pytest.approx(mq, rel=1e-9) and e == pytest.approx(eq, rel=1e-9)
