"""The names that the benchmark's traced runs read from the package still exist.

`perfbench/spans.py` wraps each of its TARGETS by name and records a name
it cannot find as missing instead of raising, and its EXTRAS read table
attributes and call arguments after each traced call.  A rename in the
package would then make a per-layer metric read 0 or `missing` (as
`dynamics.rhs_calls` came to), not fail a run, so these tests fail instead.
The harness is loaded by path and only read: no Tracer is installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from phononlab import collision, dynamics, experiments, linearized
from phononlab.equilibria import RjParams
from phononlab.grid import Grid

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# traced names that no longer resolve: PerturbationTables fused both into
# `nonlinear`.  The missing set must stay inside this one, so a harness that
# drops or mends them still passes.
STALE = {"dynamics.PerturbationTables.quadratic", "dynamics.PerturbationTables.cubic"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_target_resolves_but_the_stale_two():
    spans = load_spans()
    missing = set()
    for modname, attr in spans.TARGETS:
        holder = importlib.import_module(f"{spans.PACKAGE}.{modname}")
        for part in attr.split("."):
            holder = getattr(holder, part, None)
        if not callable(holder):
            missing.add(f"{modname}.{attr}")
    assert missing <= STALE


def test_extras_read_attributes_that_exist(tmp_path):
    spans = load_spans()
    extras = spans.EXTRAS
    params, grid = RjParams(1.0, 2.0), Grid(64)

    tab = collision.ResonanceTable(grid)
    assert extras["collision.ResonanceTable.__init__"]((tab,), {}, None)["bytes"] > 0

    pt = dynamics.PerturbationTables(params, grid)
    got = extras["dynamics.PerturbationTables.__init__"]((pt,), {}, None)
    assert got["g_bytes"] > 0 and got["gather_bytes"] > 0

    op = linearized.assemble(params, grid)
    got = extras["dynamics.evolve_perturbation"]((None, None), {"operator": op}, None)
    assert got == {"matrix_bytes": 8 * 64 * 64}
    path = tmp_path / "op.bin"
    linearized.save_operator(op, path)
    assert extras["linearized.save_operator"]((op, path), {}, None)["bytes"] > 0


def test_traced_calls_keep_the_parameters_extras_read():
    def positional(fn):
        return [name for name, p in inspect.signature(fn).parameters.items()
                if p.kind is p.POSITIONAL_OR_KEYWORD]

    assert experiments._collision_at is collision.collision_at
    assert positional(collision.collision_at)[:3] == ["p0_vals", "f", "z_nodes"]
    assert "operator" in inspect.signature(dynamics.evolve_perturbation).parameters
    assert positional(linearized.save_operator)[:2] == ["op", "path"]
    assert positional(experiments.lp_blowup_norm)[:1] == ["eps"]

    spans = load_spans()
    z = np.linspace(0.0, 1.0, 5)
    got = spans.EXTRAS["experiments._collision_at"](
        (np.zeros(3), lambda p: (p > 0.5) * 1.0, z), {}, None)
    assert got == {"rows": 3, "nodes": 5, "support": 2}
