import numpy as np
import pytest

from phononlab.cli import _write_csv
from phononlab.errors import NonFiniteError, PositivityError
from oracles import lagrange_gather, lagrange_stencil
from phononlab.grid import (Field, Grid, gather, horner, interp_weights, lagrange_weights,
                            lp_norm, weighted_sup)
from phononlab.manifold import TWO_PI

RNG = np.random.default_rng(7)


class TestGrid:
    def test_nodes(self):
        g = Grid(32)
        assert g.nodes[0] == pytest.approx(np.pi / 32)
        assert g.weight == pytest.approx(TWO_PI / 32)
        assert np.all((g.nodes > 0) & (g.nodes < TWO_PI))

    def test_min_size(self):
        with pytest.raises(ValueError):
            Grid(8)


class TestField:
    def test_validation(self):
        g = Grid(16)
        with pytest.raises(NonFiniteError):
            Field(g, np.full(16, np.nan))
        with pytest.raises(ValueError):
            Field(g, np.ones(8))

    def test_positivity_floor(self):
        f = Field(Grid(16), np.full(16, 1e-13))
        with pytest.raises(PositivityError):
            f.require_positive()
        f.require_positive(floor=0.0)


def evaluate(vals, targets, order="linear"):
    """Off-grid values as every production caller reads them: the one
    gather, over an interp_weights stencil and the Horner coefficients."""
    return gather(horner(vals, order), interp_weights(Grid(vals.size), targets, order))


def within_ulps(got, want, vals, ulps):
    """|got - want| within `ulps` units of eps max|vals| (float64 eps)."""
    return np.max(np.abs(got - want)) <= ulps * np.finfo(float).eps * np.max(np.abs(vals))


class TestEvaluate:
    def test_exact_at_nodes(self):
        g = Grid(64)
        vals = RNG.normal(size=64)
        out = evaluate(vals, g.nodes)
        assert np.allclose(out, vals, atol=0, rtol=0)

    def test_constant(self):
        g = Grid(32)
        ps = RNG.uniform(0, TWO_PI, 100)
        assert np.allclose(evaluate(np.full(32, 3.7), ps), 3.7, atol=1e-14)

    def test_sine_accuracy(self):
        g = Grid(256)
        p = np.array([1.2345])
        for order, tol in (("linear", 5e-4), ("cubic", 5e-8)):
            assert abs(evaluate(np.sin(g.nodes), p, order) - np.sin(p)) < tol

    def test_periodic_wrap(self):
        g = Grid(64)
        vals = np.cos(g.nodes)
        ends = evaluate(vals, np.array([0.0, TWO_PI]))
        assert ends[0] == pytest.approx(ends[1], abs=1e-13)


ORDERS = ["linear", "cubic"]


class TestHorner:
    # the (q, t) stencil and the Horner form against the Lagrange-weight
    # oracle: node indices and weights per target, summed weight by weight
    @pytest.mark.parametrize("order", ORDERS)
    def test_node_value_bit_for_bit(self, order):
        # on a node, or within the snap of one, t = 0 and the interpolant
        # reads the node value itself
        rng = np.random.default_rng(1)
        g = Grid(100)
        vals = rng.normal(size=g.n) * 1e3
        for shift in (0.0, 1e-12, -1e-12):
            targets = g.nodes + shift * g.weight
            q, t = interp_weights(g, targets, order)
            assert np.all(t == 0.0)
            assert np.array_equal(evaluate(vals, targets, order), vals)

    @pytest.mark.parametrize(("order", "degree"), [("linear", 1), ("cubic", 3)])
    def test_reproduces_polynomials(self, order, degree):
        # polynomials in the node index up to the stencil's degree, at
        # targets whose stencils do not wrap
        rng = np.random.default_rng(2)
        g = Grid(64)
        x = np.arange(g.n) + 0.5
        targets = rng.uniform(2.0, g.n - 3.0, 2000) * g.weight
        for d in range(degree + 1):
            for c in rng.normal(size=(3, d + 1)):
                poly = np.polynomial.Polynomial(c)
                vals = poly(x)
                got = evaluate(vals, targets, order)
                assert within_ulps(got, poly(targets / g.weight), vals, 16)

    @pytest.mark.parametrize("order", ORDERS)
    def test_random_data_agrees_with_lagrange_oracle(self, order):
        rng = np.random.default_rng(3)
        g = Grid(256)
        targets = rng.uniform(0.0, TWO_PI, 20000)
        oracle = lagrange_stencil(g, targets, order)
        for scale in (1e-8, 1.0, 1e5):
            vals = rng.normal(size=g.n) * scale
            assert within_ulps(evaluate(vals, targets, order),
                               lagrange_gather(vals, oracle), vals, 4)

    @pytest.mark.parametrize("order", ORDERS)
    def test_wrap_around_stencils(self, order):
        # targets within half a spacing of either end of (0, 2pi): their
        # stencils run past node n - 1 onto node 0 (cubic: past node 0 the
        # other way too)
        rng = np.random.default_rng(4)
        g = Grid(64)
        w = g.weight
        targets = np.concatenate([rng.uniform(0.0, w / 2, 500), [0.0],
                                  rng.uniform(TWO_PI - w / 2, TWO_PI, 500)])
        q, t = interp_weights(g, targets, order)
        first = {"linear": (g.n - 1,), "cubic": (g.n - 2, g.n - 1)}[order]
        assert np.all(np.isin(q, first))
        vals = rng.normal(size=g.n)
        assert within_ulps(evaluate(vals, targets, order),
                           lagrange_gather(vals, lagrange_stencil(g, targets, order)), vals, 4)
        smooth = np.cos(g.nodes) + 0.5 * np.sin(3 * g.nodes)
        want = np.cos(targets) + 0.5 * np.sin(3 * targets)
        assert np.max(np.abs(evaluate(smooth, targets, order) - want)) < 5e-3

    @pytest.mark.parametrize("order", ORDERS)
    def test_lagrange_weights_are_the_oracle(self, order):
        # the nodes and weights of the (q, t) stencil, which the weak-form
        # assembly reads, are the oracle's bit for bit
        rng = np.random.default_rng(5)
        g = Grid(128)
        targets = np.concatenate([rng.uniform(0.0, TWO_PI, 5000), g.nodes, [0.0]])
        got = lagrange_weights(g.n, interp_weights(g, targets, order), order)
        want = lagrange_stencil(g, targets, order)
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("order", ORDERS)
    def test_gather_into_owned_rows(self, order):
        # with `out` the values land in its first row, bit for bit those of
        # fresh rows, for a block of the stencil's rows
        rng = np.random.default_rng(6)
        g = Grid(64)
        stencil = interp_weights(g, rng.uniform(0.0, TWO_PI, 300), order)
        c = horner(rng.normal(size=g.n), order)
        out = np.full((2, 400), np.nan)
        got = gather(c, stencil, slice(100, 250), (out[0], out[1]))
        assert np.shares_memory(got, out[0]) and got.size == 150
        assert np.array_equal(got, gather(c, stencil, slice(100, 250)))
        assert np.all(np.isnan(out[0, 150:]))

    def test_unknown_order(self):
        g = Grid(16)
        for fn in (lambda: interp_weights(g, g.nodes, "quintic"),
                   lambda: horner(np.ones(16), "quintic")):
            with pytest.raises(ValueError, match="unknown interpolation order"):
                fn()


class TestLpNorm:
    def test_constants(self):
        f = Field(Grid(64), np.full(64, 1.0))
        assert lp_norm(f, 2) == pytest.approx(np.sqrt(TWO_PI), abs=1e-13)
        assert lp_norm(f, np.inf) == 1.0

    def test_triangle_inequality(self):
        g = Grid(128)
        for _ in range(20):
            a = Field(g, RNG.normal(size=128))
            b = Field(g, RNG.normal(size=128))
            s = Field(g, a.values + b.values)
            for p in (1.0, 2.0, 3.5, np.inf):
                assert lp_norm(s, p) <= lp_norm(a, p) + lp_norm(b, p) + 1e-12

    def test_invalid_p(self):
        for p in (0.5, np.nan):  # NaN fails like any p below 1
            with pytest.raises(ValueError):
                lp_norm(Field(Grid(16), np.full(16, 1.0)), p)

    def test_weighted_sup(self):
        g = Grid(64)
        f = Field(g, np.full(g.n, 2.0))
        assert weighted_sup(f, 0.5) == pytest.approx(2.0 * np.max(g.omega ** 0.5))


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        g = Grid(32)
        f = Field(g, RNG.normal(size=32))
        path = tmp_path / "f.csv"
        _write_csv(path, ["p", "value"], zip(g.nodes, f.values))
        assert path.read_text().splitlines()[0] == "p,value"
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], g.nodes)
        assert np.array_equal(table[:, 1], f.values)
