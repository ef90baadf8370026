import numpy as np
import pytest

from oracles import (SingularityMismatchError, integrate_inverse_sqrt,
                     sqrt_substituted_nodes)
from phononlab import quadrature
from phononlab.manifold import TWO_PI, f_minus, f_minus_zeros, f_plus
from phononlab.quadrature import graded_midpoint_nodes, midpoint_nodes


class TestInverseSqrt:
    def test_closed_form(self):
        val = integrate_inverse_sqrt(lambda y: np.ones_like(y), 1.0,
                                     lambda y: 1.0 - y, "left", 256, 0.0, 1.0)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_f_minus_left_interval_vs_brute_force(self):
        x = np.pi
        zs = f_minus_zeros(x)
        val = integrate_inverse_sqrt(lambda y: np.ones_like(y), zs.y_prime,
                                     lambda y: f_minus(x, y), "left", 4096,
                                     0.0, zs.y_prime)
        # graded brute-force oracle, 1e7 nodes via the same substitution
        m = 10 ** 7
        u = np.sqrt(zs.y_prime) * (np.arange(m) + 0.5) / m
        y = zs.y_prime - u ** 2
        brute = float(np.sum(2 * u * np.sqrt(zs.y_prime) / m
                             / np.sqrt(f_minus(x, y))))
        assert val == pytest.approx(brute, abs=1e-8)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings("ignore:.*roundoff error.*")
    def test_f_plus_near_corner_vs_brute_force(self):
        # 1/sqrt(F+(x, .)) for small x is near-singular across the corner
        # region: a sharp dip near z = 2pi - x and a second near-zero at
        # z = 2pi itself (F+ there is (1 - cos(x/2))^2).  Each declared point
        # gets its own call.
        from scipy.integrate import quad

        def total(x, n):
            one = lambda z: np.ones_like(z)
            rad = lambda z: f_plus(x, z)
            peak = TWO_PI - x
            mid2 = TWO_PI - 0.5 * x
            val = integrate_inverse_sqrt(one, peak, rad, "left", n, 0.0, peak)
            val += integrate_inverse_sqrt(one, peak, rad, "right", n, peak, mid2)
            val += integrate_inverse_sqrt(one, TWO_PI, rad, "left", n, mid2, TWO_PI)
            return val

        x = 0.01
        oracle, err_est = quad(lambda z: 1.0 / np.sqrt(f_plus(x, z)), 0.0, TWO_PI,
                               points=[TWO_PI - x, TWO_PI - 0.5 * x], limit=800,
                               epsabs=1e-12, epsrel=1e-13)
        assert err_est < 1e-9
        assert total(x, 16384) == pytest.approx(oracle, abs=1e-7)
        # the integral grows with the corner degeneracy, roughly like x^(-1/3)
        oracle2, _ = quad(lambda z: 1.0 / np.sqrt(f_plus(0.08, z)), 0.0, TWO_PI,
                          points=[TWO_PI - 0.08, TWO_PI - 0.04], limit=800,
                          epsabs=1e-12, epsrel=1e-13)
        measured = np.log(oracle / oracle2) / np.log(0.01 / 0.08)
        assert measured == pytest.approx(-1.0 / 3.0, abs=0.12)

    def test_agrees_with_periodic_rule_when_regular(self):
        # radicand bounded below by 0.1: no actual singularity
        f = lambda y: np.cos(y) + 2.0
        rad = lambda y: 0.1 + (y - 1.0) ** 2
        v1 = integrate_inverse_sqrt(f, TWO_PI, rad, "left", 2 ** 19, 0.0, TWO_PI)
        y, wy = midpoint_nodes(0.0, TWO_PI, 2 ** 18)
        v2 = float(np.sum(wy * f(y) / np.sqrt(rad(y))))
        assert v1 == pytest.approx(v2, abs=1e-10)

    def test_mismatch_error(self):
        # radicand negative just inside the domain: declared zero is on the
        # wrong side
        with pytest.raises(SingularityMismatchError):
            integrate_inverse_sqrt(lambda y: np.ones_like(y), 0.0,
                                   lambda y: y - 0.5, "right", 64, 0.0, 1.0)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            integrate_inverse_sqrt(lambda y: y, 0.5, lambda y: 1 - y, "left",
                                   64, 0.0, 1.0)


class TestNodeHelpers:
    def test_midpoint_weights_sum(self):
        nodes, wts = midpoint_nodes(0.0, 3.0, 17)
        assert np.sum(wts) == pytest.approx(3.0, abs=1e-14)
        assert nodes[0] == pytest.approx(3.0 / 34, abs=1e-15)

    def test_sqrt_substituted_weights(self):
        # weights integrate dy exactly over the substituted stretch
        y, wy = sqrt_substituted_nodes(2.0, 0.5, 4096)
        assert np.sum(wy) == pytest.approx(1.5, abs=1e-12)
        assert np.all((y > 0.5) & (y < 2.0))

    def test_graded_weights_cover_interval(self):
        # includes overlapping refine zones, which must not double-count
        for refine in ((), (0.0,), (1.234,), (0.0, TWO_PI), (1.0, 1.0 + 1e-4),
                       (0.0, 0.02, TWO_PI)):
            nodes, wts = graded_midpoint_nodes(0.0, TWO_PI, 256,
                                               refine_at=refine,
                                               min_scale=1e-12, local_order=8)
            assert np.sum(wts) == pytest.approx(TWO_PI, abs=1e-12)
            assert np.all((nodes > 0.0) & (nodes < TWO_PI))

    def test_zone_replaces_half_zone_panels_on_each_side(self):
        # one refine point on 100 panels replaces its own base panel and
        # max(zone_panels // 2, 1) on each side: 3 panels for zone_panels 1,
        # 2 or 3, and 5 for 4
        base = midpoint_nodes(0.0, TWO_PI, 100)[0]
        for zone_panels, replaced in ((1, 3), (2, 3), (3, 3), (4, 5)):
            nodes = graded_midpoint_nodes(0.0, TWO_PI, 100, refine_at=(1.0,),
                                          zone_panels=zone_panels)[0]
            assert base.size - np.isin(base, nodes).sum() == replaced

    def test_gauss_rule_computed_once_and_shared_read_only(self):
        # graded panels reuse one rule per order: the same arrays, with the
        # bits of leggauss, which no caller can overwrite
        x, w = quadrature._gauss_rule(8)
        assert quadrature._gauss_rule(8)[0] is x
        want = np.polynomial.legendre.leggauss(8)
        assert np.array_equal(x, want[0]) and np.array_equal(w, want[1])
        with pytest.raises(ValueError):
            x[0] = 0.0
        nodes, wts = quadrature._gauss_panel(0.5, 1.5, 8)
        assert np.array_equal(nodes, 1.0 + 0.5 * want[0])
        assert np.array_equal(wts, 0.5 * want[1])
