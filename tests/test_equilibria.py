import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phononlab.equilibria import (RATIO_FLOOR, RATIO_LIMIT, RjParams, curve_F,
                                  mass_energy, match_rj, rj_field)
from phononlab.errors import DomainError
from phononlab.grid import Grid
from phononlab.manifold import TWO_PI


def brute_mass_energy(beta, gamma, m=10 ** 6):
    p = (np.arange(m) + 0.5) * TWO_PI / m
    f = 1.0 / (beta * np.abs(np.sin(p / 2)) + gamma)
    w = TWO_PI / m
    return float(w * np.sum(f)), float(w * np.sum(np.abs(np.sin(p / 2)) * f))


def quad_mass_energy(ell):
    """Mass and energy at (beta, gamma) = (1, ell) by adaptive quadrature.

    With p = 2x and the reflection x -> pi - x, M = 4 int_0^{pi/2} dx / (ell +
    sin x); breakpoints at ell * 10^k resolve the peak of width ell at x = 0.
    """
    from scipy.integrate import IntegrationWarning, quad
    kw = {"epsabs": 0.0, "epsrel": 1.2e-14, "limit": 200}
    pts = [ell * 10.0 ** k for k in range(8) if ell * 10.0 ** k < 1.0]
    if pts:
        kw["points"] = pts
    with warnings.catch_warnings():
        # at ell = 1e-7 quad flags roundoff at its 1.2e-14 floor
        warnings.simplefilter("ignore", IntegrationWarning)
        m = quad(lambda x: 1.0 / (ell + math.sin(x)), 0.0, math.pi / 2, **kw)[0]
        e = quad(lambda x: math.sin(x) / (ell + math.sin(x)), 0.0, math.pi / 2, **kw)[0]
    return 4.0 * m, 4.0 * e


CLOSED_FORM_ELLS = [float(l) for l in np.geomspace(1e-7, 1e7, 57)] + [
    1.0 - 1e-4, 1.0 + 1e-4, 1.0 - 1e-8, 1.0 + 1e-8, 1.0 + 1e-12, 1.0,
    1.5, 2.0, 2.0 + 1e-7, 3.0]


class TestRjField:
    def test_values(self):
        assert RjParams(1.0, 1.0).value(np.pi) == pytest.approx(0.5, abs=1e-15)
        assert RjParams(2.0, 0.0).value(np.pi) == pytest.approx(0.5, abs=1e-15)
        g = Grid(64)
        f = rj_field(RjParams(1.0, 1.0), g)
        assert np.all(f.values > 0.0)

    def test_symmetry(self):
        g = Grid(128)
        f = rj_field(RjParams(1.3, 0.4), g)
        assert np.allclose(f.values, f.values[::-1], atol=1e-14)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RjParams(0.0, 1.0)
        with pytest.raises(ValueError):
            RjParams(1.0, -0.1)


class TestMassEnergy:
    def test_linear_identity(self):
        for b, g in ((1.0, 1.0), (2.3, 0.7), (0.5, 4.0)):
            m, e = mass_energy(RjParams(b, g))
            assert b * e + g * m == pytest.approx(TWO_PI, abs=1e-10)

    def test_against_brute_force(self):
        m, e = mass_energy(RjParams(1.0, 1.0))
        mb, eb = brute_mass_energy(1.0, 1.0)
        assert m == pytest.approx(mb, abs=1e-9)
        assert e == pytest.approx(eb, abs=1e-9)

    def test_ratio_below_limit(self):
        for b in (0.2, 1.0, 5.0):
            for g in (0.2, 1.0, 5.0):
                m, e = mass_energy(RjParams(b, g))
                assert 0.0 < e / m < RATIO_LIMIT

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            mass_energy(RjParams(1.0, 0.0))

    @pytest.mark.parametrize("ell", CLOSED_FORM_ELLS)
    def test_closed_form_against_quad(self, ell):
        m, e = mass_energy(RjParams(1.0, ell))
        mq, eq = quad_mass_energy(ell)
        assert abs(m - mq) <= 1e-13 * mq
        assert abs(e - eq) <= 1e-13 * eq


class TestCurveF:
    def test_limits(self):
        # F -> 0 as l -> 0, but only like 1/log(1/l)
        vals = [curve_F(np.exp(k)) for k in (-16.0, -12.0, -8.0)]
        assert vals[0] < vals[1] < vals[2] < 0.25
        assert vals[0] < 0.1
        assert curve_F(1e4) == pytest.approx(RATIO_LIMIT, abs=1e-4)

    def test_monotone(self):
        ells = np.geomspace(1e-4, 1e4, 41)
        vals = [curve_F(l) for l in ells]
        assert np.all(np.diff(vals) > 0.0)

    def test_G_slope_above_one(self):
        # G(l) = F(l) + l has slope > 1 throughout
        for l in np.geomspace(1e-3, 1e3, 13):
            h = 1e-4 * l
            slope = (curve_F(l + h) + (l + h) - curve_F(l - h) - (l - h)) / (2 * h)
            assert slope > 1.0


class TestMatchRj:
    def test_roundtrip(self):
        m, e = mass_energy(RjParams(1.0, 1.0))
        res = match_rj(m, e)
        assert res.matched
        assert res.params.beta == pytest.approx(1.0, rel=1e-8)
        assert res.params.gamma == pytest.approx(1.0, rel=1e-8)
        assert 0.0 < res.theta < np.pi / 2
        assert res.r > 0.0

    def test_sweep_roundtrip_and_uniqueness(self):
        pairs = []
        for b in np.linspace(0.2, 5.0, 8):
            for g in np.linspace(0.2, 5.0, 8):
                m, e = mass_energy(RjParams(b, g))
                res = match_rj(m, e)
                assert res.matched
                assert res.params.beta == pytest.approx(b, rel=1e-8)
                assert res.params.gamma == pytest.approx(g, rel=1e-8)
                pairs.append((m, e))
        arr = np.asarray(pairs)
        d = np.abs(arr[:, None, :] - arr[None, :, :]).sum(axis=2)
        np.fill_diagonal(d, 1.0)
        assert np.min(d) > 1e-10  # distinct parameters give distinct (M, E)

    def test_unmatched_ratio(self):
        res = match_rj(1.0, 0.9)
        assert not res.matched
        assert res.params is None

    def test_boundary_ratio_unmatched(self):
        res = match_rj(1.0, RATIO_LIMIT)
        assert not res.matched

    def test_gamma_monotone_along_ratio_sweep(self):
        # ratio -> 2/pi is the flat-spectrum limit beta -> 0: at fixed mass
        # the recovered 1/gamma falls monotonically (gamma grows); the inverse
        # temperature collapses
        gammas, betas = [], []
        for ratio in (0.55, 0.60, 0.63, 0.6355):
            res = match_rj(1.0, ratio)
            assert res.matched
            gammas.append(res.params.gamma)
            betas.append(res.params.beta)
        assert all(a < b for a, b in zip(gammas[:-1], gammas[1:]))
        assert all(a > b for a, b in zip(betas[:-1], betas[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            match_rj(-1.0, 0.5)

    @pytest.mark.parametrize("ratio", [0.05, 0.01, math.nextafter(RATIO_LIMIT, 0.0)])
    def test_small_and_extreme_ratios_roundtrip(self, ratio):
        res = match_rj(1.0, ratio)
        assert res.matched
        m, e = mass_energy(res.params)
        assert m == pytest.approx(1.0, rel=1e-15)
        assert e == pytest.approx(ratio, rel=1e-15)

    def test_ratio_below_float64_range_raises(self):
        # ratio 1e-3 needs gamma/beta ~ e^-1570, far below the smallest double
        assert RATIO_FLOOR == pytest.approx(2.2165e-3, rel=1e-4)
        with pytest.raises(DomainError, match=f"{RATIO_FLOOR:.6g}"):
            match_rj(1.0, 1e-3)
        assert match_rj(1.0, RATIO_FLOOR).matched


LOG_BETA = st.floats(-3.0, 3.0)
# F flattens toward 2/pi like 2/pi - 0.095/l, so a rounding error of E/M
# moves l by about 7 l times as much: the 1e-12 round trip holds up to
# l ~ 10 with a 20x margin
LOG_ELL = st.floats(-6.0, 1.0)


class TestProperties:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(LOG_BETA, LOG_ELL)
    def test_identity_and_roundtrip(self, log_beta, log_ell):
        beta = 10.0 ** log_beta
        p = RjParams(beta, beta * 10.0 ** log_ell)
        m, e = mass_energy(p)
        assert p.beta * e + p.gamma * m == pytest.approx(TWO_PI, rel=1e-14)
        res = match_rj(m, e)
        assert res.params.beta == pytest.approx(p.beta, rel=1e-12)
        assert res.params.gamma == pytest.approx(p.gamma, rel=1e-12)
