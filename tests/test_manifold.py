import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import clamped_arcsin, h_inverse_pair, h_tan
from phononlab import experiments, manifold
from phononlab.errors import ConvergenceError, DomainError
from phononlab.manifold import (TWO_PI, FminusZeros, canonicalize, f_minus, f_minus_zeros,
                                f_plus, h, h_bar, omega, omega_residual,
                                resonant_kernel, triple_product_identity)

RNG = np.random.default_rng(20240801)


def bisect_resonant_partner(x, z, lo, hi, tol=1e-14):
    """Independent oracle: root of y -> Omega(x, y, z) on the bracketing
    interval of the nontrivial branch."""
    def f(y):
        return omega(x) + omega(y) - omega(z) - omega(x + y - z)
    a, b = lo, hi
    fa = f(a)
    assert fa * f(b) <= 0.0
    while b - a > tol:
        m = 0.5 * (a + b)
        if (fa > 0) == (f(m) > 0):
            a, fa = m, f(m)
        else:
            b = m
    return 0.5 * (a + b)


class TestCanonicalize:
    def test_range(self):
        vals = RNG.uniform(-50, 50, 2000)
        c = canonicalize(vals)
        assert np.all((0.0 <= c) & (c < TWO_PI))

    def test_period_invariance(self):
        vals = RNG.uniform(0, TWO_PI, 500)
        assert np.allclose(canonicalize(vals + TWO_PI), canonicalize(vals), atol=1e-12)

    def test_scalar(self):
        assert canonicalize(-1e-18) < TWO_PI

    @staticmethod
    def by_mod(vals):
        with np.errstate(invalid="ignore"):
            q = np.mod(vals, TWO_PI)
        return np.where(q >= TWO_PI, q - TWO_PI, q)

    def test_bitwise_equal_to_mod(self):
        edges = [0.0, -0.0, -TWO_PI, -1e-20, -5e-324, np.nextafter(TWO_PI, 0.0), TWO_PI,
                 np.nextafter(2.0 * TWO_PI, 0.0), np.nextafter(-TWO_PI, 0.0)]
        vals = np.concatenate([RNG.uniform(-TWO_PI, 2.0 * TWO_PI, 5000), edges])
        assert np.array_equal(canonicalize(vals).view(np.uint64),
                              self.by_mod(vals).view(np.uint64))
        for v in edges:
            got = np.float64(canonicalize(v))
            assert got.view(np.uint64) == self.by_mod(np.float64(v)).view(np.uint64), v

    @pytest.mark.parametrize("extra", [np.nan, -TWO_PI - 1e-9, 2.0 * TWO_PI, 100.0, -np.inf])
    def test_outside_the_exact_range(self, extra):
        vals = np.array([-0.0, -1e-20, 1.0, 7.0, extra])
        with np.errstate(invalid="ignore"):
            got = canonicalize(vals)
        want = self.by_mod(vals)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert np.array_equal(got[ok].view(np.uint64), want[ok].view(np.uint64))


class TestOmega:
    def test_values(self):
        assert omega(np.pi) == pytest.approx(1.0, abs=1e-15)
        assert omega(0.0) == 0.0
        assert omega(TWO_PI) == pytest.approx(0.0, abs=1e-15)

    def test_range(self):
        p = RNG.uniform(0, TWO_PI, 1000)
        w = omega(p)
        assert np.all((0.0 <= w) & (w <= 1.0))


class TestH:
    def test_diagonal_is_zero(self):
        for x in (0.3, 1.0, np.pi, 5.5):
            assert h(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_printed_digits_of_the_blowup_triple(self):
        # the triple used by the L^p blow-up construction: base point 2,
        # companion 4.733..., fold value 1.184 (rounded)
        p1 = h(2.0, 4.7333649488086555)
        assert p1 == pytest.approx(1.1835445903, abs=1e-9)
        assert round(p1, 3) == 1.184

    def test_against_bisection_oracle(self):
        x, z = 1.0, 2.0
        y_oracle = bisect_resonant_partner(x, z, 0.0, z - x)
        assert h(x, z) == pytest.approx(y_oracle, abs=1e-12)

    def test_resonance_on_random_pairs(self):
        x = RNG.uniform(1e-3, TWO_PI - 1e-3, 3000)
        z = RNG.uniform(1e-3, TWO_PI - 1e-3, 3000)
        res = omega_residual(x, np.asarray(h(x, z)), z)
        assert np.max(np.abs(res)) < 1e-12

    def test_domain_error(self):
        # tan(6/4) > 14 at this out-of-domain pair; the arcsin argument blows past 1
        with pytest.raises(DomainError):
            h(-3.0, 3.0)


class TestHBar:
    def test_values(self):
        assert h_bar(2.0, 2.0) == pytest.approx(0.0, abs=1e-12)
        p3 = h_bar(2.0, 1.1835445903348627)
        assert 0.698 <= p3 < 0.699  # printed truncation of the reference value
        z0 = 4.7333649488086555
        assert h_bar(2.0, z0) == pytest.approx(z0, abs=1e-9)

    def test_exchange_symmetry(self):
        # swapping p2 and p3 leaves the remaining momentum unchanged
        x = RNG.uniform(0.1, TWO_PI - 0.1, 500)
        z = RNG.uniform(0.1, TWO_PI - 0.1, 500)
        lhs = np.asarray(h(x, np.asarray(h_bar(x, z))))
        rhs = np.asarray(h(x, z))
        diff = np.abs(lhs - rhs)
        diff = np.minimum(diff, TWO_PI - diff)
        assert np.max(diff) < 1e-10


class TestFPlus:
    def test_trivial_values(self):
        assert f_plus(0.0, 0.0) == pytest.approx(4.0, abs=1e-14)
        assert f_plus(np.pi, np.pi) == pytest.approx(4.0, abs=1e-14)

    def test_lower_bound(self):
        x = RNG.uniform(0, TWO_PI, 4000)
        z = RNG.uniform(0, TWO_PI, 4000)
        assert np.all(f_plus(x, z) >= 4.0 * omega(x) * omega(z) - 1e-12)
        assert f_plus(1.3, 5.1) >= 4.0 * omega(1.3) * omega(5.1)


class TestFMinus:
    def test_closed_form_slices(self):
        x = RNG.uniform(0, TWO_PI, 200)
        assert np.allclose(f_minus(x, 0.0), (np.cos(x / 2) + 1.0) ** 2, atol=1e-13)
        assert np.allclose(f_minus(x, TWO_PI - x), -4.0 * np.sin(x / 2) ** 2, atol=1e-12)
        assert f_minus(np.pi, np.pi) == pytest.approx(-4.0, abs=1e-14)


class TestFMinusZeros:
    def test_residual_and_ordering(self):
        for x in (np.pi, 0.7, 2.9, 5.0):
            zs = f_minus_zeros(x)
            assert abs(f_minus(x, zs.y_prime)) < 1e-12
            assert abs(f_minus(x, zs.y_double_prime)) < 1e-12
            assert 0.0 < zs.y_prime < TWO_PI - x < zs.y_double_prime < TWO_PI

    def test_sign_pattern(self):
        for x in np.linspace(0.1, TWO_PI - 0.1, 25):
            zs = f_minus_zeros(x)
            ys = np.linspace(1e-3, TWO_PI - 1e-3, 300)
            fm = np.asarray(f_minus(x, ys))
            inside = (ys > zs.y_prime + 1e-5) & (ys < zs.y_double_prime - 1e-5)
            outside = (ys < zs.y_prime - 1e-5) | (ys > zs.y_double_prime + 1e-5)
            assert np.all(fm[inside] < 0.0)
            assert np.all(fm[outside] > 0.0)

    def test_reflection_symmetry(self):
        for x in (0.8, 2.0, 4.4):
            a = f_minus_zeros(x)
            b = f_minus_zeros(TWO_PI - x)
            assert b.y_prime == pytest.approx(TWO_PI - a.y_double_prime, abs=1e-9)
            assert b.y_double_prime == pytest.approx(TWO_PI - a.y_prime, abs=1e-9)

    def test_zeros_merge_toward_2pi_as_x_vanishes(self):
        # the negative gap closes like x^(1/3) as the base point degenerates
        gaps = []
        for x in (1e-3, 1e-5, 1e-7):
            zs = f_minus_zeros(x)
            assert zs.y_double_prime > zs.y_prime
            gap = TWO_PI - zs.y_prime
            assert gap < 4.5 * x ** (1.0 / 3.0)
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_endpoint_raises(self):
        with pytest.raises(ConvergenceError):
            f_minus_zeros(0.0)

    def test_array_matches_scalar_calls_bit_for_bit(self):
        # the points converge after different numbers of halvings, so a
        # point that kept moving after its own convergence would show here
        x = np.concatenate([[1e-3], np.linspace(0.01, TWO_PI - 0.01, 200), [TWO_PI - 1e-3]])
        scalar = [f_minus_zeros(float(v)) for v in x]
        assert all(type(zs.y_prime) is float and type(zs.y_double_prime) is float
                   for zs in scalar)
        zs = f_minus_zeros(x.reshape(2, -1))
        assert zs.y_prime.shape == zs.y_double_prime.shape == (2, 101)
        assert np.array_equal(zs.y_prime.ravel(), [s.y_prime for s in scalar])
        assert np.array_equal(zs.y_double_prime.ravel(), [s.y_double_prime for s in scalar])

    @pytest.mark.parametrize("end", [0.0, TWO_PI])
    def test_array_with_an_endpoint_names_it(self, end):
        with pytest.raises(ConvergenceError) as info:
            f_minus_zeros(np.array([1.0, 2.0, end, 3.0]))
        assert str(info.value) == f"x = {end} is at a domain endpoint; F- degenerates there"

    @pytest.mark.parametrize("shifts, detail", [
        ({}, "7 base points"),
        ({3: ("y_prime", 0.5)}, "sign pattern failed at x={x[3]}"),
        ({2: ("y_prime", 4.0)}, "ordering failed at x={x[2]}"),
        ({4: ("y_double_prime", 2.0), 5: ("y_prime", 0.5)}, "ordering failed at x={x[4]}"),
        ({1: ("y_double_prime", -0.5), 4: ("y_double_prime", 2.0)},
         "sign pattern failed at x={x[1]}"),
    ])
    def test_verify_suite_sign_check_detail(self, monkeypatch, shifts, detail):
        # zeros moved at chosen base points, on scalar or array calls alike:
        # the check names the first base point that fails, and how
        x = np.linspace(0.05, TWO_PI - 0.05, 7)

        def moved(xs):
            zs = f_minus_zeros(xs)
            fields = {"y_prime": np.array(zs.y_prime), "y_double_prime": np.array(zs.y_double_prime)}
            for k, (name, dy) in shifts.items():
                fields[name] = np.where(xs == x[k], fields[name] + dy, fields[name])
            return FminusZeros(**{name: v if np.ndim(xs) else float(v)
                                  for name, v in fields.items()})

        monkeypatch.setattr(experiments, "f_minus_zeros", moved)
        checks = experiments.verify_suite(n_random=10, n_sign=7, grid_side=10)
        assert checks[-1] == ("f_minus_sign_pattern", not shifts, detail.format(x=x))

    def test_vanishing_rate_constant_positive(self):
        # F-(x, y) >= c (y' - y) sin(x/2) away from the zero, with c > 0
        for x in (0.9, 2.2, np.pi):
            zs = f_minus_zeros(x)
            ys = np.linspace(1e-3, zs.y_prime - 1e-2, 200)
            ratio = np.asarray(f_minus(x, ys)) / ((zs.y_prime - ys) * np.sin(x / 2))
            assert np.min(ratio) > 0.0


class TestOmegaResidual:
    def test_trivial_zero(self):
        y = RNG.uniform(0, TWO_PI, 100)
        assert np.max(np.abs(omega_residual(1.3, y, 1.3))) < 1e-14

    def test_off_manifold_witness(self):
        expect = 2.0 * np.sin(0.5) - np.sin(1.0)
        assert omega_residual(1.0, 1.0, 2.0) == pytest.approx(expect, abs=1e-14)


class TestTripleProductIdentity:
    def test_diagonal(self):
        lhs, rhs = triple_product_identity(1.0, 1.0)
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert rhs == pytest.approx(0.0, abs=1e-14)

    def test_random_pairs(self):
        x = RNG.uniform(1e-4, TWO_PI - 1e-4, 10_000)
        z = RNG.uniform(1e-4, TWO_PI - 1e-4, 10_000)
        lhs, rhs = triple_product_identity(x, z)
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-12

    def test_product_bounded_by_omega0(self):
        # omega1 omega2 omega3 <= C omega0 with a moderate measured constant
        side = np.linspace(1e-3, TWO_PI - 1e-3, 400)
        X, Z = np.meshgrid(side, side, indexing="ij")
        p1 = np.asarray(h(X, Z))
        p3 = np.asarray(h_bar(X, Z))
        ratio = omega(p1) * omega(Z) * omega(p3) / omega(X)
        assert np.max(ratio) < 5.0  # measured 3.95 on this sampling


class TestHInversePair:
    def test_inverts_h(self):
        count = 0
        for _ in range(300):
            x = RNG.uniform(0.2, TWO_PI - 0.2)
            z = RNG.uniform(0.0, TWO_PI)
            y = float(h(x, z))
            if f_minus(x, y) < 1e-6:
                continue
            count += 1
            zp, zm = h_inverse_pair(y, x)
            hits = [abs(float(h(x, zc)) - y) for zc in (zp, zm)]
            assert min(hits) < 1e-9 and max(hits) < 1e-9
            # the two branches realize the p2 <-> p3 exchange
            assert canonicalize(x + y - zp) == pytest.approx(zm, abs=1e-9)
        assert count > 100

    def test_round_trip_near_degenerate_corner(self):
        # x -> 0 presses z_minus against 2pi, where |dh/dz| ~ 5e6: the branch
        # is within one ulp of the root (h - y changes sign one ulp either
        # side), and the round trip misses by 1.8e-9, under the 4.5e-9 that
        # one ulp of z moves h there
        x, z = 1e-4, 2.0 ** -6
        y = float(h(x, z))
        zp, zm = h_inverse_pair(y, x)
        assert abs(float(h(x, zp)) - y) < 1e-12
        assert abs(float(h(x, zm)) - y) < 5e-9
        below = float(h(x, np.nextafter(zm, 0.0))) - y
        above = float(h(x, np.nextafter(zm, TWO_PI))) - y
        assert below * above < 0.0


class TestArcsinArgumentBound:
    def test_on_grid(self):
        side = np.linspace(0, TWO_PI, 500)
        X, Z = np.meshgrid(side, side, indexing="ij")
        arg = np.abs(np.tan((Z - X) / 4.0) * np.cos((X + Z) / 4.0))
        corner = np.abs(np.abs(Z - X) - TWO_PI) < 1e-12
        assert np.max(arg[~corner]) <= 1.0 + 1e-12


class TestResonantKernel:
    def test_exchange_symmetry(self):
        # swapping p0 and p2 maps (p0,p1,p2,p3) -> (p2,p3,p0,p1): P3(x,z) is
        # P1(z,x) and W is symmetric; mass conservation of the tensor rule
        # rests on this.  Includes points within 1e-6 of the four corners.
        rng = np.random.default_rng(5)
        m = 4000
        cx = rng.choice([0.0, TWO_PI], m)
        cz = rng.choice([0.0, TWO_PI], m)
        x = np.concatenate([rng.uniform(0.0, TWO_PI, 20000),
                            np.abs(cx - rng.uniform(0.0, 1e-6, m))])
        z = np.concatenate([rng.uniform(0.0, TWO_PI, 20000),
                            np.abs(cz - rng.uniform(0.0, 1e-6, m))])
        _, p3, w = resonant_kernel(x, z)
        q1, _, wt = resonant_kernel(z, x)
        gap = np.mod(p3 - q1, TWO_PI)
        assert np.max(np.minimum(gap, TWO_PI - gap)) <= 1e-13
        assert np.max(np.abs(w - wt)) <= 1e-14
        assert np.all(np.isfinite(w))

    def test_weight_near_the_edges_against_50_digits(self):
        # where p1 or p3 lies within 1e-3 of 0 or 2pi, canonicalizing it
        # costs absolute bits that omega(p1) omega(p3) turned into relative
        # error up to 4e-8; W must match omega0 omega1 omega2 omega3 /
        # sqrt(F+) to rounding.  The nodes are the blow-up rule's at eps 2^-9
        mp = pytest.importorskip("mpmath")
        from phononlab.collision import blowup_points
        from phononlab.experiments import blowup_p2_rule
        x = 2.5
        z, _ = blowup_p2_rule(2.0 ** -9, blowup_points(x))
        p1, p3, w = resonant_kernel(x, z)
        edge = np.minimum.reduce([p1, TWO_PI - p1, p3, TWO_PI - p3]) < 1e-3
        assert edge.sum() >= 50

        def weight(x, z):
            with mp.workdps(50):
                x, z = mp.mpf(x), mp.mpf(z)
                d = z - x
                q1 = d / 2 + 2 * mp.asin(mp.tan(abs(d) / 4) * mp.cos((z + x) / 4))
                q3 = x + q1 - z
                sx, sz = mp.sin(x / 2), mp.sin(z / 2)
                fp = (mp.cos(x / 2) + mp.cos(z / 2)) ** 2 + 4 * sx * sz
                return float(abs(sx * mp.sin(q1 / 2) * sz * mp.sin(q3 / 2)) / mp.sqrt(fp))

        want = np.array([weight(x, zk) for zk in z[edge]])
        assert np.max(np.abs(w[edge] - want) / want) <= 1e-14


# Property tests up to 1e-4 from the corners of the domain.  derandomize
# keeps the examples fixed from run to run.
PROPERTY = settings(max_examples=400, derandomize=True, deadline=None)
INTERIOR = st.floats(1e-4, TWO_PI - 1e-4)


def circle_distance(a, b):
    gap = np.mod(a - b, TWO_PI)
    return min(gap, TWO_PI - gap)


class TestManifoldProperties:
    @PROPERTY
    @given(INTERIOR, INTERIOR)
    def test_resonance_residual(self, x, z):
        assert abs(omega_residual(x, h(x, z), z)) < 1e-12

    @PROPERTY
    @given(INTERIOR, INTERIOR)
    def test_triple_product_identity(self, x, z):
        # the verify suite's relative tolerance: near the corners the
        # identity holds to ~1e-12 only (1.2e-12 at (2pi - 1e-4, 1e-4))
        lhs, rhs = triple_product_identity(x, z)
        assert abs(lhs - rhs) / (1.0 + abs(rhs)) <= 1e-10

    @PROPERTY
    @given(st.floats(0.2, TWO_PI - 0.2), st.floats(0.0, TWO_PI, exclude_max=True))
    def test_h_inverse_pair_round_trip(self, x, z):
        # x as in TestHInversePair: as x -> 0 the z_minus branch presses
        # against 2pi and the round trip degrades (1.8e-9 at x = 1e-4)
        y = float(h(x, z))
        assume(f_minus(x, y) >= 1e-6)
        zp, zm = h_inverse_pair(y, x)
        # h is canonical in [0, 2pi): near z = 0 it can sit one period from y
        for zc in (zp, zm):
            assert circle_distance(float(h(x, zc)), y) < 1e-9
        assert circle_distance(x + y - zp, zm) < 1e-9

    @PROPERTY
    @given(st.floats(-1.0, TWO_PI + 1.0), st.floats(0.0, TWO_PI), st.floats(0.0, TWO_PI))
    def test_h_range_bounds_h(self, x, a, b):
        # h(x, z) for z in [z_lo, z_hi] is the bounded value, or that value
        # plus 2pi (canonicalize); x also runs off [0, 2pi], where
        # cos((z + x)/4) need not be monotone
        z_lo, z_hi = min(a, b), max(a, b)
        z = np.concatenate([np.linspace(z_lo, z_hi, 257), [x] if z_lo <= x <= z_hi else []])
        try:
            p1 = h(x, z)
        except DomainError:
            assume(False)
        lo, hi = manifold.h_range(x, z_lo, z_hi)
        assert np.all(((lo <= p1) & (p1 <= hi)) | ((lo <= p1 - TWO_PI) & (p1 - TWO_PI <= hi)))

    @PROPERTY
    @given(st.floats(0.05, TWO_PI - 0.05))
    def test_f_minus_zeros_ordering(self, x):
        zs = f_minus_zeros(x)
        assert 0.0 < zs.y_prime < TWO_PI - x < zs.y_double_prime < TWO_PI


# The leaner resonant partner (its diagonal guard built only when max|z - x|
# reaches 6, its clip only when max|a| exceeds 1) against the one with an
# unconditional guard and clip, bit for bit: values, signed zeros, NaN and
# the type of a scalar result.
ANGLE = st.floats(0.0, TWO_PI)
NAN_OR_ANGLE = st.one_of(ANGLE, st.just(np.nan))


def assert_same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_parts_match(x, z):
    want_h, want_t = h_tan(x, z)
    want_arg = want_t * np.cos((np.asarray(z, dtype=float) + np.asarray(x, dtype=float)) / 4.0)
    got_h, got_t, got_arg = manifold._h_parts(x, z)
    assert_same_bits(got_h, want_h)
    assert_same_bits(h(x, z), want_h)
    assert_same_bits(got_t, want_t)
    assert_same_bits(got_arg, want_arg)


class TestLeanHParts:
    @PROPERTY
    @given(st.lists(st.tuples(NAN_OR_ANGLE, NAN_OR_ANGLE), min_size=1, max_size=40))
    def test_arrays(self, pairs):
        x, z = np.array(pairs).T
        assert_parts_match(x, z)

    @PROPERTY
    @given(NAN_OR_ANGLE, NAN_OR_ANGLE)
    def test_scalars(self, x, z):
        assert_parts_match(x, z)

    @PROPERTY
    @given(st.floats(0.0, 1e-9), st.floats(0.0, 1e-9), st.booleans(), NAN_OR_ANGLE)
    def test_near_the_diagonal(self, a, b, swap, other):
        # ||z - x| - 2pi| < 1e-9, where the guard nudges z - x inward, alone
        # and next to another point (a NaN among them keeps the guard on)
        x, z = a, TWO_PI - b
        assume(abs(abs(z - x) - TWO_PI) < 1e-9)
        if swap:
            x, z = z, x
        assert_parts_match(x, z)
        assert_parts_match(np.array([x, other]), np.array([z, 1.0]))

    def test_fixed_cases(self):
        for x, z in ((0.0, TWO_PI), (TWO_PI, 0.0), (np.nan, 0.0), (0.0, -0.0),
                     (-0.0, 0.0), (2.0, 2.0)):
            assert_parts_match(x, z)
        # a NaN hides max|z - x| from the guard's test, not the corner
        assert_parts_match(np.array([np.nan, 0.0]), np.array([1.0, TWO_PI]))
        assert_parts_match(np.empty(0), np.empty(0))

    @PROPERTY
    @given(st.floats(1.0, 1.0 + 1e-9, exclude_min=True), st.booleans(),
           st.floats(-1.0, 1.0))
    def test_clamp_band(self, a, negative, inside):
        # arguments in (1, 1 + 1e-9] clip to +-1, alone and in an array
        assume(a - 1.0 <= manifold.ARCSIN_CLAMP_TOL)  # 1 + 1e-9 rounds up past it
        a = -a if negative else a
        assert_same_bits(manifold._clamped_arcsin(a), clamped_arcsin(a))
        both = np.array([inside, a, np.nan])
        assert_same_bits(manifold._clamped_arcsin(both), clamped_arcsin(both))
        assert_same_bits(manifold._clamped_arcsin(inside), clamped_arcsin(inside))

    @pytest.mark.parametrize("arg", [1.0 + 2e-9, -1.5, [0.5, np.nan, 3.0], [np.nan, -2.0]])
    def test_domain_error_message_unchanged(self, arg):
        with pytest.raises(DomainError) as want:
            clamped_arcsin(arg)
        with pytest.raises(DomainError) as got:
            manifold._clamped_arcsin(arg)
        assert str(got.value) == str(want.value)
        with pytest.raises(DomainError) as want:
            h_tan(-3.0, 3.0)
        with pytest.raises(DomainError) as got:
            h(-3.0, 3.0)
        assert str(got.value) == str(want.value)
