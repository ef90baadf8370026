"""Closed-form geometry of the four-phonon resonant manifold.

The FPUT-beta chain has dispersion omega(p) = |sin(p/2)| on the torus
[0, 2pi). Resonant quadruples satisfy

    p0 + p1 - p2 - p3 = 0 (mod 2pi),   omega0 + omega1 - omega2 - omega3 = 0.

Besides the trivial solutions {p0, p1} = {p2, p3}, the solution set is a
two-parameter family: fixing (p0, p2) = (x, z), the remaining momentum is
p1 = h(x, z) with

    h(x, z) = (z - x)/2 + 2 arcsin( tan(|z - x|/4) cos((z + x)/4) )

taken mod 2pi, and p3 = hbar(x, z) = x - z + h(x, z) mod 2pi.

Integrating out the delta constraints produces Jacobian radicands

    F+(x, z) = [cos(x/2) + cos(z/2)]^2 + 4 sin(x/2) sin(z/2)   (z-variable)
    F-(x, y) = [cos(x/2) + cos(y/2)]^2 - 4 sin(x/2) sin(y/2)   (y-variable)

F+ is nonnegative and bounded below by 4 omega(x) omega(z); F-(x, .) is
negative exactly on an interval (y', y'') straddling 2pi - x, and the map
z -> h(x, z) covers the positivity set {F-(x, .) > 0} twice.

All functions here are pure, vectorized over numpy arrays, and use double
precision; tolerances below are calibrated to that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

TWO_PI = 2.0 * np.pi

# Floating-point arcsin arguments may exceed 1 by rounding noise at the
# boundary of the admissible set; beyond this slack the input is rejected.
ARCSIN_CLAMP_TOL = 1e-9

# Inputs closer than this to the singular diagonal |z - x| = 2pi are nudged
# inward; the diagonal itself is a measure-zero corner of the domain.
DIAGONAL_GUARD = 1e-9

_ROOT_INTERVAL_TOL = 1e-13


def canonicalize(p):
    """Canonical representative of an angle in [0, 2pi).

    Float64 angles in [-2pi, 4pi), where h and p3 always fall, are shifted
    by at most one period without np.mod.
    Inside that range fmod is exact and so is a - 2pi (Sterbenz), so the
    bits are np.mod's, signed zeros included: a + 0.0 maps -0.0 to +0.0 as
    np.mod does.  Every other input, NaN included, goes through np.mod.
    """
    a = np.asarray(p)
    if a.dtype == np.float64 and a.size and -TWO_PI <= a.min() and a.max() < 2.0 * TWO_PI:
        q = a + ((a < 0.0) * TWO_PI - (a >= TWO_PI) * TWO_PI)
    else:
        q = np.mod(p, TWO_PI)
    # a tiny negative input rounds up to 2pi itself (a NaN max also fixes up)
    if not np.max(q, initial=0.0) < TWO_PI:
        q = np.where(q >= TWO_PI, q - TWO_PI, q)
    return q if np.ndim(p) else float(q)


def omega(p):
    """Dispersion relation |sin(p/2)| of the FPUT-beta chain."""
    return np.abs(np.sin(np.asarray(p) / 2.0)) if np.ndim(p) else abs(np.sin(p / 2.0))


def _clamped_arcsin(arg):
    """arcsin with the documented clamping policy at +-1; the clip runs only
    when max|arg| exceeds 1 (or is NaN), the only case where it acts."""
    a = np.asarray(arg, dtype=float)
    if not np.max(np.abs(a), initial=0.0) <= 1.0:
        over = np.abs(a) - 1.0
        if np.any(over > ARCSIN_CLAMP_TOL):
            worst = float(np.max(over))
            raise DomainError(
                f"arcsin argument exceeds 1 by {worst:.3e} (> {ARCSIN_CLAMP_TOL:.0e}); "
                "inputs are outside [0, 2pi]")
        a = np.clip(a, -1.0, 1.0)
    return np.arcsin(a)


def _h_parts(x, z):
    """(h(x, z), t, a): the resonant partner, the tangent t = tan(|z - x|/4)
    it is built from, which the kernel weight reuses (`_weight`), and the
    arcsin argument a = t cos((z + x)/4), which `verify_suite` bounds."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    d = z - x
    ad = np.abs(d)
    # keep tan((z-x)/4) finite: nudge off the singular diagonal |z-x| = 2pi;
    # the nudge acts only within DIAGONAL_GUARD of 2pi, so no mask is built
    # when max|z-x| < 6 (a NaN hides the max and keeps the mask)
    if not np.max(ad, initial=0.0) < 6.0:
        near = np.abs(ad - TWO_PI) < DIAGONAL_GUARD
        if np.any(near):
            d = np.where(near, np.sign(d) * (TWO_PI - DIAGONAL_GUARD), d)
            ad = np.abs(d)
    t = np.tan(ad / 4.0)
    a = t * np.cos((z + x) / 4.0)
    val = d / 2.0 + 2.0 * _clamped_arcsin(a)
    return canonicalize(val if val.ndim else float(val)), t, a


# h_range widens its bound by this much on each side.  Its endpoint values
# are computed by the same operations as h, and the rounding of z - x,
# z + x and the final sum is monotone, so what the margin must cover is
# that tan, cos, their product and arcsin are not exactly monotone in
# floating point: each is within a few ulps of its exact value, so the
# arcsin argument t c is within a few ulps of 1 (2^-52 each) of a monotone
# one.  An argument error of k such ulps moves arcsin by at most
# sqrt(2 k 2^-52), about 2.1e-8 sqrt(k) (the worst case, at +-1), and the sum
# by twice that: 1e-6 covers k up to about 560.  canonicalize then adds at
# most one rounding of 2pi (4.4e-16).
H_RANGE_MARGIN = 1e-6
# h_range leaves its bound open where |z - x| can come this close to the
# tan pole 2pi, where the diagonal guard of `_h_parts` moves z - x
H_RANGE_POLE = 1e-6


def h_range(x, z_lo, z_hi):
    """(lo, hi) bounding, for every z in [z_lo, z_hi], the value that
    h(x, z) reduces mod 2pi (the sum (z - x)/2 + 2 arcsin(t c) of
    `_h_parts`, with t = tan(|z - x|/4), c = cos((z + x)/4)); inputs
    broadcast.

    On [0, 2pi]^2 tan(|z - x|/4) increases with |z - x|, whose lower end is
    0 when x lies in [z_lo, z_hi]; cos((z + x)/4) decreases in z; and arcsin
    increases.  So t c lies between the least and the greatest product of
    the end values of t and c, and each term of the sum between its end
    values; where (z + x)/4 can leave [0, pi], c is bounded by [-1, 1]
    only.  The bound is widened by H_RANGE_MARGIN, and is (-inf, inf) where
    |z - x| can come within H_RANGE_POLE of 2pi.
    """
    x = np.asarray(x, dtype=float)
    d_lo, d_hi = z_lo - x, z_hi - x
    ad_lo = np.where((d_lo <= 0.0) & (d_hi >= 0.0), 0.0,
                     np.minimum(np.abs(d_lo), np.abs(d_hi)))
    ad_hi = np.maximum(np.abs(d_lo), np.abs(d_hi))
    t_lo, t_hi = np.tan(ad_lo / 4.0), np.tan(ad_hi / 4.0)
    s_lo, s_hi = (z_lo + x) / 4.0, (z_hi + x) / 4.0
    monotone = (s_lo >= 0.0) & (s_hi <= np.pi)
    c_lo = np.where(monotone, np.cos(s_hi), -1.0)
    c_hi = np.where(monotone, np.cos(s_lo), 1.0)
    ends = (t_lo * c_lo, t_lo * c_hi, t_hi * c_lo, t_hi * c_hi)
    a_lo = np.clip(np.minimum(np.minimum(ends[0], ends[1]), np.minimum(ends[2], ends[3])),
                   -1.0, 1.0)
    a_hi = np.clip(np.maximum(np.maximum(ends[0], ends[1]), np.maximum(ends[2], ends[3])),
                   -1.0, 1.0)
    pole = ad_hi > TWO_PI - H_RANGE_POLE
    lo = np.where(pole, -np.inf, d_lo / 2.0 + 2.0 * np.arcsin(a_lo) - H_RANGE_MARGIN)
    hi = np.where(pole, np.inf, d_hi / 2.0 + 2.0 * np.arcsin(a_hi) + H_RANGE_MARGIN)
    return lo, hi


def h(x, z):
    """Resonant partner p1 = h(p0, p2), canonical in [0, 2pi)."""
    return _h_parts(x, z)[0]


def h_bar(x, z):
    """Companion momentum p3 = x - z + h(x, z), canonical in [0, 2pi)."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    val = x - z + np.asarray(h(x, z))
    return canonicalize(val if val.ndim else float(val))


def f_plus(x, z):
    """Jacobian radicand for integration in the p2 variable (nonnegative)."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    return (np.cos(x / 2.0) + np.cos(z / 2.0)) ** 2 + 4.0 * np.sin(x / 2.0) * np.sin(z / 2.0)


def resonant_kernel(x, z):
    """(p1, p3, W) on the nontrivial branch for base points x and p2 = z.

    p1 = h(x, z), p3 = x + p1 - z (mod 2pi) and the weight
    W = omega0 omega1 omega2 omega3 / sqrt(F+(x, z)); inputs broadcast.

    By the triple-product identity |sin(p3/2) sin(p1/2)| =
    tan^2(|z - x|/4) sin(z/2) sin(x/2), the omega product on [0, 2pi]^2 is
    (sin(x/2) sin(z/2) tan(|z - x|/4))^2, with the tangent h is built from
    (`_weight`, which `collision.collision_at` also calls); F+ reuses the
    half-angle sines, in the operation order of `f_plus`.  So no sine of p1
    or p3 is taken: a weight costs five sines and cosines, and a factor of
    x or z alone is computed once along its axis of a broadcast.
    This form is also the accurate one: within 1e-3 of 0 or 2pi, p1 and p3
    carry an absolute error of 2pi's last bit, which their sines would turn
    into a relative error of W up to 4e-8.  F+ is floored at 1e-300 so the
    measure-zero corners where it vanishes give a finite weight.
    """
    p1, t = _h_parts(x, z)[:2]
    p1 = np.asarray(p1)
    return p1, canonicalize(x + p1 - z), _weight(x, z, t)


def _weight(x, z, t):
    """W = omega0 omega1 omega2 omega3 / sqrt(F+(x, z)) from t = tan(|z - x|/4)
    (see `resonant_kernel`); inputs broadcast."""
    sx, sz = np.sin(x / 2.0), np.sin(z / 2.0)
    fp = (np.cos(x / 2.0) + np.cos(z / 2.0)) ** 2 + 4.0 * sx * sz
    return (sx * sz * t) ** 2 / np.sqrt(np.maximum(fp, 1e-300))


def f_minus(x, y):
    """Jacobian radicand for integration in the p1 variable (signed)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (np.cos(x / 2.0) + np.cos(y / 2.0)) ** 2 - 4.0 * np.sin(x / 2.0) * np.sin(y / 2.0)


@dataclass(frozen=True)
class FminusZeros:
    """The two zeros y' < y'' of y -> F-(x, y), with 0 < y' < 2pi - x < y'' < 2pi."""
    y_prime: float | np.ndarray
    y_double_prime: float | np.ndarray


def f_minus_zeros(x) -> FminusZeros:
    """Locate both zeros of F-(x, .) by bracketed bisection plus one Newton polish.

    The sign pattern F-(x, 0) > 0 > F-(x, 2pi - x) < 0 < F-(x, 2pi)
    guarantees one zero in each of [0, 2pi - x] and [2pi - x, 2pi].  x may
    be an array of base points: every interval halves at once, each until
    it is _ROOT_INTERVAL_TOL wide, so each zero has the bits of its own
    scalar call; a scalar x gets floats back.  The first point at which F-
    degenerates is named in a ConvergenceError.
    """
    x = np.asarray(x, dtype=float)
    ok = (0.0 < x) & (x < TWO_PI)
    if not ok.all():
        raise ConvergenceError(
            f"x = {x.flat[np.argmin(ok)]} is at a domain endpoint; F- degenerates there")
    mid = TWO_PI - x
    fmid = f_minus(x, mid)  # = -4 sin^2(x/2), strictly negative
    if not (fmid < 0.0).all():
        k = np.argmin(fmid < 0.0)
        raise ConvergenceError(f"F-({x.flat[k]}, 2pi - {x.flat[k]}) = {fmid.flat[k]}; "
                               "x is too close to a domain endpoint")
    # endpoint signs are analytic: F-(x, 0) = (1 + cos(x/2))^2 > 0 and
    # F-(x, 2pi) = (1 - cos(x/2))^2 > 0.  Evaluating at the endpoints instead
    # would lose the sign to cancellation once the zero is within an ulp of
    # the boundary (x -> 0 pushes y'' against 2pi).  Row 0 brackets y', where
    # F- falls through zero, and row 1 y'', where it rises.
    a = np.stack([np.zeros_like(x), mid])
    b = np.stack([mid, np.full_like(x, TWO_PI)])
    rising = np.array([False, True]).reshape((2,) + (1,) * x.ndim)
    wide = b - a > _ROOT_INTERVAL_TOL
    while wide.any():
        m = 0.5 * (a + b)
        same = (f_minus(x, m) > 0.0) != rising  # F-(m) has the sign of F-(a)
        a = np.where(wide & same, m, a)
        b = np.where(wide & ~same, m, b)
        wide = b - a > _ROOT_INTERVAL_TOL
    y = 0.5 * (a + b)
    # one Newton polish; derivative by analytic formula
    d = -np.sin(y / 2.0) * (np.cos(x / 2.0) + np.cos(y / 2.0)) \
        - 2.0 * np.sin(x / 2.0) * np.cos(y / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.minimum(np.maximum(np.where(d != 0.0, y - f_minus(x, y) / d, y), 0.0), TWO_PI)
    yp, ydp = y.tolist() if x.ndim == 0 else y
    return FminusZeros(y_prime=yp, y_double_prime=ydp)


def omega_residual(p0, p1, p2):
    """omega0 + omega1 - omega2 - omega3 with p3 = p0 + p1 - p2; zero on the manifold."""
    p3 = np.asarray(p0, dtype=float) + np.asarray(p1) - np.asarray(p2)
    return omega(p0) + omega(p1) - omega(p2) - omega(p3)


def triple_product_identity(x, z):
    """Both sides of |sin(hbar/2) sin(h/2)| = tan^2((z-x)/4) sin(z/2) sin(x/2).

    Returns (lhs, rhs); they agree on [0, 2pi]^2.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    lhs = np.abs(np.sin(np.asarray(h_bar(x, z)) / 2.0) * np.sin(np.asarray(h(x, z)) / 2.0))
    rhs = np.tan((z - x) / 4.0) ** 2 * np.sin(z / 2.0) * np.sin(x / 2.0)
    return lhs, rhs
