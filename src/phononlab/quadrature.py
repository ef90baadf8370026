"""Quadrature rules for periodic kernels with inverse-square-root structure.

Base rule is the composite midpoint rule: its nodes avoid interval endpoints,
where several kernels of this problem degenerate, and it is second order on
smooth integrands.  Near a declared zero s of a radicand R with R vanishing
linearly, the substitution u = sqrt(|s - y|) removes the 1/sqrt(R)
singularity exactly (the new integrand 2*u*f/sqrt(R(s -+ u^2)) is smooth), so
the substituted interval converges at the smooth-integrand rate.  The
substitution carries no problem-dependent constant, unlike Gauss-Jacobi
weights, which matters because the linear-vanishing rate of F- varies with
the base point.

Sharp but integrable peaks (the F+ kernel near the corner of the torus) are
handled by geometric panel grading toward the peak location.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonFiniteError, SingularityMismatchError
from .manifold import TWO_PI


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of the composite rules.

    n_panels      panels of the base midpoint rule
    singularity_points  locations the base rule must not straddle blindly
    local_order   nodes per desingularized/graded panel
    tol_abs       absolute tolerance target, used for grading depth
    """
    n_panels: int = 512
    singularity_points: tuple = field(default=())
    local_order: int = 16
    tol_abs: float = 1e-9

    def __post_init__(self):
        if self.n_panels < 8:
            raise ValueError("n_panels must be >= 8")
        if self.local_order < 4:
            raise ValueError("local_order must be >= 4")
        pts = tuple(sorted(float(p) for p in self.singularity_points))
        if pts and not (0.0 <= pts[0] and pts[-1] <= TWO_PI):
            raise ValueError("singularity_points must lie in [0, 2pi]")
        object.__setattr__(self, "singularity_points", pts)


def midpoint_nodes(lo: float, hi: float, n: int):
    """Midpoint nodes and uniform weights on [lo, hi]."""
    w = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * w, np.full(n, w)


def _eval_checked(f, nodes):
    vals = np.asarray(f(nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = nodes[~np.isfinite(vals)][:3]
        raise NonFiniteError(f"integrand non-finite at nodes {bad}")
    return vals


def _pairwise_sum(x: np.ndarray) -> float:
    # fixed reduction order for reproducibility across thread counts
    return float(np.add.reduce(x))


def integrate_periodic(f, spec: QuadratureSpec) -> float:
    """Composite midpoint integral of f over one period [0, 2pi].

    Declared singularity points become panel boundaries, so no node is
    placed on them; f must be bounded on panels away from those points.
    """
    pts = [p for p in spec.singularity_points if 0.0 < p < TWO_PI]
    edges = [0.0] + pts + [TWO_PI]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = max(8, int(round(spec.n_panels * (hi - lo) / TWO_PI)))
        nodes, wts = midpoint_nodes(lo, hi, n)
        total += _pairwise_sum(wts * _eval_checked(f, nodes))
    return total


def sqrt_substituted_nodes(s: float, far: float, n: int):
    """Nodes/weights realizing u = sqrt(|s - y|) over the stretch from s to far.

    Returns (y_nodes, dy_weights) for integrating dy; the weights already
    contain the 2u Jacobian, so summing w * f(y) / sqrt(R(y)) converges at
    the smooth rate when R vanishes linearly at s.
    """
    span = abs(far - s)
    umax = np.sqrt(span)
    u, wu = midpoint_nodes(0.0, umax, n)
    y = s + np.sign(far - s) * u ** 2
    return y, 2.0 * u * wu


def integrate_inverse_sqrt(f, s: float, radicand, side: str,
                           spec: QuadratureSpec, lo: float, hi: float) -> float:
    """Integral of f(y) / sqrt(radicand(y)) over [lo, hi] with radicand
    vanishing (or dipping to a sharp minimum) at the endpoint s.

    side = 'left'  : the domain lies left of s,  so s == hi;
    side = 'right' : the domain lies right of s, so s == lo.
    The whole interval is mapped through u = sqrt(|s - y|); with a linearly
    vanishing radicand the transformed integrand is smooth, so the composite
    midpoint rule in u keeps its full order.
    """
    if side == "left":
        if not np.isclose(s, hi):
            raise ValueError("side='left' requires s == hi")
        far = lo
    elif side == "right":
        if not np.isclose(s, lo):
            raise ValueError("side='right' requires s == lo")
        far = hi
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    # sanity: the radicand must be positive on the inside of s.  A regular
    # radicand (bounded below) is fine -- the substitution is then a benign
    # reparameterization -- but a negative value just inside the domain means
    # the declared zero does not change sign across s as promised.
    span = abs(far - s)
    toward = np.sign(far - s)
    scale = max(abs(float(radicand(far - toward * 1e-6 * span))),
                abs(float(radicand(s + toward * 0.5 * span))), 1e-300)
    r_in = float(radicand(s + toward * 1e-6 * span))
    r_s = float(radicand(s))
    if r_in < -1e-12 * scale or r_s < -1e-9 * scale:
        raise SingularityMismatchError(
            f"radicand is negative on the domain side of s={s} "
            f"(inside probe {r_in:.3e}, at s {r_s:.3e}); the declared zero "
            "does not separate signs there")

    # after u = sqrt(|s - y|) a linear zero at s is exactly regularized, but
    # a radicand with a small flat-bottom minimum (the F+ kernel near the
    # torus corner) still has structure below the u^2 scale; grade panels
    # into any sharp dip, whether at s itself or in the interior
    umax = np.sqrt(span)
    scan = np.linspace(0.0, umax, 512)[1:-1]
    rad_scan = np.asarray(radicand(s + toward * scan ** 2), dtype=float)
    k = int(np.argmin(rad_scan))
    refine = []
    if 1e-13 * scale < r_s < 1e-2 * scale:
        # a genuinely positive flat bottom at s (not a linear zero, which the
        # substitution already regularizes exactly): grade into it
        refine.append(0.0)
    if rad_scan[k] < 1e-2 * scale and 0 < k < rad_scan.size - 1 and scan[k] > 1e-3 * umax:
        refine.append(float(scan[k]))
    # grading depth follows the requested absolute tolerance
    min_scale = umax * min(1e-14, spec.tol_abs * 1e-6)
    u, wu = graded_midpoint_nodes(0.0, umax, spec.n_panels, refine_at=refine,
                                  min_scale=min_scale,
                                  local_order=spec.local_order,
                                  zone_panels=max(2, spec.n_panels // 8))
    y = s + toward * u ** 2
    wy = 2.0 * u * wu
    rad = np.asarray(radicand(y), dtype=float)
    vals = np.asarray(f(y), dtype=float)
    good = rad > 0.0
    out = np.zeros_like(rad)
    out[good] = vals[good] / np.sqrt(rad[good])
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("transformed integrand non-finite")
    return _pairwise_sum(wy * out)


@lru_cache(maxsize=None)
def _gauss_rule(m: int):
    """The m-point Gauss-Legendre rule on [-1, 1], shared and read-only."""
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_panel(a: float, b: float, m: int):
    x, w = _gauss_rule(m)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def graded_midpoint_nodes(lo: float, hi: float, n_panels: int,
                          refine_at=(), min_scale: float = 1e-12,
                          local_order: int = 8, zone_panels: int = 2):
    """Composite midpoint nodes on [lo, hi] with geometric grading.

    Each point in refine_at gets zone_panels base panels around it replaced
    by geometrically shrinking panels (ratio 2) down to min_scale, with
    local_order Gauss-Legendre nodes per graded panel (the integrand's
    structure tracks the panel scale there, so fixed-order Gauss nodes per
    octave converge where equally many midpoint nodes stall).  Used for
    integrands with sharp integrable peaks at known locations (e.g.
    1/sqrt(F+) near the torus corner).  Points may coincide with lo or hi
    for one-sided grading; overlapping zones are resolved first-come.
    """
    base_w = (hi - lo) / n_panels
    nodes, wts = midpoint_nodes(lo, hi, n_panels)
    claimed = np.zeros(n_panels, dtype=bool)
    extra_n, extra_w = [], []
    half = max(zone_panels // 2, 1)
    for p in refine_at:
        p = float(p)
        if not (lo <= p <= hi):
            continue
        j = int(np.clip((p - lo) / base_w, 0, n_panels - 1))
        if claimed[j]:
            continue  # neighborhood already refined by an earlier point
        # grow the zone outward without stealing panels claimed before,
        # so graded segments of different refine points never overlap
        lo_j = j
        while lo_j - 1 >= 0 and not claimed[lo_j - 1] and j - lo_j < half:
            lo_j -= 1
        hi_j = j
        while hi_j + 1 < n_panels and not claimed[hi_j + 1] and hi_j - j < half:
            hi_j += 1
        claimed[lo_j:hi_j + 1] = True
        left_edge = lo + lo_j * base_w
        right_edge = lo + (hi_j + 1) * base_w
        for a, b in ((left_edge, p), (p, right_edge)):
            span = b - a
            if span <= 0.0:
                continue
            # geometric distances from the refine point, halving down to min_scale
            dists = [span]
            while dists[-1] > min_scale:
                dists.append(dists[-1] * 0.5)
            dists.append(0.0)
            for dfar, dnear in zip(dists[:-1], dists[1:]):
                if a == p:   # panel sits to the right of the refine point
                    seg = (p + dnear, p + dfar)
                else:        # panel sits to the left
                    seg = (p - dfar, p - dnear)
                nn, ww = _gauss_panel(seg[0], seg[1], local_order)
                extra_n.append(nn)
                extra_w.append(ww)
    parts_n = [nodes[~claimed]] + extra_n
    parts_w = [wts[~claimed]] + extra_w
    return np.concatenate(parts_n), np.concatenate(parts_w)
