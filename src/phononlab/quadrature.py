"""Composite quadrature nodes for the production rules.

The base rule is the composite midpoint rule: its nodes avoid the interval
endpoints, where several kernels of this problem degenerate, and it is
second order on smooth integrands.  Sharp but integrable peaks (the F+
kernel near the corner of the torus) are handled by geometric panel
grading toward the peak location, with Gauss-Legendre nodes on each graded
panel.  `linearized.multiplier_at` and `experiments.blowup_p2_rule` build
their p2 rules from these nodes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def midpoint_nodes(lo: float, hi: float, n: int):
    """Midpoint nodes and uniform weights on [lo, hi]."""
    w = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * w, np.full(n, w)


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

    Each point in refine_at gets its own base panel and
    max(zone_panels // 2, 1) base panels on each side of it (3 panels for
    zone_panels 1, 2 or 3, 5 for 4; fewer at an end of [lo, hi] or against
    an earlier point's zone) replaced by geometrically shrinking panels
    (ratio 2) down to min_scale, with local_order Gauss-Legendre nodes per
    graded panel (the integrand's structure tracks the panel scale there,
    so fixed-order Gauss nodes per octave converge where equally many
    midpoint nodes stall).  Used for
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
