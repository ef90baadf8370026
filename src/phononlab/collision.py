"""The reduced four-phonon collision operator on a grid.

With the delta constraints integrated out in favor of the p2 variable, the
operator reads

    C[f](p0) = int_0^2pi  (omega0 omega1 omega2 omega3 / sqrt(F+(p0, p2)))
               * [f1 f2 f3 + f0 f2 f3 - f0 f1 f3 - f0 f1 f2]  dp2,

where p1 = h(p0, p2) and p3 = p0 + p1 - p2 are resolved on the nontrivial
branch of the resonant manifold (trivial resonances are dropped: their
integrand cancels and they carry no transport).  On a grid both p0 and p2
run over the nodes; p1 and p3 fall off-grid and the spectrum is evaluated
there by periodic interpolation.

The tensor rule inherits a discrete exchange symmetry: swapping the roles
of the p0 and p2 nodes maps (p0,p1,p2,p3) -> (p2,p3,p0,p1) exactly, which
flips the sign of the bracket.  Total mass of C[f] therefore cancels to
rounding, independently of resolution; energy conservation holds to
quadrature accuracy only.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .grid import (Field, Grid, evaluate, interp_weights,  # noqa: F401
                   lp_norm)  # evaluate/lp_norm re-exported: part of this surface
from .manifold import TWO_PI, canonicalize, f_plus, h, omega

# full (n x n) tables above this size would not fit comfortably; stream instead
TABLE_MAX_N = 2048
_CHUNK_ROWS = 128


def _chunk_geometry(x: np.ndarray, z: np.ndarray):
    """Resonant partners and kernel weight for a block of output nodes."""
    X = x[:, None]
    Z = z[None, :]
    P1 = np.asarray(h(X, Z))
    P3 = canonicalize(X + P1 - Z)
    W = omega(X) * omega(P1) * omega(Z) * omega(P3) / np.sqrt(f_plus(X, Z))
    return P1, P3, W


class ResonanceTable:
    """Precomputed geometry and interpolation stencils for one grid.

    Reused by the collision operator, the linearized assembly, and time
    stepping; building it is the only O(n^2) trigonometric cost.
    """

    _cache: dict = {}
    _cache_lock = threading.Lock()

    def __init__(self, grid: Grid, interp: str = "linear"):
        self.grid = grid
        self.interp = interp
        nodes = grid.nodes
        self.P1, self.P3, self.W = _chunk_geometry(nodes, nodes)
        self.i1 = interp_weights(grid, self.P1, interp)
        self.i3 = interp_weights(grid, self.P3, interp)

    @classmethod
    def cached(cls, grid: Grid, interp: str = "linear") -> "ResonanceTable":
        key = (grid.n, interp)
        with cls._cache_lock:
            tab = cls._cache.get(key)
        if tab is None:
            tab = cls(grid, interp)
            with cls._cache_lock:
                if len(cls._cache) > 4:
                    cls._cache.clear()
                cls._cache[key] = tab
        return tab

    def gather(self, values: np.ndarray, which, rows=slice(None)) -> np.ndarray:
        """Interpolated values at the stencil targets of `which`, for a block
        of output rows (all rows by default); every row is computed the same
        way whatever the block."""
        idx, wts = which
        out = values[idx[0][rows]] * wts[0][rows]
        for i, wt in zip(idx[1:], wts[1:]):
            out += values[i[rows]] * wt[rows]
        return out

    def at_p1(self, values: np.ndarray, rows=slice(None)) -> np.ndarray:
        return self.gather(values, self.i1, rows)

    def at_p3(self, values: np.ndarray, rows=slice(None)) -> np.ndarray:
        return self.gather(values, self.i3, rows)


def _bracket(f0, f1, f2, f3):
    return f1 * f2 * f3 + f0 * f2 * f3 - f0 * f1 * f3 - f0 * f1 * f2


def collision_operator(f: Field, interp: str = "linear",
                       pos_floor: float = 1e-12) -> Field:
    """Evaluate C[f] at every grid node."""
    f.require_positive(pos_floor)
    grid = f.grid
    n = grid.n
    vals = f.values
    w = grid.weight
    if n <= TABLE_MAX_N:
        tab = ResonanceTable.cached(grid, interp)
        f1 = tab.at_p1(vals)
        f3 = tab.at_p3(vals)
        br = _bracket(vals[:, None], f1, vals[None, :], f3)
        out = w * np.sum(tab.W * br, axis=1)
        return Field(grid, out)
    # streaming path for epsilon-family grids that resolve eps^2
    out = np.empty(n)
    nodes = grid.nodes
    for i0 in range(0, n, _CHUNK_ROWS):
        i1 = min(i0 + _CHUNK_ROWS, n)
        P1, P3, W = _chunk_geometry(nodes[i0:i1], nodes)
        idx1, wts1 = interp_weights(grid, P1, interp)
        idx3, wts3 = interp_weights(grid, P3, interp)
        fv1 = sum(vals[i] * wt for i, wt in zip(idx1, wts1))
        fv3 = sum(vals[i] * wt for i, wt in zip(idx3, wts3))
        br = _bracket(vals[i0:i1, None], fv1, vals[None, :], fv3)
        out[i0:i1] = w * np.sum(W * br, axis=1)
    return Field(grid, out)


def conserved_quantities(f: Field):
    """(mass, energy) = (int f dp, int omega f dp) by the grid rule."""
    w = f.grid.weight
    return float(w * np.sum(f.values)), float(w * np.sum(f.grid.omega * f.values))


def entropy(f: Field) -> float:
    """int log f dp; the H-functional whose production is one-signed."""
    f.require_positive()
    return float(f.grid.weight * np.sum(np.log(f.values)))


@dataclass(frozen=True)
class BlowupPoints:
    """The three distinguished momenta of the L^p-unboundedness construction.

    p0 is the chosen base point, p2 the maximizer of z -> h(p0, z), and
    p1 = h(p0, p2) the fold value; at this triple the companion momentum
    returns to p2, so a spectrum concentrated near these points feeds a
    single output channel at p0.
    """
    p0: float
    p1: float
    p2: float


def blowup_points(p0: float = 2.0) -> BlowupPoints:
    """Locate the unboundedness triple by maximizing h(p0, .) on (p0, 2pi)."""
    lo, hi = p0 + 1e-9, TWO_PI - 1e-9
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = float(h(p0, c))
    fd = float(h(p0, d))
    while b - a > 1e-13:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = float(h(p0, c))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = float(h(p0, d))
    z0 = 0.5 * (a + b)
    return BlowupPoints(p0=p0, p1=float(h(p0, z0)), p2=z0)


def _snap_indicator(grid: Grid, lo: float, width: float) -> np.ndarray:
    """Indicator of [lo, lo+width) snapped to whole grid cells."""
    return ((grid.nodes >= lo) & (grid.nodes < lo + width)).astype(float)


def epsilon_family(eps: float, grid: Grid, p_exp: float = 2.0,
                   points: BlowupPoints | None = None) -> Field:
    """Three-bump test family with uniformly bounded L^p norm.

    Heights eps^{-2/p}, eps^{-2/p}, eps^{-1/p} on intervals of widths
    eps^2, eps^2, eps around the distinguished triple.  The eps^2 bump at
    the fold value p1 is placed on [p1 - eps^2, p1]: the parameterization
    sweeps values h(p0, .) <= p1 only, so that side is the one the
    resonance actually visits.
    """
    if not (0.0 < eps <= 0.1):
        raise ValueError(f"eps must be in (0, 0.1], got {eps}")
    if grid.n < 32.0 / eps ** 2:
        raise ResolutionError(
            f"grid n={grid.n} cannot resolve eps^2; need n >= {32.0 / eps ** 2:.0f}")
    pts = points or blowup_points()
    e2 = eps ** 2
    vals = eps ** (-2.0 / p_exp) * _snap_indicator(grid, pts.p0, e2)
    vals += eps ** (-2.0 / p_exp) * _snap_indicator(grid, pts.p1 - e2, e2)
    vals += eps ** (-1.0 / p_exp) * _snap_indicator(grid, pts.p2, eps)
    return Field(grid, vals)
