"""Uniform midpoint grids on (0, 2pi) and real-valued fields sampled on them.

The midpoint discretization keeps every node strictly inside the interval,
which matters because several kernels degenerate at p = 0 (mod 2pi).
Off-grid evaluation is periodic piecewise-linear interpolation by default;
periodic 4-point (cubic) Lagrange interpolation is available where the
extra two orders are worth it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, PositivityError
from .manifold import TWO_PI, omega

# spectra carry 1/f terms; values below this floor are rejected
POS_FLOOR = 1e-12


@dataclass(frozen=True)
class Grid:
    """n midpoints p_j = (j + 1/2) * 2pi / n with uniform weight 2pi / n."""
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise ValueError(f"grid needs n >= 16, got {self.n}")

    @property
    def weight(self) -> float:
        return TWO_PI / self.n

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.weight

    @property
    def omega(self) -> np.ndarray:
        return omega(self.nodes)


@dataclass
class Field:
    """Real values sampled on a Grid."""
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid n={self.grid.n}")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteError("field contains non-finite values")

    def require_positive(self, floor: float = POS_FLOOR) -> None:
        m = float(np.min(self.values))
        if m < floor:
            raise PositivityError(f"field minimum {m:.3e} is below the floor {floor:.0e}")


def interp_weights(grid: Grid, targets: np.ndarray, order: str = "linear"):
    """Periodic interpolation stencils for arbitrary target angles.

    Returns (indices, weights): tuples of equal-shape integer/float arrays
    such that  value(t) = sum_k values[indices[k]] * weights[k].
    """
    n = grid.n
    w = grid.weight
    u = np.asarray(targets, dtype=float) / w - 0.5
    # snap to the nearest node so evaluation at a node reproduces it exactly
    r = np.round(u)
    u = np.where(np.abs(u - r) < 1e-9, r, u)
    j = np.floor(u).astype(np.int64)
    t = u - j
    if order == "linear":
        return (j % n, (j + 1) % n), (1.0 - t, t)
    if order == "cubic":
        # 4-point Lagrange through the surrounding nodes; exact on cubics
        wm1 = -t * (t - 1.0) * (t - 2.0) / 6.0
        w0 = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
        wp1 = -(t + 1.0) * t * (t - 2.0) / 2.0
        wp2 = (t + 1.0) * t * (t - 1.0) / 6.0
        return ((j - 1) % n, j % n, (j + 1) % n, (j + 2) % n), (wm1, w0, wp1, wp2)
    raise ValueError(f"unknown interpolation order {order!r}")


def gather(values: np.ndarray, stencil, rows=slice(None)) -> np.ndarray:
    """Interpolated values at the targets of an `interp_weights` stencil, for
    a block of its leading-axis rows (all by default).  The terms are summed
    in stencil order, so each row is the same whatever the block."""
    idx, wts = stencil
    out = values[idx[0][rows]] * wts[0][rows]
    for i, wt in zip(idx[1:], wts[1:]):
        out += values[i[rows]] * wt[rows]
    return out


def lp_norm(f: Field, p: float) -> float:
    """Discrete L^p norm (sum w |f|^p)^(1/p); sup norm for p = inf."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    if not p >= 1:  # NaN fails too
        raise ValueError(f"p must be >= 1, got {p}")
    return float((f.grid.weight * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def weighted_sup(f: Field, mu: float) -> float:
    """sup over nodes of omega^mu |f|."""
    return float(np.max(f.grid.omega ** mu * np.abs(f.values)))


