"""Uniform midpoint grids on (0, 2pi) and real-valued fields sampled on them.

Midpoint nodes stay off p = 0 (mod 2pi), where several kernels degenerate.
Off-grid values come from periodic linear or 4-point (cubic) Lagrange
interpolation: a stencil is one index and one offset per target
(`interp_weights`), which `gather` evaluates in Horner form.
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


# (nodes, nodes before the node j that a target follows) of each stencil
_STENCILS = {"linear": (2, 0), "cubic": (4, 1)}


def _stencil_shape(order: str) -> tuple:
    if order not in _STENCILS:
        raise ValueError(f"unknown interpolation order {order!r}")
    return _STENCILS[order]


def interp_weights(grid: Grid, targets: np.ndarray, order: str = "linear"):
    """Periodic interpolation stencils (q, t) for arbitrary target angles:
    a target u = target / weight - 1/2 spacings follows node j = floor(u)
    at t = u - j in [0, 1), and q = the stencil's first node (j, or j - 1
    for cubic) mod n."""
    below = _stencil_shape(order)[1]
    u = np.asarray(targets, dtype=float) / grid.weight - 0.5
    # snap to the nearest node so evaluation at a node reproduces it exactly
    r = np.round(u)
    u = np.where(np.abs(u - r) < 1e-9, r, u)
    j = np.floor(u).astype(np.int64)
    return (j - below) % grid.n, u - j


def lagrange_weights(n: int, stencil, order: str = "linear"):
    """The nodes and Lagrange weights of (q, t) stencils on a grid of n
    nodes: tuples (indices, weights) of equal-shape arrays with
    value = sum_k values[indices[k]] * weights[k]."""
    q, t = stencil
    indices = (q,)
    for k in range(1, _stencil_shape(order)[0]):
        qk = q + k
        np.subtract(qk, n, out=qk, where=qk >= n)  # mod n, without an integer division
        indices += (qk,)
    if order == "linear":
        return indices, (1.0 - t, t)
    # 4-point Lagrange through the surrounding nodes; exact on cubics
    wm1 = -t * (t - 1.0) * (t - 2.0) / 6.0
    w0 = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
    wp1 = -(t + 1.0) * t * (t - 2.0) / 2.0
    wp2 = (t + 1.0) * t * (t - 1.0) / 6.0
    return indices, (wm1, w0, wp1, wp2)


def horner(values: np.ndarray, order: str = "linear") -> tuple:
    """Coefficient rows of the interpolant on the stencil of each q:
    c_0[q] + t (c_1[q] + t (c_2[q] + t c_3[q])), c_0[q] the value at j."""
    n = values.size
    ext = np.concatenate((values, values[:_stencil_shape(order)[0] - 1]))  # periodic
    d = np.diff(ext)
    if order == "linear":
        return ext[:n], d
    dd = np.diff(d)  # second differences, centred on the nodes j
    a2 = 0.5 * dd[:n]
    a3 = (dd[1:] - dd[:n]) / 6.0  # the third difference / 6
    return ext[1:n + 1], d[1:n + 1] - a2 - a3, a2, a3


def gather(coeffs: tuple, stencil, rows=slice(None), out=None) -> np.ndarray:
    """Values at the targets of an `interp_weights` stencil, for a block of
    its rows, by Horner's rule on `horner` coefficients.  `out`, two rows at
    least as long as the block, takes the values and each gathered
    coefficient, so its owner allocates nothing ("clip" mode, since np.take
    copies through a temporary in the others)."""
    q, t = stencil[0][rows], stencil[1][rows]
    if out is None:
        out = np.empty((2, q.size))
    val, taken = out[0][:q.size], out[1][:q.size]
    np.take(coeffs[-1], q, out=val, mode="clip")
    for c in coeffs[-2::-1]:
        val *= t
        val += np.take(c, q, out=taken, mode="clip")
    return val


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


