"""Independent oracles the tests check the package against.

None of this runs on a CLI path.  The pointwise kernels K1 and K2 of the
linearized operator and the product-integration realization of K1 are kept
for kernel studies; the full-table oracles evaluate the tensor rule on all
n^2 ordered node pairs, with no use of the exchange symmetry that the
package's packed resonance table relies on, and the cached-slice blocks
read one whole packed table where the package streams transient blocks.
"""

from types import SimpleNamespace

import numpy as np

from phononlab import collision
from phononlab.equilibria import RjParams
from phononlab.grid import Grid, gather, interp_weights
from phononlab.manifold import (TWO_PI, canonicalize, f_minus, f_minus_zeros,
                                h_inverse_pair, omega, resonant_kernel)
from phononlab.quadrature import (QuadratureSpec, integrate_inverse_sqrt,
                                  sqrt_substituted_nodes)


# ---------------------------------------------------------------------------
# the tensor rule on every ordered pair

def full_table(grid: Grid, interp: str = "linear"):
    """P1, P3, W and the stencils i1, i3 on the full (n x n) tensor rule:
    row i is p0 = node i, column j is p2 = node j."""
    nodes = grid.nodes
    P1, P3, W = resonant_kernel(nodes[:, None], nodes[None, :])
    return SimpleNamespace(P1=P1, P3=P3, W=W, i1=interp_weights(grid, P1, interp),
                           i3=interp_weights(grid, P3, interp))


def cached_slice_blocks(grid: Grid, interp: str = "linear"):
    """The packed table built whole, then read in blocks of
    collision._TABLE_BLOCK entries: views of its slices, in the form of the
    transient tables that collision._packed_blocks streams."""
    tab = collision.ResonanceTable(grid, interp)
    for k0 in range(0, tab.W.size, collision._TABLE_BLOCK):
        s = slice(k0, k0 + collision._TABLE_BLOCK)
        yield SimpleNamespace(
            grid=grid, interp=interp,
            **{name: getattr(tab, name)[s] for name in ("i", "j", "P1", "P3", "W")},
            **{side: tuple(tuple(x[s] for x in part) for part in getattr(tab, side))
               for side in ("i1", "i3")})


def full_collision(f, interp: str = "linear") -> np.ndarray:
    """C[f] at the nodes, every row summed over all n p2 nodes."""
    tab = full_table(f.grid, interp)
    v = f.values
    f0, f1, f2, f3 = v[:, None], gather(v, tab.i1), v[None, :], gather(v, tab.i3)
    br = f1 * f2 * f3 + f0 * f2 * f3 - f0 * f1 * f3 - f0 * f1 * f2
    return f.grid.weight * np.sum(tab.W * br, axis=1)


# ---------------------------------------------------------------------------
# pointwise kernels of the linearized operator


def kernel_k2(p, p2, params: RjParams):
    """Kernel of the p2-route integral operator K2."""
    p1, p3, W = resonant_kernel(p, p2)
    return W * params.value(p1) * params.value(p3)


def _k1_smooth_factor(p, p1, params: RjParams):
    """K1 without its 1/sqrt(F-) singularity: omega0 omega1 times the
    branch sum of omega2 omega3 fb2 fb3.  Defined on the closure of the
    positivity set of F- (the inverse branches merge at its boundary)."""
    acc = 0.0
    for z in h_inverse_pair(p1, p):
        p3 = canonicalize(np.asarray(p) + p1 - z)
        acc = acc + omega(z) * omega(p3) * params.value(z) * params.value(p3)
    return omega(p) * omega(p1) * acc


def kernel_k1(p, p1, params: RjParams):
    """Kernel of the p1-route operator K1; zero where F-(p, p1) <= 0.

    Where F- > 0 the inverse of the parameterization has two branches; the
    remaining pair (p2, p3) is resolved on each and the contributions are
    summed.  The two branches exchange p2 and p3, so the summands coincide.
    """
    p = np.asarray(p, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    fm = np.asarray(f_minus(p, p1))
    ok = fm > 0.0
    res = np.zeros(np.broadcast(p, p1).shape)
    if not np.any(ok):
        return res if res.ndim else float(res)
    pb = np.broadcast_to(p, res.shape)[ok]
    yb = np.broadcast_to(p1, res.shape)[ok]
    res[ok] = _k1_smooth_factor(pb, yb, params) / np.sqrt(fm[ok])
    return res if res.ndim else float(res)


def k1_row_integral(p: float, params: RjParams, spec: QuadratureSpec,
                    phi=None) -> float:
    """int K1(p, y) phi(y) dy over both positivity intervals of F-(p, .).

    Integrable inverse-square-root singularities at y'(p) and y''(p) are
    removed by the sqrt substitution of the quadrature module.
    """
    zeros = f_minus_zeros(p)
    test = (lambda y: np.ones_like(y)) if phi is None else phi

    def smooth(y):
        return _k1_smooth_factor(p, y, params) * test(y)

    radicand = lambda y: f_minus(p, y)
    total = integrate_inverse_sqrt(smooth, zeros.y_prime, radicand,
                                   "left", spec, 0.0, zeros.y_prime)
    total += integrate_inverse_sqrt(smooth, zeros.y_double_prime, radicand,
                                    "right", spec, zeros.y_double_prime, TWO_PI)
    return total


def k1_matrix(params: RjParams, grid: Grid, n_sub: int | None = None,
              interp: str = "linear") -> np.ndarray:
    """Product-integration matrix of K1: row i holds int K1(p_i, y) l_k(y) dy.

    Desingularized row quadrature (sqrt substitution toward both fold
    points), distributed onto the nodal hat functions l_k.  Kept for kernel
    diagnostics; the operator used for spectra comes from `assemble`.
    """
    n = grid.n
    m = n_sub or n
    M = np.zeros((n, n))
    nodes = grid.nodes
    for i, x in enumerate(nodes):
        zeros = f_minus_zeros(x)
        for s, far in ((zeros.y_prime, 0.0), (zeros.y_double_prime, TWO_PI)):
            y, wy = sqrt_substituted_nodes(s, far, m)
            kv = kernel_k1(x, y, params)
            idx, wts = interp_weights(grid, y, interp)
            for jj, wt in zip(idx, wts):
                np.add.at(M[i], jj, wy * kv * wt)
    return M


