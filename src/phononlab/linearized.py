"""Linearized collision operator around a Rayleigh-Jeans equilibrium.

For f = fb (1 + g) the perturbation evolves, to first order, by L = -A + K
with multiplier [Ag](p) = a(p) g(p),

    a(p) = (omega(p)/fb(p)) int omega1 omega2 omega3 fb1 fb2 fb3
                                 / sqrt(F+(p, p2)) dp2,

and integral part K = -K1 + 2 K2 whose kernels are

    K2(p, p2) = omega0 omega1 omega2 omega3 fb1 fb3 / sqrt(F+(p, p2)),
    K1(p, p1) = 1_{F-(p,p1)>0} / sqrt(F-(p, p1))
                * omega0 omega1 * sum over the two inverse branches of
                  omega2 omega3 fb2 fb3.

The dense matrix is not assembled from these rows directly.  Row quadrature
and column quadrature of K1 disagree at the fold points of the
parameterization, and patching that up by averaging M and M^T pollutes the
discrete kernel.  Instead the matrix is built from the Dirichlet form

    <-L g, g> = (1/4) int (measure) [r3 + r2 - r0 - r1]^2,   r = g / fb,

discretized with the same tensor rule as the collision operator.  The
result is symmetric and negative semidefinite in exact arithmetic, has
fb in its null space to rounding (interpolation is applied to the ratio r,
and the ratio of the equilibrium is constant), and annihilates omega*fb to
interpolation accuracy.  The pointwise kernels above are still exposed for
direct study; `k1_matrix` builds the product-integration realization of K1
with desingularized row quadrature for comparison against the weak form.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from .collision import ResonanceTable
from .equilibria import RjParams, rj_field
from .errors import FitError, SpectralError
from .fitting import DecayReport, fit_power_law
from .grid import Field, Grid, interp_weights
from .manifold import (TWO_PI, canonicalize, f_minus, f_minus_zeros,
                       h_inverse_pair, omega, resonant_kernel)
from .quadrature import (QuadratureSpec, graded_midpoint_nodes,
                         integrate_inverse_sqrt, sqrt_substituted_nodes)

T_BRACKET = 10.0  # time bracket in <t> = 10 + |t|


# ---------------------------------------------------------------------------
# multiplier and pointwise kernels

def multiplier_a(params: RjParams, grid: Grid) -> Field:
    """Collision frequency a(p) on the grid, by the nodal tensor rule.

    Uses the same nodes as the matrix assembly so that the diagonal and
    integral parts of L see identical quadrature.
    """
    tab = ResonanceTable.cached(grid)
    fb1 = params.value(tab.P1)
    fb2 = params.value(grid.nodes)[None, :]
    fb3 = params.value(tab.P3)
    integ = tab.W * fb1 * fb2 * fb3
    a = grid.weight * np.sum(integ, axis=1) / params.value(grid.nodes)
    return Field(grid, a)


def multiplier_at(params: RjParams, p, n_panels: int = 2048) -> np.ndarray:
    """Pointwise a(p) with panels graded into the kernel peak near 2pi - p.

    Resolves the edge asymptotics down to p ~ 1e-8; used by the multiplier
    scaling experiment, which needs base points far below any grid spacing.
    """
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    out = np.empty_like(p_arr)
    for k, x in enumerate(p_arr):
        peak = TWO_PI - x  # the kernel's sharp minimum of F+ sits at z = 2pi - x
        nodes, wts = graded_midpoint_nodes(0.0, TWO_PI, n_panels,
                                           refine_at=(peak,),
                                           min_scale=1e-14, local_order=8)
        P1, P3, W = resonant_kernel(x, nodes)
        integ = W * params.value(P1) * params.value(nodes) * params.value(P3)
        out[k] = float(np.sum(wts * integ)) / params.value(x)
    return out if np.ndim(p) else float(out[0])


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


# ---------------------------------------------------------------------------
# weak-form assembly

@dataclass
class LinOperator:
    """Dense symmetric realization of L with its spectral data."""
    grid: Grid
    params: RjParams
    a: Field
    matrix: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    spectral_tol: float = 0.0
    kernel_residuals: tuple = (0.0, 0.0)
    sym_defect: float = 0.0
    interp: str = "linear"

    @property
    def equilibrium(self) -> Field:
        return rj_field(self.params, self.grid)

    def kernel_basis(self) -> np.ndarray:
        """Orthonormal basis of span{fb, omega*fb} in the discrete pairing."""
        fb = self.equilibrium.values
        q, _ = np.linalg.qr(np.stack([fb, self.grid.omega * fb], axis=1))
        return q

    def near_null_count(self) -> int:
        return int(np.sum(np.abs(self.eigenvalues) <= self.spectral_tol))

    def near_null_vectors(self) -> np.ndarray:
        keep = np.abs(self.eigenvalues) <= self.spectral_tol
        return self.eigenvectors[:, keep]


def _weak_form_matrix(params: RjParams, grid: Grid, interp: str) -> np.ndarray:
    n = grid.n
    tab = ResonanceTable.cached(grid, interp)
    fb = params.value(grid.nodes)
    measure = tab.W * fb[:, None] * params.value(tab.P1) \
        * fb[None, :] * params.value(tab.P3)

    rows = np.arange(n * n)
    ones = np.ones(n * n)
    m0 = sparse.csr_matrix((ones, (rows, np.repeat(np.arange(n), n))), shape=(n * n, n))
    m2 = sparse.csr_matrix((ones, (rows, np.tile(np.arange(n), n))), shape=(n * n, n))

    def interp_sparse(which):
        idx, wts = which
        r = np.concatenate([rows] * len(idx))
        c = np.concatenate([i.ravel() for i in idx])
        v = np.concatenate([w.ravel() for w in wts])
        return sparse.csr_matrix((v, (r, c)), shape=(n * n, n))

    S = (interp_sparse(tab.i3) + m2 - m0 - interp_sparse(tab.i1)).tocsr()
    Q = (S.T @ sparse.diags(measure.ravel()) @ S).toarray()
    inv_fb = 1.0 / fb
    negL = (grid.weight / 4.0) * (inv_fb[:, None] * Q * inv_fb[None, :])
    return -negL


def assemble(params: RjParams, grid: Grid, interp: str = "linear",
             spectral_floor: float = 1e-8) -> LinOperator:
    """Assemble L, eigendecompose, and verify its spectral structure.

    Raises SpectralError if any eigenvalue exceeds the spectral tolerance or
    if the near-null band does not contain exactly the two conservation
    modes.
    """
    if params.gamma <= 0.0:
        raise ValueError("the linearized analysis requires gamma > 0")
    if grid.n < 64:
        raise ValueError("assemble needs n >= 64")
    L = _weak_form_matrix(params, grid, interp)
    sym_defect = float(np.max(np.abs(L - L.T)) / np.max(np.abs(L)))
    L = 0.5 * (L + L.T)

    fb = params.value(grid.nodes)
    wfb = grid.omega * fb
    r1 = float(np.linalg.norm(L @ fb) / np.linalg.norm(fb))
    r2 = float(np.linalg.norm(L @ wfb) / np.linalg.norm(wfb))
    tol_ker = max(r1, r2)
    spectral_tol = max(spectral_floor, 10.0 * tol_ker)

    evals, evecs = np.linalg.eigh(L)
    if float(evals[-1]) > spectral_tol:
        raise SpectralError(
            f"positive eigenvalue {evals[-1]:.3e} exceeds spectral_tol {spectral_tol:.3e}")
    n_null = int(np.sum(np.abs(evals) <= spectral_tol))
    if n_null != 2:
        raise SpectralError(
            f"{n_null} eigenvalues within +-{spectral_tol:.3e} of zero; expected 2")

    a = multiplier_a(params, grid)
    return LinOperator(grid=grid, params=params, a=a, matrix=L,
                       eigenvalues=evals, eigenvectors=evecs,
                       spectral_tol=spectral_tol,
                       kernel_residuals=(r1, r2), sym_defect=sym_defect,
                       interp=interp)


# ---------------------------------------------------------------------------
# semigroup, projections, decay measurement

def semigroup_apply(op: LinOperator, g0: Field, t: float) -> Field:
    """e^{tL} g0 through the eigendecomposition; exact in time."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return g0.copy()
    c = op.eigenvectors.T @ g0.values
    vals = op.eigenvectors @ (np.exp(op.eigenvalues * t) * c)
    return Field(op.grid, vals)


def project_out_kernel(op: LinOperator, g: Field) -> Field:
    """Remove the discrete-L^2 projection onto span{fb, omega*fb}."""
    q = op.kernel_basis()
    vals = g.values - q @ (q.T @ g.values)
    return Field(op.grid, vals)


def subspace_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Largest principal angle (radians) between the column spans of u and v."""
    qu, _ = np.linalg.qr(u)
    qv, _ = np.linalg.qr(v)
    sv = np.linalg.svd(qu.T @ qv, compute_uv=False)
    return float(np.arccos(np.clip(np.min(sv), -1.0, 1.0)))


def decay_initial_data(params: RjParams, grid: Grid, nu: float = 0.5,
                       profile=None) -> Field:
    """Kernel-orthogonal data with the sharp omega^nu edge profile.

    Orthogonality to {fb, omega*fb} is arranged with compensators one power
    of omega steeper, so the edge vanishing rate omega^nu survives; plain
    projection would add a multiple of fb and destroy it.
    """
    p = grid.nodes
    om = grid.omega
    prof = np.ones_like(p) if profile is None else np.asarray(profile(p), dtype=float)
    v = om ** nu * prof
    u1 = om ** (nu + 1.0)
    u2 = om ** (nu + 1.0) * np.cos(p)
    fb = params.value(p)
    k1, k2 = fb, om * fb
    A = np.array([[u1 @ k1, u2 @ k1], [u1 @ k2, u2 @ k2]])
    al, be = np.linalg.solve(A, np.array([v @ k1, v @ k2]))
    return Field(grid, v - al * u1 - be * u2)


def measure_linear_decay(op: LinOperator, g0: Field, mu: float, nu: float,
                         t_grid=None, fit_window=None) -> DecayReport:
    """Weighted sup-norm decay of e^{tL} g0 with a log-log power fit."""
    if not (1.0 / 6.0 - 1e-12 <= mu <= 0.5 + 1e-12):
        raise ValueError("mu must lie in [1/6, 1/2]")
    if not (1.0 / 6.0 - 1e-12 <= nu <= 0.5 + 1e-12):
        raise ValueError("nu must lie in [1/6, 1/2]")
    if t_grid is None:
        t_grid = np.geomspace(10.0, 1.0e3, 64)
    t_grid = np.asarray(t_grid, dtype=float)
    if fit_window is None:
        fit_window = (float(t_grid[-1]) / 10.0, float(t_grid[-1]))
    if np.sum((t_grid >= fit_window[0]) & (t_grid <= fit_window[1])) < 8:
        raise FitError("fewer than 8 points in the fit window")

    c = op.eigenvectors.T @ g0.values
    wmu = op.grid.omega ** mu
    series = []
    for t in t_grid:
        vals = op.eigenvectors @ (np.exp(op.eigenvalues * t) * c)
        series.append((float(t), float(np.max(wmu * np.abs(vals)))))
    exponent, stderr = fit_power_law(series, fit_window)
    return DecayReport(exponent=exponent, stderr=stderr,
                       fit_window=fit_window, series=series)


def bulk_edge_functionals(g: Field, t: float, alpha: float):
    """(bulk mass, edge mass, edge sup) for the partition at scale <t>^-alpha."""
    if not (0.0 < alpha < 0.6):
        raise ValueError("alpha must lie in (0, 3/5)")
    r = (T_BRACKET + abs(t)) ** (-alpha)
    p = g.grid.nodes
    edge = (p < r) | (p > TWO_PI - r)
    w = g.grid.weight
    m = float(w * np.sum(g.values[~edge] ** 2))
    n_edge = float(w * np.sum(g.values[edge] ** 2))
    q = float(np.max(np.abs(g.values[edge]))) if np.any(edge) else 0.0
    return m, n_edge, q


# ---------------------------------------------------------------------------
# binary cache

_MAGIC = b"PHLNOP01"
_HEADER_BYTES = 8 + 32 + 40  # magic tag, key (n, interp, beta, gamma), 5 diagnostics


def save_operator(op: LinOperator, path) -> None:
    """Binary cache: key header plus little-endian float64 payload.  It is
    written to a temporary file beside `path` and renamed into place, so
    `path` never holds a partly written file."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            interp_code = 0 if op.interp == "linear" else 1
            fh.write(struct.pack("<qqdd", op.grid.n, interp_code,
                                 op.params.beta, op.params.gamma))
            fh.write(struct.pack("<ddddd", op.spectral_tol, *op.kernel_residuals,
                                 op.sym_defect, 0.0))
            for arr in (op.a.values, op.matrix, op.eigenvalues, op.eigenvectors):
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_operator(path) -> LinOperator:
    """Read a cache file.  Raises ValueError when the magic tag is wrong or
    the file size is not the one its header implies (a truncated file)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_BYTES)
        if len(head) < _HEADER_BYTES or head[:8] != _MAGIC:
            raise ValueError(f"{path} is not an operator cache file")
        n, interp_code, beta, gamma, spectral_tol, r1, r2, sym_defect, _ = \
            struct.unpack_from("<qq7d", head, 8)
        size = os.fstat(fh.fileno()).st_size
        want = _HEADER_BYTES + 8 * (2 * n + 2 * n * n)
        if size != want:
            raise ValueError(f"{path} has {size} bytes; its header (n={n}) implies {want}")
        grid = Grid(int(n))
        a = np.frombuffer(fh.read(8 * n), dtype="<f8").copy()
        matrix = np.frombuffer(fh.read(8 * n * n), dtype="<f8").reshape(n, n).copy()
        evals = np.frombuffer(fh.read(8 * n), dtype="<f8").copy()
        evecs = np.frombuffer(fh.read(8 * n * n), dtype="<f8").reshape(n, n).copy()
    params = RjParams(beta=beta, gamma=gamma)
    return LinOperator(grid=grid, params=params, a=Field(grid, a), matrix=matrix,
                       eigenvalues=evals, eigenvectors=evecs,
                       spectral_tol=spectral_tol, kernel_residuals=(r1, r2),
                       sym_defect=sym_defect,
                       interp="linear" if interp_code == 0 else "cubic")


def load_or_assemble(params: RjParams, grid: Grid, cache_dir=None,
                     interp: str = "linear") -> LinOperator:
    """Assemble L or reuse a cache file keyed by (n, beta, gamma, interp)."""
    if cache_dir is None:
        return assemble(params, grid, interp)
    d = Path(cache_dir)
    d.mkdir(parents=True, exist_ok=True)
    key = f"linop_n{grid.n}_b{params.beta:.12g}_g{params.gamma:.12g}_{interp}.bin"
    path = d / key
    try:
        op = load_operator(path) if path.exists() else None
    except ValueError:  # a foreign or truncated file is a miss: overwritten below
        op = None
    if op is not None and (op.grid.n, op.params, op.interp) == (grid.n, params, interp):
        return op
    op = assemble(params, grid, interp)
    save_operator(op, path)
    return op
