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

(The tests evaluate K1 and K2 pointwise, as independent oracles.)  The
dense matrix is not assembled from these rows directly.  Row quadrature
and column quadrature of K1 disagree at the fold points of the
parameterization, and patching that up by averaging M and M^T pollutes the
discrete kernel.  Instead the matrix is built from the Dirichlet form

    <-L g, g> = (1/4) int (measure) [r3 + r2 - r0 - r1]^2,   r = g / fb,

discretized with the same tensor rule as the collision operator.  The
result is symmetric (to the bit) and negative semidefinite in exact
arithmetic, has fb in its null space to rounding (interpolation is applied
to the ratio r, and the ratio of the equilibrium is constant), and
annihilates omega*fb to interpolation accuracy.

The quadratic form is assembled element by element, as finite-element
matrices are in vector languages (Cuvelier, Japhet & Scarella, BIT 2016).
Pair r = (i, j) of the tensor rule has a short stencil s_r on the nodes,
+w3 at the p3 interpolation nodes, +1 at j, -1 at i and -w1 at the p1
interpolation nodes (6 entries for linear interpolation, 10 for cubic), and
Q = sum_r measure_r s_r s_r^T.  The measure is symmetric under the exchange
of the p0 and p2 nodes and s_(j,i) = -s_(i,j), so each pair of the packed
resonance table counts twice and the sum runs over j > i only.  Small
sub-blocks of the streamed table add the upper-triangle products of their
stencils into one dense accumulator with np.add.at, entry by entry in table
order, so the bits of L depend neither on the sub-block size nor on the
worker count, and neither an (n^2 x n) matrix, nor a whole table, nor an
n^2 temporary per sub-block is formed: the memory is the dense result plus
the table blocks in flight and one sub-block's temporaries.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .collision import _packed_blocks
from .equilibria import RjParams, rj_field
from .errors import ConfigError, FitError, SpectralError
from .fitting import DecayReport, fit_power_law
from .grid import Field, Grid
from .manifold import TWO_PI, resonant_kernel
from .quadrature import graded_midpoint_nodes

T_BRACKET = 10.0  # time bracket in <t> = 10 + |t|
SPECTRAL_FLOOR = 1e-8  # least half-width of the near-null eigenvalue band
DECAY_NU = 0.5  # edge exponent nu of decay_initial_data: g0 ~ omega^nu
# stencil-pair values per sub-block of the weak-form assembly: 512 KiB per
# float64 temporary (2,048 table entries with linear interpolation), under
# the mmap threshold that `collision` pins, so the heap reuses its pages
_BLOCK_VALUES = 1 << 16


# ---------------------------------------------------------------------------
# multiplier

def _frequency_sums(tab, fb: np.ndarray, fb1: np.ndarray, fb3: np.ndarray) -> np.ndarray:
    """a fb / weight from the entries of one table block, given fb at its P1
    and P3: W fb1 fb3 times fb2, for both orders of each pair (the exchange
    swaps fb1 and fb3, and fb2 becomes the other node's).  The geometry does
    not depend on the interpolation order."""
    m = tab.W * fb1 * fb3
    return np.bincount(tab.i, m * fb[tab.j], minlength=fb.size) \
        + np.bincount(tab.j, m * fb[tab.i], minlength=fb.size)


def multiplier_a(params: RjParams, grid: Grid) -> Field:
    """Collision frequency a(p) on the grid, by the nodal tensor rule.

    Uses the same nodes as the matrix assembly so that the diagonal and
    integral parts of L see identical quadrature (`assemble` takes a from
    the same blocks in its own pass, with the same bits).  Reads the streamed
    table blocks of `_packed_blocks`, so no whole table is built or cached.
    """
    fb = params.value(grid.nodes)
    a = np.zeros(grid.n)
    for tab in _packed_blocks(grid, "linear"):
        a += _frequency_sums(tab, fb, params.value(tab.P1), params.value(tab.P3))
        del tab  # before the next block is built: the blocks alive set the peak
    return Field(grid, grid.weight * a / fb)


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
    spectral_tol: float
    kernel_residuals: tuple
    sym_defect: float
    interp: str

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


def _add_block(A: np.ndarray, tab, params: RjParams, fb: np.ndarray) -> np.ndarray:
    """Add the stencil products of one table block into the flat n^2
    accumulator A, entry by entry in table order, and return the block's
    frequency sums (`_frequency_sums`).  fb at P1 and P3 is evaluated once
    for both.  Sub-blocks hold _BLOCK_VALUES stencil-pair values."""
    n = fb.size
    fb1, fb3 = params.value(tab.P1), params.value(tab.P3)
    sums = _frequency_sums(tab, fb, fb1, fb3)
    measure = tab.W * fb[tab.i] * fb1 * fb[tab.j] * fb3
    del fb1, fb3  # before the sub-blocks, whose temporaries set the peak
    (i3, w3), (i1, w1) = tab.i3, tab.i1
    ta, tb = np.triu_indices(2 * len(i1) + 2)
    half = np.where(ta == tb, 0.5, 1.0)
    # entries per sub-block: the largest power of two whose pair values fit
    # in _BLOCK_VALUES (so it divides a power-of-two table block)
    step = 1 << (max(1, _BLOCK_VALUES // ta.size).bit_length() - 1)
    for b0 in range(0, tab.W.size, step):
        s = slice(b0, b0 + step)
        i, j = tab.i[s], tab.j[s]
        # one row per entry, so the scatter below runs in table order
        idx = np.stack([*(k[s] for k in i3), j, i, *(k[s] for k in i1)], axis=1)
        c = np.stack(np.broadcast_arrays(*(w[s] for w in w3), 1.0, -1.0,
                                         *(-w[s] for w in w1)), axis=1)
        mc = c * measure[s, None]  # (c_a measure) c_b, as S^T diag(measure) S
        np.add.at(A, (idx[:, ta] * n + idx[:, tb]).ravel(),
                  (half * mc[:, ta] * c[:, tb]).ravel())
    return sums


def _weak_form_matrix(params: RjParams, grid: Grid, interp: str):
    """(L, a): L from its Dirichlet form, assembled stencil by stencil
    (module doc), and the collision frequency a from the same tables, bit
    for bit that of `multiplier_a`.

    A collects measure_r c_a c_b at (node_a, node_b) for every pair a <= b
    of stencil entries, diagonal pairs halved, so A + A^T sums
    measure_r s_r s_r^T over the pairs j > i: half of Q.  The table
    arrives as the streamed blocks of `_packed_blocks` (no whole table is
    built or cached), and `_add_block` adds each into A in table order, so
    every entry of A is summed in the same order whatever the block sizes
    and the worker count.  L scales Q by the outer product of 1/fb, which
    commutes, so L equals L^T to the bit.
    """
    n = grid.n
    fb = params.value(grid.nodes)
    a = np.zeros(n)
    A = np.zeros(n * n)
    for tab in _packed_blocks(grid, interp):
        a += _add_block(A, tab, params, fb)
        del tab  # before the next block is built: the blocks alive set the peak
    A = A.reshape(n, n)
    L = A + A.T  # Q / 2, scaled in place to L = -(weight / 4) Q / (fb fb^T)
    del A  # so L is the only other n^2 array alive beside the outer product below
    inv_fb = 1.0 / fb
    L *= inv_fb[:, None] * inv_fb[None, :]
    L *= -(grid.weight / 2.0)
    return L, grid.weight * a / fb


def assemble(params: RjParams, grid: Grid, interp: str = "linear") -> LinOperator:
    """Assemble L, eigendecompose, and verify its spectral structure.

    Raises SpectralError if any eigenvalue exceeds the spectral tolerance or
    if the near-null band does not contain exactly the two conservation
    modes.
    """
    if params.gamma <= 0.0:
        raise ConfigError("the linearized analysis requires gamma > 0")
    if grid.n < 64:
        raise ConfigError("assemble needs n >= 64")
    L, a = _weak_form_matrix(params, grid, interp)
    sym_defect = float(np.max(np.abs(L - L.T)) / np.max(np.abs(L)))

    fb = params.value(grid.nodes)
    wfb = grid.omega * fb
    r1 = float(np.linalg.norm(L @ fb) / np.linalg.norm(fb))
    r2 = float(np.linalg.norm(L @ wfb) / np.linalg.norm(wfb))
    tol_ker = max(r1, r2)
    spectral_tol = max(SPECTRAL_FLOOR, 10.0 * tol_ker)

    evals, evecs = np.linalg.eigh(L)
    if float(evals[-1]) > spectral_tol:
        raise SpectralError(
            f"positive eigenvalue {evals[-1]:.3e} exceeds spectral_tol {spectral_tol:.3e}")
    n_null = int(np.sum(np.abs(evals) <= spectral_tol))
    if n_null != 2:
        raise SpectralError(
            f"{n_null} eigenvalues within +-{spectral_tol:.3e} of zero; expected 2")

    return LinOperator(grid=grid, params=params, a=Field(grid, a), matrix=L,
                       eigenvalues=evals, eigenvectors=evecs,
                       spectral_tol=spectral_tol,
                       kernel_residuals=(r1, r2), sym_defect=sym_defect,
                       interp=interp)


# ---------------------------------------------------------------------------
# semigroup, projections, decay measurement

def semigroup_apply(op: LinOperator, g0: Field, times) -> np.ndarray:
    """e^{tL} g0 for every t in `times`, exact in time: one row per time,
    all from one product V (exp(lambda t^T) * V^T g0) through the
    eigendecomposition L = V diag(lambda) V^T.  A row at t = 0 is g0 bit for
    bit.  Raises ValueError on a negative or non-finite time."""
    t = np.asarray(times, dtype=float)
    bad = t[~((0.0 <= t) & (t < np.inf))]  # NaN included
    if bad.size:
        raise ValueError(f"a time must be nonnegative and finite, got {bad[0]}")
    c = op.eigenvectors.T @ g0.values
    states = (op.eigenvectors @ (np.exp(np.outer(op.eigenvalues, t)) * c[:, None])).T
    states[t == 0.0] = g0.values
    return states


def subspace_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Largest principal angle (radians) between the column spans of u and v."""
    qu, _ = np.linalg.qr(u)
    qv, _ = np.linalg.qr(v)
    sv = np.linalg.svd(qu.T @ qv, compute_uv=False)
    return float(np.arccos(np.clip(np.min(sv), -1.0, 1.0)))


def decay_initial_data(params: RjParams, grid: Grid) -> Field:
    """Kernel-orthogonal data with the sharp omega^nu edge profile,
    nu = DECAY_NU.

    Orthogonality to {fb, omega*fb} is arranged with compensators one power
    of omega steeper, so the edge vanishing rate omega^nu survives; plain
    projection would add a multiple of fb and destroy it.
    """
    nu = DECAY_NU
    p = grid.nodes
    om = grid.omega
    v = om ** nu
    u1 = om ** (nu + 1.0)
    u2 = om ** (nu + 1.0) * np.cos(p)
    fb = params.value(p)
    k1, k2 = fb, om * fb
    A = np.array([[u1 @ k1, u2 @ k1], [u1 @ k2, u2 @ k2]])
    al, be = np.linalg.solve(A, np.array([v @ k1, v @ k2]))
    return Field(grid, v - al * u1 - be * u2)


def measure_linear_decay(op: LinOperator, g0: Field, mus,
                         t_grid, fit_window) -> list:
    """sup omega^mu |e^{tL} g0| at the times t_grid for each weight mu in
    `mus`, every weight read from one `semigroup_apply` call, each with a
    log-log power fit over fit_window: one DecayReport per weight."""
    if not all(1.0 / 6.0 - 1e-12 <= mu <= 0.5 + 1e-12 for mu in mus):
        raise ValueError("mu must lie in [1/6, 1/2]")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.sum((t_grid >= fit_window[0]) & (t_grid <= fit_window[1])) < 8:
        raise FitError("fewer than 8 points in the fit window")
    states = np.abs(semigroup_apply(op, g0, t_grid))
    series = [list(zip(t_grid.tolist(), np.max(op.grid.omega ** mu * states, axis=1).tolist()))
              for mu in mus]
    return [DecayReport(*fit_power_law(s, fit_window), fit_window, s) for s in series]


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

# 01: sparse assembly, no checksum; 02: full table; 03: per-sub-block bincount,
# whose L differs at rounding from the table-order np.add.at of 04
# 05: W from the triple-product identity; L differs at rounding from 04
_MAGIC = b"PHLNOP05"
# magic tag, key (n, interp, beta, gamma), 4 diagnostics, crc32 of the payload
_HEADER_BYTES = 8 + 32 + 40


def save_operator(op: LinOperator, path) -> None:
    """Binary cache: key header plus little-endian float64 payload.  It is
    written to a temporary file beside `path` and renamed into place, so
    `path` never holds a partly written file."""
    payload = [np.ascontiguousarray(arr, dtype="<f8")
               for arr in (op.a.values, op.matrix, op.eigenvalues, op.eigenvectors)]
    crc = 0
    for arr in payload:
        crc = zlib.crc32(arr, crc)
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            interp_code = 0 if op.interp == "linear" else 1
            fh.write(struct.pack("<qqdd", op.grid.n, interp_code,
                                 op.params.beta, op.params.gamma))
            fh.write(struct.pack("<ddddQ", op.spectral_tol, *op.kernel_residuals,
                                 op.sym_defect, crc))
            for arr in payload:
                fh.write(arr)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_operator(path) -> LinOperator:
    """Read a cache file.  Raises ValueError when the magic tag is wrong, the
    file size is not the one its header implies (a truncated file) or the
    payload does not match its checksum."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_BYTES)
        if len(head) < _HEADER_BYTES or head[:8] != _MAGIC:
            raise ValueError(f"{path} is not an operator cache file")
        n, interp_code, beta, gamma, spectral_tol, r1, r2, sym_defect, crc = \
            struct.unpack_from("<qq6dQ", head, 8)
        size = os.fstat(fh.fileno()).st_size
        want = _HEADER_BYTES + 8 * (2 * n + 2 * n * n)
        if size != want:
            raise ValueError(f"{path} has {size} bytes; its header (n={n}) implies {want}")
        a, matrix, evals, evecs = payload = \
            [np.empty(shape, dtype="<f8") for shape in (n, (n, n), n, (n, n))]
        got = 0
        for arr in payload:
            fh.readinto(arr)
            got = zlib.crc32(arr, got)
    if got != crc:
        raise ValueError(f"{path} fails its checksum")
    grid = Grid(int(n))
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
    except ValueError:  # a foreign, truncated or damaged file is a miss: overwritten below
        op = None
    if op is not None and (op.grid.n, op.params, op.interp) == (grid.n, params, interp):
        return op
    op = assemble(params, grid, interp)
    save_operator(op, path)
    return op
