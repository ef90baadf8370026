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
stencils with np.add.at straight into the accumulators of the two blocks
below, entry by entry in table order, so the bits of L depend neither on
the sub-block size nor on the worker count, and neither an (n^2 x n)
matrix, nor a whole table, nor an n^2 array is formed: the memory is the
accumulators and the blocks, n^2 / 2 doubles each, plus the table blocks
in flight and one sub-block's temporaries.

Parity.  The reflection p -> 2pi - p maps node k of the midpoint grid onto
node n - 1 - k, and it keeps every Rayleigh-Jeans equilibrium and the
resonance conditions, so L commutes with the reversal R.  The stream is
the half of the table that R maps onto the other half: the pairs
i + j < n - 1, and the self-mirror pairs i + j = n - 1 at half weight
(the half table of `collision`, streamed by `_packed_blocks`).  It sums
L_h, and L = L_h + R L_h R.  For n = 2m, let A and B be the top m rows of
L, split into the first and the last m columns, and J the reversal of m
entries.  A symmetric matrix that commutes with R is, in the basis of the
even vectors [x; Jx] and the odd vectors [x; -Jx], the sum of the even
block E = A + BJ and the odd block O = A - BJ (Cantoni & Butler, Linear
Algebra Appl. 13 (1976) 275-288).  Only E, O and their eigenpairs are
held, never the n x n eigenproblem; every L g of a subcommand is
`LinOperator.apply`, block by block (the tests form the dense L as
`apply` on the identity).  E[p, q] and O[p, q] sum the four L_h[r, c]
with r in {p, n-1-p} and c in {q, n-1-q}, O with a minus sign where r and
c lie on opposite sides of n/2.  fb is even, so the assembly scatters into
two m x m accumulators at the folded nodes min(k, n-1-k), S (same side)
and X (opposite sides), and E, O = c ((S + S^T) +- (X + X^T)) / (fb fb^T):
symmetric matrices scaled by a symmetric outer product: symmetric to the bit.
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
from .grid import Field, Grid, _stencil_shape, lagrange_weights
from .manifold import TWO_PI, resonant_kernel
from .quadrature import graded_midpoint_nodes

T_BRACKET = 10.0  # time bracket in <t> = 10 + |t|
SPECTRAL_FLOOR = 1e-8  # least half-width of the near-null eigenvalue band
DECAY_NU = 0.5  # edge exponent nu of decay_initial_data: g0 ~ omega^nu
# stencil-pair values per sub-block of the weak-form assembly, and values per
# row chunk of the two blocks formed from it: 512 KiB per float64 temporary
# (2,048 table entries with linear interpolation), under the mmap threshold
# that `collision` pins, so the heap reuses its pages
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
    half-table blocks of `_packed_blocks`, so no whole table is built or
    cached, and adds the reflection of their sum: a = a_h + R a_h.
    """
    fb = params.value(grid.nodes)
    a = np.zeros(grid.n)
    for tab in _packed_blocks(grid, "linear"):
        a += _frequency_sums(tab, fb, params.value(tab.P1), params.value(tab.P3))
        del tab  # before the next block is built: the blocks alive set the peak
    return Field(grid, grid.weight * (a + a[::-1]) / fb)


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

def _halves(g: np.ndarray) -> tuple:
    """(u, w), the even and odd parts of a vector (or of the columns of an
    (n, k) array) on its top half: g = [u + w; J(u - w)]."""
    m = g.shape[0] // 2
    top, bot = g[:m], g[::-1][:m]
    return (top + bot) / 2.0, (top - bot) / 2.0


def _join(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[u + w; J(u - w)], the inverse of `_halves`."""
    return np.concatenate([u + w, (u - w)[::-1]])


def _apply(blocks, g: np.ndarray) -> np.ndarray:
    """L g from the even and odd blocks: [Eu + Ow; J(Eu - Ow)]."""
    u, w = _halves(g)
    return _join(blocks[0] @ u, blocks[1] @ w)


@dataclass
class LinOperator:
    """L as its even and odd blocks E and O (module doc), with each block's
    eigenpairs: `eighs` holds (eigenvalues, eigenvectors) of E, then of O."""
    grid: Grid
    params: RjParams
    a: Field
    blocks: tuple = field(repr=False)
    eighs: tuple = field(repr=False)
    spectral_tol: float
    kernel_residuals: tuple
    sym_defect: float
    interp: str

    @property
    def equilibrium(self) -> Field:
        return rj_field(self.params, self.grid)

    @property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues of L, ascending: those of both blocks merged."""
        return np.sort(np.concatenate([lam for lam, _ in self.eighs]))

    @property
    def matrix(self) -> np.ndarray:
        """L itself, as `apply` on the identity: a new n x n array per read.
        No run reads it; it stays because `perfbench/spans.py` reads its size."""
        return self.apply(np.eye(self.grid.n))

    def apply(self, g: np.ndarray) -> np.ndarray:
        """L g for a vector or the columns of an (n, k) array, block-wise."""
        return _apply(self.blocks, g)

    def kernel_basis(self) -> np.ndarray:
        """Orthonormal basis of span{fb, omega*fb} in the discrete pairing."""
        fb = self.equilibrium.values
        q, _ = np.linalg.qr(np.stack([fb, self.grid.omega * fb], axis=1))
        return q

    def near_null_count(self) -> int:
        return int(np.sum(np.abs(self.eigenvalues) <= self.spectral_tol))

    def near_null_vectors(self) -> np.ndarray:
        """The even block's near-null eigenvectors v, lifted to [v; Jv]/sqrt 2
        (`assemble` checks that the odd block has none)."""
        lam, V = self.eighs[0]
        v = V[:, np.abs(lam) <= self.spectral_tol]
        return np.vstack([v, v[::-1]]) / np.sqrt(2.0)


def _add_block(acc: np.ndarray, tab, params: RjParams, fb: np.ndarray) -> np.ndarray:
    """Add the stencil products of one table block into acc, S then X flat
    (module doc), entry by entry in table order, and return the block's
    frequency sums (`_frequency_sums`).  fb at P1 and P3 is evaluated once
    for both.  Sub-blocks hold _BLOCK_VALUES stencil-pair values, and each
    derives the nodes and weights of its stencils (`grid.lagrange_weights`)."""
    n = fb.size
    m = n // 2
    mm = m * m
    fb1, fb3 = params.value(tab.P1), params.value(tab.P3)
    sums = _frequency_sums(tab, fb, fb1, fb3)
    measure = tab.W * fb[tab.i] * fb1 * fb[tab.j] * fb3
    del fb1, fb3  # before the sub-blocks, whose temporaries set the peak
    # the row and column codes of node k: fold k = min(k, n - 1 - k), plus mm
    # on the far side of n/2, so the pair (r, c) lands at (fold r) m +
    # fold c + mm (far r + far c) mod 2 mm: in S on one side, in X across
    k = np.arange(n)
    fold, far = np.minimum(k, n - 1 - k), (k >= m) * mm
    row, col = fold * m + far, fold + far
    ta, tb = np.triu_indices(2 * _stencil_shape(tab.interp)[0] + 2)
    half = np.where(ta == tb, 0.5, 1.0)
    # entries per sub-block: the largest power of two whose pair values fit
    # in _BLOCK_VALUES (so it divides a power-of-two table block)
    step = 1 << (max(1, _BLOCK_VALUES // ta.size).bit_length() - 1)
    for b0 in range(0, tab.W.size, step):
        s = slice(b0, b0 + step)
        (i3, w3), (i1, w1) = (lagrange_weights(n, (q[s], t[s]), tab.interp)
                              for q, t in (tab.i3, tab.i1))
        # one row per entry, so the scatter below runs in table order
        idx = np.stack([*i3, tab.j[s], tab.i[s], *i1], axis=1)
        cell = row[idx][:, ta] + col[idx][:, tb]
        del idx  # before the pair values
        np.subtract(cell, 2 * mm, out=cell, where=cell >= 2 * mm)  # both far: in S
        c = np.stack(np.broadcast_arrays(*w3, 1.0, -1.0, *(-w for w in w1)), axis=1)
        mc = c * measure[s, None]  # (c_a measure) c_b, of measure_r s_r s_r^T
        np.add.at(acc, cell.ravel(), (half * mc[:, ta] * c[:, tb]).ravel())
    return sums


def _weak_form_matrix(params: RjParams, grid: Grid, interp: str):
    """(E, O, a): L from its Dirichlet form as its even and odd blocks,
    assembled stencil by stencil from half of the table (module doc), and
    the collision frequency a from the same tables, bit for bit that of
    `multiplier_a`.

    Each streamed half-table block of `_packed_blocks` (no whole table is
    built or cached) adds measure_r c_a c_b, for every pair a <= b of
    stencil entries with diagonal pairs halved, into S or X (`_add_block`)
    in table order, so each of their entries is summed in the same order
    whatever the block sizes and the worker count.  E and O are then formed
    a chunk of rows at a time.
    """
    n = grid.n
    m = n // 2
    fb = params.value(grid.nodes)
    a = np.zeros(n)
    acc = np.zeros(2 * m * m)
    for tab in _packed_blocks(grid, interp):
        a += _add_block(acc, tab, params, fb)
        del tab  # before the next block is built: the blocks alive set the peak
    S, X = acc.reshape(2, m, m)
    inv_fb = 1.0 / fb[:m]
    scale = -(grid.weight / 2.0)  # L = -(weight / 4) Q / (fb fb^T)
    E, O = np.empty((2, m, m))
    step = max(1, _BLOCK_VALUES // m)
    for r0 in range(0, m, step):
        k = slice(r0, r0 + step)
        w = inv_fb[k, None] * inv_fb
        ss = S[k] + S[:, k].T  # rows k of S + S^T
        xx = X[k] + X[:, k].T
        E[k] = (ss + xx) * w * scale
        O[k] = (ss - xx) * w * scale
    return E, O, grid.weight * (a + a[::-1]) / fb


def _check_parity(even: np.ndarray, odd: np.ndarray, spectral_tol: float) -> None:
    """Raise SpectralError unless the even block's eigenvalues lie at most
    spectral_tol above zero with exactly two (the conservation modes) within
    +-spectral_tol, and the odd block's lie strictly below -spectral_tol."""
    if float(even[-1]) > spectral_tol:
        raise SpectralError(
            f"positive eigenvalue {even[-1]:.3e} exceeds spectral_tol {spectral_tol:.3e}")
    n_null = int(np.sum(np.abs(even) <= spectral_tol))
    if n_null != 2:
        raise SpectralError(f"{n_null} eigenvalues of the even block within "
                            f"+-{spectral_tol:.3e} of zero; expected the 2 conservation modes")
    if not float(odd[-1]) < -spectral_tol:
        raise SpectralError(f"the odd block's top eigenvalue {odd[-1]:.3e} is not below "
                            f"-spectral_tol = {-spectral_tol:.3e}")


def assemble(params: RjParams, grid: Grid, interp: str = "linear") -> LinOperator:
    """Assemble L as its even and odd blocks, eigendecompose each, and
    verify its spectral structure.

    Raises ConfigError for gamma <= 0, n < 64 or an odd n (the blocks need
    n even), and SpectralError (`_check_parity`) unless the even block holds
    both conservation modes, exactly two eigenvalues within the spectral
    tolerance and none above it, and the odd block lies strictly below it.
    """
    if params.gamma <= 0.0:
        raise ConfigError("the linearized analysis requires gamma > 0")
    if grid.n < 64:
        raise ConfigError("assemble needs n >= 64")
    if grid.n % 2:
        raise ConfigError(f"assemble needs an even n, got {grid.n}: L splits into the "
                          "even and odd blocks of the reflection p -> 2pi - p")
    E, O, a = _weak_form_matrix(params, grid, interp)
    blocks = (E, O)
    sym_defect = max(float(np.max(np.abs(B - B.T))) for B in blocks) \
        / max(float(np.max(np.abs(B))) for B in blocks)

    fb = params.value(grid.nodes)
    wfb = grid.omega * fb
    r1 = float(np.linalg.norm(_apply(blocks, fb)) / np.linalg.norm(fb))
    r2 = float(np.linalg.norm(_apply(blocks, wfb)) / np.linalg.norm(wfb))
    spectral_tol = max(SPECTRAL_FLOOR, 10.0 * max(r1, r2))

    eighs = tuple(np.linalg.eigh(B) for B in blocks)
    _check_parity(eighs[0][0], eighs[1][0], spectral_tol)
    return LinOperator(grid=grid, params=params, a=Field(grid, a), blocks=blocks,
                       eighs=eighs, spectral_tol=spectral_tol,
                       kernel_residuals=(r1, r2), sym_defect=sym_defect,
                       interp=interp)


# ---------------------------------------------------------------------------
# semigroup, projections, decay measurement

def semigroup_apply(op: LinOperator, g0: Field, times) -> np.ndarray:
    """e^{tL} g0 for every t in `times`, exact in time: one row per time.
    g0's even and odd parts each run through their block's
    eigendecomposition, V (exp(lambda t^T) * V^T u), in one product per
    block.  A row at t = 0 is g0 bit for bit.  Raises ValueError on a
    negative or non-finite time."""
    t = np.asarray(times, dtype=float)
    bad = t[~((0.0 <= t) & (t < np.inf))]  # NaN included
    if bad.size:
        raise ValueError(f"a time must be nonnegative and finite, got {bad[0]}")
    states = _join(*(V @ (np.exp(np.outer(lam, t)) * (V.T @ u)[:, None])
                     for (lam, V), u in zip(op.eighs, _halves(g0.values)))).T
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
    return [DecayReport(*fit_power_law(s, fit_window), s) for s in series]


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
# 06: the even and odd blocks from half of the table; L differs at rounding
# 07: the blocks scattered straight from the folded nodes; E, O differ at rounding
_MAGIC = b"PHLNOP07"
# magic tag, key (n, interp, beta, gamma), 4 diagnostics, crc32 of the payload
_HEADER_BYTES = 8 + 32 + 40


def save_operator(op: LinOperator, path) -> None:
    """Binary cache: key header plus little-endian float64 payload (a, E, O
    and each block's eigenpairs).  It is written to a temporary file beside
    `path` and renamed into place, so `path` never holds a partly written
    file."""
    (lam_e, v_e), (lam_o, v_o) = op.eighs
    payload = [np.ascontiguousarray(arr, dtype="<f8")
               for arr in (op.a.values, *op.blocks, lam_e, v_e, lam_o, v_o)]
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
        m = n // 2  # a, E, O, then each block's eigenvalues and eigenvectors
        shapes = (n, (m, m), (m, m), m, (m, m), m, (m, m))
        want = _HEADER_BYTES + 8 * sum(int(np.prod(s)) for s in shapes)
        if size != want or n < 2 or n % 2:
            raise ValueError(f"{path} has {size} bytes; its header (n={n}) implies {want}")
        a, E, O, lam_e, v_e, lam_o, v_o = payload = \
            [np.empty(shape, dtype="<f8") for shape in shapes]
        got = 0
        for arr in payload:
            fh.readinto(arr)
            got = zlib.crc32(arr, got)
    if got != crc:
        raise ValueError(f"{path} fails its checksum")
    grid = Grid(int(n))
    params = RjParams(beta=beta, gamma=gamma)
    return LinOperator(grid=grid, params=params, a=Field(grid, a), blocks=(E, O),
                       eighs=((lam_e, v_e), (lam_o, v_o)),
                       spectral_tol=spectral_tol, kernel_residuals=(r1, r2),
                       sym_defect=sym_defect,
                       interp="linear" if interp_code == 0 else "cubic")


def load_or_assemble(params: RjParams, grid: Grid, cache_dir=None,
                     interp: str = "linear") -> LinOperator:
    """Assemble L or reuse a cache file keyed by (n, beta, gamma, interp)."""
    if cache_dir is None:
        return assemble(params, grid, interp)
    d = Path(cache_dir)
    key = f"linop_n{grid.n}_b{params.beta:.12g}_g{params.gamma:.12g}_{interp}.bin"
    path = d / key
    try:
        op = load_operator(path) if path.exists() else None
    except ValueError:  # a foreign, truncated or damaged file is a miss: overwritten below
        op = None
    if op is not None and (op.grid.n, op.params, op.interp) == (grid.n, params, interp):
        return op
    op = assemble(params, grid, interp)
    d.mkdir(parents=True, exist_ok=True)  # after assemble, which refuses bad input
    save_operator(op, path)
    return op
