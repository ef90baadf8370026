"""Linearized collision operator around a Rayleigh-Jeans equilibrium.

For f = fb (1 + g) the perturbation evolves, to first order, by L = -A + K
with multiplier [Ag](p) = a(p) g(p),

    a(p) = (omega(p)/fb(p)) int omega1 omega2 omega3 fb1 fb2 fb3
                                 / sqrt(F+(p, p2)) dp2,

and an integral part K = -K1 + 2 K2, whose kernels `tests/oracles.py`
evaluates pointwise.  L is not assembled from K's rows: row and column
quadrature of K1 disagree at the fold points of the parameterization.  It
is built from the Dirichlet form

    <-L g, g> = (1/4) int (measure) [r3 + r2 - r0 - r1]^2,   r = g / fb,

with the collision operator's tensor rule, element by element (Cuvelier,
Japhet & Scarella, BIT 2016): pair r = (i, j) has a stencil s_r, +w3 at
the p3 interpolation nodes, +1 at j, -1 at i and -w1 at the p1 nodes, and
Q = sum_r measure_r s_r s_r^T, each packed pair counting for both orders.
L is symmetric to the bit and negative semidefinite, has fb in its null
space to rounding (r is constant at equilibrium), and annihilates
omega*fb to interpolation accuracy.

Parity.  The reflection R: p -> 2pi - p keeps every Rayleigh-Jeans
equilibrium and the resonance conditions, so L commutes with R.  For
n = 2m, let A and B be the top m rows of L, split into the first and last
m columns, and J the reversal of m entries.  In the basis of the even
vectors [x; Jx] and the odd vectors [x; -Jx], L is the sum of the even
block E = A + BJ and the odd block O = A - BJ (Cantoni & Butler, Linear
Algebra Appl. 13 (1976) 275-288).  Only E, O, E's eigenpairs and O's
eigenvalues are held; O's eigenvectors are formed only for data with an
odd part, which no subcommand has.  Every L g of a run is
`LinOperator.apply`, block by block.  The assembly sums L_h over the
streamed half table (`ResonanceTable`), and L = L_h + R L_h R.  E[p, q]
and O[p, q] sum the four L_h[r, c] with r in {p, n-1-p} and c in
{q, n-1-q}, O with a minus sign where r and c lie on opposite sides of
n/2.  So the stencil products are scattered by np.add.at, in table order,
into two m x m accumulators at the folded nodes min(k, n-1-k), S (same
side) and X (opposite sides), and E, O = c ((S + S^T) +- (X + X^T)) /
(fb fb^T), symmetric to the bit.  No (n^2 x n) matrix, whole table or n^2
array is formed.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property
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
# stencil-pair values per sub-block of the assembly, and values per row chunk
# of the blocks: 512 KiB per float64 temporary, under the pinned mmap threshold
_BLOCK_VALUES = 1 << 16
# largest odd part max|g - g[::-1]| / 2, relative to max|g|, that `snap_even`
# treats as rounding of even data
EVEN_RTOL = 1e-12


def _frequency_sums(tab, fb: np.ndarray, fb1: np.ndarray, fb3: np.ndarray) -> np.ndarray:
    """a fb / weight from one table block, given fb at its P1 and P3:
    W fb1 fb3 times fb2, for both orders of each pair.  It reads no
    stencil, so it does not depend on the interpolation order."""
    m = tab.W * fb1 * fb3
    return np.bincount(tab.i, m * fb[tab.j], minlength=fb.size) \
        + np.bincount(tab.j, m * fb[tab.i], minlength=fb.size)


def multiplier_a(params: RjParams, grid: Grid) -> Field:
    """Collision frequency a(p) on the grid from the streamed half table,
    a = a_h + R a_h: bit for bit the `a` that `assemble` takes from its
    own pass, so the diagonal and integral parts of L see one quadrature."""
    fb = params.value(grid.nodes)
    a = np.zeros(grid.n)
    for tab in _packed_blocks(grid, "linear"):
        a += _frequency_sums(tab, fb, params.value(tab.P1), params.value(tab.P3))
        del tab  # before the next block is built
    return Field(grid, grid.weight * (a + a[::-1]) / fb)


def multiplier_at(params: RjParams, p, n_panels: int = 2048) -> np.ndarray:
    """Pointwise a(p) with panels graded into the kernel peak near 2pi - p:
    it resolves the edge asymptotics, far below any grid spacing, down to
    p ~ 1e-8."""
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


def _halves(g: np.ndarray) -> tuple:
    """(u, w), the even and odd parts of a vector (or of the columns of an
    (n, k) array) on its top half: g = [u + w; J(u - w)]."""
    m = g.shape[0] // 2
    top, bot = g[:m], g[::-1][:m]
    return (top + bot) / 2.0, (top - bot) / 2.0


def _join(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[u + w; J(u - w)], the inverse of `_halves`."""
    return np.concatenate([u + w, (u - w)[::-1]])


def snap_even(g: np.ndarray) -> tuple:
    """(g, False), or ((g + g[::-1]) / 2, True) when the odd part
    max|g - g[::-1]| / 2 of g is at most EVEN_RTOL of max|g|: data that is
    even up to rounding, made exactly even, so that its odd half is zero."""
    if float(np.max(np.abs(g - g[::-1]))) / 2.0 <= EVEN_RTOL * float(np.max(np.abs(g))):
        return (g + g[::-1]) / 2.0, True
    return g, False


def _apply(blocks, g: np.ndarray) -> np.ndarray:
    """L g from the even and odd blocks: [Eu + Ow; J(Eu - Ow)].  A block
    whose half of g is exactly zero is skipped: its product is zero."""
    return _join(*(B @ h if h.any() else np.zeros_like(h)
                   for B, h in zip(blocks, _halves(g))))


@dataclass
class LinOperator:
    """L as its even and odd blocks E and O (module doc), with E's
    eigenpairs and O's eigenvalues."""
    grid: Grid
    params: RjParams
    a: Field
    blocks: tuple = field(repr=False)
    even_eigh: tuple = field(repr=False)  # (eigenvalues, eigenvectors) of E
    odd_eigenvalues: np.ndarray = field(repr=False)  # of O, by eigvalsh
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
        return np.sort(np.concatenate([self.even_eigh[0], self.odd_eigenvalues]))

    @cached_property
    def odd_eigh(self) -> tuple:
        """(eigenvalues, eigenvectors) of O from one `eigh` of the held O on
        first use, so a cold and a cached operator agree bit for bit; these
        eigenvalues, not `odd_eigenvalues`, go with the vectors."""
        return np.linalg.eigh(self.blocks[1])

    @property
    def matrix(self) -> np.ndarray:
        """L as `apply` on the identity, a new n x n array per read: no run
        reads it, but `perfbench/spans.py` reads its size."""
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
        lam, V = self.even_eigh
        v = V[:, np.abs(lam) <= self.spectral_tol]
        return np.vstack([v, v[::-1]]) / np.sqrt(2.0)


def _add_block(acc: np.ndarray, tab, params: RjParams, fb: np.ndarray) -> np.ndarray:
    """Add the stencil products of one table block into acc, S then X flat
    (module doc), in table order, and return its `_frequency_sums`.
    Sub-blocks hold _BLOCK_VALUES stencil-pair values."""
    n = fb.size
    m = n // 2
    mm = m * m
    fb1, fb3 = params.value(tab.P1), params.value(tab.P3)
    sums = _frequency_sums(tab, fb, fb1, fb3)
    measure = tab.W * fb[tab.i] * fb1 * fb[tab.j] * fb3
    del fb1, fb3  # before the sub-blocks, whose temporaries set the peak
    # the row and column codes of node k: fold k plus mm on the far side of
    # n/2, so (r, c) lands at (fold r) m + fold c + mm (far r + far c) mod 2 mm
    k = np.arange(n)
    fold, far = np.minimum(k, n - 1 - k), (k >= m) * mm
    row, col = fold * m + far, fold + far
    ta, tb = np.triu_indices(2 * _stencil_shape(tab.interp)[0] + 2)
    half = np.where(ta == tb, 0.5, 1.0)
    # a power of two, so it divides a table block
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
    """(E, O, a): the even and odd blocks of L (module doc), and `a` from the
    same table blocks, bit for bit `multiplier_a`'s.  Each block adds
    measure_r c_a c_b, for every pair a <= b of stencil entries, diagonal
    pairs halved, into S or X in table order, so the bits do not depend on
    the block sizes; E and O are then formed a chunk of rows at a time."""
    n = grid.n
    m = n // 2
    fb = params.value(grid.nodes)
    a = np.zeros(n)
    acc = np.zeros(2 * m * m)
    for tab in _packed_blocks(grid, interp):
        a += _add_block(acc, tab, params, fb)
        del tab  # before the next block is built
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
    """Assemble L as its even and odd blocks, eigendecompose E, take O's
    eigenvalues alone, and check the spectrum (`_check_parity`).  Raises
    ConfigError for gamma <= 0, n < 64 or an odd n."""
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

    even_eigh = np.linalg.eigh(E)
    odd_eigenvalues = np.linalg.eigvalsh(O)
    _check_parity(even_eigh[0], odd_eigenvalues, spectral_tol)
    return LinOperator(grid=grid, params=params, a=Field(grid, a), blocks=blocks,
                       even_eigh=even_eigh, odd_eigenvalues=odd_eigenvalues,
                       spectral_tol=spectral_tol,
                       kernel_residuals=(r1, r2), sym_defect=sym_defect,
                       interp=interp)


def _evolve(eigh: tuple, h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """V (exp(lambda t^T) * V^T h): one block's half h at every time t, one
    column per time, through the block's eigenpairs (lambda, V)."""
    lam, V = eigh
    return V @ (np.exp(np.outer(lam, t)) * (V.T @ h)[:, None])


def semigroup_apply(op: LinOperator, g0: Field, times) -> np.ndarray:
    """e^{tL} g0 for every t in `times`, exact in time: one row per time.
    g0's even and odd parts each run through their block's eigenpairs; a
    part that is exactly zero is skipped, so even data never forms O's
    eigenvectors.  A row at t = 0 is g0 bit for bit.  Raises ValueError on
    a negative or non-finite time."""
    t = np.asarray(times, dtype=float)
    bad = t[~((0.0 <= t) & (t < np.inf))]  # NaN included
    if bad.size:
        raise ValueError(f"a time must be nonnegative and finite, got {bad[0]}")
    u, w = _halves(g0.values)
    zero = np.zeros((u.size, t.size))
    states = _join(_evolve(op.even_eigh, u, t) if u.any() else zero,
                   _evolve(op.odd_eigh, w, t) if w.any() else zero).T
    states[t == 0.0] = g0.values
    return states


def subspace_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Largest principal angle (radians) between the column spans of u and v."""
    qu, _ = np.linalg.qr(u)
    qv, _ = np.linalg.qr(v)
    sv = np.linalg.svd(qu.T @ qv, compute_uv=False)
    return float(np.arccos(np.clip(np.min(sv), -1.0, 1.0)))


def decay_initial_data(params: RjParams, grid: Grid) -> Field:
    """Kernel-orthogonal data with the edge profile omega^DECAY_NU: the
    compensators are one power of omega steeper, so the profile survives,
    where a plain projection would add a multiple of fb."""
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


# the cache format's tag: a file with any other is a miss
_MAGIC = b"PHLNOP08"
# magic tag, key (n, interp, beta, gamma), 4 diagnostics, crc32 of the payload
_HEADER_BYTES = 8 + 32 + 40


def save_operator(op: LinOperator, path) -> None:
    """Binary cache: key header plus little-endian float64 payload (a, E, O,
    E's eigenpairs and O's eigenvalues), written to a temporary file beside
    `path` and renamed into place, so `path` never holds a partial file."""
    payload = [np.ascontiguousarray(arr, dtype="<f8")
               for arr in (op.a.values, *op.blocks, *op.even_eigh, op.odd_eigenvalues)]
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
        m = n // 2  # a, E, O, E's eigenvalues and eigenvectors, O's eigenvalues
        shapes = (n, (m, m), (m, m), m, (m, m), m)
        want = _HEADER_BYTES + 8 * sum(int(np.prod(s)) for s in shapes)
        if size != want or n < 2 or n % 2:
            raise ValueError(f"{path} has {size} bytes; its header (n={n}) implies {want}")
        a, E, O, lam_e, v_e, lam_o = payload = \
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
                       even_eigh=(lam_e, v_e), odd_eigenvalues=lam_o,
                       spectral_tol=spectral_tol, kernel_residuals=(r1, r2),
                       sym_defect=sym_defect,
                       interp="linear" if interp_code == 0 else "cubic")


def _cache_path(params: RjParams, grid: Grid, cache_dir, interp: str) -> Path:
    return Path(cache_dir) / \
        f"linop_n{grid.n}_b{params.beta:.12g}_g{params.gamma:.12g}_{interp}.bin"


def cached_operator(params: RjParams, grid: Grid, cache_dir,
                    interp: str = "linear") -> LinOperator | None:
    """The operator of the cache file keyed by (n, beta, gamma, interp) in
    cache_dir, or None when there is none, or it is foreign, truncated or
    damaged, or holds another key than its name's.  It only reads."""
    path = _cache_path(params, grid, cache_dir, interp)
    if not path.exists():
        return None
    try:
        op = load_operator(path)
    except ValueError:  # a foreign, truncated or damaged file is a miss
        return None
    return op if (op.grid.n, op.params, op.interp) == (grid.n, params, interp) else None


def load_or_assemble(params: RjParams, grid: Grid, cache_dir=None,
                     interp: str = "linear") -> LinOperator:
    """Assemble L or reuse a cache file keyed by (n, beta, gamma, interp)
    (`cached_operator`); a miss is assembled and written over the file."""
    if cache_dir is None:
        return assemble(params, grid, interp)
    op = cached_operator(params, grid, cache_dir, interp)
    if op is None:
        op = assemble(params, grid, interp)
        Path(cache_dir).mkdir(parents=True, exist_ok=True)  # after assemble, which refuses bad input
        save_operator(op, _cache_path(params, grid, cache_dir, interp))
    return op
