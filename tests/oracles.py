"""Independent oracles the tests check the package against.

None of this runs on a CLI path.  `fold_search` finds the fold of the
blow-up construction by golden-section search, the reference for the closed
form of `collision.blowup_points`.  The pointwise kernels K1 and K2 of the
linearized operator and the product-integration realization of K1 are kept
for kernel studies, with the rules they need: the sqrt-substituted nodes and
the desingularized K1 row rule (`integrate_inverse_sqrt`), and the two
branches of the inverse of h (`h_inverse_pair`).  The full-table oracles
evaluate the tensor rule on all n^2 ordered node pairs, with no use of the
exchange symmetry that the package's packed resonance table relies on, and
the cached-slice blocks read one whole packed table where the package
streams transient blocks.  `whole_weak_form` assembles L from every pair of
the packed table into one flat n^2 accumulator (`_flat_add_block`), where
the package reads half of it and scatters it straight into the even and
odd blocks.  `bincount_exchange_sum` scatters a table's row sums with two
bincounts, the reference for the run sums of
`ResonanceTable.exchange_sum`.  `lagrange_stencil` and `lagrange_gather`
are off-grid evaluation as it was before the package stored a stencil as
one index and one offset: node indices and Lagrange weights per target,
summed weight by weight, the reference for `grid.gather`'s Horner form and
for the weights `linearized._add_block` derives.  `project_out_kernel`
makes kernel-orthogonal test data with the plain projection onto
`LinOperator.kernel_basis`, `trig_sample` draws the random trigonometric
data of the tests, `dense_L` is L as one n x n array (the block-wise
product on the identity), and `dissipation_ratios` draws the dissipation
samples one at a time against it.  `h_tan` and
`clamped_arcsin` are the resonant partner as it was built before its
diagonal guard and its clip were made conditional, kept as the reference the
leaner `manifold._h_parts` must reproduce bit for bit.
"""

from types import SimpleNamespace

import numpy as np

from phononlab import collision, linearized
from phononlab.equilibria import RjParams
from phononlab.errors import DomainError, NonFiniteError, PhononLabError
from phononlab.grid import Field, Grid, gather, horner, lagrange_weights
from phononlab.linearized import LinOperator
from phononlab.manifold import (ARCSIN_CLAMP_TOL, DIAGONAL_GUARD, TWO_PI, canonicalize,
                                f_minus, f_minus_zeros, h, omega, resonant_kernel)
from phononlab.quadrature import graded_midpoint_nodes, midpoint_nodes

# nodes per graded panel of integrate_inverse_sqrt
LOCAL_ORDER = 16


class SingularityMismatchError(PhononLabError):
    """A declared singularity location does not match the radicand's behavior."""


# ---------------------------------------------------------------------------
# the resonant partner with an unconditional guard and clip

def clamped_arcsin(arg):
    """arcsin with the documented clamping policy at +-1."""
    a = np.asarray(arg, dtype=float)
    over = np.abs(a) - 1.0
    if np.any(over > ARCSIN_CLAMP_TOL):
        worst = float(np.max(over))
        raise DomainError(
            f"arcsin argument exceeds 1 by {worst:.3e} (> {ARCSIN_CLAMP_TOL:.0e}); "
            "inputs are outside [0, 2pi]")
    return np.arcsin(np.clip(a, -1.0, 1.0))


def h_tan(x, z):
    """(h(x, z), tan(|z - x|/4)): the resonant partner and the tangent it is
    built from."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    d = z - x
    # keep tan((z-x)/4) finite: nudge off the singular diagonal |z-x| = 2pi
    near = np.abs(np.abs(d) - TWO_PI) < DIAGONAL_GUARD
    if np.any(near):
        d = np.where(near, np.sign(d) * (TWO_PI - DIAGONAL_GUARD), d)
    t = np.tan(np.abs(d) / 4.0)
    val = d / 2.0 + 2.0 * clamped_arcsin(t * np.cos((z + x) / 4.0))
    return canonicalize(val if val.ndim else float(val)), t


# ---------------------------------------------------------------------------
# the fold of the blow-up construction, found by search

def fold_search(p0: float):
    """(p1, p2) with p2 the maximizer of h(p0, .) on (p0, 2pi) by a
    golden-section search down to 1e-13, and p1 = h(p0, p2): the reference
    for the closed form of `collision.blowup_points`."""
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
    return float(h(p0, z0)), z0


# ---------------------------------------------------------------------------
# off-grid evaluation by Lagrange weights

def lagrange_stencil(grid: Grid, targets: np.ndarray, order: str = "linear"):
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


def lagrange_gather(values: np.ndarray, stencil, rows=slice(None)) -> np.ndarray:
    """Interpolated values at the targets of a `lagrange_stencil`, for a
    block of its leading-axis rows, summed in stencil order."""
    idx, wts = stencil
    out = values[idx[0][rows]] * wts[0][rows]
    for i, wt in zip(idx[1:], wts[1:]):
        out += values[i[rows]] * wt[rows]
    return out


# ---------------------------------------------------------------------------
# the tensor rule on every ordered pair

def full_table(grid: Grid, interp: str = "linear"):
    """P1, P3, W and the stencils i1, i3 on the full (n x n) tensor rule:
    row i is p0 = node i, column j is p2 = node j."""
    nodes = grid.nodes
    P1, P3, W = resonant_kernel(nodes[:, None], nodes[None, :])
    return SimpleNamespace(P1=P1, P3=P3, W=W, i1=lagrange_stencil(grid, P1, interp),
                           i3=lagrange_stencil(grid, P3, interp))


def _entries(tab, k):
    """The entries k (an index array or a slice) of a ResonanceTable, in the
    form of a transient table (copies, for an index array)."""
    return SimpleNamespace(
        grid=tab.grid, interp=tab.interp,
        **{name: getattr(tab, name)[k] for name in ("i", "j", "P1", "P3", "W")},
        **{side: tuple(x[k] for x in getattr(tab, side)) for side in ("i1", "i3")})


def cached_slice_blocks(grid: Grid, interp: str = "linear"):
    """The half of the packed table with i + j <= n - 1 read from one whole
    table in blocks of collision._TABLE_BLOCK entries, W halved on the
    self-mirror pairs i + j = n - 1: in the form of the transient tables
    that collision._packed_blocks streams."""
    n = grid.n
    tab = collision.ResonanceTable(grid, interp)
    half = np.flatnonzero(tab.i + tab.j <= n - 1)
    for k0 in range(0, half.size, collision._TABLE_BLOCK):
        block = _entries(tab, half[k0:k0 + collision._TABLE_BLOCK])
        block.W[block.i + block.j == n - 1] *= 0.5
        yield block


def _flat_add_block(A: np.ndarray, tab, params: RjParams, fb: np.ndarray) -> np.ndarray:
    """Add the stencil products of one table block into the flat n^2
    accumulator A at the unfolded nodes, entry by entry in table order, and
    return the block's frequency sums: the scatter as it was before the
    package folded the nodes into its even and odd accumulators."""
    n = fb.size
    fb1, fb3 = params.value(tab.P1), params.value(tab.P3)
    sums = linearized._frequency_sums(tab, fb, fb1, fb3)
    measure = tab.W * fb[tab.i] * fb1 * fb[tab.j] * fb3
    points = 2 if tab.interp == "linear" else 4
    ta, tb = np.triu_indices(2 * points + 2)
    half = np.where(ta == tb, 0.5, 1.0)
    step = 1 << (max(1, linearized._BLOCK_VALUES // ta.size).bit_length() - 1)
    for b0 in range(0, tab.W.size, step):
        s = slice(b0, b0 + step)
        (i3, w3), (i1, w1) = (lagrange_weights(n, (q[s], t[s]), tab.interp)
                              for q, t in (tab.i3, tab.i1))
        idx = np.stack([*i3, tab.j[s], tab.i[s], *i1], axis=1)
        c = np.stack(np.broadcast_arrays(*w3, 1.0, -1.0, *(-w for w in w1)), axis=1)
        mc = c * measure[s, None]
        np.add.at(A, (idx[:, ta] * n + idx[:, tb]).ravel(),
                  (half * mc[:, ta] * c[:, tb]).ravel())
    return sums


def whole_weak_form(params: RjParams, grid: Grid, interp: str = "linear"):
    """(L, a) from every pair of the packed table, each counting for both
    of its orders: the assembly as it was before the package read half of
    the table and reflected it.  The table is built whole and read in
    slices of collision._TABLE_BLOCK entries, which `_flat_add_block` adds
    into one flat n^2 accumulator in table order."""
    n = grid.n
    fb = params.value(grid.nodes)
    tab = collision.ResonanceTable(grid, interp)
    a = np.zeros(n)
    A = np.zeros(n * n)
    for k0 in range(0, tab.W.size, collision._TABLE_BLOCK):
        block = _entries(tab, slice(k0, k0 + collision._TABLE_BLOCK))
        a += _flat_add_block(A, block, params, fb)
    A = A.reshape(n, n)
    L = A + A.T
    inv_fb = 1.0 / fb
    L *= inv_fb[:, None] * inv_fb[None, :]
    L *= -(grid.weight / 2.0)
    return L, grid.weight * a / fb


def bincount_exchange_sum(tab, v: np.ndarray, term) -> np.ndarray:
    """`ResonanceTable.exchange_sum` as it was before it summed row i over
    the sorted runs of i: each block of collision._EXCHANGE_BLOCK entries
    scatters its terms with one bincount over i and one over j."""
    n = tab.grid.n
    out = np.zeros(n)
    c = horner(v, tab.interp)
    for b0 in range(0, tab.W.size, collision._EXCHANGE_BLOCK):
        s = slice(b0, b0 + collision._EXCHANGE_BLOCK)
        i, j = tab.i[s], tab.j[s]
        t = term(s, v[i], gather(c, tab.i1, s), v[j], gather(c, tab.i3, s))
        out += np.bincount(i, t, minlength=n)
        out -= np.bincount(j, t, minlength=n)
    return out


def full_collision(f, interp: str = "linear") -> np.ndarray:
    """C[f] at the nodes, every row summed over all n p2 nodes."""
    tab = full_table(f.grid, interp)
    v = f.values
    f0, f1, f2, f3 = (v[:, None], lagrange_gather(v, tab.i1), v[None, :],
                      lagrange_gather(v, tab.i3))
    br = f1 * f2 * f3 + f0 * f2 * f3 - f0 * f1 * f3 - f0 * f1 * f2
    return f.grid.weight * np.sum(tab.W * br, axis=1)


# ---------------------------------------------------------------------------
# projection onto the kernel of L

def project_out_kernel(op: LinOperator, g: Field) -> Field:
    """Remove the discrete-L^2 projection onto span{fb, omega*fb}."""
    q = op.kernel_basis()
    vals = g.values - q @ (q.T @ g.values)
    return Field(op.grid, vals)


def trig_sample(nodes: np.ndarray, seed, modes: int = 12) -> np.ndarray:
    """sum_k c_k cos((k + 1) p) + s_k sin((k + 1) p) at the nodes, the
    `modes` cosine coefficients and then the `modes` sine coefficients drawn
    as two normal(modes) calls from np.random.default_rng(seed): a new
    generator for an integer seed, the generator itself, which draws on,
    for a Generator.  The random trigonometric data of the tests."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=modes)
    s = rng.normal(size=modes)
    return sum(c[k] * np.cos((k + 1) * nodes) + s[k] * np.sin((k + 1) * nodes)
               for k in range(modes))


def dense_L(op: LinOperator) -> np.ndarray:
    """L as one n x n array: the block-wise product on the identity."""
    return op.apply(np.eye(op.grid.n))


def dissipation_ratios(op: LinOperator, seed: int, samples: int = 100) -> list:
    """<-L g, g> / int a g^2 over random trigonometric g (`trig_sample`,
    kernel projected out), one sample at a time from one generator, with L
    as a whole matrix: the reference for `spectrum_experiment`'s block of
    samples, drawn in the same order."""
    rng = np.random.default_rng(seed)
    a, kb, L = op.a.values, op.kernel_basis(), dense_L(op)
    ratios = []
    for _ in range(samples):
        g = trig_sample(op.grid.nodes, rng)
        g = g - kb @ (kb.T @ g)
        ratios.append(float((g @ -(L @ g)) / ((a * g) @ g)))
    return ratios


# ---------------------------------------------------------------------------
# inverse-square-root endpoint singularities and the inverse of h

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
                           n_panels: int, lo: float, hi: float) -> float:
    """Integral of f(y) / sqrt(radicand(y)) over [lo, hi] with radicand
    vanishing (or dipping to a sharp minimum) at the endpoint s.

    side = 'left'  : the domain lies left of s,  so s == hi;
    side = 'right' : the domain lies right of s, so s == lo.
    The whole interval is mapped through u = sqrt(|s - y|); with a linearly
    vanishing radicand the transformed integrand is smooth, so the composite
    midpoint rule in u (n_panels base panels) keeps its full order.  The
    substitution carries no problem-dependent constant, unlike Gauss-Jacobi
    weights, which matters because the linear-vanishing rate of F- varies
    with the base point.
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
    # grade down to 1e-15 of the u interval
    min_scale = umax * 1e-15
    u, wu = graded_midpoint_nodes(0.0, umax, n_panels, refine_at=refine,
                                  min_scale=min_scale,
                                  local_order=LOCAL_ORDER,
                                  zone_panels=max(2, n_panels // 8))
    y = s + toward * u ** 2
    wy = 2.0 * u * wu
    rad = np.asarray(radicand(y), dtype=float)
    vals = np.asarray(f(y), dtype=float)
    good = rad > 0.0
    out = np.zeros_like(rad)
    out[good] = vals[good] / np.sqrt(rad[good])
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("transformed integrand non-finite")
    return float(np.add.reduce(wy * out))


def h_inverse_pair(y, x):
    """The two solutions z of h(x, z) = y on the positivity set of F-(x, .).

    Returns (z_plus, z_minus), canonical in [0, 2pi).  The pair realizes the
    p2 <-> p3 exchange: z_minus = x + y - z_plus (mod 2pi).  Only meaningful
    where F-(x, y) >= 0; the arcsin argument is clamped at the boundary.

    Accuracy: each branch lies within about one ulp of 2pi of an exact
    solution, but the round trip h(x, z) - y is that error times |dh/dz|,
    which grows as x -> 0 while z_minus presses against 2pi.  The round
    trip is below 1e-12 for x in [0.2, 2pi - 0.2]; at x = 1e-4, z = 2^-6 it
    misses by 1.8e-9 (|dh/dz| ~ 5e6 there: one ulp of z moves h by 4.5e-9).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    arg = np.tan((x + y) / 4.0) * np.cos((x - y) / 4.0)
    g = 2.0 * np.arcsin(np.clip(arg, -1.0, 1.0))
    base = (x + y) / 2.0
    z_plus = canonicalize(base + g)
    corr = np.where(x + y > TWO_PI, -TWO_PI, TWO_PI)
    z_minus = canonicalize(base - g + corr)
    return z_plus, z_minus


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


def k1_row_integral(p: float, params: RjParams, n_panels: int,
                    phi=None) -> float:
    """int K1(p, y) phi(y) dy over both positivity intervals of F-(p, .).

    Integrable inverse-square-root singularities at y'(p) and y''(p) are
    removed by the sqrt substitution of `integrate_inverse_sqrt`.
    """
    zeros = f_minus_zeros(p)
    test = (lambda y: np.ones_like(y)) if phi is None else phi

    def smooth(y):
        return _k1_smooth_factor(p, y, params) * test(y)

    radicand = lambda y: f_minus(p, y)
    total = integrate_inverse_sqrt(smooth, zeros.y_prime, radicand,
                                   "left", n_panels, 0.0, zeros.y_prime)
    total += integrate_inverse_sqrt(smooth, zeros.y_double_prime, radicand,
                                    "right", n_panels, zeros.y_double_prime, TWO_PI)
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
            idx, wts = lagrange_stencil(grid, y, interp)
            for jj, wt in zip(idx, wts):
                np.add.at(M[i], jj, wy * kv * wt)
    return M


