"""The reduced four-phonon collision operator on a grid.

With the delta constraints integrated out in favor of the p2 variable, the
operator reads

    C[f](p0) = int_0^2pi  (omega0 omega1 omega2 omega3 / sqrt(F+(p0, p2)))
               * [f1 f2 f3 + f0 f2 f3 - f0 f1 f3 - f0 f1 f2]  dp2,

where p1 = h(p0, p2) and p3 = p0 + p1 - p2 lie on the nontrivial branch
of the resonant manifold (trivial resonances cancel and carry no
transport).  On a grid p0 and p2 run over the nodes, and f is
interpolated at p1 and p3 (`grid.gather`).  The tables of this tensor
rule are `ResonanceTable`; `collision_map` is C[f] on one, and
`collision_at` the engine for the integral on any rows and p2 rule.
Importing this module pins glibc's malloc (`_pin_malloc`).
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .grid import POS_FLOOR, Field, Grid, _stencil_shape, gather, horner, interp_weights
from .manifold import (TWO_PI, _h_parts, _weight, canonicalize, f_minus_zeros, h_range,
                       half_angles, resonant_kernel)

# the largest grid with a whole table: larger ones would not fit comfortably
TABLE_MAX_N = 2048
# packed entries per table block: a block's widest allocation, `page_aligned`
# rows of P1, P3 and W, takes 388 KiB, under the mmap threshold below
_TABLE_BLOCK = 1 << 14
# table entries per block of `ResonanceTable.exchange_sum`, 128 KiB per
# float64 temporary: blocks of 2^11 to 2^13 made the relax right-hand side slower
_EXCHANGE_BLOCK = 1 << 14
# collision_at: p2 columns per chunk of its bound on p1, and (row, chunk)
# pairs per row block and entries per batch, 64 KiB per float64 temporary:
# batches of 2^15 peaked 19% higher in the blowup benchmark
_CHUNK = 64
_BATCH = 1 << 13

# glibc's malloc settings (`_pin_malloc`)
_MMAP_THRESHOLD = 1 << 20
_TRIM_THRESHOLD = 8 << 20
# mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def _pin_malloc() -> bool:
    """Fix glibc's mmap threshold at 1 MiB and its trim threshold at 8 MiB,
    and cap it at one arena; True when libc took all three, False where
    libc has no mallopt.  The pin changes no result.

    Unpinned, glibc raises the mmap threshold to each mmapped block freed
    and returns the heap top after frees, so a loop of blocks faults in
    fresh pages block after block; and each allocating thread gets an arena
    that keeps its own freed pages.  Every hot-loop block keeps each
    allocation under 1 MiB (_TABLE_BLOCK, _EXCHANGE_BLOCK, _BATCH,
    `linearized`'s sub-blocks, `experiments.verify_suite`'s slab threads),
    so pinned, it reuses the main heap's pages, while the n^2 matrices stay
    mmapped and go back to the OS when freed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all(mallopt(param, value) for param, value in (
        (_M_MMAP_THRESHOLD, _MMAP_THRESHOLD), (_M_TRIM_THRESHOLD, _TRIM_THRESHOLD),
        (_M_ARENA_MAX, 1)))


# this module owns the loops of blocks that the pin serves
_MALLOC_PINNED = _pin_malloc()


_PAGE = 4096  # bytes


def page_aligned(shape, dtype=float) -> np.ndarray:
    """An uninitialized array whose rows each start on a 4 KiB page: the
    arrays that a loop over a table streams together.  From the heap,
    128 KiB arrays start 16 bytes apart in their pages, and a loop that
    reads one a little behind where it writes another stalls on false
    store dependencies (4K aliasing): the relax right-hand side took
    10-15% longer in some heap states than in others."""
    dtype = np.dtype(dtype)
    *lead, m = np.atleast_1d(shape)
    rows = int(np.prod(lead))
    stride = -(-int(m) * dtype.itemsize // _PAGE) * _PAGE
    raw = np.empty(rows * stride + _PAGE, np.uint8)
    start = -raw.ctypes.data % _PAGE
    padded = raw[start:start + rows * stride].reshape(rows, stride)
    return padded[:, :int(m) * dtype.itemsize].view(dtype).reshape(*lead, int(m))


def _row_starts(n: int, r: np.ndarray) -> np.ndarray:
    """The packed index of the first entry (r, r + 1) of each row r."""
    return r * (2 * n - 1 - r) // 2


def _pairs(n: int, k: np.ndarray):
    """Node pairs (i, j) of the ascending packed indices k, in the order of
    np.triu_indices(n, 1), without forming the whole triangle."""
    starts = _row_starts(n, np.arange(n))
    i = np.searchsorted(starts, k, side="right") - 1
    return i, k - starts[i] + i + 1


def _half_entries(n: int, k0: int, k1: int) -> np.ndarray:
    """Packed indices of the half table's entries k0 to k1 - 1: in each row
    i < n // 2 a run of n - 1 - 2i entries from the row's first, ending at
    the self-mirror pair (i, n - 1 - i).  The exchange brings each reflected
    pair (n - 1 - j, n - 1 - i) back to the upper triangle."""
    size = n - 1 - 2 * np.arange(n // 2)
    first = np.cumsum(size) - size  # the half's index of each row's first entry
    k = np.arange(k0, k1)
    r = np.searchsorted(first, k, side="right") - 1
    return _row_starts(n, r) + k - first[r]


class ResonanceTable:
    """The tensor rule's geometry, one entry per node pair: the packed table,
    or a span of the half table.

    Entry (i, j) holds the nodes `i` and `j`, p1 = P1 and p3 = P3 of
    (p0, p2) = (node i, node j), the weight W, and the (q, t) stencils i1
    of P1 and i3 of P3 (`grid.interp_weights`): 72 bytes at either order.
    The exchange of the p0 and p2 nodes maps (p0, p1, p2, p3) onto
    (p2, p3, p0, p1), keeps W and flips the sign of the collision bracket,
    so one entry serves both orders, and W = 0 on the diagonal.  The packed
    table, the default, is the strict upper triangle in
    np.triu_indices(n, 1) order.

    The reflection p -> 2pi - p maps node k onto n - 1 - k, the pairs
    i + j > n - 1 onto those with i + j < n - 1, and each self-mirror pair
    i + j = n - 1 onto itself.  The half table is the n^2 // 4 pairs
    i + j <= n - 1 (`_half_entries`), W halved on the self-mirror ones:
    summed and then reflected, it gives the whole rule's sums wherever the
    integrand is reflection-invariant (L's, and Q + N's on even data).
    `span` = (k0, k1) selects its entries k0 to k1 - 1.

    Both store `i` in sorted runs, one per row, and are built in blocks of
    _TABLE_BLOCK entries on the calling thread, the only O(n^2)
    trigonometric cost: a loop that applies C[f] or the perturbation
    right-hand side owns a table (`collision_map`,
    `dynamics.PerturbationTables`), and a pass that reads one once streams
    it (`_packed_blocks`).
    """

    def __init__(self, grid: Grid, interp: str = "linear", span=None):
        self.grid = grid
        self.interp = interp
        n = grid.n
        pairs = _pairs(n, np.arange(n * (n - 1) // 2) if span is None
                       else _half_entries(n, *span))
        size = pairs[0].size
        _stencil_shape(interp)  # checks interp
        self.i, self.j = page_aligned((2, size), np.int64)
        self.i[:], self.j[:] = pairs
        self.P1, self.P3, self.W = page_aligned((3, size))
        self.i1, self.i3 = ((page_aligned(size, np.int64), page_aligned(size))
                            for _ in range(2))
        nodes = grid.nodes
        for b in range(0, size, _TABLE_BLOCK):
            s = slice(b, b + _TABLE_BLOCK)
            self.P1[s], self.P3[s], self.W[s] = resonant_kernel(nodes[self.i[s]],
                                                                nodes[self.j[s]])
            for (q, t), p in ((self.i1, self.P1[s]), (self.i3, self.P3[s])):
                q[s], t[s] = interp_weights(grid, p, interp)
        if span is not None:
            self.W[self.i + self.j == n - 1] *= 0.5  # exact: the same bits halved
        self._values = np.empty((5, 0))  # exchange_sum's, grown to the block in use

    @functools.cached_property
    def runs(self) -> np.ndarray:
        """The first entry of each run of equal `i`, in increasing order;
        computed on the first `exchange_sum`, so a streamed block never pays."""
        return np.flatnonzero(np.diff(self.i, prepend=-1))

    def exchange_sum(self, v: np.ndarray, term) -> np.ndarray:
        """Row sums over the full rule of an integrand that flips sign under
        the exchange.

        term(s, v0, v1, v2, v3) is the integrand on the entries s, from v
        at the nodes i, j and interpolated at P1, P3; each entry adds it
        into row i and subtracts it from row j, so mass cancels term by
        term.  v0 to v3 are rows that the table owns, valid until term
        returns, so calls must not overlap.  Row i's sums are one
        np.add.reduceat per block over the runs (the block's first entry
        starts a part too, so no part is empty), row j's a bincount.
        """
        n = self.grid.n
        out = np.zeros(n)
        runs = self.runs
        c = horner(v, self.interp)
        size = min(self.W.size, _EXCHANGE_BLOCK)
        if self._values.shape[1] < size:
            self._values = page_aligned((5, size))
        v0, v1, v2, v3, taken = self._values
        for b0 in range(0, self.W.size, _EXCHANGE_BLOCK):
            s = slice(b0, b0 + _EXCHANGE_BLOCK)
            i, j = self.i[s], self.j[s]
            t = term(s, np.take(v, i, out=v0[:i.size], mode="clip"),
                     gather(c, self.i1, s, (v1, taken)),
                     np.take(v, j, out=v2[:i.size], mode="clip"),
                     gather(c, self.i3, s, (v3, taken)))
            parts = runs[np.searchsorted(runs, b0, side="right") - 1:
                         np.searchsorted(runs, b0 + i.size)] - b0
            parts[0] = 0
            out[i[parts]] += np.add.reduceat(t, parts)
            out -= np.bincount(j, t, minlength=n)
        return out


def _packed_blocks(grid: Grid, interp: str):
    """A transient ResonanceTable per span of _TABLE_BLOCK entries of the
    half table, in table order, for a pass that reads it once (`linearized`).
    Its consumer drops each block before it asks for the next, so one block
    is alive, whose allocations stay under the pinned mmap threshold and
    reuse the pages of the block before.  A block's entries have the bits
    of the same entries of a whole half table."""
    size = grid.n ** 2 // 4
    for k in range(0, size, _TABLE_BLOCK):
        yield ResonanceTable(grid, interp, (k, min(k + _TABLE_BLOCK, size)))


def _bracket(f0, f1, f2, f3):
    return f1 * f2 * f3 + f0 * f2 * f3 - f0 * f1 * f3 - f0 * f1 * f2


def collision_at(p0_vals: np.ndarray, f, z_nodes: np.ndarray,
                 z_wts: np.ndarray, *, support) -> np.ndarray:
    """C[f](p0) for a callable finite spectrum `f` on a supplied p2 rule,
    bit for bit the full rule's.

    `support` lists closed intervals (lo, hi) outside whose union f is
    zero.  ValueError is raised before any work when the rows, nodes or
    weights are not 1-D, the weights' shape is not the nodes', one of them
    is not finite, a row or node lies outside [0, 2pi], or f is nonzero at
    a row or node outside the support.

    A term is live where f1 != 0, or f0 != 0 and f2 != 0; every other term
    is exactly zero (+0.0 for f >= 0).  So rows with f(p0) != 0 run over
    every p2 node, and rows with f(p0) = 0 over the columns f(p2) != 0.
    A (row, chunk of _CHUNK columns) pair is kept where `manifold.h_range`
    lets p1 = h(p0, p2) reach the support shifted by -2pi, 0 or 2pi (as
    `canonicalize` shifts h), or, on a row with f0 != 0, where the chunk
    holds a node with f2 != 0.  Kept pairs compute p1 and f(p1); live terms
    compute p3, f(p3), the weight (from `half_angles` taken once per row
    and node) and the bracket.  Each row scatters its live terms into a
    zero-filled full row and sums it, pairing terms as the full rule does.
    Row blocks and batches of _BATCH run on the calling thread: they are
    too short for two threads to overlap.
    """
    checked = (("output row", p0_vals), ("p2 node", z_nodes), ("p2 weight", z_wts))
    for what, p in checked:
        if np.ndim(p) != 1:
            raise ValueError(f"the {what}s must be a 1-D array, got shape {np.shape(p)}")
    if z_wts.shape != z_nodes.shape:
        raise ValueError(f"the p2 weights have shape {z_wts.shape}, "
                         f"the p2 nodes {z_nodes.shape}")
    for what, p in checked:
        if not np.all(np.isfinite(p)):
            raise ValueError(f"the {what} {float(p[~np.isfinite(p)][0])!r} is not finite")
    for what, p in checked[:2]:
        outside = (p < 0.0) | (p > TWO_PI)
        if outside.any():
            raise ValueError(f"the {what} {float(p[outside][0])!r} lies outside [0, 2pi]")
    out = np.empty(p0_vals.size)
    f0, f2 = f(p0_vals), f(z_nodes)
    sup_lo, sup_hi = np.asarray(support, dtype=float).reshape(-1, 2).T
    for what, p in (("output row", p0_vals[f0 != 0.0]), ("p2 node", z_nodes[f2 != 0.0])):
        outside = p[~np.any((p[:, None] >= sup_lo) & (p[:, None] <= sup_hi), axis=1)]
        if outside.size:
            raise ValueError(f"f is nonzero at the {what} {float(outside[0])!r}, "
                             f"outside the support {support}")
    reach = [(a + s, b + s) for s in (-TWO_PI, 0.0, TWO_PI) for a, b in zip(sup_lo, sup_hi)]
    (sx, cx), (sz, cz) = half_angles(p0_vals), half_angles(z_nodes)
    index = np.arange(z_nodes.size)
    pairs = max(1, _BATCH // _CHUNK)  # (row, chunk) pairs per batch
    row = np.zeros(z_nodes.size)
    cur, filled = None, []  # the row being scattered, and its live columns
    # a slice makes the columns of every p2 node views, not copies
    for row_live, rows, sel in ((True, np.flatnonzero(f0 != 0.0), slice(None)),
                                (False, np.flatnonzero(f0 == 0.0), np.flatnonzero(f2 != 0.0))):
        cols, z, wz, fz = index[sel], z_nodes[sel], z_wts[sel], f2[sel]
        starts = np.arange(0, z.size, _CHUNK)
        z_lo, z_hi = np.minimum.reduceat(z, starts), np.maximum.reduceat(z, starts)
        z_live = np.logical_or.reduceat(fz != 0.0, starts)
        step = max(1, _BATCH // max(1, starts.size))
        for r0 in range(0, rows.size, step):
            blk = rows[r0:r0 + step]
            x, fx = p0_vals[blk], f0[blk]
            lo, hi = h_range(x[:, None], z_lo, z_hi)
            keep = np.zeros(lo.shape, dtype=bool)
            if row_live:
                keep |= z_live
            for a, b in reach:
                keep |= ~((hi < a) | (lo > b))
            pair_r, pair_k = np.divmod(np.flatnonzero(keep), max(1, starts.size))
            out[blk] = 0.0  # a row with no live term
            for j in range(0, pair_r.size, pairs):
                # every column of the batch's pairs, in (row, column) order
                k = pair_k[j:j + pairs]
                size = np.minimum(_CHUNK, z.size - starts[k])
                first = np.cumsum(size) - size
                r = np.repeat(pair_r[j:j + pairs], size)
                c = np.arange(r.size) + np.repeat(starts[k] - first, size)
                xq, zq = x[r], z[c]
                p1, t = _h_parts(xq, zq)[:2]
                f1 = f(p1)
                live = f1 != 0.0
                if row_live:
                    live |= fz[c] != 0.0
                i = np.flatnonzero(live)
                r, c, xq, zq, p1 = r[i], c[i], xq[i], zq[i], p1[i]
                at, row_at = cols[c], blk[r]
                terms = wz[c] * _weight(sx[row_at], cx[row_at], sz[at], cz[at], t[i]) * _bracket(
                    fx[r], f1[i], fz[c], f(canonicalize(xq + p1 - zq)))
                # a row's terms may go on in the next batch: it is summed when
                # the next row's terms begin, in this block or a later one
                bounds = np.flatnonzero(np.diff(r, prepend=-1, append=-1))
                for s0, s1 in zip(bounds[:-1], bounds[1:]):
                    if row_at[s0] != cur:
                        if cur is not None:
                            out[cur] = np.sum(row)
                            row[np.concatenate(filled)] = 0.0
                        cur, filled = row_at[s0], []
                    row[at[s0:s1]] = terms[s0:s1]
                    filled.append(at[s0:s1])
                # freed before the next batch makes its own
                del r, c, xq, zq, p1, t, f1, live, i, at, row_at, terms
    if cur is not None:
        out[cur] = np.sum(row)
    return out


def check_table_n(n: int) -> None:
    """Raise ResolutionError when a grid of n nodes would need a whole
    resonance table above TABLE_MAX_N: each loop that owns one (C[f], the
    perturbation right-hand side, a `nonlin` run) checks before any work."""
    if n > TABLE_MAX_N:
        raise ResolutionError(f"a grid of n = {n} needs a whole resonance table, which "
                              f"is built only up to n = {TABLE_MAX_N} (TABLE_MAX_N)")


def collision_map(grid: Grid, interp: str = "linear"):
    """C[f] at the nodes of `grid`, as a callable of unchecked node values,
    for a loop that applies it many times: one packed ResonanceTable lives
    as long as the callable.  The mass of C[f] cancels term by term; energy
    is conserved to quadrature accuracy only.  A grid above TABLE_MAX_N
    raises ResolutionError before any table is built."""
    check_table_n(grid.n)
    tab = ResonanceTable(grid, interp)
    return lambda vals: grid.weight * tab.exchange_sum(
        vals, lambda s, *f4: tab.W[s] * _bracket(*f4))


def collision_operator(f: Field, interp: str = "linear",
                       pos_floor: float = POS_FLOOR) -> Field:
    """C[f] at every grid node of a field above the positivity floor, from a
    `collision_map` built for this call alone."""
    f.require_positive(pos_floor)
    return Field(f.grid, collision_map(f.grid, interp)(f.values))


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
    """The three momenta of the L^p-unboundedness construction: the base
    point p0 and the fold (p1, p2) of z -> h(p0, z) on (p0, 2pi), where its
    two inverse branches z and p0 + p1 - z meet, so 2 p2 = p0 + p1 + 2pi and
    p3 returns to p2.  p1 is the largest value h(p0, .) takes there, and a
    spectrum concentrated near these points feeds one output channel at p0.
    """
    p0: float
    p1: float
    p2: float


def blowup_points(p0: float = 2.0) -> BlowupPoints:
    """The fold triple in closed form: p1 = y', the lower zero of F-(p0, .)
    (`manifold.f_minus_zeros`), and p2 = (p0 + p1)/2 + pi, which lies in
    (p0, 2pi) since p1 < 2pi - p0."""
    p1 = f_minus_zeros(p0).y_prime
    return BlowupPoints(p0=p0, p1=p1, p2=0.5 * (p0 + p1) + np.pi)


def bump_support(eps: float, pts: BlowupPoints) -> tuple:
    """The intervals [lo, hi) of the three bumps of `three_bumps`:
    [p0, p0 + eps^2), [p1 - eps^2, p1) and [p2, p2 + eps), in that order.
    Their closed hulls are the `support` that `collision_at` takes."""
    e2 = eps ** 2
    return (pts.p0, pts.p0 + e2), (pts.p1 - e2, pts.p1), (pts.p2, pts.p2 + eps)


def three_bumps(eps: float, p_exp: float, pts: BlowupPoints):
    """The exact three-bump spectrum as a callable of the momentum: heights
    eps^{-2/p}, eps^{-2/p}, eps^{-1/p} on the intervals of `bump_support`,
    zero elsewhere.  The eps^2 bump at the fold value p1 sits below it,
    since h(p0, .) takes values <= p1 only there."""
    if not p_exp > 0.0:
        raise ValueError(f"p must be positive, got {p_exp}")
    amp2 = eps ** (-2.0 / p_exp)
    amp1 = eps ** (-1.0 / p_exp)
    (a0, b0), (a1, b1), (a2, b2) = bump_support(eps, pts)

    def f(p):
        p = np.asarray(p)
        v = amp2 * (((p >= a0) & (p < b0)) | ((p >= a1) & (p < b1))).astype(float)
        return v + amp1 * ((p >= a2) & (p < b2)).astype(float)

    return f
