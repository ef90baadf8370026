"""The reduced four-phonon collision operator on a grid.

With the delta constraints integrated out in favor of the p2 variable, the
operator reads

    C[f](p0) = int_0^2pi  (omega0 omega1 omega2 omega3 / sqrt(F+(p0, p2)))
               * [f1 f2 f3 + f0 f2 f3 - f0 f1 f3 - f0 f1 f2]  dp2,

where p1 = h(p0, p2) and p3 = p0 + p1 - p2 are resolved on the nontrivial
branch of the resonant manifold (trivial resonances are dropped: their
integrand cancels and they carry no transport).  On a grid both p0 and p2
run over the nodes; p1 and p3 fall off-grid and the spectrum is evaluated
there by periodic interpolation, in Horner form (`grid.gather`).

The tensor rule inherits a discrete exchange symmetry: swapping the roles
of the p0 and p2 nodes maps (p0,p1,p2,p3) -> (p2,p3,p0,p1), keeps the
kernel weight and flips the sign of the bracket.  So the resonance table
stores each node pair once, on the strict upper triangle, and every
consumer reads both orders from that one entry: here each pair adds its
term to row i and subtracts it from row j, and the total mass of C[f]
cancels term by term, independently of resolution; energy conservation
holds to quadrature accuracy only.

The reflection p -> 2pi - p maps the pairs i + j > n - 1 onto the pairs
i + j < n - 1, and each self-mirror pair i + j = n - 1 onto itself.  The
half table, the pairs i + j <= n - 1 with W halved on the self-mirror
ones, is defined once (`ResonanceTable` with a `span`, `_half_entries`):
summed and then reflected, it gives the whole rule's sums wherever the
integrand is reflection-invariant: L's, and Q + N's on even data.
A loop that applies C[f] or the perturbation right-hand side many times
owns one table for as long as it runs: the whole one (`collision_map`,
`PerturbationTables` on any data) or the half one (`PerturbationTables`
on even data).  Both store `i` in sorted runs, one per row, so such a
loop sums row i over the runs (`exchange_sum`, with the run starts
`ResonanceTable.runs` found once, on its first call) and row j by a
bincount.  The linearized assembly reads the table once, so
`_packed_blocks` streams the half table as transient blocks (built by
`map_blocks`, the row-block pool's one entry point) and holds no whole
table.
The whole table is the one path of C[f] on a grid, up to TABLE_MAX_N
nodes; on a larger grid C[f], the perturbation tables and the `nonlin`
run raise ResolutionError (`check_table_n`) before any table is built.

`collision_at` is the one engine for the integral off the table: output
rows, a p2 rule, a callable spectrum and the intervals outside which it
vanishes.  A row with f(p0) = 0 reads only the support columns
f(p2) != 0; p1 = h(p0, p2) is computed only on the chunks of columns
where an interval bound on h (`manifold.h_range`) lets it reach the
support, or where f(p0) != 0 and the chunk holds a node with f(p2) != 0;
and p3, f(p3), the weight and the bracket only on the live terms, where
a factor f1 or f2 can be nonzero (every other term is exactly zero).
Each row still sums its whole row, so the bits are the full rule's.  The
weight's half-angle sines and cosines are taken once per row and p2 node
(`manifold.half_angles`) and gathered onto the live terms.  The engine
runs on the calling thread: its batches are too short for two threads to
overlap.

Importing this module pins glibc's malloc thresholds and caps it at one
arena (`_pin_malloc`).
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .grid import POS_FLOOR, Field, Grid, _stencil_shape, gather, horner, interp_weights
from .manifold import (TWO_PI, _h_parts, _weight, canonicalize, f_minus_zeros, h_range,
                       half_angles, resonant_kernel)

# whole tables above this size would not fit comfortably: C[f] on a larger
# grid raises ResolutionError
TABLE_MAX_N = 2048
# packed entries per table block: a block's widest allocation, `page_aligned`
# rows of P1, P3 and W, takes 388 KiB, under the mmap threshold below
_TABLE_BLOCK = 1 << 14
# table entries per block of `ResonanceTable.exchange_sum` (128 KiB per
# float64 temporary; n = 256 has 32,640 entries, its half table 16,384).
# Blocks of 2^11 to 2^13 made the relax right-hand side slower, not faster
_EXCHANGE_BLOCK = 1 << 14
# collision_at: consecutive p2 columns per chunk of its bound on p1, and
# (row, chunk) pairs per row block and candidate entries per batch (64 KiB
# per float64 temporary: a candidate gathers its row and column values,
# where a table block reads them in place).  Batches of 2^15 peaked 19%
# higher in the blowup benchmark
_CHUNK = 64
_BATCH = 1 << 13

# glibc's malloc settings, pinned at import by `_pin_malloc`: every hot-loop
# block keeps each of its allocations under _MMAP_THRESHOLD, those on the
# row-block pool (_TABLE_BLOCK, the slabs of `experiments.verify_suite`) and
# those on the calling thread (_EXCHANGE_BLOCK, _BATCH, the sub-blocks of
# `linearized`)
_MMAP_THRESHOLD = 1 << 20
_TRIM_THRESHOLD = 8 << 20
# mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def _pin_malloc() -> bool:
    """Fix glibc's mmap threshold at 1 MiB and its trim threshold at 8 MiB,
    and cap it at one malloc arena; True when libc took all three, False
    where libc has no mallopt.

    By default glibc raises the mmap threshold to the size of each mmapped
    block freed and hands the heap top back to the kernel after frees, so a
    loop of blocks faults in fresh pages for its temporaries block after
    block.  Pinned, allocations under 1 MiB reuse heap pages, while arrays
    of 1 MiB and up (the n^2 matrices) stay mmapped and go back to the OS
    when freed.  By default, too, each thread that allocates gets an arena
    of its own, up to 8 per core, and each arena keeps up to the trim
    threshold of freed pages: the pool's workers would each hold their own
    pages beside the main heap.  With one arena they allocate from the main
    heap and reuse its pages.  The pin changes no result.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all(mallopt(param, value) for param, value in (
        (_M_MMAP_THRESHOLD, _MMAP_THRESHOLD), (_M_TRIM_THRESHOLD, _TRIM_THRESHOLD),
        (_M_ARENA_MAX, 1)))


# this module owns the loops of blocks that the pin serves, on the row-block
# pool and on the calling thread
_MALLOC_PINNED = _pin_malloc()


_PAGE = 4096  # bytes


def page_aligned(shape, dtype=float) -> np.ndarray:
    """An uninitialized array whose rows each start on a 4 KiB page.

    The arrays a loop over a table streams together are allocated so.
    From the heap, 128 KiB arrays start 16 bytes apart in their pages, and
    a loop that reads one a little behind where it writes another in the
    page stalls on false store dependencies (4K aliasing): the relax
    right-hand side took 10-15% longer in some heap states than in others."""
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
    """Packed indices of the entries k0 to k1 - 1, in table order, of the
    half of the table with i + j <= n - 1: in each row i < n // 2 the pairs
    with i + j < n - 1, then the self-mirror pair (i, n - 1 - i), so a run
    of n - 1 - 2i entries from the row's first; n^2 // 4 entries in all.
    The reflection maps node k onto n - 1 - k, and the exchange brings the
    reflected pair (n - 1 - j, n - 1 - i) back to the upper triangle."""
    size = n - 1 - 2 * np.arange(n // 2)
    first = np.cumsum(size) - size  # the half's index of each row's first entry
    k = np.arange(k0, k1)
    r = np.searchsorted(first, k, side="right") - 1
    return _row_starts(n, r) + k - first[r]


class ResonanceTable:
    """Geometry and interpolation stencils of the tensor rule, one entry per
    node pair.

    Entry (i, j), j > i, holds p1 = P1 and p3 = P3 of the pair (p0, p2) =
    (node i, node j), their stencils i1 and i3, and the weight W; `i` and `j`
    hold the nodes.  A stencil is the pair (q, t) of `grid.interp_weights`,
    so an entry takes 72 bytes at either order.  The exchange maps the pair
    (j, i) onto (p2, p3, p0, p1) with the same weight, so the entry serves
    both orders: the p3 side of (i, j) is the p1 side of (j, i),
    P3 := P1^T.  On the diagonal h(x, x) = 0 exactly, so W = 0 there and the
    diagonal is not stored.  Entries run over the strict upper triangle in
    np.triu_indices(n, 1) order: all of them by default, or with `span` =
    (k0, k1) the entries k0 to k1 - 1 of the half table (`_half_entries`),
    W halved on its self-mirror pairs i + j = n - 1,
    which its reflection shares with it: the one definition of the half
    table, which `PerturbationTables` builds whole for even data and
    `_packed_blocks` streams in spans.  The table is built in blocks of
    _TABLE_BLOCK entries on the row-block pool; a table of one block, as
    `_packed_blocks` streams, holds each array in an allocation under the
    pinned mmap threshold (`_pin_malloc`).  Building it is the only
    O(n^2) trigonometric cost: a loop that reuses a table owns one
    (`collision_map`, `PerturbationTables`), while the linearized assembly
    streams transient blocks of the half table (`_packed_blocks`).
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

        def fill(s):
            self.P1[s], self.P3[s], self.W[s] = resonant_kernel(nodes[self.i[s]],
                                                                nodes[self.j[s]])
            for (q, t), p in ((self.i1, self.P1[s]), (self.i3, self.P3[s])):
                q[s], t[s] = interp_weights(grid, p, interp)

        map_blocks(fill, [slice(b, b + _TABLE_BLOCK) for b in range(0, size, _TABLE_BLOCK)])
        if span is not None:
            self.W[self.i + self.j == n - 1] *= 0.5  # exact: the same bits halved
        self._values = np.empty((5, 0))  # exchange_sum's, grown to the block in use

    @functools.cached_property
    def runs(self) -> np.ndarray:
        """The first entry of each run of equal `i`: one run per row that
        holds entries, in increasing order.  Computed on the first
        `exchange_sum`, so only a table that a loop owns pays for it, never
        the blocks that `_packed_blocks` streams."""
        return np.flatnonzero(np.diff(self.i, prepend=-1))

    def exchange_sum(self, v: np.ndarray, term) -> np.ndarray:
        """Row sums over the full rule of an integrand that flips sign under
        the exchange (and so vanishes on the diagonal).

        term(s, v0, v1, v2, v3) is the integrand on the entries s, from the
        values v at the nodes i, j and interpolated at P1, P3; each entry adds
        it into row i and subtracts it from row j.  Blocks of _EXCHANGE_BLOCK
        entries gather once each side, from Horner coefficients of v built
        once per call, into page-aligned rows that the table owns: v0 to v3
        hold only until term returns, and calls must not overlap.  The
        entries store `i` in sorted runs, one per row, so row i's sums are
        one np.add.reduceat over the block's part of each run (the block's
        first entry starts a part too; the parts never come out empty, where
        reduceat would return an entry in place of a sum), and row j's a
        bincount.  A row with no entries gets nothing from the i side: row
        n - 1 of the whole table.
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
    """A transient ResonanceTable for each span of _TABLE_BLOCK entries of
    the half table, yielded in table order.  A consumer sums a block's
    terms and adds the reflection of the sum (`linearized`).  The blocks are built
    pool_workers() at a time, one `map_blocks` call per group, and each
    leaves the generator as it is yielded: at most pool_workers() blocks are
    alive (one more while a caller keeps the last of a group), and no whole
    table at any n.  Every allocation of a block stays under the pinned
    mmap threshold and every thread allocates from the one arena
    (`_pin_malloc`), so each block reuses the heap pages that the blocks
    before it freed, whichever worker builds it.  A block's entries are
    computed elementwise, so they carry the bits of the same entries of a
    whole half table."""
    size = grid.n ** 2 // 4
    spans = [(k, min(k + _TABLE_BLOCK, size)) for k in range(0, size, _TABLE_BLOCK)]
    step = pool_workers()
    for g in range(0, len(spans), step):
        group = map_blocks(lambda span: ResonanceTable(grid, interp, span),
                           spans[g:g + step])[::-1]
        while group:
            yield group.pop()


# the row-block worker pool's threads carry `_thread.pooled`, so work nested
# in a block runs inline
_thread = threading.local()


@functools.cache
def _executor(workers: int):
    """The row-block worker pool of `workers` threads, made on first use."""
    # imported here: a run that never uses the pool does not pay for it
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(workers, thread_name_prefix="phononlab",
                              initializer=lambda: setattr(_thread, "pooled", True))


def pool_workers() -> int:
    """Row-block workers: the PHONON_THREADS cap (which --threads sets) when
    one is set, else the number of CPUs this process may run on."""
    cap = os.environ.get("PHONON_THREADS")
    if cap:
        if not cap.isdecimal() or int(cap) < 1:
            raise ValueError(f"PHONON_THREADS must be an integer >= 1, got {cap!r}")
        return int(cap)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_blocks(fn, blocks) -> list:
    """[fn(b) for b in blocks], run on the row-block worker pool: the one
    function that submits work to it.

    Results come back in block order, an exception raised by a block
    reaches the caller unchanged, and the blocks not yet started are then
    cancelled: all three are `Executor.map`'s.  The blocks run inline, and
    no thread is started, with one worker, with one block, or when the call
    comes from a pool thread (a block that itself calls map_blocks), so
    nested calls cannot wait on each other.  The blocks must be independent
    (each writes only its own rows).  numpy releases the interpreter lock
    inside its array loops, so blocks of elementwise work overlap on
    separate cores; a block computes the same bits on any thread.  Every
    block is submitted at once, so every result is alive when the call
    returns.  `_executor` keeps one pool per worker count and needs no
    lock: only one thread at a time enters the pool, since a pool thread
    runs nested calls inline, and at worst two first calls racing would
    leave one idle executor.
    """
    blocks = list(blocks)
    workers = pool_workers()
    if workers == 1 or len(blocks) <= 1 or getattr(_thread, "pooled", False):
        return [fn(b) for b in blocks]
    return list(_executor(workers).map(fn, blocks))


def _bracket(f0, f1, f2, f3):
    return f1 * f2 * f3 + f0 * f2 * f3 - f0 * f1 * f3 - f0 * f1 * f2


def collision_at(p0_vals: np.ndarray, f, z_nodes: np.ndarray,
                 z_wts: np.ndarray, *, support) -> np.ndarray:
    """C[f](p0) for a callable finite spectrum `f` on a supplied p2 rule.

    `support` lists closed intervals (lo, hi) outside whose union f is
    zero.  ValueError is raised before any work when the rows, the p2 nodes
    or the weights are not 1-D, the weights' shape is not the nodes', a
    row, node or weight is not finite, a row or node lies outside
    [0, 2pi], or f is nonzero at a row or p2 node outside the support.
    Rows with f(p0) != 0 run over every p2 node; a row with f(p0) = 0 has
    the bracket f1 f2 f3 + 0 - 0 - 0, so it runs only over the support
    columns f(p2) != 0.  A term is live where f1 != 0, or f0 != 0 and
    f2 != 0; every other term has a zero factor in each product of the
    bracket, so the full rule's term there is zero (+0.0 for f >= 0).

    f1 != 0 needs p1 = h(p0, p2) in the support.  So the columns are split
    into chunks of _CHUNK consecutive ones, and the value that h reduces
    mod 2pi is bounded over each chunk's z-range (`manifold.h_range`).
    canonicalize shifts it by at most one period, so a (row, chunk) pair
    is kept where its bound meets the support shifted by -2pi, 0 or 2pi,
    and, on a row with f0 != 0, where the chunk holds a node with f2 != 0.
    Every other pair has no live term.  Only the columns of kept pairs
    compute p1 and f1 = f(p1), and only the live ones among them p3,
    f(p3), the weight W and the bracket.  Each row scatters its live terms
    into a zero-filled row of full length and sums the whole row, so every
    term is the full rule's and the sum pairs them as the full rule does:
    the result is bit for bit the full rule's (summing the compressed
    terms would pair them differently).  A row with no live term is +0.0.

    The weight's factors of one momentum are taken once per call on every
    row and p2 node (`half_angles`) and gathered onto the live terms; they
    are elementwise, so they have the bits of the terms' own p0 and p2.
    Rows run in blocks of _BATCH (row, chunk) pairs, one after another on
    the calling thread (a batch's numpy calls are too short for the
    row-block pool's threads to overlap), and each block expands its kept
    pairs in batches of _BATCH candidate entries at most; each block
    writes only its own rows, so the batches do not change the bits.
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
    blocks = []
    for rows, cols in ((np.flatnonzero(f0 != 0.0), slice(None)),
                       (np.flatnonzero(f0 == 0.0), np.flatnonzero(f2 != 0.0))):
        z, fz = z_nodes[cols], f2[cols]
        starts = np.arange(0, z.size, _CHUNK)
        p2 = (index[cols], z, z_wts[cols], fz, starts, np.minimum.reduceat(z, starts),
              np.maximum.reduceat(z, starts), np.logical_or.reduceat(fz != 0.0, starts))
        step = max(1, _BATCH // max(1, starts.size))
        blocks += [(rows[r0:r0 + step], p2) for r0 in range(0, rows.size, step)]

    def run(block):
        blk, (cols, z, wz, fz, starts, z_lo, z_hi, z_live) = block
        x, fx = p0_vals[blk], f0[blk]
        lo, hi = h_range(x[:, None], z_lo, z_hi)
        keep = np.zeros(lo.shape, dtype=bool)
        row_live = fx[0] != 0.0
        if row_live:
            keep |= z_live
        for a, b in reach:
            keep |= ~((hi < a) | (lo > b))
        pair_r, pair_k = np.divmod(np.flatnonzero(keep), max(1, starts.size))
        out[blk] = 0.0  # a row with no live term
        row = np.zeros(z_nodes.size)
        cur, filled = None, []  # the row being scattered, and its live columns
        pairs = max(1, _BATCH // _CHUNK)
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
            # the next row's terms begin
            bounds = np.flatnonzero(np.diff(r, prepend=-1, append=-1))
            for s0, s1 in zip(bounds[:-1], bounds[1:]):
                if row_at[s0] != cur:
                    if cur is not None:
                        out[cur] = np.sum(row)
                        row[np.concatenate(filled)] = 0.0
                    cur, filled = row_at[s0], []
                row[at[s0:s1]] = terms[s0:s1]
                filled.append(at[s0:s1])
        if cur is not None:
            out[cur] = np.sum(row)

    for block in blocks:
        run(block)
    return out


def check_table_n(n: int) -> None:
    """Raise ResolutionError when a grid of n nodes would need a whole
    resonance table above TABLE_MAX_N.  Each loop that owns a whole table
    (C[f] and the perturbation right-hand side) checks before any work."""
    if n > TABLE_MAX_N:
        raise ResolutionError(f"a grid of n = {n} needs a whole resonance table, which "
                              f"is built only up to n = {TABLE_MAX_N} (TABLE_MAX_N)")


def collision_map(grid: Grid, interp: str = "linear"):
    """C[f] at the nodes of `grid` as a callable of unchecked node values,
    built once for a loop that applies it many times from one whole
    ResonanceTable that lives as long as the callable, each pair once for
    both of its orders.  A grid above TABLE_MAX_N raises ResolutionError
    before any table is built."""
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
    """The three distinguished momenta of the L^p-unboundedness construction.

    p0 is the chosen base point and (p1, p2) the fold of z -> h(p0, z) on
    (p0, 2pi), where its two inverse branches meet: p1 = h(p0, p2) is the
    largest value h(p0, .) takes there, the lower zero y' of F-(p0, .), and
    the two preimages z and p0 + p1 - z of p1 coincide mod 2pi, so
    2 p2 = p0 + p1 + 2pi.  The companion momentum p3 = p0 + p1 - p2 thus
    returns to p2, and a spectrum concentrated near these points feeds a
    single output channel at p0.
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
    """The exact three-bump spectrum as a callable of the momentum.

    Heights eps^{-2/p}, eps^{-2/p}, eps^{-1/p} on the intervals of
    `bump_support`, [p0, p0 + eps^2), [p1 - eps^2, p1) and [p2, p2 + eps),
    and zero elsewhere.  The eps^2 bump at the fold value p1 sits below it:
    the parameterization sweeps values h(p0, .) <= p1 only, so that side is
    the one the resonance actually visits.
    """
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
