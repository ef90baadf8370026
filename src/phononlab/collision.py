"""The reduced four-phonon collision operator on a grid.

With the delta constraints integrated out in favor of the p2 variable, the
operator reads

    C[f](p0) = int_0^2pi  (omega0 omega1 omega2 omega3 / sqrt(F+(p0, p2)))
               * [f1 f2 f3 + f0 f2 f3 - f0 f1 f3 - f0 f1 f2]  dp2,

where p1 = h(p0, p2) and p3 = p0 + p1 - p2 are resolved on the nontrivial
branch of the resonant manifold (trivial resonances are dropped: their
integrand cancels and they carry no transport).  On a grid both p0 and p2
run over the nodes; p1 and p3 fall off-grid and the spectrum is evaluated
there by periodic interpolation.

The tensor rule inherits a discrete exchange symmetry: swapping the roles
of the p0 and p2 nodes maps (p0,p1,p2,p3) -> (p2,p3,p0,p1), keeps the
kernel weight and flips the sign of the bracket.  So the resonance table
stores each node pair once, on the strict upper triangle, and every
consumer reads both orders from that one entry: here each pair adds its
term to row i and subtracts it from row j, and the total mass of C[f]
cancels term by term, independently of resolution; energy conservation
holds to quadrature accuracy only.

A loop that applies C[f] or the perturbation right-hand side many times
owns one whole table for as long as it runs (`collision_map`,
`PerturbationTables`); the linearized assembly reads the table once, so
`_packed_blocks` streams it as transient blocks and holds no whole table.
The whole table is the one path of C[f] on a grid, up to TABLE_MAX_N
nodes; a larger grid raises ResolutionError before any table is built.

`collision_at` is the one engine for the integral off the table: output
rows, a p2 rule and a callable spectrum.  A row with f(p0) = 0 reads only
the support columns f(p2) != 0, and every row computes p3, f(p3), the
weight and the bracket only on its live terms, where a factor f1 or f2
can be nonzero (every other term is exactly zero), yet it sums its whole
row, so the bits are the full rule's.

Importing this module pins glibc's malloc thresholds (`_pin_malloc`).
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .grid import Field, Grid, gather, interp_weights
from .manifold import TWO_PI, _h_parts, _weight, canonicalize, h, resonant_kernel

# whole tables above this size would not fit comfortably: C[f] on a larger
# grid raises ResolutionError
TABLE_MAX_N = 2048
_TABLE_BLOCK = 1 << 16  # packed entries per table block (5.8 MB of linear table)
# kernel values per row block of `collision_at`, and table entries per block of
# the table's C[f] (512 KiB per float64 temporary)
_BLOCK_VALUES = 1 << 16

# glibc's malloc thresholds, pinned at import by `_pin_malloc`: every hot-loop
# block (_BLOCK_VALUES and _TABLE_BLOCK here, the blocks of `linearized` and
# `dynamics`, the slabs of `experiments.verify_suite`) keeps its temporaries
# of 8-byte values under _MMAP_THRESHOLD
_MMAP_THRESHOLD = 1 << 20
_TRIM_THRESHOLD = 8 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters (malloc.h)


def _pin_malloc() -> bool:
    """Fix glibc's mmap threshold at 1 MiB and its trim threshold at 8 MiB;
    True when libc took both, False where libc has no mallopt.

    By default glibc raises the mmap threshold to the size of each mmapped
    block freed and hands the heap top back to the kernel after frees, so a
    loop of blocks faults in fresh pages for its temporaries block after
    block.  Pinned, temporaries under 1 MiB reuse heap pages, while arrays
    of 1 MiB and up (the n^2 matrices) stay mmapped and go back to the OS
    when freed.  The pin changes no result.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)) \
        and bool(mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


# this module owns the row-block pool, whose blocks the pin serves
_MALLOC_PINNED = _pin_malloc()


def _pairs(n: int, k0: int, k1: int):
    """Node pairs (i, j) of the packed entries k0..k1-1, in the order of
    np.triu_indices(n, 1), without forming the whole triangle."""
    r = np.arange(n)
    starts = r * (2 * n - 1 - r) // 2  # first entry of row r
    k = np.arange(k0, k1)
    i = np.searchsorted(starts, k, side="right") - 1
    return i, k - starts[i] + i + 1


class ResonanceTable:
    """Geometry and interpolation stencils of the tensor rule, one entry per
    node pair.

    Entry (i, j), j > i, holds p1 = P1 and p3 = P3 of the pair (p0, p2) =
    (node i, node j), their stencils i1 and i3, and the weight W; `i` and `j`
    hold the nodes.  The exchange maps the pair (j, i) onto (p2, p3, p0, p1)
    with the same weight, so the entry serves both orders: the p3 side of
    (i, j) is the p1 side of (j, i), P3 := P1^T.  On the diagonal h(x, x) = 0
    exactly, so W = 0 there and the diagonal is not stored.  Entries run over
    the strict upper triangle in np.triu_indices(n, 1) order: all of them by
    default, or the packed range `entries` = (k0, k1).  The table is built in
    blocks of _TABLE_BLOCK entries on the row-block pool.  Building it is
    the only O(n^2) trigonometric cost: a loop that reuses a whole table
    owns one (`collision_map`, `PerturbationTables`), while the linearized
    assembly streams transient blocks (`_packed_blocks`).
    """

    def __init__(self, grid: Grid, interp: str = "linear", entries=None):
        self.grid = grid
        self.interp = interp
        n = grid.n
        k0, k1 = entries or (0, n * (n - 1) // 2)
        self.i, self.j = _pairs(n, k0, k1)
        self.P1, self.P3, self.W = np.empty((3, k1 - k0))
        points = len(interp_weights(grid, np.empty(0), interp)[0])  # checks interp too
        self.i1, self.i3 = ((tuple(np.empty((points, k1 - k0), np.int64)),
                             tuple(np.empty((points, k1 - k0)))) for _ in range(2))
        nodes = grid.nodes

        def fill(s):
            self.P1[s], self.P3[s], self.W[s] = resonant_kernel(nodes[self.i[s]],
                                                                nodes[self.j[s]])
            for (idx, wts), p in ((self.i1, self.P1[s]), (self.i3, self.P3[s])):
                got_idx, got_wts = interp_weights(grid, p, interp)
                for dst, src in zip(idx + wts, got_idx + got_wts):
                    dst[s] = src

        map_blocks(fill, [slice(b, b + _TABLE_BLOCK) for b in range(0, k1 - k0, _TABLE_BLOCK)])

    def exchange_sum(self, v: np.ndarray, term, block: int) -> np.ndarray:
        """Row sums over the full rule of an integrand that flips sign under
        the exchange (and so vanishes on the diagonal).

        term(s, v0, v1, v2, v3) is the integrand on the entries s, from the
        values v at the nodes i, j and interpolated at P1, P3; each entry adds
        it into row i and subtracts it from row j.  Blocks of `block` entries
        gather once each side and scatter with two bincounts.
        """
        n = self.grid.n
        out = np.zeros(n)
        for b0 in range(0, self.W.size, block):
            s = slice(b0, b0 + block)
            i, j = self.i[s], self.j[s]
            t = term(s, v[i], gather(v, self.i1, s), v[j], gather(v, self.i3, s))
            out += np.bincount(i, t, minlength=n)
            out -= np.bincount(j, t, minlength=n)
        return out


def _packed_blocks(grid: Grid, interp: str):
    """A transient ResonanceTable for each block of _TABLE_BLOCK packed
    entries, yielded in order and built on the row-block pool a few blocks
    ahead of the caller (`imap_blocks`), so no whole table is held at any n.
    A block's entries are computed elementwise, so they carry the bits of
    the same slice of a whole table."""
    size = grid.n * (grid.n - 1) // 2
    return imap_blocks(lambda k: ResonanceTable(grid, interp, (k, min(k + _TABLE_BLOCK, size))),
                       range(0, size, _TABLE_BLOCK))


# the row-block worker pool: (worker count, executor), created on first use;
# its threads carry `_thread.pooled`, so work nested in a block runs inline
_pool: tuple | None = None
_pool_lock = threading.Lock()
_thread = threading.local()


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


def _inline(workers: int) -> bool:
    return workers == 1 or getattr(_thread, "pooled", False)


def _submit(workers: int, fn, blocks) -> list:
    """Futures of fn(b) for b in blocks on the pool of `workers` threads."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != workers:
            # imported here: a run that never uses the pool does not pay for it
            from concurrent.futures import ThreadPoolExecutor
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (workers, ThreadPoolExecutor(
                workers, thread_name_prefix="phononlab",
                initializer=lambda: setattr(_thread, "pooled", True)))
        return [_pool[1].submit(fn, b) for b in blocks]


def map_blocks(fn, blocks) -> list:
    """[fn(b) for b in blocks], run on the row-block worker pool.

    Results come back in block order and an exception raised by a block
    reaches the caller unchanged.  The blocks run inline, and no thread is
    started, with one worker, with one block, or when the call comes from a
    pool thread (a block that itself calls map_blocks), so nested calls
    cannot wait on each other.  The blocks must be independent (each writes
    only its own rows).  numpy releases the interpreter lock inside its
    array loops, so blocks of elementwise work overlap on separate cores; a
    block computes the same bits on any thread.  Every block is submitted
    at once: use `imap_blocks` where the results are large.
    """
    blocks = list(blocks)
    workers = pool_workers()
    if _inline(workers) or len(blocks) <= 1:
        return [fn(b) for b in blocks]
    futures = _submit(workers, fn, blocks)
    try:
        return [fut.result() for fut in futures]
    finally:
        for fut in futures:
            fut.cancel()


def imap_blocks(fn, blocks):
    """fn(b) for b in blocks, yielded lazily in block order while the pool
    computes at most pool_workers() blocks ahead of the caller, so only
    those results and the one the caller holds are alive.  Inline where
    map_blocks would be; an exception reaches the caller unchanged."""
    blocks = list(blocks)
    workers = pool_workers()
    if _inline(workers) or len(blocks) <= 1:
        yield from map(fn, blocks)
        return
    ahead = []
    try:
        for b in blocks:
            ahead += _submit(workers, fn, [b])
            if len(ahead) == workers:
                yield ahead.pop(0).result()
        while ahead:
            yield ahead.pop(0).result()
    finally:
        for fut in ahead:
            fut.cancel()


def _bracket(f0, f1, f2, f3):
    return f1 * f2 * f3 + f0 * f2 * f3 - f0 * f1 * f3 - f0 * f1 * f2


def collision_at(p0_vals: np.ndarray, f, z_nodes: np.ndarray,
                 z_wts: np.ndarray) -> np.ndarray:
    """C[f](p0) for a callable finite spectrum `f` on a supplied p2 rule.

    Rows with f(p0) != 0 run over every p2 node; a row with f(p0) = 0 has
    the bracket f1 f2 f3 + 0 - 0 - 0, so it runs only over the support
    columns f(p2) != 0.  Each block of rows first computes p1 = h(p0, p2)
    and f1 = f(p1) on all its entries, then gathers the live ones, where
    f1 != 0, or f0 != 0 and f2 != 0, and computes p3, f(p3), the weight W
    and the bracket on those alone.  Every other entry has a zero factor in
    each product of the bracket, so the full rule's term there is zero
    (+0.0 for f >= 0).  Each row scatters its live terms into a zero-filled
    row of full length and sums the whole row, so every term is the full
    rule's and the sum pairs them as the full rule does: the result is bit
    for bit the full rule's (summing the compressed terms would pair them
    differently).  A row with no live term is +0.0.  Rows run in blocks of
    _BLOCK_VALUES kernel values on the row-block pool; each block writes
    only its own rows, so the worker count does not change the bits.
    """
    out = np.empty(p0_vals.size)
    f0, f2 = f(p0_vals), f(z_nodes)
    blocks = []
    for rows, cols in ((np.flatnonzero(f0 != 0.0), slice(None)),
                       (np.flatnonzero(f0 == 0.0), np.flatnonzero(f2 != 0.0))):
        p2 = (cols, z_nodes[cols], z_wts[cols], f2[cols])
        step = max(1, _BLOCK_VALUES // max(1, p2[1].size))
        blocks += [(rows[r0:r0 + step], p2) for r0 in range(0, rows.size, step)]

    def run(block):
        blk, (cols, z, wz, fz) = block
        x = p0_vals[blk, None]
        p1, t = _h_parts(x, z)[:2]
        f1 = f(p1)
        # a term lives where f1 != 0, and on rows with f0 != 0 also where
        # f2 != 0 (rows with f0 = 0 run over the support f2 != 0 alone)
        live = f1 != 0.0
        if f0[blk[0]] != 0.0:
            live |= fz != 0.0
        # the live (row, column) pairs; np.nonzero on the 2-d mask is ten
        # times slower
        r, c = np.divmod(np.flatnonzero(live), z.size)
        at = np.arange(z_nodes.size)[cols][c]
        x, z, p1 = x[r, 0], z[c], p1[r, c]
        terms = wz[c] * _weight(x, z, t[r, c]) * _bracket(
            f0[blk][r], f1[r, c], fz[c], f(canonicalize(x + p1 - z)))
        row = np.zeros(z_nodes.size)
        end = 0
        for k, m in zip(blk, np.bincount(r, minlength=blk.size)):
            if not m:
                out[k] = 0.0
                continue
            k_cols = at[end:end + m]
            row[k_cols] = terms[end:end + m]
            end += m
            out[k] = np.sum(row)
            row[k_cols] = 0.0  # the next row's live columns may differ

    map_blocks(run, blocks)
    return out


def collision_map(grid: Grid, interp: str = "linear"):
    """C[f] at the nodes of `grid` as a callable of unchecked node values,
    built once for a loop that applies it many times from one whole
    ResonanceTable that lives as long as the callable, each pair once for
    both of its orders.  A grid above TABLE_MAX_N raises ResolutionError
    before any table is built."""
    if grid.n > TABLE_MAX_N:
        raise ResolutionError(f"C[f] on a grid of n = {grid.n} needs a whole resonance "
                              f"table, which is built up to n = {TABLE_MAX_N} only")
    tab = ResonanceTable(grid, interp)
    return lambda vals: grid.weight * tab.exchange_sum(
        vals, lambda s, *f4: tab.W[s] * _bracket(*f4), _BLOCK_VALUES)


def collision_operator(f: Field, interp: str = "linear",
                       pos_floor: float = 1e-12) -> Field:
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

    p0 is the chosen base point, p2 the maximizer of z -> h(p0, z), and
    p1 = h(p0, p2) the fold value; at this triple the companion momentum
    returns to p2, so a spectrum concentrated near these points feeds a
    single output channel at p0.
    """
    p0: float
    p1: float
    p2: float


def blowup_points(p0: float = 2.0) -> BlowupPoints:
    """Locate the unboundedness triple by maximizing h(p0, .) on (p0, 2pi)."""
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
    return BlowupPoints(p0=p0, p1=float(h(p0, z0)), p2=z0)


def three_bumps(eps: float, p_exp: float, pts: BlowupPoints):
    """The exact three-bump spectrum as a callable of the momentum.

    Heights eps^{-2/p}, eps^{-2/p}, eps^{-1/p} on [p0, p0 + eps^2),
    [p1 - eps^2, p1) and [p2, p2 + eps).  The eps^2 bump at the fold value
    p1 sits below it: the parameterization sweeps values h(p0, .) <= p1
    only, so that side is the one the resonance actually visits.
    """
    if not p_exp > 0.0:
        raise ValueError(f"p must be positive, got {p_exp}")
    e2 = eps ** 2
    amp2 = eps ** (-2.0 / p_exp)
    amp1 = eps ** (-1.0 / p_exp)

    def f(p):
        p = np.asarray(p)
        v = amp2 * (((p >= pts.p0) & (p < pts.p0 + e2)) |
                    ((p >= pts.p1 - e2) & (p < pts.p1))).astype(float)
        return v + amp1 * ((p >= pts.p2) & (p < pts.p2 + eps)).astype(float)

    return f
