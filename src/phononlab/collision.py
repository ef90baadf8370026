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
of the p0 and p2 nodes maps (p0,p1,p2,p3) -> (p2,p3,p0,p1) exactly, which
flips the sign of the bracket.  Total mass of C[f] therefore cancels to
rounding, independently of resolution; energy conservation holds to
quadrature accuracy only.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .grid import Field, Grid, gather, interp_weights
from .manifold import TWO_PI, h, resonant_kernel

# full (n x n) tables above this size would not fit comfortably; larger grids
# are walked in row-sliced tables of _CHUNK_ROWS output nodes
TABLE_MAX_N = 2048
_CHUNK_ROWS = 128


class ResonanceTable:
    """Precomputed geometry and interpolation stencils for one grid.

    Row r of the arrays belongs to output node `rows`[r] (all nodes by
    default); columns run over every p2 node.  The full table is reused by
    the collision operator, the linearized assembly, and time stepping;
    building it is the only O(n^2) trigonometric cost.
    """

    _cache: dict = {}
    _cache_lock = threading.Lock()

    def __init__(self, grid: Grid, interp: str = "linear", rows=slice(None)):
        self.grid = grid
        self.interp = interp
        self.rows = rows
        nodes = grid.nodes
        self.P1, self.P3, self.W = resonant_kernel(nodes[rows, None], nodes[None, :])
        self.i1 = interp_weights(grid, self.P1, interp)
        self.i3 = interp_weights(grid, self.P3, interp)

    @classmethod
    def cached(cls, grid: Grid, interp: str = "linear") -> "ResonanceTable":
        key = (grid.n, interp)
        with cls._cache_lock:
            tab = cls._cache.get(key)
        if tab is None:
            tab = cls(grid, interp)
            with cls._cache_lock:
                if len(cls._cache) > 4:
                    cls._cache.clear()
                cls._cache[key] = tab
        return tab


def _row_blocks(grid: Grid, interp: str):
    """The cached full table, or for grids above TABLE_MAX_N row-sliced
    tables of _CHUNK_ROWS output nodes, each built when it is reached."""
    if grid.n <= TABLE_MAX_N:
        yield ResonanceTable.cached(grid, interp)
        return
    for r0 in range(0, grid.n, _CHUNK_ROWS):
        yield ResonanceTable(grid, interp, slice(r0, r0 + _CHUNK_ROWS))


# the row-block worker pool: (worker count, executor), created on first use
_pool: tuple | None = None
_pool_lock = threading.Lock()


def pool_workers() -> int:
    """Row-block workers: the PHONON_THREADS cap (which --threads sets) when
    one is set, else the number of CPUs this process may run on."""
    cap = os.environ.get("PHONON_THREADS")
    if cap:
        return max(1, int(cap))
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_blocks(fn, blocks) -> list:
    """[fn(b) for b in blocks], run on the row-block worker pool.

    Results come back in block order and an exception raised by a block
    reaches the caller unchanged.  With one worker, or one block, the blocks
    run inline and no thread is started.  The blocks must be independent
    (each writes only its own rows) and `fn` must not call map_blocks.
    numpy releases the interpreter lock inside its array loops, so blocks of
    elementwise work overlap on separate cores; a block computes the same
    bits on any thread.
    """
    global _pool
    blocks = list(blocks)
    workers = pool_workers()
    if workers == 1 or len(blocks) <= 1:
        return [fn(b) for b in blocks]
    with _pool_lock:
        if _pool is None or _pool[0] != workers:
            # imported here: a run that never uses the pool does not pay for it
            from concurrent.futures import ThreadPoolExecutor
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (workers, ThreadPoolExecutor(workers, thread_name_prefix="phononlab"))
        futures = [_pool[1].submit(fn, b) for b in blocks]
    try:
        return [fut.result() for fut in futures]
    finally:
        for fut in futures:
            fut.cancel()


def _bracket(f0, f1, f2, f3):
    return f1 * f2 * f3 + f0 * f2 * f3 - f0 * f1 * f3 - f0 * f1 * f2


def collision_operator(f: Field, interp: str = "linear",
                       pos_floor: float = 1e-12) -> Field:
    """Evaluate C[f] at every grid node."""
    f.require_positive(pos_floor)
    grid = f.grid
    vals = f.values
    out = np.empty(grid.n)
    for tab in _row_blocks(grid, interp):
        br = _bracket(vals[tab.rows, None], gather(vals, tab.i1), vals[None, :],
                      gather(vals, tab.i3))
        out[tab.rows] = grid.weight * np.sum(tab.W * br, axis=1)
    return Field(grid, out)


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
    e2 = eps ** 2
    amp2 = eps ** (-2.0 / p_exp)
    amp1 = eps ** (-1.0 / p_exp)

    def f(p):
        p = np.asarray(p)
        v = amp2 * (((p >= pts.p0) & (p < pts.p0 + e2)) |
                    ((p >= pts.p1 - e2) & (p < pts.p1))).astype(float)
        return v + amp1 * ((p >= pts.p2) & (p < pts.p2 + eps)).astype(float)

    return f


def epsilon_family(eps: float, grid: Grid, p_exp: float = 2.0,
                   points: BlowupPoints | None = None) -> Field:
    """Three-bump test family with uniformly bounded L^p norm: `three_bumps`
    sampled on the grid nodes."""
    if not (0.0 < eps <= 0.1):
        raise ValueError(f"eps must be in (0, 0.1], got {eps}")
    if grid.n < 32.0 / eps ** 2:
        raise ResolutionError(
            f"grid n={grid.n} cannot resolve eps^2; need n >= {32.0 / eps ** 2:.0f}")
    return Field(grid, three_bumps(eps, p_exp, points or blowup_points())(grid.nodes))
