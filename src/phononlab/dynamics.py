"""Time evolution: the full kinetic equation and its perturbation form.

Two problems are integrated with the classical fixed-step RK4 scheme:

  * d/dt f = C[f]                  (evolve_nonlinear_f)
  * d/dt g = L g + Q[g] + N[g]     (evolve_perturbation, f = fb (1 + g))

L is the symmetric operator from the linearized module, applied through
its even and odd blocks (`LinOperator.apply`); Q and N are
the exact quadratic and cubic components of the expansion of C[fb(1+g)]/fb.
Expanding the collision bracket channel by channel (each channel drops its
own 1/f_l factor) keeps every term divisions-free in g, and makes each
order individually antisymmetric under the discrete exchange of the two
integration nodes, so the grid rule conserves mass to rounding at every
order.  Energy conservation and the remaining structure are monitored, not
corrected; their drift measures discretization quality.

The quadratic component is often written as 2[fb2 fb3 g2 g3 - fb0 fb1 g0 g1]
to leading structure; the exact component carries additional cross terms
weighted by resonance frequency differences, and those are kept: they are
what makes L + Q + N reproduce the full operator to rounding.

Q and N are evaluated together (PerturbationTables.nonlinear) over the
packed resonance table, which stores each node pair of the tensor rule
once, on the strict upper triangle.  Exchanging the p0 and p2 nodes maps
(p0,p1,p2,p3) to (p2,p3,p0,p1), so the p3 side of each entry serves as the
p1 side of its exchanged pair, and the fused integrand of Q + N is
antisymmetric under the exchange by construction.  Each entry then adds
its term to one row and subtracts it from the other: half the gathers and
channel arithmetic of the full rule, and mass that cancels term by term.
The pass writes the gathered values and the fused integrand into
page-aligned buffers that the tables own, one block of the table at a
time, and sums it into the rows over the table's sorted runs of i and by
a bincount over j (`ResonanceTable.exchange_sum`).
Against the full-matrix evaluation, Q + N agrees to rounding (the
summation order differs, and so, at the last bits, does the geometry that
the full rule computes afresh for each exchanged pair).

Even data halves that work again.  The dispersion, every Rayleigh-Jeans
equilibrium and the decay data are even under the reflection p -> 2pi - p,
which maps node k onto node n - 1 - k, and the equation commutes with it,
so an even g stays even.  On even g the entry (i, j) and its mirror
(n - 1 - j, n - 1 - i) carry mirror-image terms, and a self-mirror entry
i + j = n - 1 carries zero in exact arithmetic.  So the tables can hold the
half table of `collision` (the pairs i + j <= n - 1, W halved on the
self-mirror ones; n^2/4 entries for even n), the one the linearized
assembly streams: Q + N is its row sums h plus their reflection,
h + h[::-1], in which the two halves of each self-mirror term cancel.
`evolve_perturbation` takes this path when the odd part of g0 is rounding
(at most `linearized.EVEN_RTOL` of its sup), after making g0 exactly
even (`linearized.snap_even`), so L skips its odd block; any other
g0 runs on the whole table.  The step count of a run is bounded by
MAX_STEPS before any work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .collision import (ResonanceTable, check_table_n, collision_map, conserved_quantities,
                        entropy, page_aligned)
from .equilibria import RjParams, match_rj
from .errors import BlowupError, ConfigError, NonFiniteError, PositivityError
from .fitting import DecayReport, fit_power_law
from .grid import Field, Grid, lp_norm, weighted_sup
from .linearized import LinOperator, multiplier_a, snap_even

BLOWUP_FACTOR = 1e3
EPS_MAX = 0.1  # largest ||omega^-1/2 g0||_inf evolve_perturbation accepts
# largest t_final / dt a run may plan.  A default `nonlin` run plans 667
# steps and the largest plan of the test suite is 20,000; 10^6 steps at
# n = 256 take about 40 minutes of right-hand sides
MAX_STEPS = 10 ** 6
N_RECORDS = 64  # states recorded per run


@dataclass(frozen=True)
class EvolutionConfig:
    """Fixed-step RK4 integration parameters.  The run records on a
    geometric grid of N_RECORDS points, so long runs stay O(100) states;
    a schedule of more than MAX_STEPS steps is refused before any work."""
    dt: float
    t_final: float

    def __post_init__(self):
        # written so that NaN fails them too
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not (self.t_final >= self.dt and np.isfinite(self.t_final)):
            raise ConfigError(f"t_final must be finite and at least dt, got {self.t_final}")
        if self.t_final / self.dt > MAX_STEPS:  # as floats: before any int()
            raise ConfigError(f"t_final / dt = {self.t_final / self.dt:.3g} steps "
                              f"exceeds MAX_STEPS = {MAX_STEPS}")

    def record_times(self) -> np.ndarray:
        t0 = min(max(self.dt, 1.0), self.t_final)
        return np.geomspace(t0, self.t_final, N_RECORDS)


@dataclass
class Trajectory:
    """Recorded diagnostics of one run; states kept only at record times,
    rhs_evals counts the right-hand-side evaluations of the whole run and
    rhs_table_entries the resonance-table entries each of them sums over."""
    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    entropy: np.ndarray
    sup_w12: np.ndarray
    sup_w16: np.ndarray
    l2: np.ndarray
    states: list = field(repr=False)
    mass0: float
    energy0: float
    rhs_evals: int
    rhs_table_entries: int

    def conserved_drift(self):
        dm = float(np.max(np.abs(self.mass - self.mass0)) / abs(self.mass0))
        de = float(np.max(np.abs(self.energy - self.energy0)) / abs(self.energy0))
        return dm, de

    def decay_report(self, window) -> DecayReport:
        """Power-law fit of sup omega^1/2 |g| over the time window."""
        series = list(zip(self.times, self.sup_w12))
        exponent, stderr = fit_power_law(series, window)
        return DecayReport(exponent=exponent, stderr=stderr, series=series)


class PerturbationTables:
    """Channel weights W * (product of three equilibrium values) on the
    entries of the packed resonance table: the strict upper triangle j > i
    of the tensor rule, in the order of np.triu_indices(n, 1), or with
    `even` the half table of `collision` (i + j <= n - 1, W halved on the
    self-mirror pairs; `ResonanceTable` with a span of all of it), the same
    entries the linearized assembly streams, whose `nonlinear` serves even
    g only.

    The exchange of the p0 and p2 nodes maps (p0, p1, p2, p3) to
    (p2, p3, p0, p1), so the p3 side of (i, j) is the p1 side of (j, i):
    P3 := P1^T, and the table's P3 and i3 stencil serve as both.  G0..G3
    are the weights of the channels that drop f0..f3; the stencils and
    nodes are read from the table itself, which these tables build and own.
    A grid above TABLE_MAX_N raises ResolutionError before any table is
    built (`collision.check_table_n`).
    """

    def __init__(self, params: RjParams, grid: Grid, interp: str = "linear",
                 even: bool = False):
        check_table_n(grid.n)
        self.tab = tab = ResonanceTable(grid, interp, (0, grid.n ** 2 // 4) if even else None)
        self.even = even
        self.grid = grid
        self.params = params
        fb = params.value(grid.nodes)
        F0, F2 = fb[tab.i], fb[tab.j]
        F1, F3 = params.value(tab.P1), params.value(tab.P3)
        self.G0, self.G1, self.G2, self.G3 = G = page_aligned((4, tab.W.size))
        G[0] = tab.W * F1 * F2 * F3
        G[1] = tab.W * F0 * F2 * F3
        G[2] = tab.W * F0 * F1 * F3
        G[3] = tab.W * F0 * F1 * F2
        self.inv_fb = 1.0 / fb
        self._buffers = np.empty((5, 0))  # nonlinear's, grown to the block in use

    def nonlinear(self, g: np.ndarray) -> np.ndarray:
        """Q[g] + N[g], the quadratic and cubic components in one pass.

        The fused integrand M = G0 A0 + G1 A1 - G2 A2 - G3 A3, where A_k is
        e2 + e3 of the three g other than g_k, flips sign under the exchange
        and is zero on the diagonal, which the exchange maps to itself.  So
        the row sums of the full rule are sums over the upper triangle: M
        adds into row i and subtracts from row j, block by block
        (ResonanceTable.exchange_sum).  On the half table (`even`) those
        sums h cover one of each two mirror entries and half of each
        self-mirror one, and the reflection h[::-1] adds the rest: g must
        then be even.

        M is written into five buffer rows that these tables own, sized by
        the block in use (at most collision._EXCHANGE_BLOCK entries, never
        the table), with the operations of
            m  = G0 (g12 + g3 (g1 + g2 + g12))
            m += G1 (g02 + g3 (g0 + g2 + g02))
            m -= G2 (g01 + g3 s01)
            m -= G3 (g01 + g2 s01),   s01 = g0 + g1 + g01,
        in that order, so its bits are those of the expression.  A call
        must not overlap another on the same tables.
        """
        def fused(s, g0, g1, g2, g3):
            size = g0.size
            if self._buffers.shape[1] < size:
                self._buffers = page_aligned((5, size))
            m, x, p, g01, s01 = self._buffers[:, :size]

            def cross(x, a, b):  # x = ab + g3 (a + b + ab), with ab in p
                np.multiply(a, b, out=p)
                np.add(a, b, out=x)
                x += p
                x *= g3
                x += p

            np.multiply(g0, g1, out=g01)
            np.add(g0, g1, out=s01)
            s01 += g01
            cross(x, g1, g2)
            np.multiply(self.G0[s], x, out=m)
            cross(x, g0, g2)
            x *= self.G1[s]
            m += x
            for gk, Gk in ((g3, self.G2[s]), (g2, self.G3[s])):
                np.multiply(gk, s01, out=x)
                x += g01
                x *= Gk
                m -= x
            return m

        h = self.tab.exchange_sum(g, fused)
        if self.even:
            h = h + h[::-1]
        return self.grid.weight * h * self.inv_fb


def _check_stability_guard(cfg: EvolutionConfig, a: Field):
    amax = float(np.max(a.values))
    if cfg.dt * amax > 0.5 + 1e-12:
        raise ConfigError(
            f"dt = {cfg.dt} violates the stiffness guard dt * max(a) <= 0.5 "
            f"(max a = {amax:.4f})")


def _step(rhs, g: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step."""
    k1 = rhs(g)
    k2 = rhs(g + 0.5 * dt * k1)
    k3 = rhs(g + 0.5 * dt * k2)
    k4 = rhs(g + dt * k3)
    return g + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _record(grid: Grid, f_vals: np.ndarray, g_vals: np.ndarray):
    f = Field(grid, f_vals)
    m, e = conserved_quantities(f)
    s = entropy(f)
    gf = Field(grid, g_vals)
    return m, e, s, weighted_sup(gf, 0.5), weighted_sup(gf, 1.0 / 6.0), lp_norm(gf, 2)


def _run(grid: Grid, g0: np.ndarray, rhs, cfg: EvolutionConfig, to_f,
         mass0: float, energy0: float, table_entries: int = 0) -> Trajectory:
    """Shared fixed-step driver; the state g maps to the spectrum f = to_f(g).

    Step k ends at t = (k + 1) / n_steps * t_final, so the last one is
    recorded at t_final exactly.  f must stay finite, positive and within
    BLOWUP_FACTOR of its initial sup norm after every step, else
    BlowupError names that step's t.
    Returns the Trajectory of the recorded diagnostics and states, with the
    initial mass0, energy0, the number of rhs calls made and the
    table_entries that each call sums over.
    """
    rec_times = cfg.record_times()
    n_steps = int(np.ceil(cfg.t_final / cfg.dt))
    dt = cfg.t_final / n_steps
    sup0 = float(np.max(np.abs(to_f(g0))))
    g = g0.copy()
    ri = 0
    rows, states = [], []
    calls = 0

    def counted(gv):
        nonlocal calls
        calls += 1
        return rhs(gv)

    for k in range(n_steps):
        g = _step(counted, g, dt)
        t = (k + 1) / n_steps * cfg.t_final  # a running sum of dt drifts
        # O(n) per step: a transient between two record times is caught too
        f_vals = to_f(g)
        if not np.all(np.isfinite(f_vals)) or np.max(np.abs(f_vals)) > BLOWUP_FACTOR * sup0:
            raise BlowupError(f"sup-norm left the trust region at t = {t:.3g}")
        if np.min(f_vals) <= 0.0:
            raise BlowupError(f"positivity failed at t = {t:.3g}")
        if ri < len(rec_times) and t >= rec_times[ri] - 1e-9:
            rows.append((t,) + _record(grid, f_vals, g))
            states.append((t, g.copy()))
            while ri < len(rec_times) and t >= rec_times[ri] - 1e-9:
                ri += 1
    arr = np.asarray(rows)
    return Trajectory(times=arr[:, 0], mass=arr[:, 1], energy=arr[:, 2],
                      entropy=arr[:, 3], sup_w12=arr[:, 4], sup_w16=arr[:, 5],
                      l2=arr[:, 6], states=states, mass0=mass0, energy0=energy0,
                      rhs_evals=calls, rhs_table_entries=table_entries)


def evolve_nonlinear_f(f0: Field, cfg: EvolutionConfig,
                       interp: str = "linear") -> Trajectory:
    """Integrate d/dt f = C[f] with conservation and entropy monitoring, on
    one `collision_map` with the `interp` stencil built for the run before
    anything else (so a grid above TABLE_MAX_N fails first); a stage whose
    field is not finite or falls below the positivity floor raises
    BlowupError."""
    f0.require_positive()
    grid = f0.grid
    collide = collision_map(grid, interp)
    m0, e0 = conserved_quantities(f0)
    res = match_rj(m0, e0)
    if res.matched:
        _check_stability_guard(cfg, multiplier_a(res.params, grid))

    def rhs(fv):
        try:
            Field(grid, fv).require_positive()
        except (PositivityError, NonFiniteError) as exc:
            raise BlowupError(f"spectrum left the admissible set mid-step: {exc}") from exc
        return collide(fv)
    return _run(grid, f0.values, rhs, cfg, lambda fv: fv, m0, e0,
                grid.n * (grid.n - 1) // 2)


def evolve_perturbation(g0: Field, cfg: EvolutionConfig,
                        operator: LinOperator) -> Trajectory:
    """Integrate the perturbation equation around the equilibrium of `operator`.

    g0 must be kernel-orthogonal (mass/energy of the initial perturbation
    vanish) with ||omega^-1/2 g0||_inf <= EPS_MAX, and live on the
    operator's grid.  The linear part is `operator.apply`, L g through its
    even and odd blocks, and the operator's collision frequency `a` sets
    the stiffness guard; quadratic and cubic parts use the tensor rule with
    the operator's stencil, both from one upper-triangle pass
    (PerturbationTables.nonlinear).

    When the odd part max|g0 - g0[::-1]| / 2 is at most EVEN_RTOL of
    max|g0|, g0 is replaced by its even part (g0 + g0[::-1]) / 2
    (`linearized.snap_even`) and the pass runs over the half table and
    reflects its sums; any other g0 runs over the whole table.  The run's
    `rhs_table_entries` says which.
    """
    grid = g0.grid
    if grid != operator.grid:
        raise ConfigError(f"g0 lives on n = {grid.n}, the operator on n = {operator.grid.n}")
    eps = float(np.max(np.abs(g0.values) / grid.omega ** 0.5))
    if eps > EPS_MAX:
        raise ConfigError(f"||omega^-1/2 g0||_inf = {eps:.3g} exceeds {EPS_MAX}")
    _check_stability_guard(cfg, operator.a)
    g, even = snap_even(g0.values)
    params = operator.params
    tabs = PerturbationTables(params, grid, operator.interp, even)
    fb = params.value(grid.nodes)

    def rhs(gv):
        return operator.apply(gv) + tabs.nonlinear(gv)

    m0, e0 = conserved_quantities(Field(grid, fb * (1.0 + g)))
    return _run(grid, g, rhs, cfg, lambda gv: fb * (1.0 + gv), m0, e0, tabs.tab.W.size)
