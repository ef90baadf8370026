"""Time evolution: the full kinetic equation and its perturbation form.

Two problems are integrated with fixed-step explicit schemes:

  * d/dt f = C[f]                  (evolve_nonlinear_f)
  * d/dt g = L g + Q[g] + N[g]     (evolve_perturbation, f = fb (1 + g))

L is the dense symmetric operator from the linearized module; Q and N are
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
strict upper triangle of the tensor rule.  Exchanging the p0 and p2 nodes
maps (p0,p1,p2,p3) to (p2,p3,p0,p1); the tables take the p3 side of each
pair from the p1 side of its exchanged pair, so the fused integrand of
Q + N is antisymmetric under the exchange by construction.  Each pair of
the upper triangle then adds its term to one row and subtracts it from the
other: half the gathers and channel arithmetic of the full rule, and mass
that cancels term by term.  Against the full-matrix evaluation, Q + N
agrees to rounding (the summation order and the p3 stencil, read off the
exchanged pair, differ at the last bits).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .collision import ResonanceTable, collision_operator, conserved_quantities, entropy
from .equilibria import RjParams, match_rj
from .errors import BlowupError, ConfigError, NonFiniteError, PositivityError
from .fitting import DecayReport, fit_power_law
from .grid import Field, Grid, gather, lp_norm, weighted_sup
from .linearized import T_BRACKET, LinOperator, assemble, multiplier_a

BLOWUP_FACTOR = 1e3
B_NORM_DELTA = 1e-3  # delta in the <t>^{2/5-delta}, <t>^{3/5-delta} weights
# packed upper-triangle entries per block of PerturbationTables.nonlinear
# (128 KiB per float64 temporary; n = 256 has 32,640 entries)
_BLOCK_VALUES = 1 << 14


@dataclass(frozen=True)
class EvolutionConfig:
    """Fixed-step integration parameters.

    record_every > 0 records every that-many steps; record_every = 0
    records on a 64-point geometric grid (long runs stay O(100) states).
    """
    dt: float
    t_final: float
    integrator: str = "rk4"
    record_every: int = 0
    interp: str = "linear"
    n_records: int = 64

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        if self.t_final < self.dt:
            raise ConfigError("t_final must be at least dt")
        if self.integrator not in ("rk4", "euler"):
            raise ConfigError(f"unknown integrator {self.integrator!r}")

    def record_times(self) -> np.ndarray:
        if self.record_every > 0:
            ts = np.arange(self.record_every, int(np.ceil(self.t_final / self.dt)) + 1,
                           self.record_every) * self.dt
            return ts[ts <= self.t_final + 1e-12]
        t0 = min(max(self.dt, 1.0), self.t_final)
        return np.geomspace(t0, self.t_final, self.n_records)


@dataclass
class Trajectory:
    """Recorded diagnostics of one run; states kept only at record times,
    rhs_evals counts the right-hand-side evaluations of the whole run."""
    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    entropy: np.ndarray
    sup_w12: np.ndarray
    sup_w16: np.ndarray
    l2: np.ndarray
    states: list = field(repr=False, default_factory=list)
    mass0: float = 0.0
    energy0: float = 0.0
    rhs_evals: int = 0

    def conserved_drift(self):
        dm = float(np.max(np.abs(self.mass - self.mass0)) / abs(self.mass0))
        de = float(np.max(np.abs(self.energy - self.energy0)) / abs(self.energy0))
        return dm, de

    def decay_report(self, which: str = "sup_w12", window=None) -> DecayReport:
        series = list(zip(self.times, getattr(self, which)))
        if window is None:
            window = (self.times[-1] / 10.0, self.times[-1])
        exponent, stderr = fit_power_law(series, window)
        return DecayReport(exponent=exponent, stderr=stderr, fit_window=window,
                           series=series, conserved_drift=self.conserved_drift())

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t", "mass", "energy", "entropy", "sup_w12", "sup_w16", "l2"])
            for row in zip(self.times, self.mass, self.energy, self.entropy,
                           self.sup_w12, self.sup_w16, self.l2):
                wr.writerow([f"{x:.17g}" for x in row])


class PerturbationTables:
    """Channel weights W * (product of three equilibrium values) over the
    strict upper triangle j > i of the tensor rule, packed in the order of
    np.triu_indices(n, 1).

    The exchange of the p0 and p2 nodes maps (p0, p1, p2, p3) to
    (p2, p3, p0, p1), so the p3 side of (i, j) is the p1 side of (j, i):
    P3 := P1^T and the p3 stencil is the p1 stencil read at (j, i).  G0..G3
    are the weights of the channels that drop f0..f3.
    """

    def __init__(self, params: RjParams, grid: Grid, interp: str = "linear"):
        self.tab = ResonanceTable.cached(grid, interp)
        self.grid = grid
        self.params = params
        i, j = np.triu_indices(grid.n, 1)
        idx, wts = self.tab.i1
        self.i, self.j = i, j
        self.s1 = tuple(k[i, j] for k in idx), tuple(w[i, j] for w in wts)
        self.s3 = tuple(k[j, i] for k in idx), tuple(w[j, i] for w in wts)
        fb = params.value(grid.nodes)
        F0, F2 = fb[i], fb[j]
        F1, F3 = params.value(self.tab.P1[i, j]), params.value(self.tab.P1[j, i])
        W = self.tab.W[i, j]
        self.G0 = W * F1 * F2 * F3
        self.G1 = W * F0 * F2 * F3
        self.G2 = W * F0 * F1 * F3
        self.G3 = W * F0 * F1 * F2
        self.inv_fb = 1.0 / fb

    def nonlinear(self, g: np.ndarray) -> np.ndarray:
        """Q[g] + N[g], the quadratic and cubic components in one pass.

        The fused integrand M = G0 A0 + G1 A1 - G2 A2 - G3 A3, where A_k is
        e2 + e3 of the three g other than g_k, flips sign under the exchange
        and is zero on the diagonal, which the exchange maps to itself.  So
        the row sums of the full rule are sums over the upper triangle: M
        adds into row i and subtracts from row j.  Blocks of _BLOCK_VALUES
        packed entries gather g at p1 and p3 once each and scatter M with
        two bincounts.
        """
        n = g.size
        out = np.zeros(n)
        for b0 in range(0, self.i.size, _BLOCK_VALUES):
            s = slice(b0, b0 + _BLOCK_VALUES)
            i, j = self.i[s], self.j[s]
            g0, g2 = g[i], g[j]
            g1, g3 = gather(g, self.s1, s), gather(g, self.s3, s)
            g01, g02, g12 = g0 * g1, g0 * g2, g1 * g2
            s01 = g0 + g1 + g01
            m = self.G0[s] * (g12 + g3 * (g1 + g2 + g12))
            m += self.G1[s] * (g02 + g3 * (g0 + g2 + g02))
            m -= self.G2[s] * (g01 + g3 * s01)
            m -= self.G3[s] * (g01 + g2 * s01)
            out += np.bincount(i, m, minlength=n)
            out -= np.bincount(j, m, minlength=n)
        return self.grid.weight * out * self.inv_fb


def _check_stability_guard(cfg: EvolutionConfig, a: Field):
    amax = float(np.max(a.values))
    if cfg.dt * amax > 0.5 + 1e-12:
        raise ConfigError(
            f"dt = {cfg.dt} violates the stiffness guard dt * max(a) <= 0.5 "
            f"(max a = {amax:.4f})")


def _step(rhs, g: np.ndarray, dt: float, integrator: str) -> np.ndarray:
    if integrator == "euler":
        return g + dt * rhs(g)
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


def _run(grid: Grid, g0: np.ndarray, rhs, cfg: EvolutionConfig, to_f, to_g):
    """Shared fixed-step driver; f/g conversions supplied by the caller.

    f = to_f(g) must stay finite, positive and within BLOWUP_FACTOR of its
    initial sup norm after every step, else BlowupError names that step's t.
    Returns the recorded rows, the recorded states and the number of rhs
    calls made.
    """
    rec_times = cfg.record_times()
    n_steps = int(np.ceil(cfg.t_final / cfg.dt))
    dt = cfg.t_final / n_steps
    sup0 = float(np.max(np.abs(to_f(g0))))
    g = g0.copy()
    t = 0.0
    ri = 0
    rows, states = [], []
    calls = 0

    def counted(gv):
        nonlocal calls
        calls += 1
        return rhs(gv)

    for _ in range(n_steps):
        g = _step(counted, g, dt, cfg.integrator)
        t += dt
        # O(n) per step: a transient between two record times is caught too
        f_vals = to_f(g)
        if not np.all(np.isfinite(f_vals)) or np.max(np.abs(f_vals)) > BLOWUP_FACTOR * sup0:
            raise BlowupError(f"sup-norm left the trust region at t = {t:.3g}")
        if np.min(f_vals) <= 0.0:
            raise BlowupError(f"positivity failed at t = {t:.3g}")
        if ri < len(rec_times) and t >= rec_times[ri] - 1e-9:
            rows.append((t,) + _record(grid, f_vals, to_g(g)))
            states.append((t, g.copy()))
            while ri < len(rec_times) and t >= rec_times[ri] - 1e-9:
                ri += 1
    return np.asarray(rows), states, calls


def evolve_nonlinear_f(f0: Field, cfg: EvolutionConfig) -> Trajectory:
    """Integrate d/dt f = C[f] with conservation and entropy monitoring."""
    f0.require_positive()
    grid = f0.grid
    m0, e0 = conserved_quantities(f0)
    res = match_rj(m0, e0)
    if res.matched:
        _check_stability_guard(cfg, multiplier_a(res.params, grid))

    def rhs(fv):
        try:
            return collision_operator(Field(grid, fv), cfg.interp).values
        except (PositivityError, NonFiniteError) as exc:
            raise BlowupError(f"spectrum left the admissible set mid-step: {exc}") from exc
    arr, states, calls = _run(grid, f0.values, rhs, cfg,
                              to_f=lambda fv: fv,
                              to_g=lambda fv: fv)
    return Trajectory(times=arr[:, 0], mass=arr[:, 1], energy=arr[:, 2],
                      entropy=arr[:, 3], sup_w12=arr[:, 4], sup_w16=arr[:, 5],
                      l2=arr[:, 6], states=states, mass0=m0, energy0=e0,
                      rhs_evals=calls)


def evolve_perturbation(g0: Field, params: RjParams, cfg: EvolutionConfig,
                        operator: LinOperator | None = None,
                        eps_max: float = 0.1) -> Trajectory:
    """Integrate the perturbation equation around the equilibrium of params.

    g0 must be kernel-orthogonal (mass/energy of the initial perturbation
    vanish) with ||omega^-1/2 g0||_inf <= eps_max.  The linear part uses the
    assembled matrix, whose collision frequency `a` also sets the stiffness
    guard; quadratic and cubic parts use the tensor rule, both from one
    upper-triangle pass (PerturbationTables.nonlinear).
    """
    grid = g0.grid
    eps = float(np.max(np.abs(g0.values) / grid.omega ** 0.5))
    if eps > eps_max:
        raise ConfigError(f"||omega^-1/2 g0||_inf = {eps:.3g} exceeds {eps_max}")
    op = operator if operator is not None else assemble(params, grid, cfg.interp)
    _check_stability_guard(cfg, op.a)
    tabs = PerturbationTables(params, grid, cfg.interp)
    fb = params.value(grid.nodes)
    L = op.matrix

    def rhs(gv):
        return L @ gv + tabs.nonlinear(gv)

    m0, e0 = conserved_quantities(Field(grid, fb * (1.0 + g0.values)))
    arr, states, calls = _run(grid, g0.values, rhs, cfg,
                              to_f=lambda gv: fb * (1.0 + gv),
                              to_g=lambda gv: gv)
    return Trajectory(times=arr[:, 0], mass=arr[:, 1], energy=arr[:, 2],
                      entropy=arr[:, 3], sup_w12=arr[:, 4], sup_w16=arr[:, 5],
                      l2=arr[:, 6], states=states, mass0=m0, energy0=e0,
                      rhs_evals=calls)


def b_norm_components(traj: Trajectory, delta: float = B_NORM_DELTA):
    """Time-weighted sup-norm components <t>^{2/5-d} w^{1/6} and <t>^{3/5-d} w^{1/2}."""
    tb = T_BRACKET + np.abs(traj.times)
    return (tb ** (0.4 - delta) * traj.sup_w16, tb ** (0.6 - delta) * traj.sup_w12)
