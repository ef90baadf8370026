"""Named experiments: each configures, runs, and serializes one study.

These are the batch studies the command-line tool exposes.  They return
plain dictionaries (JSON-ready) and write CSV artifacts through the
structures they produce; policy such as output directories, manifests and
exit codes lives in the cli module.
"""

from __future__ import annotations

import numpy as np

from . import collision as coll
from . import dynamics as dyn
from . import equilibria as eq
from . import linearized as lin
# lp_blowup_norm calls the engine by this name, which tests patch and perfbench traces
from .collision import collision_at as _collision_at
from .fitting import fit_power_law
from .grid import Field, Grid
from .manifold import (TWO_PI, f_minus, f_minus_zeros, f_plus, h, omega,
                       omega_residual, triple_product_identity)
from .quadrature import graded_midpoint_nodes

# rows of the (x, z) grid per slab of verify_suite's grid checks (1 MB per
# temporary at grid_side = 2000)
_SLAB_ROWS = 64


# ---------------------------------------------------------------------------
# multiplier scaling

def multiplier_experiment(beta: float, gamma: float, grid_n: int = 1024,
                          fit_lo: float = 1e-3, fit_hi: float = 1e-1,
                          n_fit_points: int = 25) -> dict:
    """Multiplier profile on the grid plus an edge power-law fit.

    The fit evaluates a(p) pointwise on a log-spaced sample of the window
    (grid nodes stop at pi/n, above the lower end of the default window)
    and regresses log a against log sin(p/2).
    """
    params = eq.RjParams(beta, gamma)
    grid = Grid(grid_n)
    a_field = lin.multiplier_a(params, grid)
    ps = np.geomspace(fit_lo, fit_hi, n_fit_points)
    avals = lin.multiplier_at(params, ps, n_panels=grid_n)
    s = np.sin(ps / 2.0)
    slope, stderr = fit_power_law(list(zip(s, avals)), (s[0], s[-1]), min_points=4)
    return {
        "beta": beta, "gamma": gamma, "grid_n": grid_n,
        "fit_window_p": [fit_lo, fit_hi],
        "fit_points_p": [float(x) for x in ps],
        "fit_points_a": [float(x) for x in avals],
        "exponent": slope, "exponent_stderr": stderr,
        "target_exponent": 5.0 / 3.0,
        "a_field": a_field,
    }


# ---------------------------------------------------------------------------
# spectrum structure

def spectrum_experiment(beta: float, gamma: float, grid_n: int = 512,
                        n_dissipation_samples: int = 100, seed: int = 0,
                        cache_dir=None) -> dict:
    """Assemble L and report its spectral structure and dissipation ratios."""
    params = eq.RjParams(beta, gamma)
    grid = Grid(grid_n)
    op = lin.load_or_assemble(params, grid, cache_dir)
    kb = op.kernel_basis()
    angle = lin.subspace_angle(op.near_null_vectors(), kb)

    rng = np.random.default_rng(seed)
    a = op.a.values
    ratios = []
    for _ in range(n_dissipation_samples):
        c = rng.normal(size=12)
        s = rng.normal(size=12)
        g = sum(c[k] * np.cos((k + 1) * grid.nodes) + s[k] * np.sin((k + 1) * grid.nodes)
                for k in range(12))
        g = g - kb @ (kb.T @ g)
        ratios.append(float((g @ (-op.matrix @ g)) / ((a * g) @ g)))
    return {
        "beta": beta, "gamma": gamma, "grid_n": grid_n,
        "eigenvalues": op.eigenvalues,
        "spectral_tol": op.spectral_tol,
        "kernel_residuals": list(op.kernel_residuals),
        "sym_defect": op.sym_defect,
        "near_null_count": op.near_null_count(),
        "principal_angle_rad": angle,
        "dissipation_ratio_min": min(ratios),
        "dissipation_ratio_max": max(ratios),
    }


# ---------------------------------------------------------------------------
# linear decay

def linear_decay_experiment(beta: float = 1.0, gamma: float = 2.0,
                            grid_n: int = 512, t_final: float = 1e3,
                            cache_dir=None) -> dict:
    """Semigroup decay exponents for (mu, nu) = (1/2, 1/2) and (1/6, 1/2).

    Initial data is the edge-saturating profile omega^{1/2} made
    kernel-orthogonal with steeper-vanishing compensators; that is the data
    class for which the weighted sup-norm rides the decay envelope instead
    of sitting below it.
    """
    params = eq.RjParams(beta, gamma)
    grid = Grid(grid_n)
    op = lin.load_or_assemble(params, grid, cache_dir)
    g0 = lin.decay_initial_data(params, grid, nu=0.5)
    t_grid = np.geomspace(t_final / 100.0, t_final, 64)
    window = (t_final / 10.0, t_final)
    rep12 = lin.measure_linear_decay(op, g0, 0.5, 0.5, t_grid, window)
    rep16 = lin.measure_linear_decay(op, g0, 1.0 / 6.0, 0.5, t_grid, window)
    return {
        "beta": beta, "gamma": gamma, "grid_n": grid_n,
        "fit_window": list(window),
        "exponent_mu12": rep12.exponent, "stderr_mu12": rep12.stderr,
        "exponent_mu16": rep16.exponent, "stderr_mu16": rep16.stderr,
        "series_mu12": rep12.series,
        "series_mu16": rep16.series,
    }


# ---------------------------------------------------------------------------
# nonlinear stability

def nonlinear_experiment(beta: float = 1.0, gamma: float = 1.0,
                         grid_n: int = 256, eps: float = 1e-2,
                         t_final: float = 1e3, dt: float = 1.5,
                         interp: str = "cubic", cache_dir=None) -> dict:
    """Perturbed-equilibrium run: conservation drift and relaxation exponent.

    Cubic off-grid interpolation keeps the energy-conservation defect of the
    tensor rule far below the drift budget at this resolution.
    """
    params = eq.RjParams(beta, gamma)
    grid = Grid(grid_n)
    op = lin.load_or_assemble(params, grid, cache_dir, interp=interp)
    g0 = lin.decay_initial_data(params, grid, nu=0.5)
    scale = eps / float(np.max(np.abs(g0.values) / grid.omega ** 0.5))
    g0 = Field(grid, scale * g0.values)
    cfg = dyn.EvolutionConfig(dt=dt, t_final=t_final, interp=interp)
    traj = dyn.evolve_perturbation(g0, params, cfg, operator=op)
    dm, de = traj.conserved_drift()
    rep = traj.decay_report("sup_w12", (t_final / 10.0, t_final))
    return {
        "beta": beta, "gamma": gamma, "grid_n": grid_n, "eps": eps,
        "dt": cfg.dt, "t_final": t_final, "interp": interp,
        "mass_drift": dm, "energy_drift": de,
        "exponent_w12": rep.exponent, "stderr_w12": rep.stderr,
        "trajectory": traj,
    }


# ---------------------------------------------------------------------------
# Rayleigh-Jeans matching

def rj_match_experiment(mass: float, energy: float) -> dict:
    res = eq.match_rj(mass, energy)
    out = {
        "mass": mass, "energy": energy, "ratio": res.ratio,
        "ratio_limit": eq.RATIO_LIMIT, "matched": res.matched,
        "theta": res.theta, "r": res.r,
    }
    if res.matched:
        m2, e2 = eq.mass_energy(res.params)
        out.update({
            "beta": res.params.beta, "gamma": res.params.gamma,
            "roundtrip_mass": m2, "roundtrip_energy": e2,
            "roundtrip_residual": max(abs(m2 - mass) / mass,
                                      abs(e2 - energy) / energy),
        })
    return out


# ---------------------------------------------------------------------------
# L^p unboundedness

def blowup_p2_rule(eps: float, pts: coll.BlowupPoints,
                   n_zoom: int = 32768) -> tuple[np.ndarray, np.ndarray]:
    """The p2 quadrature (nodes, weights) of `lp_blowup_norm`.

    A coarse graded rule covers the torus.  Each bump of the three-bump
    spectrum gets its own uniform midpoint window, whose cell edges fall on
    the bump's edges, so the rule integrates each bump's indicator to
    rounding: 96 cells on [p0 - eps^2, p0 + 2 eps^2) and on
    [p1 - 2 eps^2, p1 + eps^2), and n_zoom cells on the critical window
    [p2 - 4 eps, p2 + 4 eps), where the fold traverses the eps^2 bump.  The
    coarse nodes inside a window are dropped.  (The coarse spacing, 3.8e-4,
    is far wider than an eps^2 bump at small eps: left to it, a bump would
    get no node or one carrying about a hundred times its mass.)
    """
    e2 = eps ** 2
    half = 4.0 * eps
    windows = [(pts.p0 - e2, pts.p0 + 2.0 * e2, 3.0 * e2, 96),
               (pts.p1 - 2.0 * e2, pts.p1 + e2, 3.0 * e2, 96),
               (pts.p2 - half, pts.p2 + half, 2.0 * half, n_zoom)]
    zc, wc = graded_midpoint_nodes(0.0, TWO_PI, 16384)
    keep = np.ones(zc.size, dtype=bool)
    nodes, wts = [], []
    for lo, hi, width, m in windows:
        keep &= (zc < lo) | (zc > hi)
        nodes.append(np.linspace(lo, hi, m, endpoint=False) + width / (2 * m))
        wts.append(np.full(m, width / m))
    return np.concatenate([zc[keep], *nodes]), np.concatenate([wc[keep], *wts])


def lp_blowup_norm(eps: float, p_exp: float = 2.0,
                   pts: coll.BlowupPoints | None = None,
                   n_coarse: int = 2048, n_zoom: int = 32768) -> dict:
    """||C[f_eps]||_{L^p} with output and integration grids refined with eps.

    Output features live near the three bump locations: width eps^2 at the
    base point and at the fold value, width eps at the third point.  Each
    window gets a dedicated fine sample; the rest of the torus is covered
    by a coarse rule (its contribution is lower order, but it is measured,
    not assumed).  The p2 quadrature (`blowup_p2_rule`) likewise resolves
    each bump with its own window.  Every output row is computed, coarse
    ones included; a row outside the bumps evaluates the kernel only on the
    p2 nodes inside them, since every other term of its integrand is exactly
    zero (see `collision.collision_at`, bound here as `_collision_at`), so
    the norm is bit for bit that of the full rule.
    """
    pts = pts or coll.blowup_points()
    e2 = eps ** 2
    z_nodes, z_wts = blowup_p2_rule(eps, pts, n_zoom)

    f = coll.three_bumps(eps, p_exp, pts)
    windows = [
        (pts.p0 - 0.5 * e2, pts.p0 + 1.5 * e2, 48),
        (pts.p1 - 1.5 * e2, pts.p1 + 0.5 * e2, 48),
        (pts.p2 - 2.0 * eps, pts.p2 + 3.0 * eps, 160),
    ]
    coarse = (np.arange(n_coarse) + 0.5) * TWO_PI / n_coarse
    w_coarse = TWO_PI / n_coarse
    in_any = np.zeros(coarse.size, dtype=bool)
    acc = 0.0
    peaks = []
    for lo, hi, m in windows:
        sample = np.linspace(lo, hi, m, endpoint=False) + (hi - lo) / (2 * m)
        vals = _collision_at(sample, f, z_nodes, z_wts)
        peaks.append(float(np.max(np.abs(vals))))
        if p_exp != np.inf:
            acc += (hi - lo) / m * float(np.sum(np.abs(vals) ** p_exp))
        in_any |= (coarse >= lo) & (coarse <= hi)
    c_coarse = _collision_at(coarse[~in_any], f, z_nodes, z_wts)
    if p_exp == np.inf:
        norm = max(max(peaks), float(np.max(np.abs(c_coarse))))
    else:
        acc += w_coarse * float(np.sum(np.abs(c_coarse) ** p_exp))
        norm = acc ** (1.0 / p_exp)
    return {
        "eps": eps,
        "norm": float(norm),
        "spike_peak": peaks[0],
        "background_peak": float(np.max(np.abs(c_coarse))),
    }


def lp_blowup_experiment(p_exp: float = 2.0, eps_list=None) -> dict:
    """Scaling of ||C[f_eps]||_{L^p} against eps; expected slope 1 - 3/p."""
    if eps_list is None:
        eps_list = [2.0 ** (-k) for k in range(4, 10)]
    pts = coll.blowup_points()
    rows = [lp_blowup_norm(e, p_exp, pts) for e in eps_list]
    series = [(r["eps"], r["norm"]) for r in rows]
    slope, stderr = fit_power_law(series, (min(eps_list) * 0.99, max(eps_list) * 1.01),
                                  min_points=4)
    return {
        "p": p_exp,
        "eps": [r["eps"] for r in rows],
        "norm": [r["norm"] for r in rows],
        "spike_peak": [r["spike_peak"] for r in rows],
        "slope": slope, "slope_stderr": stderr,
        "target_slope": 1.0 - 3.0 / p_exp,
        "points": {"p0": pts.p0, "p1": pts.p1, "p2": pts.p2},
    }


# ---------------------------------------------------------------------------
# identity / property verification suite

def _grid_checks(x_rows: np.ndarray, side: np.ndarray) -> tuple:
    """The grid checks of verify_suite on the slab x_rows x side of the
    (x, z) grid: (max arcsin argument, max |Omega|, min F+ - 4 w0 w2).

    The slab is built as contiguous rows of the full meshgrid, so every
    element is the same operation on the same operands as on the full grid,
    and max/min over the slabs are exactly those over the grid.
    """
    X, Z = np.meshgrid(x_rows, side, indexing="ij")
    arg = np.abs(np.tan((Z - X) / 4.0) * np.cos((X + Z) / 4.0))
    # the diagonal |z - x| = 2pi hits the tan pole; exclude the two corners
    corner = (np.abs(np.abs(Z - X) - TWO_PI) < 1e-12)
    worst = np.max(arg[~corner])

    # resonance residual on the same grid, away from the four corners
    away = ~((np.minimum(X, TWO_PI - X) < 1e-6) & (np.minimum(Z, TWO_PI - Z) < 1e-6))
    res = np.abs(omega_residual(X[away], np.asarray(h(X[away], Z[away])), Z[away]))

    gap = np.min(f_plus(X, Z) - 4.0 * omega(X) * omega(Z))
    return worst, np.max(res), gap


def verify_suite(n_random: int = 10_000, n_sign: int = 100,
                 grid_side: int = 2000, seed: int = 0) -> list:
    """Closed-form identity checks at scale; returns [(name, ok, detail)]."""
    rng = np.random.default_rng(seed)
    checks = []

    x = rng.uniform(1e-6, TWO_PI - 1e-6, n_random)
    z = rng.uniform(1e-6, TWO_PI - 1e-6, n_random)
    lhs, rhs = triple_product_identity(x, z)
    err = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))
    checks.append(("triple_product_identity", err <= 1e-10, f"max rel err {err:.3e}"))

    res = np.abs(omega_residual(x, np.asarray(h(x, z)), z))
    err = float(np.max(res))
    checks.append(("resonance_residual", err <= 1e-10, f"max |Omega| {err:.3e}"))

    side = np.linspace(0.0, TWO_PI, grid_side)
    slabs = [side[r0:r0 + _SLAB_ROWS] for r0 in range(0, grid_side, _SLAB_ROWS)]
    worst, err_grid, gap = np.array(coll.map_blocks(
        lambda rows: _grid_checks(rows, side), slabs)).T
    worst, err_grid, gap = float(np.max(worst)), float(np.max(err_grid)), float(np.min(gap))
    checks.append(("arcsin_argument_bound", worst <= 1.0 + 1e-12,
                   f"max |tan cos| {worst:.15f}"))
    checks.append(("resonance_residual_grid", err_grid <= 1e-10,
                   f"max |Omega| on the {grid_side}^2 grid {err_grid:.3e}"))
    checks.append(("f_plus_lower_bound", gap >= -1e-12, f"min F+ - 4 w0 w2 = {gap:.3e}"))

    ok_sign = True
    detail = ""
    for x0 in np.linspace(0.05, TWO_PI - 0.05, n_sign):
        zs = f_minus_zeros(x0)
        if not (0.0 < zs.y_prime < TWO_PI - x0 < zs.y_double_prime < TWO_PI):
            ok_sign = False
            detail = f"ordering failed at x={x0}"
            break
        ys = np.linspace(1e-4, TWO_PI - 1e-4, 400)
        fm = np.asarray(f_minus(x0, ys))
        inside = (ys > zs.y_prime + 1e-6) & (ys < zs.y_double_prime - 1e-6)
        outside = (ys < zs.y_prime - 1e-6) | (ys > zs.y_double_prime + 1e-6)
        if np.any(fm[inside] >= 0.0) or np.any(fm[outside] <= 0.0):
            ok_sign = False
            detail = f"sign pattern failed at x={x0}"
            break
    checks.append(("f_minus_sign_pattern", ok_sign, detail or f"{n_sign} base points"))
    return checks
