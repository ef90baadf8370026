"""Named experiments: each configures, runs, and serializes one study.

These are the batch studies the command-line tool exposes.  They return
plain dictionaries, JSON-ready apart from the field, eigenvalues and
trajectory that the cli module writes as CSV; policy such as output
directories, artifact files, manifests and exit codes lives there.
"""

from __future__ import annotations

import os

import numpy as np

from . import collision as coll
from . import dynamics as dyn
from . import equilibria as eq
from . import linearized as lin
# no run calls this alias: it stays because perfbench/spans.py traces it by name
from .collision import collision_at as _collision_at
from .errors import ConfigError
from .fitting import fit_power_law
from .grid import Field, Grid
from .manifold import (TWO_PI, _h_parts, f_minus, f_minus_zeros, f_plus, h, omega,
                       omega_residual, triple_product_identity)
from .quadrature import midpoint_nodes

N_FIT_POINTS = 25  # pointwise a(p) samples of the multiplier edge fit
N_DISSIPATION_SAMPLES = 100  # random trigonometric data of the dissipation ratio
BLOWUP_EPS = tuple(2.0 ** (-k) for k in range(4, 10))  # eps of the L^p scaling fit
# rows of the (x, z) grid per slab of verify_suite's grid checks, run on
# `pool_workers()` threads (below): the one place two threads overlap
# (256,000 B per temporary at grid_side = 2000: under the mmap threshold
# `collision` pins; they set the peak RSS of a process that runs the suite
# after lp_blowup_norm)
_SLAB_ROWS = 16


# ---------------------------------------------------------------------------
# multiplier scaling

def multiplier_experiment(beta: float, gamma: float, grid_n: int,
                          fit_lo: float, fit_hi: float, cache_dir=None) -> dict:
    """Multiplier profile on the grid plus an edge power-law fit.

    The profile is `a` of the linear operator cache of this key in
    cache_dir (`lin.cached_operator`; bit for bit that of
    `lin.multiplier_a`) when there is one, else computed; "cache_hits"
    says which (1 or 0).  Nothing is written to cache_dir.  The fit
    evaluates a(p) pointwise on a log-spaced sample of the window (grid
    nodes stop at pi/n, above the lower end of the CLI's default window)
    and regresses log a against log sin(p/2).
    """
    if not 0.0 < fit_lo < fit_hi < TWO_PI:  # before a(p) is built; NaN fails
        raise ConfigError("fit window must satisfy 0 < fit_lo < fit_hi < 2 pi, "
                          f"got [{fit_lo}, {fit_hi}]")
    params = eq.RjParams(beta, gamma)
    grid = Grid(grid_n)
    op = None if cache_dir is None else lin.cached_operator(params, grid, cache_dir)
    a_field = lin.multiplier_a(params, grid) if op is None else op.a
    ps = np.geomspace(fit_lo, fit_hi, N_FIT_POINTS)
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
        "a_field": a_field, "cache_hits": int(op is not None),
    }


# ---------------------------------------------------------------------------
# spectrum structure

def spectrum_experiment(beta: float, gamma: float, grid_n: int, seed: int,
                        cache_dir=None) -> dict:
    """Assemble L and report its spectral structure and dissipation ratios.

    The ratios <-L g, g> / int a g^2 run over N_DISSIPATION_SAMPLES random
    trigonometric g, kernel projected out, as one block with one block-wise
    product by L (`LinOperator.apply`).
    """
    params = eq.RjParams(beta, gamma)
    grid = Grid(grid_n)
    op = lin.load_or_assemble(params, grid, cache_dir)
    kb = op.kernel_basis()
    angle = lin.subspace_angle(op.near_null_vectors(), kb)

    # one row of 12 cosine then 12 sine coefficients per sample, drawn as
    # one normal(12) call after another would draw them
    coef = np.random.default_rng(seed).normal(size=(N_DISSIPATION_SAMPLES, 24))
    kp = np.arange(1, 13) * grid.nodes[:, None]
    G = np.hstack([np.cos(kp), np.sin(kp)]) @ coef.T  # one sample per column
    G -= kb @ (kb.T @ G)
    ratios = np.sum(G * -op.apply(G), axis=0) / np.sum(op.a.values[:, None] * G * G, axis=0)
    return {
        "beta": beta, "gamma": gamma, "grid_n": grid_n,
        "eigenvalues": op.eigenvalues,
        "spectral_tol": op.spectral_tol,
        "kernel_residuals": list(op.kernel_residuals),
        "sym_defect": op.sym_defect,
        "near_null_count": op.near_null_count(),
        "principal_angle_rad": angle,
        "dissipation_ratio_min": float(np.min(ratios)),
        "dissipation_ratio_max": float(np.max(ratios)),
    }


# ---------------------------------------------------------------------------
# linear decay

def linear_decay_experiment(beta: float, gamma: float, grid_n: int,
                            t_final: float, cache_dir=None) -> dict:
    """Semigroup decay exponents for (mu, nu) = (1/2, 1/2) and (1/6, 1/2).

    Initial data is the edge-saturating profile omega^{1/2} made
    kernel-orthogonal with steeper-vanishing compensators; that is the data
    class for which the weighted sup-norm rides the decay envelope instead
    of sitting below it.
    """
    if not 0.0 < t_final < np.inf:  # before L is built or cached
        raise ConfigError(f"t_final must be positive and finite, got {t_final}")
    params = eq.RjParams(beta, gamma)
    grid = Grid(grid_n)
    op = lin.load_or_assemble(params, grid, cache_dir)
    # even to the bit, so the semigroup runs on the even block alone
    g0 = Field(grid, lin.snap_even(lin.decay_initial_data(params, grid).values)[0])
    t_grid = np.geomspace(t_final / 100.0, t_final, 64)
    window = (t_final / 10.0, t_final)
    rep12, rep16 = lin.measure_linear_decay(op, g0, (0.5, 1.0 / 6.0), t_grid, window)
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

def nonlinear_experiment(beta: float, gamma: float, grid_n: int, eps: float,
                         t_final: float, dt: float, interp: str,
                         cache_dir=None) -> dict:
    """Perturbed-equilibrium run: conservation drift and relaxation exponent.

    Cubic off-grid interpolation keeps the energy-conservation defect of the
    tensor rule far below the drift budget at this resolution.
    """
    params = eq.RjParams(beta, gamma)
    grid = Grid(grid_n)
    # a bad amplitude or time-step schedule, or a grid too large for the
    # whole table of the right-hand side, fails before the operator is
    # built or cached
    if not 0.0 < eps <= dyn.EPS_MAX:
        raise ConfigError(f"eps must be in (0, {dyn.EPS_MAX}], got {eps}")
    cfg = dyn.EvolutionConfig(dt=dt, t_final=t_final)
    coll.check_table_n(grid_n)
    op = lin.load_or_assemble(params, grid, cache_dir, interp=interp)
    g0 = lin.decay_initial_data(params, grid)
    scale = eps / float(np.max(np.abs(g0.values) / grid.omega ** 0.5))
    g0 = Field(grid, scale * g0.values)
    traj = dyn.evolve_perturbation(g0, cfg, operator=op)
    dm, de = traj.conserved_drift()
    rep = traj.decay_report((t_final / 10.0, t_final))
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
    }
    if res.matched:  # an unmatched ratio has no angle: theta and r are NaN
        m2, e2 = eq.mass_energy(res.params)
        out.update({
            "theta": res.theta, "r": res.r,
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

    A coarse midpoint rule of 16,384 cells covers the torus.  Each bump of
    the three-bump spectrum gets its own uniform midpoint window, whose cell
    edges fall on the bump's edges, so the rule integrates each bump's
    indicator to rounding: 96 cells on [p0 - eps^2, p0 + 2 eps^2) and on
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
    zc, wc = midpoint_nodes(0.0, TWO_PI, 16384)
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
    ones included.  A row inside the bumps evaluates the kernel weight only
    where p1 or p2 falls in a bump, a row outside them only where both do,
    since every other term of its integrand is exactly zero; and it
    computes p1 itself only on the chunks of p2 nodes where an interval
    bound on h lets p1 reach a bump (`collision.bump_support` gives the
    engine the bumps' intervals; see `collision.collision_at`).  So the
    norm is bit for bit that of the full rule.  The window samples and the
    coarse rows go to the engine in one call: each row sums its own terms,
    so every row has the bits it has alone.
    """
    pts = pts or coll.blowup_points()
    e2 = eps ** 2
    z_nodes, z_wts = blowup_p2_rule(eps, pts, n_zoom)

    f = coll.three_bumps(eps, p_exp, pts)
    support = coll.bump_support(eps, pts)
    windows = [
        (pts.p0 - 0.5 * e2, pts.p0 + 1.5 * e2, 48),
        (pts.p1 - 1.5 * e2, pts.p1 + 0.5 * e2, 48),
        (pts.p2 - 2.0 * eps, pts.p2 + 3.0 * eps, 160),
    ]
    coarse = (np.arange(n_coarse) + 0.5) * TWO_PI / n_coarse
    rows = [np.linspace(lo, hi, m, endpoint=False) + (hi - lo) / (2 * m) for lo, hi, m in windows]
    widths = [(hi - lo) / m for lo, hi, m in windows] + [TWO_PI / n_coarse]
    in_any = np.any([(coarse >= lo) & (coarse <= hi) for lo, hi, _ in windows], axis=0)
    rows.append(coarse[~in_any])
    vals = np.abs(coll.collision_at(np.concatenate(rows), f, z_nodes, z_wts, support=support))
    parts = np.split(vals, np.cumsum([r.size for r in rows[:-1]]))
    if p_exp == np.inf:
        norm = float(np.max(vals))
    else:
        acc = 0.0
        for w, v in zip(widths, parts):
            acc += w * float(np.sum(v ** p_exp))
        norm = acc ** (1.0 / p_exp)
    return {
        "eps": eps,
        "norm": float(norm),
        "spike_peak": float(np.max(parts[0])),
        "background_peak": float(np.max(parts[-1])),
    }


def lp_blowup_experiment(p_exp: float) -> dict:
    """Scaling of ||C[f_eps]||_{L^p} against eps in BLOWUP_EPS; expected
    slope 1 - 3/p, for 1 <= p <= inf, where the L^p norm is a norm."""
    if not 1.0 <= p_exp <= np.inf:  # before any work; NaN fails
        raise ConfigError(f"p must satisfy 1 <= p <= inf, got {p_exp}")
    pts = coll.blowup_points()
    rows = [lp_blowup_norm(e, p_exp, pts) for e in BLOWUP_EPS]
    series = [(r["eps"], r["norm"]) for r in rows]
    slope, stderr = fit_power_law(series, (min(BLOWUP_EPS) * 0.99, max(BLOWUP_EPS) * 1.01),
                                  min_points=4)
    return {
        "p": p_exp if p_exp < np.inf else "inf",  # JSON has no infinity
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

    x runs down the rows (x_rows[:, None]) and z along the columns
    (side[None, :]), so omega(x), omega(z) and the half-angle terms of F+
    are computed once on their own axis, and no copy of the grid is made.
    Each element is still the same operation on the same operands as on
    the full meshgrid, so max/min over the slabs are exactly those over the
    grid.  The arcsin argument is the one h is built from
    (`manifold._h_parts`), so tan and cos are taken once: tan is odd, so
    |tan(|z - x|/4) cos((x + z)/4)| is |tan((z - x)/4) cos((x + z)/4)| bit
    for bit, and the diagonal guard acts only on the corners left out.
    """
    X, Z = x_rows[:, None], side[None, :]
    p1, arg = _h_parts(X, Z)[::2]
    # the diagonal |z - x| = 2pi hits the tan pole; exclude the two corners
    corner = (np.abs(np.abs(Z - X) - TWO_PI) < 1e-12)
    worst = np.max(np.abs(arg)[~corner])

    # resonance residual on the same grid, away from the four corners
    res = np.abs(omega_residual(X, p1, Z))
    away = ~((np.minimum(X, TWO_PI - X) < 1e-6) & (np.minimum(Z, TWO_PI - Z) < 1e-6))

    gap = np.min(f_plus(X, Z) - 4.0 * omega(X) * omega(Z))
    return worst, np.max(res[away]), gap


def pool_workers() -> int:
    """Worker threads for `verify_suite`'s slabs: the PHONON_THREADS cap
    (which --threads sets) when one is set, else the number of CPUs this
    process may run on."""
    cap = os.environ.get("PHONON_THREADS")
    if cap:
        if not cap.isdecimal() or int(cap) < 1:
            raise ValueError(f"PHONON_THREADS must be an integer >= 1, got {cap!r}")
        return int(cap)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    from concurrent.futures import ThreadPoolExecutor  # here: no other run pays for it
    with ThreadPoolExecutor(pool_workers()) as pool:
        worst, err_grid, gap = np.array(
            list(pool.map(lambda rows: _grid_checks(rows, side), slabs))).T
    worst, err_grid, gap = float(np.max(worst)), float(np.max(err_grid)), float(np.min(gap))
    checks.append(("arcsin_argument_bound", worst <= 1.0 + 1e-12,
                   f"max |tan cos| {worst:.15f}"))
    checks.append(("resonance_residual_grid", err_grid <= 1e-10,
                   f"max |Omega| on the {grid_side}^2 grid {err_grid:.3e}"))
    checks.append(("f_plus_lower_bound", gap >= -1e-12, f"min F+ - 4 w0 w2 = {gap:.3e}"))

    xs = np.linspace(0.05, TWO_PI - 0.05, n_sign)
    zs = f_minus_zeros(xs)
    yp, ydp = zs.y_prime, zs.y_double_prime
    ordered = (0.0 < yp) & (yp < TWO_PI - xs) & (TWO_PI - xs < ydp) & (ydp < TWO_PI)
    ys = np.linspace(1e-4, TWO_PI - 1e-4, 400)
    fm = f_minus(xs[:, None], ys)
    yp, ydp = yp[:, None], ydp[:, None]
    inside = (ys > yp + 1e-6) & (ys < ydp - 1e-6)
    outside = (ys < yp - 1e-6) | (ys > ydp + 1e-6)
    ok = ordered & ~np.any(inside & (fm >= 0.0) | outside & (fm <= 0.0), axis=1)
    detail = f"{n_sign} base points"
    if not ok.all():
        k = int(np.argmin(ok))
        detail = f"{'sign pattern' if ordered[k] else 'ordering'} failed at x={xs[k]}"
    checks.append(("f_minus_sign_pattern", bool(ok.all()), detail))
    return checks
