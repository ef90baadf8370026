"""Power-law exponent fitting for decay series."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FitError


@dataclass
class DecayReport:
    """Fitted power-law exponent with its raw series."""
    exponent: float
    stderr: float
    series: list = field(repr=False)


def fit_power_law(series, window, min_points: int = 8) -> tuple:
    """Least-squares slope of log(value) vs log(t) over a time window.

    Returns (exponent, stderr).  Requires at least min_points in-window
    points (8 for decay series), with finite, positive times and values.
    """
    t = np.asarray([s[0] for s in series], dtype=float)
    v = np.asarray([s[1] for s in series], dtype=float)
    lo, hi = window
    keep = (t >= lo) & (t <= hi)
    if int(np.sum(keep)) < min_points:
        raise FitError(f"only {int(np.sum(keep))} points in window [{lo}, {hi}]; "
                       f"need {min_points}")
    t, v = t[keep], v[keep]
    if not np.all((0.0 < t) & (t < np.inf) & (0.0 < v) & (v < np.inf)):  # NaN fails
        raise FitError("power-law fit needs finite, positive times and values")
    x = np.log(t)
    y = np.log(v)
    m = x.size
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * y) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = max(m - 2, 1)
    stderr = float(np.sqrt(np.sum(resid ** 2) / dof / sxx))
    return slope, stderr
