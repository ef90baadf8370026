"""Rayleigh-Jeans equilibria, their mass/energy, and the matching problem.

The stationary spectra are f(p) = 1/(beta * omega(p) + gamma).  With
l = gamma/beta, the mass M = int f dp = 2pi I/beta and the energy
E = int omega f dp = 2pi J/beta are closed forms (Gradshteyn & Ryzhik 2.551.3):

    I = (2/pi) atan(s)/s,  s = sqrt((l - 1)(l + 1)), for l > 1;  I(1) = 2/pi;
    I = (2/pi) (log1p(r) - ln l)/r,  r = sqrt((1 - l)(1 + l)), for l < 1;
    J = 1 - l I = (2/pi) (l/s) atan(1/s) - 1/(s (s + l)).

So beta*E + gamma*M = 2pi identically.  A pair (M0, E0) of positive numbers
is realizable iff E0/M0 < 2/pi; the inversion runs through F(l) = J/I =
1/I - l, strictly increasing from F(0) = 0 to F(inf) = 2/pi.  Near 0,
F ~ pi/(2 ln(2/l)), so with l >= e^-708 (a normal float64) the matchable
ratios are [RATIO_FLOOR, 2/pi), RATIO_FLOOR = F(e^-708) ~ 2.2e-3.  With
(1/beta, 1/gamma) = (r cos theta, r sin theta), cot(theta) = F^{-1}(E0/M0)
and the mass fixes r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .grid import Field, Grid
from .manifold import TWO_PI, omega

_TWO_OVER_PI = 2.0 / math.pi
RATIO_LIMIT = _TWO_OVER_PI

# denominators below this are floored; only reachable at gamma = 0 off-grid
_DENOM_FLOOR = 1e-300


@dataclass(frozen=True)
class RjParams:
    """Inverse-temperature / chemical-potential pair of a Rayleigh-Jeans spectrum."""
    beta: float
    gamma: float

    def __post_init__(self):
        # written so that NaN fails too
        if not 0.0 < self.beta < math.inf:
            raise ConfigError(f"beta must be positive and finite, got {self.beta}")
        if not 0.0 <= self.gamma < math.inf:
            raise ConfigError(f"gamma must be nonnegative and finite, got {self.gamma}")

    def value(self, p):
        """f(p) = 1/(beta omega + gamma) with a positivity floor on the denominator."""
        den = self.beta * omega(p) + self.gamma
        return 1.0 / np.maximum(den, _DENOM_FLOOR)


def rj_field(params: RjParams, grid: Grid) -> Field:
    """The equilibrium spectrum sampled on a grid."""
    return Field(grid, params.value(grid.nodes))


def _moments(ell: float) -> tuple[float, float]:
    """(I, J), the means over the torus of (1, omega)/(omega + ell).  1 - ell*I
    loses about log10(ell) digits, so above ell = 2 J takes the atan(1/s)
    form, which cancels near ell = 1."""
    if ell < 1.0:
        r = math.sqrt(1.0 - ell) * math.sqrt(1.0 + ell)
        i = _TWO_OVER_PI * (math.log1p(r) - math.log(ell)) / r
    elif ell > 1.0:
        s = math.sqrt(ell - 1.0) * math.sqrt(ell + 1.0)
        i = _TWO_OVER_PI * math.atan(s) / s
    else:
        i = _TWO_OVER_PI
    if ell <= 2.0:
        return i, 1.0 - ell * i
    return i, _TWO_OVER_PI * (ell / s) * math.atan(1.0 / s) - 1.0 / (s * (s + ell))


def mass_energy(params: RjParams):
    """Mass and energy of the equilibrium spectrum (gamma > 0)."""
    if params.gamma <= 0.0:
        raise ValueError("mass_energy requires gamma > 0 (gamma = 0 has infinite mass)")
    i, j = _moments(params.gamma / params.beta)
    return TWO_PI * i / params.beta, TWO_PI * j / params.beta


def curve_F(ell: float) -> float:
    """The strictly increasing matching curve F(l); F(0+) = 0, F(inf) = 2/pi."""
    if ell <= 0.0:
        raise ValueError(f"ell must be positive, got {ell}")
    i, j = _moments(ell)
    return j / i


# the bisection runs on u = -ln(gamma/beta) in [_U_MIN, _U_MAX]: e^-708 is a
# normal double, and F(e^40) is 2/pi to within 4e-19
_U_MIN, _U_MAX = -40.0, 708.0
RATIO_FLOOR = curve_F(math.exp(-_U_MAX))


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching (M0, E0) to a Rayleigh-Jeans spectrum: unmatched,
    with params None, when E0/M0 >= 2/pi, a ratio no finite (beta, gamma)
    attains."""
    matched: bool
    params: RjParams | None
    ratio: float
    theta: float
    r: float


def match_rj(mass0: float, energy0: float) -> MatchResult:
    """Invert (mass, energy) for (beta, gamma): unmatched when E/M >= 2/pi,
    DomainError when E/M < RATIO_FLOOR (gamma/beta would be below e^-708);
    ConfigError unless both are finite and positive."""
    if not (0.0 < mass0 < math.inf and 0.0 < energy0 < math.inf):
        raise ConfigError(f"mass and energy must be finite and positive, "
                          f"got mass {mass0}, energy {energy0}")
    ratio = energy0 / mass0
    if not (ratio < RATIO_LIMIT):
        return MatchResult(False, None, ratio, math.nan, math.nan)
    if ratio < RATIO_FLOOR:
        raise DomainError(f"E/M = {ratio:.6g} is below {RATIO_FLOOR:.6g}, the "
                          f"smallest ratio a float64 gamma/beta >= e^-708 matches")

    # F(e^-u) falls with u: F(e^-lo) > ratio >= F(e^-hi); stop at one ulp
    lo, hi = _U_MIN, _U_MAX
    while True:
        u = 0.5 * (lo + hi)
        if u == lo or u == hi:
            break
        if curve_F(math.exp(-u)) > ratio:
            lo = u
        else:
            hi = u
    ell = math.exp(-u)

    beta = TWO_PI * _moments(ell)[0] / mass0
    gamma = beta * ell
    return MatchResult(True, RjParams(beta=beta, gamma=gamma), ratio,
                       math.atan2(beta, gamma), math.hypot(1.0 / beta, 1.0 / gamma))
