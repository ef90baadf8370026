"""Numerical laboratory for the FPUT-beta wave kinetic equation on the torus.

Modules
-------
manifold     closed-form resonant-manifold geometry
quadrature   midpoint and graded composite rules
grid         midpoint grids, sampled fields, interpolation stencils, gather, norms
equilibria   Rayleigh-Jeans spectra and the (mass, energy) matching problem
collision    the nonlinear collision operator and the L^p blow-up family
linearized   the operator L around an equilibrium: assembly, spectra, decay
dynamics     time evolution of the full and perturbation equations
experiments  the named studies behind the command-line tool
cli          batch harness (entry point `phononlab`)
"""

from importlib import import_module

# the package version: pyproject.toml reads it from here, and every CLI
# manifest records it
__version__ = "0.1.0"

# name -> defining module; loaded on first access (PEP 562), so importing
# phononlab.cli does not load numpy before --threads sets the BLAS variables
_EXPORTS = {name: module for module, names in (
    ("equilibria", "MatchResult RjParams curve_F mass_energy match_rj rj_field"),
    ("grid", "Field Grid lp_norm"),
    ("linearized", "LinOperator assemble semigroup_apply"),
    ("manifold", "f_minus f_plus h h_bar omega"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
