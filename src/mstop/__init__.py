"""Optimal multiple stopping with exponential refraction periods.

Solves the N-rights exercise problem for a geometric Brownian motion with
call payoff (x - K)^+, where consecutive exercises are separated by
independent Exp(lambda) waiting times.  Provides the exact threshold-ladder
solver, the infinite-rights limit, and independent quadrature and Monte
Carlo oracles.

The Monte Carlo names load `mstop.mc`, and with it numpy, on first use, so
importing the package and solving a ladder need no numpy.
"""

from mstop.model import Exponents, GbmModel, derive_exponents, validate
from mstop.powerfn import PiecewisePowerSum, PowerTerm
from mstop.infinite import InfiniteSolution, solve_infinite
from mstop.finite import ThresholdLadder, solve_ladder

__all__ = [
    "Exponents",
    "GbmModel",
    "derive_exponents",
    "validate",
    "PowerTerm",
    "PiecewisePowerSum",
    "InfiniteSolution",
    "solve_infinite",
    "ThresholdLadder",
    "solve_ladder",
    "PolicySpec",
    "McEstimate",
    "simulate_policy",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("McEstimate", "PolicySpec", "simulate_policy"):
        from mstop import mc

        return getattr(mc, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
