"""Shared fixtures: the reference model, frozen oracle values, and
randomized-input factories.

The ORACLE constants were derived independently of the package (separate
prototype algebra, piecewise adaptive quadrature of the resolvent
representation, and exact-sampling Monte Carlo) and are frozen here as
regression anchors.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mstop
from mstop.cli import PAPER_TABLE1  # noqa: F401 - the published table, for tests
from mstop.model import GbmModel
from mstop.powerfn import PiecewisePowerSum, PowerTerm

# Reference configuration used throughout the published worked example.
REF_MODEL = GbmModel(mu=0.008, sigma=0.125, r=0.05, lam=0.1, strike=2.0)

ORACLE = {
    "b": 2.5178505884735567,
    "a": -2.5418505884735567,
    "beta": 4.369796891687246,
    "alpha": -4.393796891687245,
    "kappa": 1.8519463032136882,
    "gamma": 6.911647480160802,
    "x_hat_inf": 2.5935075805113605,
    "x_star_1": 3.317652748688079,
    "c1": 3.380952380952381,
    "c2": -6.0,
    "c3": 4.0054817193106,
    "c4": 0.2835189158318628,
    "sigma_at_x_hat": 0.06827807643261319,
    "thresholds": (
        3.317652748688079,
        3.0798801239994313,
        2.9341372905279126,
        2.8362727075315703,
        2.767965460527415,
    ),
    "c_stars": (
        0.06433192029407898,
        0.11643810044437554,
        0.1576679719915065,
        0.18967238404148265,
        0.2141275959994743,
    ),
    "deltas": (
        -0.0026460456793034937,
        -0.0052749380403430335,
        -0.007678923861516449,
        -0.009754216948357748,
    ),
    "v1_at_2": 0.3684470357997849,
    "v3_at_2": 0.9030089053035901,
    "v5_at_2": 1.2263690819159574,
    "v_inf_at_2": 1.6237927245742896,
}


@pytest.fixture
def ref_model() -> GbmModel:
    return REF_MODEL


@pytest.fixture
def oracle() -> dict:
    return ORACLE


def random_power_sum(
    rng: np.random.Generator,
    max_breakpoints: int = 3,
    max_terms: int = 3,
) -> PiecewisePowerSum:
    """Random power sum admissible for both R_r and R_{r+lam} under the
    reference model: exponents in (-2, 2.2) keep clear of every root of
    theta(p) = q and satisfy both convergence preconditions."""
    n_bp = int(rng.integers(0, max_breakpoints + 1))
    bps = np.sort(rng.uniform(0.5, 5.0, n_bp))
    pieces = []
    for _ in range(n_bp + 1):
        n_terms = int(rng.integers(1, max_terms + 1))
        pieces.append(
            tuple(
                PowerTerm(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.2)))
                for _ in range(n_terms)
            )
        )
    return PiecewisePowerSum(tuple(float(x) for x in bps), tuple(pieces))


def random_valid_model(rng: np.random.Generator) -> GbmModel:
    """Random parameters satisfying every model invariant, including
    positive net drift."""
    sigma = float(rng.uniform(0.05, 0.25))
    r = float(rng.uniform(0.04, 0.1))
    lo = sigma * sigma / 2.0 + 0.002
    mu = float(rng.uniform(lo, r - 0.005))
    lam = float(rng.uniform(0.02, 0.5))
    strike = float(rng.uniform(0.5, 5.0))
    return GbmModel(mu=mu, sigma=sigma, r=r, lam=lam, strike=strike)


def run_python(code: str, *argv: str, **popen) -> subprocess.Popen:
    """Start `python -c code argv...` with the package under test importable."""
    src = str(Path(mstop.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, path))))
    return subprocess.Popen([sys.executable, "-c", code, *argv], env=env, **popen)
