"""Shared fixtures: the reference model, frozen oracle values,
randomized-input factories, and test-only helpers on the algebra.

The ORACLE constants were derived independently of the package (separate
prototype algebra, piecewise adaptive quadrature of the resolvent
representation, and exact-sampling Monte Carlo) and are frozen here as
regression anchors.
"""

from __future__ import annotations

import math
import os
import subprocess
from typing import Sequence
import sys
from pathlib import Path

import numpy as np
import pytest

import mstop
from mstop.cli import PAPER_TABLE1  # noqa: F401 - the published table, for tests
from mstop.finite import continuation_value, perpetual_call_threshold, threshold_form
from mstop.infinite import InfiniteSolution
from mstop.model import GbmModel, derive_exponents
from mstop.powerfn import (
    DivergenceError,
    PiecewisePowerSum,
    Poly,
    PowerTerm,
    _axpy,
    _value,
    call_payoff,
    ratio_coefs,
    resolvent_apply,
)

from robustness_sweep import draw_models

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


# -- test-only helpers on the algebra ------------------------------------------


def theta(model: GbmModel, p: float) -> float:
    """Characteristic quadratic theta(p) = sigma^2 p(p-1)/2 + mu p."""
    return 0.5 * model.sigma * model.sigma * p * (p - 1.0) + model.mu * p


def is_zero(f: PiecewisePowerSum) -> bool:
    return not any(f.polys)


def zero() -> PiecewisePowerSum:
    return PiecewisePowerSum((), ((),))


def constant(c: float) -> PiecewisePowerSum:
    return PiecewisePowerSum((), ((PowerTerm(c, 0.0),),))


def monomial(coef: float, exponent: float) -> PiecewisePowerSum:
    return PiecewisePowerSum((), ((PowerTerm(coef, exponent),),))


def ratio_derivative(f: PiecewisePowerSum, p: float) -> PiecewisePowerSum:
    """Exact derivative of x -> f(x) / x^p, as a function: the independent
    reference for finite._slope and the first-order condition.

    Term c x^q ln^k maps to c(q-p) x^{q-p-1} ln^k + c k x^{q-p-1} ln^{k-1}.
    """
    polys: list[Poly] = []
    for poly in f.polys:
        m: Poly = {}
        for q, cs in poly.items():
            # Distinct q can land on one float after the shift: accumulate.
            _axpy(m, {q - p - 1.0: ratio_coefs(q - p, cs)}, 1.0)
        polys.append(m)
    return PiecewisePowerSum.from_polys(f.breakpoints, polys)


def antiderivative(s: float, cs: Sequence[float]) -> list[float]:
    """Coefficients d of D with d/dy [y^s D(ln y)] = y^(s-1) C(ln y).

    For s != 0 this is the backward recurrence s d_k + (k+1) d_(k+1) = c_k;
    for s == 0 it is D = integral of C with D(0) = 0 (one more log power).
    The two-pass reference for the fused kernels of resolvent_apply and
    finite.delta, which must match it bit for bit.
    """
    if s == 0.0:
        return [0.0] + [c / (k + 1) for k, c in enumerate(cs)]
    d = [0.0] * len(cs)
    carry = 0.0  # (k+1) d_(k+1)
    for k in range(len(cs) - 1, -1, -1):
        d[k] = (cs[k] - carry) / s
        carry = k * d[k]
    return d


def power_log_integral(s: float, cs: Sequence[float], lo: float, hi: float) -> float:
    """Integral of y^(s-1) * sum_k cs[k] ln^k y over (lo, hi] in closed form.

    hi may be math.inf when s < 0, where the antiderivative vanishes.
    """
    d = antiderivative(s, cs)
    if math.isinf(hi):
        if s >= 0.0 and any(d):
            raise DivergenceError(
                f"integral to infinity diverges; antiderivative exponent {s}"
            )
        upper = 0.0
    else:
        upper = _value([(s, d)], hi, math.log(hi))
    return upper - _value([(s, d)], lo, math.log(lo))


def check_ratio_monotonicity(
    model: GbmModel, v_prev: PiecewisePowerSum, n_points: int = 500
) -> dict:
    """Check that x -> lam (R_{r+lam} v_prev)(x) / x^b is nonincreasing.

    Scans a log grid spanning [x_hat/10, 10 x*_1]; returns a report dict
    with the worst increase and its location.
    """
    exps = derive_exponents(model)
    x_hat = perpetual_call_threshold(exps.beta, model.strike)
    x1 = perpetual_call_threshold(exps.b, model.strike)
    grid = np.geomspace(x_hat / 10.0, 10.0 * x1, n_points)
    rv = resolvent_apply(v_prev, model.r + model.lam, model)
    ratio = model.lam * rv.evaluate_many(grid) / grid**exps.b
    diffs = np.diff(ratio)
    scale_ = max(1.0, float(np.abs(ratio).max()))
    worst = float(diffs.max())
    idx = int(diffs.argmax())
    return {
        "nonincreasing": worst <= 1e-10 * scale_,
        "worst_increase": worst,
        "at_x": float(grid[idx]),
        "ratio": ratio,
        "grid": grid,
    }


def v_hat_of(sol: InfiniteSolution) -> PiecewisePowerSum:
    """V-hat, the value of the auxiliary (r + lam)-discounted problem:
    x - K above x_hat and proportional to x^beta below."""
    g = call_payoff(sol.model.strike)
    return threshold_form(g, sol.x_hat_inf, sol.exponents.beta)


def verification_slack(
    v: PiecewisePowerSum, model: GbmModel, grid: np.ndarray
) -> np.ndarray:
    """v - g - lam R_{r+lam} v on the grid: nonnegative where v is excessive,
    zero where it stops."""
    return v.evaluate_many(grid) - continuation_value(model, v).evaluate_many(grid)


def seed_value(terms, x, lx):
    """_value as it was before the in-place kernel, frozen as the reference
    arithmetic: Horner from 0.0 as acc * lx + c, each term added onto 0.0 as
    acc * x**p."""
    total = 0.0
    for p, cs in terms:
        acc = 0.0
        for c in reversed(cs):
            acc = acc * lx + c
        total += acc * x**p
    return total


def masked_evaluate_many(f: PiecewisePowerSum, x) -> np.ndarray:
    """Reference evaluation: searchsorted, one boolean mask per piece over
    the whole array and the frozen seed kernel, as evaluate_many did before
    it grouped the points by piece."""
    x = np.asarray(x, dtype=float)
    idx = np.searchsorted(np.asarray(f.breakpoints), x, side="left")
    out = np.zeros_like(x)
    lx = np.log(x)
    for j, poly in enumerate(f.polys):
        mask = idx == j
        if poly and np.any(mask):
            out[mask] = seed_value(poly.items(), x[mask], lx[mask])
    return out


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


def sweep_ladders() -> list:
    """Six-right ladders of the first five robustness-sweep models that
    solve to six rights."""
    ladders = []
    for m in draw_models(np.random.default_rng(0), 100):
        if len(ladders) == 5:
            break
        if not mstop.validate(m, require_positive_net_drift=True):
            try:
                ladders.append(mstop.solve_ladder(m, 6))
            except ArithmeticError:
                pass
    assert len(ladders) == 5
    return ladders


def run_python(code: str, *argv: str, **popen) -> subprocess.Popen:
    """Start `python -c code argv...` with the package under test importable."""
    src = str(Path(mstop.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, path))))
    return subprocess.Popen([sys.executable, "-c", code, *argv], env=env, **popen)
