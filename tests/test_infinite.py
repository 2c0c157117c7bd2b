import numpy as np
import pytest

from mstop.finite import solve_ladder
from mstop.infinite import (
    _closed_form_coeffs,
    riesz_density,
    solve_infinite,
    x_hat_infinite,
)
from mstop.model import GbmModel, derive_exponents
from mstop.powerfn import call_payoff

from conftest import ORACLE, REF_MODEL, v_hat_of, verification_slack, zero


def test_x_hat_value():
    assert x_hat_infinite(REF_MODEL) == pytest.approx(ORACLE["x_hat_inf"], rel=1e-14)


def test_auxiliary_solution():
    sol = solve_infinite(REF_MODEL)
    x_hat, v_hat = sol.x_hat_inf, v_hat_of(sol)
    assert x_hat == pytest.approx(2.593508, abs=1e-6)
    assert v_hat(x_hat) == pytest.approx(x_hat - REF_MODEL.strike, rel=1e-12)
    assert v_hat(5.0) == pytest.approx(3.0, rel=1e-12)
    # Below the boundary the value is the continuation power function.
    assert v_hat(1.0) > 0.0
    assert v_hat(1.0) < v_hat(2.0)


def test_auxiliary_rejects_zero_strike():
    with pytest.raises(ValueError):
        solve_infinite(GbmModel(mu=0.008, sigma=0.125, r=0.05, lam=0.1, strike=0.0))


def test_overflow_is_a_typed_error():
    # A robustness-sweep model: R_r of the Riesz density overflows a float.
    model = GbmModel(
        mu=0.24029594496194667,
        sigma=0.001021026585884343,
        r=0.28025970618041296,
        lam=0.00015904259448963075,
        strike=8.291283895033407,
    )
    with pytest.raises(ArithmeticError, match="infinite-rights solve") as exc:
        solve_infinite(model)
    assert type(exc.value) is ArithmeticError
    assert isinstance(exc.value.__cause__, OverflowError)


def test_riesz_density_values():
    x_hat = x_hat_infinite(REF_MODEL)
    density = riesz_density(REF_MODEL, x_hat)
    assert density(x_hat * (1 + 1e-12)) == pytest.approx(
        ORACLE["sigma_at_x_hat"], rel=1e-9
    )
    for x in (0.5, 1.0, x_hat * 0.999):
        assert density(x) == 0.0
    # Nonnegative and nondecreasing above the boundary.
    grid = np.linspace(x_hat, 10 * x_hat, 50)
    vals = density.evaluate_many(grid)
    assert np.all(vals >= -1e-15)
    assert np.all(np.diff(vals) >= 0.0)


def test_riesz_density_sign_other_params():
    model = GbmModel(mu=0.0, sigma=0.2, r=0.05, lam=0.05, strike=1.0)
    x_hat = x_hat_infinite(model)
    assert riesz_density(model, x_hat)(2.0 * x_hat) > 0.0


def test_closed_form_coefficients():
    coeffs = _closed_form_coeffs(
        REF_MODEL, derive_exponents(REF_MODEL), x_hat_infinite(REF_MODEL)
    )
    assert coeffs == pytest.approx(
        tuple(ORACLE[c] for c in ("c1", "c2", "c3", "c4")), rel=1e-12
    )


def test_negligible_term_reconciles_as_zero():
    # Here x_hat^a underflows: c3 is -0.0 and the algebra drops its x^a term
    # as negligible, which must count as a zero coefficient, not a mismatch.
    model = GbmModel(
        mu=0.012755324407617934,
        sigma=0.0057692490827087935,
        r=0.24489099222950395,
        lam=0.026749214844510084,
        strike=0.06223750555365426,
    )
    sol = solve_infinite(model)
    assert _closed_form_coeffs(model, sol.exponents, sol.x_hat_inf)[2] == 0.0
    ladder = solve_ladder(model, 3)
    assert ladder.thresholds[-1] > sol.x_hat_inf


def test_value_function_continuity_and_anchor():
    sol = solve_infinite(REF_MODEL)
    x_hat = sol.x_hat_inf
    below = sol.v_inf(x_hat)
    above = sol.v_inf(x_hat * (1 + 1e-13))
    assert abs(below - above) <= 1e-9 * max(1.0, abs(below))
    assert sol.v_inf(2.0) == pytest.approx(ORACLE["v_inf_at_2"], rel=1e-12)


def test_value_dominates_auxiliary_and_payoff():
    sol = solve_infinite(REF_MODEL)
    g = call_payoff(REF_MODEL.strike)
    grid = np.geomspace(0.3, 20.0, 200)
    v_inf = sol.v_inf.evaluate_many(grid)
    v_hat = v_hat_of(sol).evaluate_many(grid)
    g_vals = g.evaluate_many(grid)
    assert np.all(v_inf - v_hat >= -1e-12)
    assert np.all(v_hat - g_vals >= -1e-12)


def test_ratio_nonincreasing_beyond_payoff_peak():
    sol = solve_infinite(REF_MODEL)
    b = sol.exponents.b
    grid = np.geomspace(ORACLE["x_star_1"], 50.0, 200)
    ratio = sol.v_inf.evaluate_many(grid) / grid**b
    assert np.all(np.diff(ratio) <= 1e-12)


def test_degenerate_lambda_limit():
    model = GbmModel(mu=0.008, sigma=0.125, r=0.05, lam=1e-8, strike=2.0)
    sol = solve_infinite(model)
    # With lam -> 0 later rights are worthless: the auxiliary threshold
    # tends to the single-stopping threshold and v_inf to v_hat.
    assert sol.x_hat_inf == pytest.approx(ORACLE["x_star_1"], abs=1e-4)
    grid = np.geomspace(0.5, 10.0, 100)
    v_hat = v_hat_of(sol).evaluate_many(grid)
    diff = np.abs(sol.v_inf.evaluate_many(grid) - v_hat)
    scale = np.abs(v_hat).max()
    assert diff.max() <= 1e-4 * max(1.0, scale)


def test_verification_inequality():
    sol = solve_infinite(REF_MODEL)
    grid = np.geomspace(0.5, 20.0, 300)
    slack = verification_slack(sol.v_inf, REF_MODEL, grid)
    below = grid < sol.x_hat_inf
    assert slack.min() >= -1e-9
    assert np.abs(slack[~below]).max() <= 1e-8
    # Strict slack in the continuation region.
    assert slack[below].min() > 1e-6


def test_verification_fails_for_zero_function():
    grid = np.array([3.0, 5.0])
    slack = verification_slack(zero(), REF_MODEL, grid)
    assert slack.min() < -0.5
