import math

import numpy as np
import pytest

from mstop.finite import solve_ladder, solve_single
from mstop.infinite import solve_infinite
from mstop.powerfn import call_payoff, resolvent_apply
from mstop.resolvent_numeric import (
    _ERR_WEIGHTS,
    _NODES,
    _WEIGHTS,
    QuadratureError,
    quad_resolvent,
)

from conftest import ORACLE, REF_MODEL, constant, monomial, random_power_sum

RL = REF_MODEL.r + REF_MODEL.lam


def test_embedded_pair_is_exact_on_polynomials():
    # The 33-point rule integrates t^k on [-1, 1] for k <= 32, and the error
    # estimate vanishes up to the lower rule's degree 16, up to the shift of
    # the end nodes (1e-12 of the half-width).
    for k in range(33):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert _WEIGHTS @ _NODES**k == pytest.approx(exact, abs=1e-11)
        if k <= 16:
            assert abs(_ERR_WEIGHTS @ _NODES**k) <= 1e-11


def test_resolvent_of_constant_by_quadrature():
    got = quad_resolvent(constant(1.0), REF_MODEL.r, 1.0, REF_MODEL)
    assert got == pytest.approx(1.0 / REF_MODEL.r, rel=1e-9)


def test_resolvent_of_linear_by_quadrature():
    got = quad_resolvent(monomial(1.0, 1.0), REF_MODEL.r, 2.0, REF_MODEL)
    assert got == pytest.approx(2.0 / (REF_MODEL.r - REF_MODEL.mu), rel=1e-9)


def test_oracle_equivalence_on_v1():
    _, v1, _ = solve_single(REF_MODEL)
    rv = resolvent_apply(v1, RL, REF_MODEL)
    for x in (1.0, ORACLE["x_star_1"], 5.0):
        got = quad_resolvent(v1, RL, x, REF_MODEL)
        assert got == pytest.approx(rv(x), rel=1e-7)


def test_values_and_v_inf_by_quadrature():
    # V^i(x0) with H^i = g + lam R_{r+lam} V^{i-1} by quadrature, and
    # V_inf = R_r sigma by quadrature on the Riesz density.  x*_1 ~ 3.318 and
    # x*_2 ~ 3.080: x0 = 2 is below both thresholds, where V^i scales
    # H^i(x*_i) by (x0 / x*_i)^b, and x0 = 4 above both, where V^i = H^i.
    ladder = solve_ladder(REF_MODEL, 2)
    inf_sol = solve_infinite(REF_MODEL)
    g = call_payoff(REF_MODEL.strike)
    b = ladder.exponents.b

    def h_by_quad(i, y):
        if i == 1:
            return g(y)
        v_prev = ladder.values[i - 2]
        return g(y) + REF_MODEL.lam * quad_resolvent(v_prev, RL, y, REF_MODEL)

    for x0 in (2.0, 4.0):
        for i, (v, x_star) in enumerate(zip(ladder.values, ladder.thresholds), 1):
            if x0 > x_star:
                quad = h_by_quad(i, x0)
            else:
                quad = h_by_quad(i, x_star) / x_star**b * x0**b
            assert quad == pytest.approx(v(x0), rel=1e-6)
        quad = quad_resolvent(inf_sol.sigma_density, REF_MODEL.r, x0, REF_MODEL)
        assert quad == pytest.approx(inf_sol.v_inf(x0), rel=1e-6)


def test_oracle_equivalence_random_inputs():
    rng = np.random.default_rng(53)
    grid = np.geomspace(0.5, 10.0, 5)
    for _ in range(5):
        f = random_power_sum(rng)
        rf = resolvent_apply(f, RL, REF_MODEL)
        for x in grid:
            got = quad_resolvent(f, RL, float(x), REF_MODEL)
            assert got == pytest.approx(rf(float(x)), rel=1e-6, abs=1e-9)


def test_resolvent_equation_pure_quadrature():
    # R_r f - R_{r+lam} f = lam R_{r+lam} R_r f with every resolvent under
    # quadrature; the nested inner resolvent uses the algebra only to make
    # the outer integrand cheap to evaluate, then is itself cross-checked.
    rng = np.random.default_rng(59)
    f = random_power_sum(rng, max_breakpoints=1)
    r_r_alg = resolvent_apply(f, REF_MODEL.r, REF_MODEL)
    for x in (0.8, 2.0, 6.0):
        lhs = quad_resolvent(f, REF_MODEL.r, x, REF_MODEL) - quad_resolvent(
            f, RL, x, REF_MODEL
        )
        rhs = REF_MODEL.lam * quad_resolvent(r_r_alg, RL, x, REF_MODEL)
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)


def test_divergent_tail_detected():
    beta_plus = 5.0  # grows faster than psi_{r+lam} = x^4.3698
    with pytest.raises(QuadratureError):
        quad_resolvent(monomial(1.0, beta_plus), RL, 1.0, REF_MODEL)


def test_numpy_overflow_is_quadrature_error():
    # x^400 overflows numpy's float range inside evaluate_many on the first
    # block; that is a QuadratureError, not a warning or FloatingPointError.
    with pytest.raises(QuadratureError, match="overflow"):
        quad_resolvent(monomial(1.0, 400.0), RL, 1.0, REF_MODEL)


def test_prefactor_overflow_is_quadrature_error():
    # x^p_q overflows a Python float before any integrand is evaluated.
    with pytest.raises(QuadratureError, match="overflow"):
        quad_resolvent(constant(1.0), 0.15, 1e300, REF_MODEL)


def test_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        quad_resolvent(constant(1.0), REF_MODEL.r, 0.0, REF_MODEL)


@pytest.mark.parametrize("x", [math.inf, math.nan])
def test_rejects_non_finite_x(x):
    with pytest.raises(ValueError, match="positive and finite"):
        quad_resolvent(constant(1.0), REF_MODEL.r, x, REF_MODEL)


class ArrayCounter:
    """A power sum seen through its breakpoints and evaluate_many only,
    counting array calls and the points they carry."""

    def __init__(self, f, values=None):
        self.f, self.values = f, values
        self.breakpoints = f.breakpoints
        self.calls = self.points = 0

    def __call__(self, y):
        raise AssertionError("scalar call on an integrand with evaluate_many")

    def evaluate_many(self, y):
        self.calls += 1
        self.points += y.size
        return self.f.evaluate_many(y) if self.values is None else self.values(y)


def test_typed_integrand_is_called_once_per_level():
    _, v1, _ = solve_single(REF_MODEL)
    counted = ArrayCounter(v1)
    got = quad_resolvent(counted, RL, 2.0, REF_MODEL)
    assert got == pytest.approx(resolvent_apply(v1, RL, REF_MODEL)(2.0), rel=1e-9)
    # Two tail walks of a few blocks, each block a few bisection levels.
    assert counted.calls <= 40


def test_plain_callable_matches_algebra_on_criterion_3_inputs():
    # The criterion-3 random sums behind a bare lambda: no breakpoints, no
    # evaluate_many, so their jumps are found only by the closed rule's edge
    # samples and bisection.
    rng = np.random.default_rng(303)
    grid = np.geomspace(0.3, 15.0, 20)
    worst = 0.0
    for _ in range(50):
        f = random_power_sum(rng, max_breakpoints=2, max_terms=2)
        rf = resolvent_apply(f, RL, REF_MODEL)
        for x in grid:
            got = quad_resolvent(lambda y: f(y), RL, float(x), REF_MODEL)
            worst = max(worst, abs(rf(float(x)) - got) / max(1e-9, abs(got)))
    assert worst <= 1e-6


def test_non_finite_integrand_fails_at_once():
    counted = ArrayCounter(constant(1.0), values=lambda y: np.full(y.shape, np.nan))
    with pytest.raises(QuadratureError, match="non-finite"):
        quad_resolvent(counted, RL, 2.0, REF_MODEL)
    assert counted.calls == 1
    with pytest.raises(QuadratureError, match="non-finite"):
        quad_resolvent(lambda y: math.inf if y > 3.0 else 1.0, RL, 2.0, REF_MODEL)


def test_unresolvable_integrand_hits_active_cap():
    # Fast oscillation needs far more intervals than the cap allows; the
    # breadth-first bisection stops as soon as the active set exceeds it,
    # long before max_depth levels.
    counted = ArrayCounter(constant(1.0), values=lambda y: np.sin(1e7 * y))
    with pytest.raises(QuadratureError, match="unresolved intervals"):
        quad_resolvent(counted, RL, 2.0, REF_MODEL)
    assert counted.calls <= 12
