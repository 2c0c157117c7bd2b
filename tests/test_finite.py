import math
import subprocess
import warnings
from bisect import bisect_right

import mpmath
import numpy as np
import pytest

from mstop import finite
from mstop.finite import (
    _assert_invariants,
    continuation_value,
    delta,
    solve_ladder,
    solve_single,
    solve_threshold,
)
from mstop.infinite import solve_infinite, x_hat_infinite
from mstop.model import GbmModel, derive_exponents
from mstop.powerfn import PiecewisePowerSum, PowerTerm, call_payoff, combine

from conftest import (
    ORACLE,
    REF_MODEL,
    check_ratio_monotonicity,
    constant,
    monomial,
    random_valid_model,
    ratio_derivative,
    run_python,
    zero,
)


@pytest.fixture(scope="module")
def ladder5():
    return solve_ladder(REF_MODEL, 5)


# -- base case ------------------------------------------------------------------


def test_solve_single_threshold_and_value():
    x1, v1, h1 = solve_single(REF_MODEL)
    assert x1 == pytest.approx(ORACLE["x_star_1"], rel=1e-14)
    assert v1(2.0) == pytest.approx(ORACLE["v1_at_2"], rel=1e-12)
    assert h1(5.0) == 3.0 and h1(1.0) == 0.0


def test_solve_single_smooth_fit():
    x1, v1, _ = solve_single(REF_MODEL)
    h = 1e-7 * x1
    left = (v1(x1) - v1(x1 - h)) / h
    right = (v1(x1 + h) - v1(x1)) / h
    assert abs(left - right) <= 1e-6


def test_solve_single_requires_net_drift():
    with pytest.raises(ValueError):
        solve_single(GbmModel(mu=0.005, sigma=0.125, r=0.05, lam=0.1, strike=2.0))


# -- continuation value -----------------------------------------------------------


def test_continuation_of_zero_is_payoff():
    h1 = continuation_value(REF_MODEL, zero())
    g = call_payoff(REF_MODEL.strike)
    grid = np.geomspace(0.5, 10.0, 30)
    assert np.allclose(h1.evaluate_many(grid), g.evaluate_many(grid))


def test_continuation_leading_linear_coefficient():
    # The (r + lam)-resolvent of the linear term x carries coefficient
    # 1/(r + lam - mu), so the top-piece linear coefficient of H^2 is
    # 1 + lam/(r + lam - mu).
    _, v1, _ = solve_single(REF_MODEL)
    h2 = continuation_value(REF_MODEL, v1)
    linear = h2.polys[-1][1.0][0]
    expected = 1.0 + REF_MODEL.lam / (REF_MODEL.r + REF_MODEL.lam - REF_MODEL.mu)
    assert linear == pytest.approx(expected, rel=1e-12)


def test_continuation_continuous_at_previous_threshold():
    _, v1, _ = solve_single(REF_MODEL)
    h2 = continuation_value(REF_MODEL, v1)
    x1 = ORACLE["x_star_1"]
    assert abs(h2(x1 * (1 - 1e-13)) - h2(x1 * (1 + 1e-13))) <= 1e-9 * abs(h2(x1))


# -- delta and threshold ----------------------------------------------------------


def test_delta_values(ladder5):
    for got, want in zip(ladder5.deltas, ORACLE["deltas"]):
        assert got == pytest.approx(want, rel=1e-10)
    assert all(d < 0.0 for d in ladder5.deltas)


@pytest.mark.parametrize(
    "model",
    [
        REF_MODEL,
        GbmModel(mu=0.0054740, sigma=0.051098, r=0.055040, lam=0.29510, strike=0.81862),
    ],
)
def test_delta_is_kappa_times_beta_coefficient(model):
    # On (0, K] the payoff is 0 and V^(i-1) is c x^b, so H^i there is
    # c' x^b + C x^beta and Delta_(i-1) = kappa C: a value read off the
    # resolvent's homogeneous coefficient, not from delta's closed-form
    # integral.
    ladder = solve_ladder(model, 10)
    kappa, beta = ladder.exponents.kappa, ladder.exponents.beta
    for d, h in zip(ladder.deltas, ladder.h_funcs[1:]):
        assert h.breakpoints[0] == model.strike
        assert kappa * h.polys[0][beta][0] == pytest.approx(d, rel=1e-12, abs=0.0)


def test_delta_zero_for_pure_power():
    b = derive_exponents(REF_MODEL).b
    assert delta(REF_MODEL, monomial(1.0, b), 3.0) == 0.0


def test_solve_threshold_zero_delta_is_single():
    assert solve_threshold(REF_MODEL, 0.0) == solve_single(REF_MODEL)[0]


def test_solve_threshold_rejects_positive_delta():
    with pytest.raises(ValueError):
        solve_threshold(REF_MODEL, 0.01)


def test_solve_threshold_reports_missing_sign_change():
    # A Delta so negative that f < 0 on the whole bracket.
    with pytest.raises(ArithmeticError, match="sign change"):
        solve_threshold(REF_MODEL, -1.0)


@pytest.mark.parametrize("lam, n", [(0.1, 20), (1e-6, 5)])
def test_solve_threshold_matches_high_precision_root(lam, n):
    # lam=1e-6 nearly collapses the bracket (x_hat, x*_1] to width 2e-5:
    # stage 2 is a Newton solve 7e-10 above x_hat, the later stages take the
    # degenerate-bracket branch.
    model = GbmModel(mu=0.008, sigma=0.125, r=0.05, lam=lam, strike=2.0)
    exps = derive_exponents(model)
    deltas = solve_ladder(model, n).deltas
    with mpmath.workdps(50):
        b, beta, k = (mpmath.mpf(v) for v in (exps.b, exps.beta, model.strike))
        bracket = (beta / (beta - 1) * k, b / (b - 1) * k)
        for d in deltas:
            dm = mpmath.mpf(d)
            root = mpmath.findroot(
                lambda x: x - b * (x - k) + dm * x**beta, bracket, solver="anderson"
            )
            assert solve_threshold(model, d) == pytest.approx(float(root), rel=1e-12)


def test_solve_threshold_raises_when_newton_budget_runs_out(monkeypatch):
    monkeypatch.setattr(finite, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ArithmeticError, match="Newton did not converge"):
        solve_threshold(REF_MODEL, ORACLE["deltas"][0])


def test_cli_import_leaves_scipy_unloaded():
    code = (
        "import sys, mstop.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = run_python(code, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0 and out.strip() == "[]"


# -- the ladder -------------------------------------------------------------------


def test_ladder_thresholds(ladder5):
    for got, want in zip(ladder5.thresholds, ORACLE["thresholds"]):
        assert got == pytest.approx(want, abs=5e-10)


def test_ladder_c_stars(ladder5):
    for got, want in zip(ladder5.c_stars, ORACLE["c_stars"]):
        assert got == pytest.approx(want, rel=1e-9)


def test_ladder_values_at_2(ladder5):
    assert ladder5.values[0](2.0) == pytest.approx(ORACLE["v1_at_2"], rel=1e-10)
    assert ladder5.values[2](2.0) == pytest.approx(ORACLE["v3_at_2"], rel=1e-10)
    assert ladder5.values[4](2.0) == pytest.approx(ORACLE["v5_at_2"], rel=1e-10)


def test_ladder_base_case_matches_single():
    one = solve_ladder(REF_MODEL, 1)
    x1, v1, _ = solve_single(REF_MODEL)
    assert one.thresholds == (x1,)
    assert one.values[0] == v1


def test_ladder_ordering(ladder5):
    xs = ladder5.thresholds
    x_hat = x_hat_infinite(REF_MODEL)
    assert all(x2 < x1 for x1, x2 in zip(xs, xs[1:]))
    assert xs[-1] > x_hat


def test_ladder_rejects_no_rights():
    with pytest.raises(ValueError):
        solve_ladder(REF_MODEL, 0)


def test_ladder_overflow_names_its_stage():
    model = GbmModel(
        mu=0.0020183, sigma=0.056709, r=0.0020260, lam=3.1498, strike=11.499
    )
    with pytest.raises(ArithmeticError, match="stage 3") as exc:
        solve_ladder(model, 5)
    assert not isinstance(exc.value, OverflowError)
    assert isinstance(exc.value.__cause__, OverflowError)


def test_ladder_exponents_are_structural():
    # Every term of V^i and H^i is x^p poly(ln x) with p one of five
    # exponents, bit for bit: the algebra carries exponents through the
    # recursion and never recomputes them.
    ladder = solve_ladder(REF_MODEL, 20)
    e = ladder.exponents
    allowed = {0.0, 1.0, e.b, e.beta, e.alpha}
    for f in (*ladder.values, *ladder.h_funcs):
        assert {p for poly in f.polys for p in poly} <= allowed


def test_ladder_sixty_rights_approaches_infinite_limit():
    ladder = solve_ladder(REF_MODEL, 60)
    x_hat = x_hat_infinite(REF_MODEL)
    _assert_invariants(ladder, x_hat)
    assert 0.0 < ladder.thresholds[-1] - x_hat < 1e-6


def test_first_order_condition_independent(ladder5):
    # dH^i(x)/x^b must vanish at x*_i; recomputed through ratio_derivative,
    # not through the root residual.
    b = ladder5.exponents.b
    for h_i, x_i in zip(ladder5.h_funcs, ladder5.thresholds):
        d = ratio_derivative(h_i, b)
        scale = abs(h_i(x_i)) / x_i**b
        assert abs(d(x_i)) <= 1e-8 * max(1.0, scale)


def test_value_monotonicity_and_majorant(ladder5):
    g = call_payoff(REF_MODEL.strike)
    grid = np.geomspace(0.5, 15.0, 200)
    prev = None
    for v, h in zip(ladder5.values, ladder5.h_funcs):
        v_vals = v.evaluate_many(grid)
        assert np.all(v_vals - h.evaluate_many(grid) >= -1e-9)
        assert np.all(h.evaluate_many(grid) - g.evaluate_many(grid) >= -1e-9)
        if prev is not None:
            assert np.all(v_vals - prev >= -1e-9)
        prev = v_vals


def test_value_equals_h_above_threshold(ladder5):
    for v, h, x_i in zip(ladder5.values, ladder5.h_funcs, ladder5.thresholds):
        for x in (x_i * 1.001, x_i * 2.0, x_i * 7.0):
            assert v(x) == pytest.approx(h(x), rel=1e-12)


def test_values_are_threshold_forms():
    # V^i is c*_i x^b on (0, x*_i] and, piece for piece, H^i above x*_i.
    ladder = solve_ladder(REF_MODEL, 20)
    b = ladder.exponents.b
    for v, h, x_i, c_i in zip(
        ladder.values, ladder.h_funcs, ladder.thresholds, ladder.c_stars
    ):
        assert v.polys[0] == {b: [c_i]}
        j = bisect_right(h.breakpoints, x_i)
        assert v.breakpoints == (x_i, *h.breakpoints[j:])
        assert v.polys[1:] == h.polys[j:]


def test_benchmark_stage_assembly_is_threshold_form(ladder5):
    # The benchmark's stage-by-stage rebuild times V^i's assembly as a
    # combine of c*_i x^b below x*_i and H^i truncated there; that must be
    # the V^i solve_ladder builds with threshold_form.
    b = ladder5.exponents.b
    for h, x_i, c_i in list(
        zip(ladder5.h_funcs, ladder5.thresholds, ladder5.c_stars)
    )[1:]:
        below = PiecewisePowerSum((x_i,), ((PowerTerm(c_i, b),), ()))
        assembled = combine(below, finite._truncate_below(h, x_i))
        assert assembled == finite.threshold_form(h, x_i, b)


def test_point_on_a_breakpoint_takes_the_left_piece():
    # Pieces are right-closed: f(x), evaluate_many and the ladder check's
    # grid evaluation all give a breakpoint the value of the piece it closes.
    # f jumps at both breakpoints, so the piece chosen shows in the value.
    f = PiecewisePowerSum(
        (2.0, 3.0),
        ((PowerTerm(1.0, 0.0),), (PowerTerm(5.0, 0.0),), (PowerTerm(9.0, 1.0),)),
    )
    grid = [1.0, 2.0, 2.5, 3.0, 4.0]
    expected = [1.0, 1.0, 5.0, 5.0, 36.0]
    assert [f(x) for x in grid] == expected
    assert f.evaluate_many(np.array(grid)).tolist() == expected
    assert finite._on_grid(f, grid, [math.log(x) for x in grid], "f") == expected


def with_stage(ladder, i, v=None, h=None):
    """The ladder with V^i and/or H^i replaced."""
    values, h_funcs = list(ladder.values), list(ladder.h_funcs)
    if v is not None:
        values[i - 1] = v
    if h is not None:
        h_funcs[i - 1] = h
    return ladder._replace(values=tuple(values), h_funcs=tuple(h_funcs))


def with_piece(f, j, scale=1.0, nudge=False):
    """f with piece j's coefficients scaled, and optionally its first one
    moved up by one ulp."""
    poly = {p: [scale * c for c in cs] for p, cs in f.polys[j].items()}
    if nudge:
        cs = next(iter(poly.values()))
        cs[0] = math.nextafter(cs[0], math.inf)
    polys = (*f.polys[:j], poly, *f.polys[j + 1 :])
    return PiecewisePowerSum.from_polys(f.breakpoints, polys)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # V^3 below H^3 just under x*_3.
        (lambda lad: with_stage(lad, 3, v=with_piece(lad.values[2], 0, 0.9)), "V < H"),
        # H^3 negative on (0, K], where g = 0.
        (lambda lad: with_stage(lad, 3, h=with_piece(lad.h_funcs[2], 0, -1.0)), "H < g"),
        # V^4 and H^4 lifted by 1 pass stage 4 and put V^5 below V^4.
        (
            lambda lad: with_stage(
                lad,
                4,
                v=combine(lad.values[3], constant(1.0)),
                h=combine(lad.h_funcs[3], constant(1.0)),
            ),
            "value monotonicity violated at i=5",
        ),
        # V^5 raised by 1% on (0, x*_5]: a jump at x*_5 and nothing else.
        (
            lambda lad: with_stage(lad, 5, v=with_piece(lad.values[4], 0, 1.01)),
            "discontinuous",
        ),
        # One ulp off H^2 above x*_2, far below any pointwise tolerance.
        (
            lambda lad: with_stage(lad, 2, v=with_piece(lad.values[1], 1, nudge=True)),
            "V\\^2 differs from H\\^2 above its threshold",
        ),
        # V^3 and H^3 above x*_1 (piece 3 of each) scaled past the largest
        # float on the grid.
        (
            lambda lad: with_stage(
                lad,
                3,
                v=with_piece(lad.values[2], 3, 1e308),
                h=with_piece(lad.h_funcs[2], 3, 1e308),
            ),
            "V\\^3 is not finite",
        ),
        # A term x^1000 in V^3 and H^3, whose power overflows on the grid.
        (
            lambda lad: with_stage(
                lad,
                3,
                v=combine(lad.values[2], monomial(1.0, 1000.0)),
                h=combine(lad.h_funcs[2], monomial(1.0, 1000.0)),
            ),
            "V\\^3 overflows",
        ),
    ],
    ids=[
        "v_below_h",
        "h_below_g",
        "monotonicity",
        "discontinuity",
        "structure",
        "not_finite",
        "overflow",
    ],
)
def test_invariants_reject_corrupted_ladder(ladder5, corrupt, message):
    with pytest.raises(ArithmeticError, match=message):
        _assert_invariants(corrupt(ladder5), x_hat_infinite(REF_MODEL))


def test_piece_slope_matches_ratio_derivative():
    # The smooth-fit check differentiates the two pieces next to x*_i in
    # one Horner pass; ratio_derivative(v, 0) is the same derivative built
    # as a function.
    ladder = solve_ladder(REF_MODEL, 20)
    for v, x_i in zip(ladder.values, ladder.thresholds):
        dv = ratio_derivative(v, 0.0)
        y = x_i * (1.0 + 1e-9)
        assert finite._slope(v.polys[0], x_i) == pytest.approx(dv(x_i), rel=1e-12)
        assert finite._slope(v.polys[1], y) == pytest.approx(dv(y), rel=1e-12)


def test_smooth_fit_check_raises_no_false_warning():
    # At thresholds 6-10 of this ladder, one-sided differences with step
    # 1e-7 x put the derivative jump at about 1.1e-6, above the 1e-6 bound;
    # the exact jump from the pieces on either side of x*_i is below 1e-13.
    model = GbmModel(mu=0.0054740, sigma=0.051098, r=0.055040, lam=0.29510, strike=0.81862)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solve_ladder(model, 10)


def test_superadditivity(ladder5):
    grid = np.geomspace(0.5, 15.0, 100)
    v1 = ladder5.values[0].evaluate_many(grid)
    v5 = ladder5.values[4].evaluate_many(grid)
    assert np.all(v5 <= 5.0 * v1 + 1e-9)


def test_infinite_dominates_finite(ladder5):
    v_inf = solve_infinite(REF_MODEL).v_inf
    grid = np.geomspace(0.5, 15.0, 200)
    top = ladder5.values[-1].evaluate_many(grid)
    assert np.all(v_inf.evaluate_many(grid) - top >= -1e-9)


def test_smooth_fit_observed(ladder5):
    # First-derivative continuity at each boundary; an observed property of
    # the construction, tested at a looser tolerance than value continuity.
    for v, x_i in zip(ladder5.values, ladder5.thresholds):
        h = 1e-7 * x_i
        left = (v(x_i) - v(x_i - h)) / h
        right = (v(x_i + h) - v(x_i)) / h
        assert abs(left - right) <= 1e-5 * max(1.0, abs(left))


def test_degenerate_lambda_thresholds():
    model = GbmModel(mu=0.008, sigma=0.125, r=0.05, lam=1e-8, strike=2.0)
    ladder = solve_ladder(model, 3)
    x1 = solve_single(model)[0]
    for x in ladder.thresholds:
        assert abs(x - x1) <= 1e-3


def test_randomized_ladder_invariants():
    rng = np.random.default_rng(7)
    for _ in range(5):
        model = random_valid_model(rng)
        ladder = solve_ladder(model, 4)
        xs = ladder.thresholds
        x_hat = x_hat_infinite(model)
        assert all(x2 < x1 for x1, x2 in zip(xs, xs[1:]))
        assert xs[-1] > x_hat
        assert all(d < 0.0 for d in ladder.deltas)


# -- ratio monotonicity -----------------------------------------------------------


def test_ratio_monotonicity_for_values(ladder5):
    for i in range(4):
        report = check_ratio_monotonicity(REF_MODEL, ladder5.values[i])
        assert report["nonincreasing"], report


def test_ratio_monotonicity_trivial_cases():
    report = check_ratio_monotonicity(REF_MODEL, zero())
    assert report["nonincreasing"]
    # x^b is discount-harmonic: the ratio is constant 1.
    b = derive_exponents(REF_MODEL).b
    report = check_ratio_monotonicity(REF_MODEL, monomial(1.0, b))
    assert report["nonincreasing"]
    assert np.allclose(report["ratio"], 1.0, rtol=1e-10)
