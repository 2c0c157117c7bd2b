"""Threshold ladder for N exercise rights.

The value functions obey the recursion V^i = least excessive majorant of
H^i = g + lam * R_{r+lam} V^{i-1}, and each V^i is a one-sided threshold
solution: V^i = H^i above x*_i and c*_i x^b below.  The threshold x*_i is
the unique root of the necessary condition

    f(x) = x - b (x - K) + Delta_{i-1} x^beta = 0

on (x_hat_inf, x*_1], where Delta_{i-1} < 0 is a closed-form integral of
the previous stage.  Everything except the one-dimensional root solve stays
in the exact power-log algebra, and that solve is a Newton iteration with
the analytic derivative.
"""

from __future__ import annotations

import math
import sys
import warnings
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from mstop.model import Exponents, GbmModel, derive_exponents, require_valid
from mstop.powerfn import (
    PiecewisePowerSum,
    Poly,
    call_payoff,
    combine,
    power_log_integral,
    ratio_coefs,
    resolvent_apply,
)

# Newton stops once a step is below ROOT_RTOL * x (a few units in the last
# place) or no longer moves x left.
ROOT_RTOL = 4.0 * sys.float_info.epsilon
NEWTON_MAX_ITER = 100
BRACKET_EPS = 1e-12


@dataclass(frozen=True)
class ThresholdLadder:
    """Thresholds x*_1 > ... > x*_n with the associated value functions.

    thresholds[i-1] is the exercise boundary with i rights remaining;
    values[i-1] = V^i; h_funcs[i-1] = H^i; c_stars[i-1] = H^i(x*_i)/x*_i^b;
    deltas[i-2] = Delta_{i-1} for i >= 2.
    """

    model: GbmModel
    exponents: Exponents
    n: int
    thresholds: tuple[float, ...]
    c_stars: tuple[float, ...]
    values: tuple[PiecewisePowerSum, ...]
    h_funcs: tuple[PiecewisePowerSum, ...]
    deltas: tuple[float, ...]


def perpetual_call_threshold(e: float, strike: float) -> float:
    """Exercise level e K / (e - 1) of the perpetual call whose value below
    it is proportional to x^e, for e > 1."""
    return e / (e - 1.0) * strike


def x_star_single(model: GbmModel) -> float:
    """Single-right optimal threshold b K / (b - 1)."""
    return perpetual_call_threshold(derive_exponents(model).b, model.strike)


def solve_single(
    model: GbmModel,
) -> tuple[float, PiecewisePowerSum, PiecewisePowerSum]:
    """Base case: classical perpetual call. Returns (x*_1, V^1, H^1)."""
    require_valid(model, require_positive_net_drift=True)
    b = derive_exponents(model).b
    x1 = perpetual_call_threshold(b, model.strike)
    h1 = call_payoff(model.strike)
    return x1, threshold_form(h1, x1, b), h1


def continuation_value(
    model: GbmModel, v_prev: PiecewisePowerSum
) -> PiecewisePowerSum:
    """H^i = g + lam * R_{r+lam} V^{i-1} in the exact algebra."""
    g = call_payoff(model.strike)
    if v_prev.is_zero():
        return g
    return combine(g, resolvent_apply(v_prev, model.r + model.lam, model), 1.0, model.lam)


def delta(model: GbmModel, h_prev: PiecewisePowerSum, x_star_prev: float) -> float:
    """Delta = (kappa gamma / (kappa + gamma)) *
    int_{x*_prev}^inf y^{-kappa} d/dy(h_prev(y)/y^b) dy, in closed form.

    The tail converges because the dominant term of h_prev grows linearly,
    so the integrand decays like y^{-kappa - b} = y^{-beta} with beta > 1.
    """
    exps = derive_exponents(model)
    b, beta, kappa = exps.b, exps.beta, exps.kappa
    bps = h_prev.breakpoints
    total = 0.0
    for poly, lo, hi in zip(h_prev.polys, (0.0, *bps), (*bps, math.inf)):
        if hi <= x_star_prev:
            continue
        lo = max(lo, x_star_prev)
        for q, cs in poly.items():
            # y^-kappa d/dy [y^(q-b) C(ln y)] = y^(s-1) [(q-b) C + C'](ln y)
            # with s = q - b - kappa = q - beta, which is exactly 0 for the
            # resonant key beta (kappa comes from an identity, not beta - b).
            s = 0.0 if q == beta else (q - b) - kappa
            total += power_log_integral(s, ratio_coefs(q - b, cs), lo, hi)
    value = total * exps.kappa * exps.gamma / (exps.kappa + exps.gamma)
    if value >= 0.0 and abs(value) > 0.0:
        raise ArithmeticError(f"Delta must be negative, got {value}")
    return value


def solve_threshold(model: GbmModel, delta_value: float) -> float:
    """Unique root of f(x) = x - b(x - K) + Delta x^beta on (x_hat, x*_1].

    With b > 1, beta > 1 and Delta < 0, f'(x) = 1 - b + Delta beta x^(beta-1)
    <= 1 - b < 0 and f''(x) = Delta beta (beta-1) x^(beta-2) < 0: f is
    strictly decreasing and concave.  Newton's method started at x*_1, where
    f < 0, therefore moves left monotonically and never passes the root.  A
    strict sign change across the bracket is asserted first; iterates are
    clamped at x_hat + BRACKET_EPS, and a solve that has not converged after
    NEWTON_MAX_ITER steps raises ArithmeticError.
    """
    if delta_value > 0.0:
        raise ValueError(f"delta must be <= 0, got {delta_value}")
    exps = derive_exponents(model)
    b, beta = exps.b, exps.beta
    k = model.strike
    x_hat = perpetual_call_threshold(beta, k)
    x1 = perpetual_call_threshold(b, k)

    def f(x: float) -> float:
        return x - b * (x - k) + delta_value * x**beta

    if delta_value == 0.0:
        return x1
    lo = x_hat + BRACKET_EPS
    f_lo, f_hi = f(lo), f(x1)
    if f_hi >= 0.0:
        # f is strictly decreasing on the bracket; a nonnegative value at
        # the right end puts the root at (or beyond) x*_1.
        return x1
    if f_lo <= 0.0:
        if f_lo >= -1e-9:
            # Degenerate bracket (x_hat and x*_1 nearly coincide, e.g. for
            # tiny lam): f at the left end is zero up to float noise.
            return lo
        raise ArithmeticError(
            f"no sign change on bracket ({x_hat}, {x1}]: f={f_lo}, {f_hi}"
        )
    x, fx = x1, f_hi
    for _ in range(NEWTON_MAX_ITER):
        step = fx / (1.0 - b + delta_value * beta * x ** (beta - 1.0))
        x_new = max(x - step, lo)
        if not x_new < x:
            return x
        x = x_new
        if step <= ROOT_RTOL * x:
            return x
        fx = f(x)
    raise ArithmeticError(
        f"Newton did not converge on ({x_hat}, {x1}] in {NEWTON_MAX_ITER} steps"
    )


def solve_ladder(model: GbmModel, n: int) -> ThresholdLadder:
    """Full recursion for n >= 1 rights; all ladder invariants are asserted
    before returning."""
    if n < 1:
        raise ValueError(f"number of rights must be >= 1, got {n}")
    require_valid(model, require_positive_net_drift=True)
    exps = derive_exponents(model)
    b = exps.b
    x_hat = perpetual_call_threshold(exps.beta, model.strike)

    i = 1
    try:
        x1, v1, h1 = solve_single(model)
        thresholds = [x1]
        values = [v1]
        h_funcs = [h1]
        deltas: list[float] = []
        for i in range(2, n + 1):
            d = delta(model, h_funcs[-1], thresholds[-1])
            h_i = continuation_value(model, values[-1])
            x_i = solve_threshold(model, d)
            deltas.append(d)
            thresholds.append(x_i)
            values.append(threshold_form(h_i, x_i, b))
            h_funcs.append(h_i)
    except OverflowError as exc:
        raise ArithmeticError(
            f"float overflow in ladder stage {i}, which solves for x*_{i} "
            f"and V^{i} ({exc})"
        ) from exc

    ladder = ThresholdLadder(
        model=model,
        exponents=exps,
        n=n,
        thresholds=tuple(thresholds),
        # A coefficient dropped as negligible reads 0, as V^i carries it.
        c_stars=tuple(v.polys[0].get(b, [0.0])[0] for v in values),
        values=tuple(values),
        h_funcs=tuple(h_funcs),
        deltas=tuple(deltas),
    )
    _assert_invariants(ladder, x_hat)
    return ladder


def _truncate_below(f: PiecewisePowerSum, cut: float) -> PiecewisePowerSum:
    """f on (cut, inf), zero on (0, cut]; cut becomes the first breakpoint."""
    j = bisect_right(f.breakpoints, cut)
    return PiecewisePowerSum.from_polys((cut, *f.breakpoints[j:]), ({}, *f.polys[j:]))


def threshold_form(f: PiecewisePowerSum, cut: float, e: float) -> PiecewisePowerSum:
    """c x^e on (0, cut] and f above, with c = f(cut) / cut^e so that the
    result is continuous at cut."""
    above = _truncate_below(f, cut)
    return PiecewisePowerSum.from_polys(
        above.breakpoints, ({e: [f(cut) / cut**e]}, *above.polys[1:])
    )


def _assert_invariants(ladder: ThresholdLadder, x_hat: float) -> None:
    xs = ladder.thresholds
    for i in range(1, len(xs)):
        # Nonincreasing up to relative float noise: for tiny lam the whole
        # bracket (x_hat, x*_1] collapses and successive roots coincide at
        # double precision, so ties are legitimate there.
        if not (xs[i] < xs[i - 1] * (1.0 + 1e-12)):
            raise ArithmeticError(f"threshold monotonicity violated at i={i + 1}")
        if not (xs[i] > x_hat):
            raise ArithmeticError(f"threshold {i + 1} below infinite limit {x_hat}")
    for i, d in enumerate(ladder.deltas):
        if not (d < 0.0):
            raise ArithmeticError(f"Delta_{i + 1} not negative: {d}")
    # Pointwise checks on a log grid: value continuity at the boundary,
    # value monotonicity in rights, and the majorant chain V >= H >= g.
    grid = np.geomspace(0.2 * x_hat, 5.0 * xs[0], 101)
    g = call_payoff(ladder.model.strike)
    prev_vals: npt.NDArray[np.float64] | None = None
    for i, (v, h, x_i) in enumerate(
        zip(ladder.values, ladder.h_funcs, xs), start=1
    ):
        scale = max(1.0, abs(v(x_i)))
        if abs(v(x_i * (1 - 1e-12)) - v(x_i * (1 + 1e-12))) > 1e-8 * scale:
            raise ArithmeticError(f"V^{i} discontinuous at its threshold")
        v_vals = v.evaluate_many(grid)
        h_vals = h.evaluate_many(grid)
        g_vals = g.evaluate_many(grid)
        if np.any(v_vals - h_vals < -1e-9) or np.any(h_vals - g_vals < -1e-9):
            raise ArithmeticError(f"majorant property violated at i={i}")
        if prev_vals is not None and np.any(v_vals - prev_vals < -1e-9):
            raise ArithmeticError(f"value monotonicity violated at i={i}")
        prev_vals = v_vals
        # Smooth fit at the boundary is expected but not guaranteed by the
        # construction for i >= 2; degrade to a warning.  V^i is c*_i x^b on
        # (0, x*_i] and its next piece is H^i's, so the jump is exact.
        dv = _slope(v.polys[1], x_i) - _slope(v.polys[0], x_i)
        if abs(dv) > 1e-6 * scale:
            warnings.warn(
                f"first-derivative mismatch {dv:.3e} at threshold {i}",
                RuntimeWarning,
                stacklevel=2,
            )


def _slope(poly: Poly, x: float) -> float:
    """Derivative at x of one piece, sum over p of x^p C_p(ln x): each term
    gives x^(p-1) (p C_p + C_p') at ln x, with C_p and C_p' by one Horner
    pass."""
    lx = math.log(x)
    total = 0.0
    for p, cs in poly.items():
        acc = dacc = 0.0
        for c in reversed(cs):
            dacc = dacc * lx + acc
            acc = acc * lx + c
        total += (p * acc + dacc) * x ** (p - 1.0)
    return total


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
    if v_prev.is_zero():
        ratio = np.zeros_like(grid)
    else:
        rv = resolvent_apply(v_prev, model.r + model.lam, model)
        ratio = model.lam * rv.evaluate_many(grid) / grid**exps.b
    diffs = np.diff(ratio)
    scale_ = max(1.0, float(np.abs(ratio).max()) if ratio.size else 1.0)
    worst = float(diffs.max()) if diffs.size else 0.0
    idx = int(diffs.argmax()) if diffs.size else 0
    return {
        "nonincreasing": worst <= 1e-10 * scale_,
        "worst_increase": worst,
        "at_x": float(grid[idx]),
        "ratio": ratio,
        "grid": grid,
    }
