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
from bisect import bisect_left, bisect_right
from collections import namedtuple
from operator import sub

from mstop.model import GbmModel, derive_exponents, require_valid
from mstop.powerfn import (
    DivergenceError,
    PiecewisePowerSum,
    Poly,
    _value,
    call_payoff,
    combine,
    ratio_coefs,
    resolvent_apply,
)

# Newton stops once a step is below ROOT_RTOL * x (a few units in the last
# place) or no longer moves x left.
ROOT_RTOL = 4.0 * sys.float_info.epsilon
NEWTON_MAX_ITER = 100
BRACKET_EPS = 1e-12


class ThresholdLadder(
    namedtuple(
        "ThresholdLadder",
        "model exponents n thresholds c_stars values h_funcs deltas",
    )
):
    """Thresholds x*_1 > ... > x*_n with the associated value functions.

    thresholds[i-1] is the exercise boundary with i rights remaining;
    values[i-1] = V^i; h_funcs[i-1] = H^i; c_stars[i-1] = H^i(x*_i)/x*_i^b;
    deltas[i-2] = Delta_{i-1} for i >= 2.  Each of the five is a tuple.
    """

    __slots__ = ()


def perpetual_call_threshold(e: float, strike: float) -> float:
    """Exercise level e K / (e - 1) of the perpetual call whose value below
    it is proportional to x^e, for e > 1."""
    return e / (e - 1.0) * strike


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
    return combine(g, resolvent_apply(v_prev, model.r + model.lam, model), 1.0, model.lam)


def delta(model: GbmModel, h_prev: PiecewisePowerSum, x_star_prev: float) -> float:
    """Delta = (kappa gamma / (kappa + gamma)) *
    int_{x*_prev}^inf y^{-kappa} d/dy(h_prev(y)/y^b) dy, in closed form.

    The tail converges because the dominant term of h_prev grows linearly,
    so the integrand decays like y^{-kappa - b} = y^{-beta} with beta > 1.
    """
    exps = derive_exponents(model)
    b, beta, kappa = exps.b, exps.beta, exps.kappa
    # The pieces above x*_prev, from x*_prev to the next breakpoint, ...,
    # from the last breakpoint to infinity; one log per breakpoint.  The
    # unbounded piece's upper end is a placeholder (y = 1, ln y = 0).
    bps = h_prev.breakpoints
    j = bisect_right(bps, x_star_prev)
    xs = (x_star_prev, *bps[j:])
    lxs = tuple(map(math.log, xs))
    total = 0.0
    for i, poly in enumerate(h_prev.polys[j:]):
        lo, l_lo = xs[i], lxs[i]
        bounded = i + 1 < len(xs)
        hi, l_hi = (xs[i + 1], lxs[i + 1]) if bounded else (1.0, 0.0)
        for q, cs in poly.items():
            # y^-kappa d/dy [y^(q-b) C(ln y)] = y^(s-1) [(q-b) C + C'](ln y)
            # with s = q - b - kappa = q - beta, which is exactly 0 for the
            # resonant key beta (kappa comes from an identity, not beta - b).
            # One backward pass forms the ratio coefficients
            # r_k = (q-b) c_k + (k+1) c_(k+1), the antiderivative y^s D(ln y)
            # with s d_k + (k+1) d_(k+1) = r_k (for s == 0, d_(k+1) =
            # r_k / (k+1) and d_0 = 0) and D's Horner values at both ends.
            e = q - b
            s = 0.0 if q == beta else e - kappa
            c_next = carry = d_lo = d_hi = 0.0
            for k in range(len(cs) - 1, -1, -1):
                c = cs[k]
                r = e * c + (k + 1) * c_next
                c_next = c
                if s == 0.0:
                    d = r / (k + 1)
                else:
                    d = (r - carry) / s
                    carry = k * d
                d_lo = d_lo * l_lo + d
                d_hi = d_hi * l_hi + d
            if s == 0.0:
                d_lo = d_lo * l_lo + 0.0
                d_hi = d_hi * l_hi + 0.0
            if bounded:
                total += d_hi * hi**s - d_lo * lo**s
            # The tail diverges for s >= 0 unless D is 0: every d_k is 0
            # exactly when every r_k / s (r_k / (k+1) for s == 0) rounds to 0.
            elif s >= 0.0 and any(
                r / (s or k + 1) for k, r in enumerate(ratio_coefs(e, cs))
            ):
                raise DivergenceError(
                    f"integral to infinity diverges; antiderivative exponent {s}"
                )
            else:
                total -= d_lo * lo**s
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
    except (OverflowError, ZeroDivisionError) as exc:
        # A division by zero here is by a power or a difference that
        # underflowed to 0, as x*_1^b does for a tiny strike.
        kind = "overflow" if isinstance(exc, OverflowError) else "underflow"
        raise ArithmeticError(
            f"float {kind} in ladder stage {i}, which solves for x*_{i} "
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


def _truncate_below(
    f: PiecewisePowerSum, cut: float, head: Poly | None = None
) -> PiecewisePowerSum:
    """f on (cut, inf) and `head` (zero by default) on (0, cut]; cut becomes
    the first breakpoint.  The benchmark's stage-by-stage rebuild of the
    ladder assembles V^i from it."""
    j = bisect_right(f.breakpoints, cut)
    return PiecewisePowerSum.from_polys(
        (cut, *f.breakpoints[j:]), (head or {}, *f.polys[j:])
    )


def threshold_form(f: PiecewisePowerSum, cut: float, e: float) -> PiecewisePowerSum:
    """c x^e on (0, cut] and f above, with c = f(cut) / cut^e so that the
    result is continuous at cut."""
    return _truncate_below(f, cut, {e: [f(cut) / cut**e]})


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
    # Pointwise checks on a log grid: the majorant chain V >= H >= g, value
    # monotonicity in rights, and value continuity at the boundary.  Above
    # x*_i, V^i is H^i piece for piece (checked exactly first), so the two
    # can differ only on (0, x*_i]: H^i is evaluated on the grid points
    # there, and V^i's values stand for it above.  The grid has 101
    # log-spaced points with exact ends; their logs are taken once.
    lo, hi = 0.2 * x_hat, 5.0 * xs[0]
    log_lo, log_hi = math.log(lo), math.log(hi)
    logs = [log_lo + k * (log_hi - log_lo) / 100 for k in range(100)] + [log_hi]
    grid = [lo, *map(math.exp, logs[1:-1]), hi]
    g_vals = _on_grid(call_payoff(ladder.model.strike), grid, logs, "g")
    prev_vals: list[float] | None = None
    for i, (v, h, x_i) in enumerate(
        zip(ladder.values, ladder.h_funcs, xs), start=1
    ):
        j = bisect_right(h.breakpoints, x_i)
        if v.breakpoints != (x_i, *h.breakpoints[j:]) or v.polys[1:] != h.polys[j:]:
            raise ArithmeticError(f"V^{i} differs from H^{i} above its threshold")
        v_vals = _on_grid(v, grid, logs, f"V^{i}")
        below = bisect_right(grid, x_i)
        h_vals = _on_grid(h, grid[:below], logs[:below], f"H^{i}") + v_vals[below:]
        if min(map(sub, v_vals, h_vals)) < -1e-9:
            raise ArithmeticError(f"majorant property violated at i={i}: V < H")
        if min(map(sub, h_vals, g_vals)) < -1e-9:
            raise ArithmeticError(f"majorant property violated at i={i}: H < g")
        if prev_vals is not None and min(map(sub, v_vals, prev_vals)) < -1e-9:
            raise ArithmeticError(f"value monotonicity violated at i={i}")
        prev_vals = v_vals
        scale = max(1.0, abs(v(x_i)))
        if abs(v(x_i * (1 - 1e-12)) - v(x_i * (1 + 1e-12))) > 1e-8 * scale:
            raise ArithmeticError(f"V^{i} discontinuous at its threshold")
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


def _on_grid(
    f: PiecewisePowerSum, grid: list[float], logs: list[float], name: str
) -> list[float]:
    """f at the points of `grid`, whose logs are `logs`, each on the piece
    f(x) takes; a value that overflows or is not finite raises
    ArithmeticError naming f as `name`."""
    bps, terms = f.breakpoints, [poly.items() for poly in f.polys]
    try:
        vals = [_value(terms[bisect_left(bps, x)], x, lx) for x, lx in zip(grid, logs)]
    except OverflowError as exc:
        raise ArithmeticError(f"{name} overflows on the check grid ({exc})") from exc
    if not all(map(math.isfinite, vals)):
        raise ArithmeticError(f"{name} is not finite on the check grid")
    return vals


def _slope(poly: Poly, x: float) -> float:
    """Derivative at x of one piece, sum over p of x^p C_p(ln x): each term
    gives x^(p-1) (p C_p + C_p') at ln x."""
    terms = [(p - 1.0, ratio_coefs(p, cs)) for p, cs in poly.items()]
    return _value(terms, x, math.log(x))
