"""Numerical resolvent oracle, independent of the exact algebra.

Evaluates R_q f(x) by adaptive quadrature of the integral representation

    R_q f(x) = B_q^{-1} [ phi_q(x) int_0^x psi_q f m' dy
                          + psi_q(x) int_x^inf phi_q f m' dy ].

Integration is performed in log coordinates (y = e^u), where products of
power functions become exponentials — nearly polynomial over each block —
and both infinite ends are truncated with measured-slope exponential tail
bounds rather than fixed cutoffs.

Each block is integrated by an embedded Clenshaw-Curtis pair: 33 nodes
cos(j pi / 32) per interval, the 17 even-numbered ones forming the lower
rule, and the difference of the two rules is the error estimate.  The rule
is closed, so the estimate sees the integrand next to both edges of every
interval and a jump there forces a bisection (an open rule such as
Gauss-Kronrod misses a jump between an edge and its outermost node).  The
two end nodes sit 1e-12 of the half-width inside the interval, so an edge
sample at a cut reads the interval's own piece; moving them changes the
rule by a relative amount of that order, far below the tolerances.
Refinement is level by level: one bisection level of a block is a single
call of the integrand on every interval not yet resolved.

The tolerances are fixed: each block's error budget is the larger of 1e-9
relative to the integral of |g| over it and 1e-12 absolute on the final
value (divided by the prefactor x^p_q / B_q or x^m_q / B_q that multiplies
the integral, where that exceeds 1), a tail ends once its bound falls below
that absolute tolerance, and a block gives up after 50 bisection levels.
Float overflow anywhere in an evaluation, the prefactors included, raises
`QuadratureError`.

What the integrand `f` is taken to be:

- If it has `breakpoints` (increasing positive points where it may jump or
  kink), each block is cut at their logs, so every interval is smooth.
- If it has `evaluate_many` (evaluation on an array of points), each level
  calls it once; otherwise `f` is called once per point.
- A plain callable without `breakpoints` is assumed piecewise smooth with
  finitely many jumps or kinks.  Those are narrowed down by bisection until
  the block's error budget covers them, which costs many more evaluations
  than a declared cut.

This module shares no code with the algebraic resolvent, so agreement
between the two is a meaningful check.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
import numpy.typing as npt

from mstop.model import GbmModel, root_pair

Array = npt.NDArray[np.float64]

# Width of one integration block in log coordinates.
_BLOCK_WIDTH = 2.0
# Hard cap on the number of blocks walked toward either infinite end.
_MAX_BLOCKS = 400
# Hard cap on the intervals of one block that are refined together; beyond
# it the integrand is not resolvable at any sane cost.
_MAX_ACTIVE = 1024
# Offset of the end nodes inside an interval, relative to its half-width.
_EDGE_INSET = 1e-12
# Fixed tolerances and depth limit (see the module docstring).
_REL_TOL = 1e-9
_ABS_TOL = 1e-12
_MAX_DEPTH = 50


def _clenshaw_curtis_weights(n: int) -> list[float]:
    """Weights of the (n + 1)-point Clenshaw-Curtis rule on [-1, 1], n even
    (symmetric, so in either order of the nodes cos(j pi / n))."""
    weights = []
    for j in range(n + 1):
        s = sum(
            (1.0 if 2 * k == n else 2.0) / (4 * k * k - 1) * math.cos(2 * math.pi * j * k / n)
            for k in range(1, n // 2 + 1)
        )
        weights.append((1.0 if j in (0, n) else 2.0) / n * (1.0 - s))
    return weights


_NODES = np.array(
    [-1.0 + _EDGE_INSET]
    + [math.cos(math.pi * j / 32) for j in range(31, 0, -1)]
    + [1.0 - _EDGE_INSET]
)
_WEIGHTS = np.array(_clenshaw_curtis_weights(32))
# Full rule minus the 17-point rule on the even-numbered nodes.
_ERR_WEIGHTS = _WEIGHTS.copy()
_ERR_WEIGHTS[::2] -= _clenshaw_curtis_weights(16)


class QuadratureError(ArithmeticError):
    """Tolerance not reached or a divergent tail was detected."""


def _integrate_block(
    g: Callable[[Array], Array],
    u: float,
    u_next: float,
    cuts: Array,
    abs_tol: float,
) -> tuple[float, float, float]:
    """Integral of g over the block between u and u_next, cut at `cuts`,
    with |g(u)| and |g(u_next)| taken from the same first call.

    The block's error budget is max(abs_tol, _REL_TOL * int |g|).  An
    interval is accepted when its error estimate is within its share of the
    budget by width, or when what is left of the budget covers all open
    intervals together.
    """
    a, b = min(u, u_next), max(u, u_next)
    edges = np.concatenate(([a], cuts[(cuts > a) & (cuts < b)], [b]))
    lo, hi = edges[:-1], edges[1:]
    total, spent, eps = 0.0, 0.0, 0.0
    for depth in range(_MAX_DEPTH + 1):
        half = 0.5 * (hi - lo)
        mid = lo + half
        points = (mid[:, None] + half[:, None] * _NODES).ravel()
        if depth == 0:
            values = g(np.append(points, (u, u_next)))
            g_in, g_out = abs(float(values[-2])), abs(float(values[-1]))
            values = values[:-2].reshape(lo.size, _NODES.size)
            abs_integral = float((half * (np.abs(values) * _WEIGHTS).sum(axis=1)).sum())
            eps = max(abs_tol, _REL_TOL * abs_integral)
        else:
            values = g(points).reshape(lo.size, _NODES.size)
        est = half * (values * _WEIGHTS).sum(axis=1)
        err = np.abs(half * (values * _ERR_WEIGHTS).sum(axis=1))
        # Width floor: a kink of an undeclared piece boundary cannot be
        # subdivided away; the residual there is below double noise.
        done = (err <= eps * (hi - lo) / (b - a)) | (
            hi - lo <= 1e-13 * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
        )
        if spent + float(err.sum()) <= eps:
            done[:] = True  # what is left of the budget covers every interval
        total += float(est[done].sum())
        spent += float(err[done].sum())
        if done.all():
            return total, g_in, g_out
        lo, mid, hi = lo[~done], mid[~done], hi[~done]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        if lo.size > _MAX_ACTIVE:
            raise QuadratureError(
                f"more than {_MAX_ACTIVE} unresolved intervals on [{a}, {b}] "
                f"at depth {depth + 1}"
            )
    raise QuadratureError(
        f"tolerance not reached within depth {_MAX_DEPTH} on [{a}, {b}] "
        f"(err {float(err.max()):.3e})"
    )


def _walk_tail(
    g: Callable[[Array], Array],
    start: float,
    direction: float,
    cuts: Array,
    abs_tol: float,
) -> float:
    """Integrate g from `start` toward +/- infinity in log-coordinate blocks.

    Stops when a measured-slope exponential majorant bounds the remaining
    tail below abs_tol; raises if the integrand does not decay.
    """
    total = 0.0
    u = start
    for _ in range(_MAX_BLOCKS):
        u_next = u + direction * _BLOCK_WIDTH
        block, g_in, g_out = _integrate_block(g, u, u_next, cuts, abs_tol)
        total += block
        if g_out > g_in and g_out > 1e12:
            raise QuadratureError(
                f"divergent tail detected at u={u_next} (|g|={g_out:.3e})"
            )
        if g_out < g_in and g_out > 0.0:
            # |g| decays at measured rate s per unit u beyond u_next; the
            # remaining tail is bounded by g_out / s.
            s = math.log(g_in / g_out) / _BLOCK_WIDTH
            if g_out / s < abs_tol:
                return total
        elif g_out == 0.0:
            # Identically-zero stretch (e.g. payoff region ends); probe one
            # more block, then accept.
            probe = g(np.array([u_next + direction * _BLOCK_WIDTH]))
            if probe[0] == 0.0:
                return total
        u = u_next
    raise QuadratureError(
        f"tail did not converge within {_MAX_BLOCKS} blocks from u={start}"
    )


def quad_resolvent(
    f: Callable[[float], float],
    q: float,
    x: float,
    model: GbmModel,
) -> float:
    """Resolvent R_q f(x) by adaptive quadrature of the representation.

    `f` must be evaluatable on (0, inf) with power-bounded growth below the
    psi_q exponent at infinity and above the phi_q exponent at zero.  Its
    optional `breakpoints` and `evaluate_many` are used as the module
    docstring describes.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"x must be positive and finite, got {x}")
    pq, mq = root_pair(model, q)
    s2 = model.sigma * model.sigma
    tm = 2.0 * model.mu / s2 - 2.0
    b_q = pq - mq
    ux = math.log(x)
    cuts = np.log(np.asarray(getattr(f, "breakpoints", ()), dtype=float))
    many = getattr(f, "evaluate_many", None)

    def integrand(power: float) -> Callable[[Array], Array]:
        # e^(u power) (2 / s2) f(e^u): psi_q or phi_q, times m' and the
        # Jacobian of y = e^u.
        def g(u: Array) -> Array:
            y = np.exp(u)
            fy = many(y) if many is not None else [f(t) for t in y.tolist()]
            values = np.exp(u * power) * (2.0 / s2) * np.asarray(fy, dtype=float)
            if not np.isfinite(values).all():
                bad = u[~np.isfinite(values)][0]
                raise QuadratureError(f"non-finite integrand value at u={bad}")
            return values

        return g

    try:
        # The two integrals are multiplied by x^mq / B_q and x^pq / B_q,
        # which can be large; tighten each walk's absolute tolerance by its
        # prefactor so the error budget applies to the final value, not the
        # raw integral.
        w_lo, w_up = x**mq / b_q, x**pq / b_q
        tol_lo = _ABS_TOL / max(1.0, abs(w_lo))
        tol_up = _ABS_TOL / max(1.0, abs(w_up))
        with np.errstate(over="raise", invalid="raise"):
            lower = _walk_tail(integrand(pq + tm + 1.0), ux, -1.0, cuts, tol_lo)
            upper = _walk_tail(integrand(mq + tm + 1.0), ux, +1.0, cuts, tol_up)
    except (FloatingPointError, OverflowError) as exc:
        raise QuadratureError(f"float overflow at x={x}: {exc}") from exc
    return w_lo * lower + w_up * upper
