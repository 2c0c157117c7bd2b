"""Infinite-rights limit of the refracted multiple stopping problem.

With unlimited exercise rights the problem reduces to a single stopping
problem at the stiffer discount r + lam whose value V-hat admits a Riesz
representation with an explicit density sigma; the value of the original
problem is then V_inf = R_r sigma, which needs V-hat's threshold and
density but not V-hat itself.  For the call payoff everything is in
closed form: the auxiliary threshold is x_hat = beta K / (beta - 1) and
V_inf is c1 x + c2 + c3 x^a above x_hat and c4 x^b below it.
"""

from __future__ import annotations

from collections import namedtuple

from mstop.finite import perpetual_call_threshold
from mstop.model import Exponents, GbmModel, derive_exponents, require_valid
from mstop.powerfn import PiecewisePowerSum, PowerTerm, resolvent_apply

# Relative tolerance for reconciling the algebraic resolvent against the
# closed-form coefficients; a mismatch signals an implementation bug.
COEFF_RECONCILE_TOL = 1e-9


class InfiniteSolution(
    namedtuple("InfiniteSolution", "model exponents x_hat_inf sigma_density v_inf")
):
    """Closed-form solution of the infinite-rights problem."""

    __slots__ = ()


def x_hat_infinite(model: GbmModel) -> float:
    """Threshold of the auxiliary (r + lam)-discounted stopping problem."""
    return perpetual_call_threshold(derive_exponents(model).beta, model.strike)


def riesz_density(model: GbmModel, x_hat: float) -> PiecewisePowerSum:
    """Riesz density of V-hat: (r + lam - mu) x - K (r + lam) above
    x_hat, zero below."""
    require_valid(model)
    rl = model.r + model.lam
    return PiecewisePowerSum(
        (x_hat,),
        ((), (PowerTerm(rl - model.mu, 1.0), PowerTerm(-model.strike * rl, 0.0))),
    )


def _closed_form_coeffs(
    model: GbmModel, exps: Exponents, x_hat: float
) -> tuple[float, float, float, float]:
    # One-sided integrals of psi_r/phi_r against the density and the speed
    # measure evaluate to F(x_hat, p) below; the homogeneous coefficients of
    # R_r sigma follow.
    s2 = model.sigma * model.sigma
    rl = model.r + model.lam

    def integral_tail(p: float) -> float:
        q1 = p + 2.0 * model.mu / s2
        q2 = q1 - 1.0
        return (2.0 / s2) * (
            (rl - model.mu) * x_hat**q1 / q1 - model.strike * rl * x_hat**q2 / q2
        )

    c1 = (rl - model.mu) / (model.r - model.mu)
    c2 = -model.strike * rl / model.r
    c3 = -integral_tail(exps.b) / exps.wronskian_r
    c4 = -integral_tail(exps.a) / exps.wronskian_r
    return c1, c2, c3, c4


def solve_infinite(model: GbmModel) -> InfiniteSolution:
    """Full infinite-rights solution with closed-form/algebraic reconciliation.

    The value function is computed twice — through the exact resolvent
    algebra and through the printed coefficient formulas — and the two are
    required to agree to COEFF_RECONCILE_TOL relative on every coefficient,
    making each path a regression oracle for the other.
    """
    exps = derive_exponents(model)
    x_hat = perpetual_call_threshold(exps.beta, model.strike)
    density = riesz_density(model, x_hat)
    try:
        v_inf = resolvent_apply(density, model.r, model)
        c1, c2, c3, c4 = _closed_form_coeffs(model, exps, x_hat)
    except (OverflowError, ZeroDivisionError) as exc:
        kind = "overflow" if isinstance(exc, OverflowError) else "underflow"
        raise ArithmeticError(
            f"float {kind} in the infinite-rights solve, which computes "
            f"V_inf = R_r sigma ({exc})"
        ) from exc
    expected = ({exps.b: c4}, {1.0: c1, 0.0: c2, exps.a: c3})
    for j, want_terms in enumerate(expected):
        poly = v_inf.polys[j]
        for p, want in want_terms.items():
            # The resolvent keys its output by the exact input exponents and
            # roots; a missing key is a term dropped as negligible, i.e. 0.
            have = poly.get(p, [0.0])[0]
            if abs(have - want) > COEFF_RECONCILE_TOL * max(1.0, abs(want)):
                raise ArithmeticError(
                    f"algebraic resolvent disagrees with closed form on piece "
                    f"{j}, exponent {p}: {have} vs {want}"
                )
    return InfiniteSolution(
        model=model,
        exponents=exps,
        x_hat_inf=x_hat,
        sigma_density=density,
        v_inf=v_inf,
    )
