"""Model parameters and derived solution exponents.

The underlying follows dX = mu*X dt + sigma*X dW under the pricing measure,
payoffs are discounted at rate r, and refraction periods between exercises
are Exp(lam) distributed.  All solution exponents are roots of the
characteristic quadratic theta(p) = sigma^2/2 * p*(p-1) + mu*p = q.
"""

from __future__ import annotations

import math
from collections import namedtuple


class GbmModel(namedtuple("GbmModel", "mu sigma r lam strike")):
    """Market/process parameters and the call strike.

    Rates are per unit time, sigma per sqrt unit time; time units are
    abstract.  `lam` is the refraction-period rate.
    """

    __slots__ = ()

    @property
    def net_drift(self) -> float:
        """Drift of log X: nu = mu - sigma^2 / 2."""
        return self.mu - 0.5 * self.sigma * self.sigma


class Exponents(
    namedtuple("Exponents", "b a beta alpha kappa gamma wronskian_r wronskian_rl")
):
    """Roots of theta(p) = q for q = r (b, a) and q = r + lam (beta, alpha).

    kappa = beta - b and gamma = s_{r+lam} + s_r satisfy
    kappa * gamma = 2 lam / sigma^2; wronskian_q = 2 s_q = beta_q - alpha_q.
    """

    __slots__ = ()


def validate(model: GbmModel, require_positive_net_drift: bool = False) -> list[str]:
    """Return a list of violated-constraint messages (empty when valid).

    The net-drift requirement mu - sigma^2/2 > 0 is needed by the finite
    solver and the Monte Carlo module (first passage must be a.s. finite)
    but not by the infinite solver, hence the flag.  The flag also requires
    the float exponent b to be above 1.
    """
    errors: list[str] = []
    for field, value in zip(model._fields, model):
        if not math.isfinite(value):
            name = "lambda" if field == "lam" else field
            errors.append(f"{name} is not finite ({name}={value})")
    if not (model.sigma > 0.0):
        errors.append(f"sigma > 0 violated (sigma={model.sigma})")
    if not (model.r > 0.0):
        errors.append(f"r > 0 violated (r={model.r})")
    if not (model.lam > 0.0):
        errors.append(f"lambda > 0 violated (lambda={model.lam})")
    # A tiny sigma makes sigma^2 underflow or mu/sigma^2 overflow; s_q is
    # largest at q = r + lam, so its being finite keeps every exponent finite.
    if not errors and not (
        model.sigma * model.sigma > 0.0
        and math.isfinite(_h_and_s(model, model.r + model.lam)[1])
    ):
        errors.append(f"sigma too small for finite exponents (sigma={model.sigma})")
    if not (model.strike > 0.0):
        errors.append(f"strike > 0 violated (strike={model.strike})")
    if not (model.mu < model.r):
        errors.append(f"mu < r violated (mu={model.mu}, r={model.r})")
    if require_positive_net_drift and not (model.net_drift > 0.0):
        errors.append(
            "mu - sigma^2/2 > 0 violated "
            f"({model.mu} - {0.5 * model.sigma * model.sigma} = {model.net_drift})"
        )
    # The finite solver divides by b - 1 and beta - 1.  mu < r puts b above
    # 1, but in floats h + s_r can cancel to 1 or below (a tiny sigma, or mu
    # an ulp below r); beta >= b in floats as well.
    if require_positive_net_drift and not errors:
        h, s_r = _h_and_s(model, model.r)
        if not h + s_r > 1.0:
            errors.append(
                f"mu, r and sigma give b = {h + s_r} in floats, not above 1 "
                f"(mu={model.mu}, r={model.r}, sigma={model.sigma})"
            )
    return errors


def require_valid(model: GbmModel, require_positive_net_drift: bool = False) -> None:
    """Raise ValueError listing every violated constraint."""
    errors = validate(model, require_positive_net_drift)
    if errors:
        raise ValueError("; ".join(errors))


def derive_exponents(model: GbmModel) -> Exponents:
    """Closed-form exponents and Wronskians; no iteration involved.

    s_q = sqrt((1/2 - mu/sigma^2)^2 + 2 q / sigma^2); the q-roots are
    h +- s_q with h = 1/2 - mu/sigma^2.  kappa is computed through the
    identity kappa * gamma = 2 lam / sigma^2 rather than as beta - b,
    which avoids catastrophic cancellation for small lam.
    """
    require_valid(model)
    h, s_r = _h_and_s(model, model.r)
    _, s_rl = _h_and_s(model, model.r + model.lam)
    gamma = s_rl + s_r
    kappa = (2.0 * model.lam / (model.sigma * model.sigma)) / gamma
    return Exponents(
        b=h + s_r,
        a=h - s_r,
        beta=h + s_rl,
        alpha=h - s_rl,
        kappa=kappa,
        gamma=gamma,
        wronskian_r=2.0 * s_r,
        wronskian_rl=2.0 * s_rl,
    )


def _h_and_s(model: GbmModel, q: float) -> tuple[float, float]:
    """(h, s_q) with h = 1/2 - mu/sigma^2 and s_q = sqrt(h^2 + 2 q/sigma^2):
    the roots of theta(p) = q are h +- s_q.  The one place they are
    computed, so root_pair(model, r + lam) returns (beta, alpha) bit for
    bit and resonance is an exact key match."""
    s2 = model.sigma * model.sigma
    h = 0.5 - model.mu / s2
    return h, math.sqrt(h * h + 2.0 * q / s2)


def root_pair(model: GbmModel, q: float) -> tuple[float, float]:
    """(positive, negative) roots of theta(p) = q for an arbitrary q > 0."""
    if q <= 0.0:
        raise ValueError(f"discount rate must be positive, got {q}")
    h, s_q = _h_and_s(model, q)
    return h + s_q, h - s_q
