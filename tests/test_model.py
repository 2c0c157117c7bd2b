import math

import numpy as np
import pytest

from mstop.model import GbmModel, derive_exponents, require_valid, root_pair, validate

from conftest import ORACLE, REF_MODEL, theta
from robustness_sweep import DRAWS, draw_models


def test_reference_model_is_valid():
    assert validate(REF_MODEL, require_positive_net_drift=True) == []


def test_mu_ge_r_rejected():
    bad = GbmModel(mu=0.06, sigma=0.125, r=0.05, lam=0.1, strike=2.0)
    errors = validate(bad)
    assert len(errors) == 1 and "mu < r" in errors[0]
    errors_flagged = validate(bad, require_positive_net_drift=True)
    assert any("mu < r" in e for e in errors_flagged)


def test_net_drift_check_only_when_flagged():
    # 0.005 < sigma^2/2 = 0.0078125, but mu < r still holds.
    model = GbmModel(mu=0.005, sigma=0.125, r=0.05, lam=0.1, strike=2.0)
    assert validate(model) == []
    errors = validate(model, require_positive_net_drift=True)
    assert len(errors) == 1 and "sigma^2/2" in errors[0]


def test_net_drift_check_when_sigma_squared_overflows():
    # sigma^2 = inf: the check reports the violation instead of raising
    # OverflowError from sigma ** 2 in its message, which the CLI took for a
    # solver failure (exit 3).
    model = GbmModel(mu=0.008, sigma=1e300, r=0.05, lam=0.1, strike=2.0)
    assert validate(model) == []
    errors = validate(model, require_positive_net_drift=True)
    assert errors == ["mu - sigma^2/2 > 0 violated (0.008 - inf = -inf)"]


@pytest.mark.parametrize(
    "change",
    [{"sigma": 1e-10}, {"sigma": 1e-30}, {"sigma": 1e-60}, {"sigma": 1e-77}]
    + [{"mu": 0.049999999999999996}],
    ids=["sigma=1e-10", "sigma=1e-30", "sigma=1e-60", "sigma=1e-77", "mu_ulp_below_r"],
)
def test_float_b_not_above_1_rejected_with_net_drift(change):
    # mu < r puts b above 1, but h + s_r cancels to 0 for a tiny sigma and
    # rounds to 1 for mu an ulp below r; the finite solver divides by b - 1.
    model = REF_MODEL._replace(**change)
    assert validate(model) == []
    errors = validate(model, require_positive_net_drift=True)
    assert len(errors) == 1 and errors[0].startswith("mu, r and sigma give b = ")


@pytest.mark.parametrize(
    "field,value",
    [("sigma", -0.1), ("sigma", 0.0), ("r", 0.0), ("lam", -1.0), ("strike", 0.0)]
    + [
        (field, value)
        for field in ("mu", "sigma", "r", "lam", "strike")
        for value in (math.inf, -math.inf, math.nan)
    ],
)
def test_positivity_constraints(field, value):
    kwargs = dict(mu=0.008, sigma=0.125, r=0.05, lam=0.1, strike=2.0)
    kwargs[field] = value
    errors = validate(GbmModel(**kwargs))
    assert errors, f"expected a violation for {field}={value}"
    with pytest.raises(ValueError):
        require_valid(GbmModel(**kwargs))


def test_exponent_values():
    exps = derive_exponents(REF_MODEL)
    assert exps.b == pytest.approx(ORACLE["b"], rel=1e-14)
    assert exps.a == pytest.approx(ORACLE["a"], rel=1e-14)
    assert exps.beta == pytest.approx(ORACLE["beta"], rel=1e-14)
    assert exps.alpha == pytest.approx(ORACLE["alpha"], rel=1e-14)
    assert exps.kappa == pytest.approx(ORACLE["kappa"], rel=1e-14)
    assert exps.gamma == pytest.approx(ORACLE["gamma"], rel=1e-14)


def test_vieta_identities():
    exps = derive_exponents(REF_MODEL)
    s2 = REF_MODEL.sigma**2
    assert exps.b * exps.a == pytest.approx(-2.0 * REF_MODEL.r / s2, rel=1e-12)
    assert exps.b + exps.a == pytest.approx(1.0 - 2.0 * REF_MODEL.mu / s2, rel=1e-12)
    assert exps.kappa * exps.gamma == pytest.approx(
        2.0 * REF_MODEL.lam / s2, rel=1e-12
    )
    assert exps.kappa + exps.gamma == pytest.approx(exps.wronskian_rl, rel=1e-12)
    assert exps.wronskian_rl == pytest.approx(exps.beta - exps.alpha, rel=1e-12)


def test_exponent_ordering():
    exps = derive_exponents(REF_MODEL)
    assert exps.beta > exps.b > 1.0 > 0.0 > exps.a > exps.alpha


def test_characteristic_quadratic_roots():
    exps = derive_exponents(REF_MODEL)
    r, rl = REF_MODEL.r, REF_MODEL.r + REF_MODEL.lam
    for p, q in ((exps.b, r), (exps.a, r), (exps.beta, rl), (exps.alpha, rl)):
        assert theta(REF_MODEL, p) == pytest.approx(q, rel=1e-10)


def test_wronskian_is_twice_sq():
    exps = derive_exponents(REF_MODEL)
    s2 = REF_MODEL.sigma**2
    h = 0.5 - REF_MODEL.mu / s2
    assert exps.wronskian_r == pytest.approx(
        2.0 * math.sqrt(h * h + 2 * REF_MODEL.r / s2), rel=1e-14
    )


def test_kappa_stable_for_tiny_lambda():
    model = GbmModel(mu=0.008, sigma=0.125, r=0.05, lam=1e-8, strike=2.0)
    exps = derive_exponents(model)
    s2 = model.sigma**2
    assert exps.kappa * exps.gamma == pytest.approx(2e-8 / s2, rel=1e-12)
    assert exps.kappa > 0.0


def test_root_pair_rejects_nonpositive_discount():
    with pytest.raises(ValueError):
        root_pair(REF_MODEL, 0.0)


def test_root_pair_reproduces_exponents_exactly():
    # Resonance in the algebra is an exact key match against beta, so
    # root_pair must return derive_exponents' roots bit for bit; checked on
    # every model the robustness sweep keeps.
    kept = [
        m
        for m in draw_models(np.random.default_rng(0), DRAWS)
        if not validate(m, require_positive_net_drift=True)
    ]
    assert len(kept) == 441
    for m in kept:
        exps = derive_exponents(m)
        assert root_pair(m, m.r + m.lam) == (exps.beta, exps.alpha)
        assert root_pair(m, m.r) == (exps.b, exps.a)
