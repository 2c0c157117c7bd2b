import json
import math
from bisect import bisect_left
from unittest import mock

import numpy as np
import pytest

from mstop import powerfn
from mstop.finite import _slope, delta, solve_ladder
from mstop.model import GbmModel, derive_exponents, root_pair
from mstop.powerfn import (
    EXPONENT_MERGE_TOL,
    DivergenceError,
    PiecewisePowerSum,
    Poly,
    PowerTerm,
    _add_coef,
    _axpy,
    _value,
    call_payoff,
    combine,
    ratio_coefs,
    resolvent_apply,
)

from conftest import (
    ORACLE,
    REF_MODEL,
    antiderivative,
    constant,
    is_zero,
    monomial,
    power_log_integral,
    random_power_sum,
    ratio_derivative,
    sweep_ladders,
    theta,
    zero,
)

RL = REF_MODEL.r + REF_MODEL.lam


# -- test-only operations on the algebra ---------------------------------------


def generator_apply(f: PiecewisePowerSum, model: GbmModel) -> PiecewisePowerSum:
    """Infinitesimal generator A f = sigma^2 x^2 f''/2 + mu x f' piecewise.

    On power-log terms:
        A(x^p ln^k) = theta(p) x^p ln^k
                      + (sigma^2 (2p-1)/2 + mu) k x^p ln^{k-1}
                      + sigma^2/2 k(k-1) x^p ln^{k-2}.
    """
    s2 = model.sigma * model.sigma
    polys: list[Poly] = []
    for poly in f.polys:
        m: Poly = {}
        for p, cs in poly.items():
            first = 0.5 * s2 * (2 * p - 1) + model.mu
            out = [c * theta(model, p) for c in cs]
            for k in range(1, len(cs)):
                out[k - 1] += cs[k] * k * first
            for k in range(2, len(cs)):
                out[k - 2] += cs[k] * 0.5 * s2 * k * (k - 1)
            m[p] = out
        polys.append(m)
    return PiecewisePowerSum.from_polys(f.breakpoints, polys)


def has_log_terms(f: PiecewisePowerSum) -> bool:
    return any(len(cs) > 1 for poly in f.polys for cs in poly.values())


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


def from_json_dict(data: dict) -> PiecewisePowerSum:
    """Inverse of PiecewisePowerSum.to_json_dict."""
    return PiecewisePowerSum(
        tuple(data["breakpoints"]),
        tuple(
            tuple(
                PowerTerm(d["coef"], d["exp"], int(d.get("logpow", 0)))
                for d in piece
            )
            for piece in data["pieces"]
        ),
    )


# -- construction and evaluation ----------------------------------------------


def test_constant_eval():
    f = constant(1.0)
    assert f(7.0) == 1.0


@pytest.mark.parametrize(
    "args, match",
    [
        ((math.nan, 1.0), "non-finite term"),
        ((1.0, math.inf), "non-finite term"),
        ((1.0, 2.0, -1), "log_power must be >= 0"),
    ],
)
def test_power_term_validation(args, match):
    with pytest.raises(ValueError, match=match):
        PowerTerm(*args)


def test_right_closed_boundary():
    f = PiecewisePowerSum(
        (2.0,), ((PowerTerm(1.0, 1.0),), (PowerTerm(2.0, 0.0),))
    )
    assert f(2.0) == 2.0  # boundary belongs to the left piece: x^1 at x=2
    assert f(2.0 + 1e-12) == 2.0  # right piece: constant 2
    assert f(1.5) == 1.5


def test_eval_rejects_nonpositive():
    f = constant(1.0)
    with pytest.raises(ValueError):
        f(0.0)
    with pytest.raises(ValueError):
        f(-1.0)
    with pytest.raises(ValueError):
        f.evaluate_many(np.array([1.0, -2.0]))
    # Non-finite points too, before any arithmetic could warn on them.
    g = call_payoff(2.0)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            g(x)
    for xs in ([math.nan, 3.0, math.inf], [3.0, math.inf], [[1.0], [-math.inf]]):
        with pytest.raises(ValueError, match="positive and finite"):
            g.evaluate_many(np.array(xs))


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        PiecewisePowerSum((2.0, 2.0), ((), (), ()))
    with pytest.raises(ValueError):
        PiecewisePowerSum((-1.0,), ((), ()))


def test_piece_count_must_match():
    with pytest.raises(ValueError):
        PiecewisePowerSum((1.0,), ((),))


def test_canonicalization_merges_and_sorts():
    f = PiecewisePowerSum(
        (),
        ((PowerTerm(1.0, 2.0), PowerTerm(0.5, 2.0 + 1e-14), PowerTerm(3.0, 1.0)),),
    )
    (poly,) = f.polys
    assert list(poly) == [1.0, 2.0]
    assert poly[1.0] == [3.0] and poly[2.0] == [pytest.approx(1.5)]


def test_canonicalization_drops_zero_coefficients():
    f = PiecewisePowerSum((), ((PowerTerm(1.0, 1.0), PowerTerm(-1.0, 1.0)),))
    assert is_zero(f)


def test_evaluate_many_matches_scalar():
    rng = np.random.default_rng(11)
    f = random_power_sum(rng)
    grid = np.geomspace(0.1, 20.0, 37)
    many = f.evaluate_many(grid)
    for x, v in zip(grid, many):
        assert v == pytest.approx(f(float(x)), rel=1e-14, abs=1e-300)


@pytest.fixture(scope="module")
def ladder60():
    return solve_ladder(REF_MODEL, 60)


def assert_same_as_masked(f: PiecewisePowerSum, x) -> None:
    got, want = f.evaluate_many(x), masked_evaluate_many(f, x)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # signed zeros included


def test_evaluate_many_matches_masked_reference(ladder60):
    rng = np.random.default_rng(21)
    funcs = [random_power_sum(rng, max_breakpoints=6) for _ in range(20)]
    funcs += [*ladder60.values, *ladder60.h_funcs]
    for f in funcs:
        bps = np.asarray(f.breakpoints)
        x = np.concatenate(
            [
                np.exp(rng.uniform(math.log(0.05), math.log(50.0), 500)),
                bps,  # exactly at breakpoints: the left piece
                np.nextafter(bps, math.inf),
                np.nextafter(bps, 0.0),
                bps[::-1],  # duplicates, unsorted
            ]
        )
        rng.shuffle(x)
        assert_same_as_masked(f, x)


def test_evaluate_many_across_lookup_blocks(ladder60):
    # Over two blocks of the piece lookup, with every breakpoint and its two
    # neighbours straddling the first block's end.
    f = ladder60.h_funcs[-1]
    n = powerfn._LOOKUP_BLOCK
    bps = np.asarray(f.breakpoints)
    seam = np.concatenate([bps, np.nextafter(bps, math.inf), np.nextafter(bps, 0.0)])
    rng = np.random.default_rng(5)
    x = np.exp(rng.uniform(math.log(0.05), math.log(50.0), 2 * n + 9))
    x[n - seam.size // 2 : n - seam.size // 2 + seam.size] = seam
    assert_same_as_masked(f, x)


def test_evaluate_many_shapes(ladder60):
    f = ladder60.values[9]
    x = np.geomspace(0.1, 30.0, 24)
    assert_same_as_masked(f, np.float64(3.0))
    assert f.evaluate_many(3.0).shape == ()
    assert_same_as_masked(f, x.reshape(4, 6))
    assert_same_as_masked(f, x.reshape(6, 4).T)  # not C-contiguous
    assert_same_as_masked(f, np.array([]))
    assert_same_as_masked(f, np.zeros((0, 3)))


def test_evaluate_many_skips_overflowing_empty_piece():
    # x^-800 overflows below x = 0.41; under the quadrature oracle's error
    # state only the pieces that hold points may be evaluated.
    f = PiecewisePowerSum(
        (1.0,), ((PowerTerm(1.0, -800.0),), (PowerTerm(1.0, 1.0),))
    )
    with np.errstate(over="raise", invalid="raise"):
        assert np.array_equal(f.evaluate_many(np.array([3.0, 2.0])), [3.0, 2.0])
        with pytest.raises(FloatingPointError):
            f.evaluate_many(np.array([3.0, 1e-3]))


def test_evaluate_many_touches_only_nonempty_pieces(ladder60, monkeypatch):
    v = ladder60.values[-1]
    assert len(v.polys) == 61
    bps = v.breakpoints
    # Pieces 0, 30 and 60, with duplicates and in no order.
    x = np.array([bps[-1] * 2.0, bps[29], bps[0] / 2.0, bps[29], bps[-1] * 3.0])
    want = masked_evaluate_many(v, x)
    calls = []

    def counting_value(terms, x, lx):
        calls.append(len(x))
        return _value(terms, x, lx)

    monkeypatch.setattr(powerfn, "_value", counting_value)
    got = v.evaluate_many(x)
    assert sorted(calls) == [1, 2, 2]
    assert np.array_equal(got, want)


def test_scalar_kernel_matches_seed_on_ladder60(ladder60):
    # Every piece of every V^i and H^i, at its closing end, inside it and
    # beyond the last breakpoint: values and smooth-fit slopes.
    for f in (*ladder60.values, *ladder60.h_funcs):
        bps = f.breakpoints
        mids = [math.sqrt(a * b) for a, b in zip(bps, bps[1:])]
        points = [bps[0] / 2.0, *bps, *mids, bps[-1] * 2.0]
        seen = set()
        for x in points:
            k = bisect_left(bps, x)
            seen.add(k)
            poly, lx = f.polys[k], math.log(x)
            assert repr(f(x)) == repr(seed_value(poly.items(), x, lx))
            slope_terms = [(p - 1.0, ratio_coefs(p, cs)) for p, cs in poly.items()]
            assert repr(_slope(poly, x)) == repr(seed_value(slope_terms, x, lx))
        assert seen == set(range(len(f.polys)))
    # c*_i = H^i(x*_i) / x*_i^b, with H^i read by __call__.
    b = ladder60.exponents.b
    for h, x, c_star in zip(ladder60.h_funcs, ladder60.thresholds, ladder60.c_stars):
        poly = h.polys[bisect_left(h.breakpoints, x)]
        assert repr(c_star) == repr(seed_value(poly.items(), x, math.log(x)) / x**b)


def test_kernel_sums_terms_onto_positive_zero():
    # -1e-299 x^30 underflows to -0.0 at x = 1e-5; the seed kernel adds it
    # to 0.0, so the value is +0.0 for a float and for an array alike.
    f = PiecewisePowerSum((), ((PowerTerm(-1e-299, 30.0),),))
    assert repr(f(1e-5)) == "0.0"
    assert_same_as_masked(f, np.array([1e-5, 2.0]))


@pytest.mark.parametrize(
    "n_bp, max_log_power, seed",
    [(300, 20, 0), (0, 0, 1), *((None, None, seed) for seed in range(2, 62))],
)
def test_evaluate_many_matches_seed_kernel_random_sums(n_bp, max_log_power, seed):
    # Up to 301 pieces, so the piece index needs uint16; each piece is empty,
    # log-free or carries log powers up to max_log_power.  Sizes not given
    # are drawn from the seed.
    rng = np.random.default_rng(seed)
    if n_bp is None:
        n_bp, max_log_power = int(rng.integers(0, 301)), int(rng.integers(0, 21))
    bps = np.unique(np.exp(rng.uniform(math.log(0.01), math.log(100.0), n_bp)))
    pieces = []
    for _ in range(bps.size + 1):
        kind = int(rng.integers(0, 3))  # 0 empty, 1 log-free, 2 with logs
        top = max_log_power if kind == 2 else 0
        pieces.append(
            tuple(
                PowerTerm(
                    float(rng.uniform(-3.0, 3.0)),
                    float(rng.choice([0.0, 1.0, rng.uniform(-3.0, 3.0)])),
                    int(rng.integers(0, top + 1)),
                )
                for _ in range(int(rng.integers(1, 4)) if kind else 0)
            )
        )
    f = PiecewisePowerSum(tuple(bps.tolist()), tuple(pieces))
    x = np.concatenate(
        [
            np.exp(rng.uniform(math.log(0.005), math.log(200.0), 2000)),
            bps,  # exactly at breakpoints: the left piece
            np.nextafter(bps, math.inf),
            np.nextafter(bps, 0.0),
            bps[::-1],
        ]
    )
    rng.shuffle(x)
    calls = []

    def spy(terms, x, lx):
        terms = list(terms)
        calls.append((all(len(cs) == 1 for _, cs in terms), lx is None))
        return _value(terms, x, lx)

    with mock.patch.object(powerfn, "_value", spy):
        got = f.evaluate_many(x)
    assert got.tobytes() == masked_evaluate_many(f, x).tobytes()
    assert all(log_free == skipped for log_free, skipped in calls)


# -- combine ------------------------------------------------------------------


def test_combine_cancellation_is_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = random_power_sum(rng)
        diff = combine(f, f, 1.0, -1.0)
        assert is_zero(diff)


def test_combine_adds_coefficients():
    f = monomial(1.0, 1.0)
    g = monomial(1.0, 1.0)
    s = combine(f, g)
    assert s.polys == ({1.0: [2.0]},)


def test_combine_merges_breakpoints():
    f = PiecewisePowerSum((2.0,), ((PowerTerm(1.0, 0.0),), ()))
    g = PiecewisePowerSum((3.0,), ((), (PowerTerm(1.0, 1.0),)))
    s = combine(f, g)
    assert s.breakpoints == (2.0, 3.0)
    assert s(1.0) == 1.0 and s(2.5) == 0.0 and s(4.0) == 4.0


# -- ratio derivative -----------------------------------------------------------


def test_ratio_derivative_of_matching_power_is_zero():
    b = derive_exponents(REF_MODEL).b
    assert is_zero(ratio_derivative(monomial(1.0, b), b))


def test_ratio_derivative_power_rule():
    b = derive_exponents(REF_MODEL).b
    d = ratio_derivative(monomial(1.0, 1.0), b)
    assert d.polys == ({-b: [1.0 - b]},)


def test_ratio_derivative_first_order_condition():
    # d/dx (x - K)/x^b vanishes at x*_1 = bK/(b-1).
    b = derive_exponents(REF_MODEL).b
    h1 = call_payoff(REF_MODEL.strike)
    d = ratio_derivative(h1, b)
    assert d(ORACLE["x_star_1"]) == pytest.approx(0.0, abs=1e-14)


def test_ratio_derivative_log_terms():
    # d/dx (x^2 ln x / x) = 1 + ln x.
    f = PiecewisePowerSum((), ((PowerTerm(1.0, 2.0, 1),),))
    d = ratio_derivative(f, 1.0)
    for x in (0.5, 1.0, 3.0):
        assert d(x) == pytest.approx(1.0 + math.log(x), rel=1e-14)


# -- antiderivative --------------------------------------------------------------


def test_antiderivative_log_branch():
    # int x^{-1} ln^2 x dx = ln^3 x / 3: the s == 0 branch.
    for lo, hi in ((0.5, 3.0), (1.0, 7.0)):
        got = power_log_integral(0.0, [0.0, 0.0, 1.0], lo, hi)
        assert got == pytest.approx((math.log(hi) ** 3 - math.log(lo) ** 3) / 3.0)


def test_antiderivative_power_log_formula():
    # int x^2 ln x dx = x^3 (ln x / 3 - 1/9).
    def anti(x):
        return x**3 * (math.log(x) / 3.0 - 1.0 / 9.0)

    for lo, hi in ((0.7, 1.3), (1.3, 4.0), (0.2, 4.0)):
        got = power_log_integral(3.0, [0.0, 1.0], lo, hi)
        assert got == pytest.approx(anti(hi) - anti(lo), rel=1e-13)


def test_power_log_integral_to_infinity_requires_decay():
    assert power_log_integral(-2.0, [2.0], 1.0, math.inf) == pytest.approx(1.0)
    with pytest.raises(DivergenceError):
        power_log_integral(2.0, [1.0], 1.0, math.inf)


# -- resolvent: closed-form examples ------------------------------------------


def test_resolvent_of_constant():
    rf = resolvent_apply(constant(1.0), REF_MODEL.r, REF_MODEL)
    for x in (0.3, 1.0, 10.0):
        assert rf(x) == pytest.approx(1.0 / REF_MODEL.r, rel=1e-12)


def test_resolvent_of_linear():
    rf = resolvent_apply(monomial(1.0, 1.0), REF_MODEL.r, REF_MODEL)
    for x in (0.5, 2.0, 8.0):
        assert rf(x) == pytest.approx(x / (REF_MODEL.r - REF_MODEL.mu), rel=1e-12)


def test_discounted_power_martingale():
    # lam * R_{r+lam} x^b = x^b: theta(b) = r so the particular coefficient
    # is exactly 1/lam and both homogeneous coefficients vanish.
    b = derive_exponents(REF_MODEL).b
    rf = resolvent_apply(monomial(1.0, b), RL, REF_MODEL)
    for x in (0.2, 1.0, 3.0, 50.0):
        assert REF_MODEL.lam * rf(x) == pytest.approx(x**b, rel=1e-12)


def test_resolvent_divergence_errors():
    pq, mq = root_pair(REF_MODEL, REF_MODEL.r)
    with pytest.raises(DivergenceError):
        resolvent_apply(monomial(1.0, pq + 0.5), REF_MODEL.r, REF_MODEL)
    with pytest.raises(DivergenceError):
        resolvent_apply(monomial(1.0, mq - 0.5), REF_MODEL.r, REF_MODEL)


# -- resolvent: structural properties ------------------------------------------


def _grid():
    return np.geomspace(0.1, 50.0, 100)


def test_generator_identity_random_inputs():
    # (q Id - A) R_q f = f, checked pointwise on a wide log grid.
    rng = np.random.default_rng(17)
    grid = _grid()
    for _ in range(15):
        f = random_power_sum(rng)
        rf = resolvent_apply(f, RL, REF_MODEL)
        reconstructed = combine(
            combine(rf, generator_apply(rf, REF_MODEL), RL, -1.0), f, 1.0, -1.0
        )
        scale = np.abs(f.evaluate_many(grid)).max() + 1.0
        assert np.abs(reconstructed.evaluate_many(grid)).max() <= 1e-9 * scale


def test_generator_identity_with_log_terms():
    # Resonant input: x^beta on a bounded piece produces x^beta ln x terms;
    # the generator identity must still hold.
    beta = derive_exponents(REF_MODEL).beta
    f = PiecewisePowerSum((1.0, 2.0), ((), (PowerTerm(1.0, beta),), ()))
    rf = resolvent_apply(f, RL, REF_MODEL)
    assert has_log_terms(rf)
    grid = _grid()
    reconstructed = combine(
        combine(rf, generator_apply(rf, REF_MODEL), RL, -1.0), f, 1.0, -1.0
    )
    scale = np.abs(f.evaluate_many(grid)).max() + 1.0
    assert np.abs(reconstructed.evaluate_many(grid)).max() <= 1e-9 * scale


def test_resolvent_equation_random_inputs():
    # R_r f - R_{r+lam} f = lam R_{r+lam} R_r f on [0.1, 50].
    rng = np.random.default_rng(23)
    grid = _grid()
    for _ in range(10):
        f = random_power_sum(rng)
        r_r = resolvent_apply(f, REF_MODEL.r, REF_MODEL)
        r_rl = resolvent_apply(f, RL, REF_MODEL)
        lhs = combine(r_r, r_rl, 1.0, -1.0).evaluate_many(grid)
        rhs = REF_MODEL.lam * resolvent_apply(r_r, RL, REF_MODEL).evaluate_many(grid)
        scale = np.abs(lhs).max() + np.abs(r_r.evaluate_many(grid)).max()
        assert np.abs(lhs - rhs).max() <= 1e-9 * scale


def test_resolvent_smoothness_at_breakpoints():
    # For piecewise continuous f, R_q f is C^1: at each breakpoint the two
    # neighbouring pieces of R_q f, and of its derivative, agree.  The
    # homogeneous coefficients are running sums of jumps across breakpoints,
    # so an error there would show at every later breakpoint.
    rng = np.random.default_rng(31)
    for _ in range(20):
        f = random_power_sum(rng, max_breakpoints=6)
        rf = resolvent_apply(f, RL, REF_MODEL)
        for g in (rf, ratio_derivative(rf, 0.0)):
            for k, x in enumerate(g.breakpoints):
                left = PiecewisePowerSum.from_polys((), (g.polys[k],))(x)
                right = PiecewisePowerSum.from_polys((), (g.polys[k + 1],))(x)
                assert abs(left - right) <= 1e-12 * max(abs(left), abs(right))


def test_resolvent_output_breakpoints_match_input():
    rng = np.random.default_rng(37)
    f = random_power_sum(rng, max_breakpoints=3)
    rf = resolvent_apply(f, RL, REF_MODEL)
    assert rf.breakpoints == f.breakpoints


# -- fused kernels against the two-pass reference ---------------------------------


def reference_resolvent(
    f: PiecewisePowerSum, q: float, model: GbmModel
) -> PiecewisePowerSum:
    """resolvent_apply in two passes per term: each antiderivative built as a
    list by conftest's antiderivative, the particular part by _axpy, and the
    antiderivatives evaluated at the breakpoints by _value afterwards."""
    pq, mq = root_pair(model, q)
    u = 2.0 / (model.sigma * model.sigma * (pq - mq))
    polys = f.polys
    for p in polys[0]:
        if p - mq <= EXPONENT_MERGE_TOL:
            raise DivergenceError(
                f"lower integral diverges: leftmost exponent {p} <= {mq}"
            )
    for p in polys[-1]:
        if pq - p <= EXPONENT_MERGE_TOL:
            raise DivergenceError(
                f"upper integral diverges: rightmost exponent {p} >= {pq}"
            )
    parts: list[Poly] = []
    anti_psi, anti_phi = [], []
    for poly in polys:
        part: Poly = {}
        a1, a2 = [], []
        for p, cs in poly.items():
            cu = [u * c for c in cs]
            d1 = antiderivative(p - mq, cu)
            d2 = antiderivative(p - pq, cu)
            a1.append((p - mq, d1))
            a2.append((p - pq, d2))
            part[p] = list(d1)
            _axpy(part, {p: d2}, -1.0)
        parts.append(part)
        anti_psi.append(a1)
        anti_phi.append(a2)
    jump_phi, jump_psi = [], []
    for k, x in enumerate(f.breakpoints):
        lx = math.log(x)
        jump_phi.append(_value(anti_psi[k], x, lx) - _value(anti_psi[k + 1], x, lx))
        jump_psi.append(_value(anti_phi[k], x, lx) - _value(anti_phi[k + 1], x, lx))
    c_phi = [0.0]
    for jump in jump_phi:
        c_phi.append(c_phi[-1] + jump)
    c_psi = [0.0]
    for jump in reversed(jump_psi):
        c_psi.append(c_psi[-1] + jump)
    for part, a, b in zip(parts, c_phi, reversed(c_psi)):
        _add_coef(part, mq, 0, a)
        _add_coef(part, pq, 0, b)
    return PiecewisePowerSum.from_polys(f.breakpoints, parts)


def reference_delta(
    model: GbmModel, h_prev: PiecewisePowerSum, x_star_prev: float
) -> float:
    """finite.delta with conftest's power_log_integral on ratio_coefs: three
    lists and two logs for every key of every piece above x_star_prev."""
    exps = derive_exponents(model)
    b, beta, kappa = exps.b, exps.beta, exps.kappa
    bps = h_prev.breakpoints
    total = 0.0
    for poly, lo, hi in zip(h_prev.polys, (0.0, *bps), (*bps, math.inf)):
        if hi <= x_star_prev:
            continue
        lo = max(lo, x_star_prev)
        for q, cs in poly.items():
            s = 0.0 if q == beta else (q - b) - kappa
            total += power_log_integral(s, ratio_coefs(q - b, cs), lo, hi)
    value = total * exps.kappa * exps.gamma / (exps.kappa + exps.gamma)
    if value >= 0.0 and abs(value) > 0.0:
        raise ArithmeticError(f"Delta must be negative, got {value}")
    return value


def outcome(fn, *args) -> str:
    """Every float of fn's result, keys in dict order, or the error it
    raised.  repr round-trips floats, so equal strings mean equal bits,
    signed zeros included; key order counts because _value sums in it."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, PiecewisePowerSum):
        return repr((out.breakpoints, [list(poly.items()) for poly in out.polys]))
    return repr(out)


def resonant_power_sum(rng: np.random.Generator, q: float) -> PiecewisePowerSum:
    """Random sum whose exponents include 0, 1 and both roots of theta(p) = q,
    with log powers up to 5.  One draw in ten may put m_q on the first piece
    or p_q on the last, where an integral diverges; the reference raises
    there too."""
    pq, mq = root_pair(REF_MODEL, q)
    n_bp = int(rng.integers(0, 5))
    bps = np.sort(rng.uniform(0.3, 6.0, n_bp))
    divergent = rng.uniform() < 0.1
    pieces = []
    for j in range(n_bp + 1):
        exps = [0.0, 1.0, float(rng.uniform(-2.0, 2.2))]
        exps += [mq] if j > 0 or divergent else []
        exps += [pq] if j < n_bp or divergent else []
        pieces.append(
            tuple(
                PowerTerm(
                    float(rng.uniform(-2.0, 2.0)),
                    exps[int(rng.integers(0, len(exps)))],
                    int(rng.integers(0, 6)),
                )
                for _ in range(int(rng.integers(1, 6)))
            )
        )
    return PiecewisePowerSum(tuple(float(x) for x in bps), tuple(pieces))


def test_fused_resolvent_matches_two_pass_on_ladder():
    # V^1..V^20 at q = r + lam carry both resonant keys, alpha and beta, with
    # log powers growing by one per stage.
    ladder = solve_ladder(REF_MODEL, 20)
    exps = derive_exponents(REF_MODEL)
    keys = {p for v in ladder.values for poly in v.polys for p in poly}
    assert {exps.alpha, exps.beta} <= keys
    assert (exps.beta, exps.alpha) == root_pair(REF_MODEL, RL)
    for v in ladder.values:
        want = outcome(reference_resolvent, v, RL, REF_MODEL)
        assert outcome(resolvent_apply, v, RL, REF_MODEL) == want


@pytest.mark.parametrize("q", [REF_MODEL.r, RL, 0.3])
def test_fused_resolvent_matches_two_pass_on_random_sums(q):
    rng = np.random.default_rng(59)
    outcomes = []
    for k in range(200):
        f = random_power_sum(rng) if k % 2 else resonant_power_sum(rng, q)
        want = outcome(reference_resolvent, f, q, REF_MODEL)
        assert outcome(resolvent_apply, f, q, REF_MODEL) == want
        outcomes.append(want)
    # Both kinds of input occur: solved ones and divergent ones.
    assert any(o.startswith("DivergenceError") for o in outcomes)
    assert sum(not o.startswith("DivergenceError") for o in outcomes) >= 150


def test_fused_delta_matches_two_pass():
    # H^1..H^20 of the reference ladder, and the ladders of the first five
    # sweep models that solve to six rights.
    for ladder in [solve_ladder(REF_MODEL, 21), *sweep_ladders()]:
        m = ladder.model
        for h, x in zip(ladder.h_funcs, ladder.thresholds):
            # Lower limits at x*_i itself and at each breakpoint of H^i, where
            # the integral starts exactly on a piece boundary.
            for lo in (x, *h.breakpoints):
                assert outcome(delta, m, h, lo) == outcome(reference_delta, m, h, lo)


def test_fused_delta_divergence_matches_two_pass():
    # An unbounded last piece with an exponent at or above beta diverges; one
    # below it converges, however large its log power.
    beta = derive_exponents(REF_MODEL).beta
    for p, k in ((beta, 0), (beta, 3), (beta + 1.0, 1), (beta - 0.5, 4)):
        h = PiecewisePowerSum((2.0,), ((), (PowerTerm(-1.0, 1.0), PowerTerm(1.0, p, k))))
        want = outcome(reference_delta, REF_MODEL, h, 3.0)
        assert outcome(delta, REF_MODEL, h, 3.0) == want
        assert want.startswith("DivergenceError") == (p >= beta)


# -- serialization --------------------------------------------------------------


def test_json_round_trip():
    rng = np.random.default_rng(41)
    f = random_power_sum(rng)
    data = f.to_json_dict()
    # The dict must be plain-JSON serializable with the documented schema.
    text = json.dumps(data)
    back = from_json_dict(json.loads(text))
    assert back == f
    for piece in data["pieces"]:
        for term in piece:
            assert set(term) == {"coef", "exp"}


def test_json_round_trip_with_log_terms():
    f = PiecewisePowerSum((2.0,), ((PowerTerm(1.5, 2.0, 2),), ()))
    back = from_json_dict(json.loads(json.dumps(f.to_json_dict())))
    assert back == f
    assert f.to_json_dict()["pieces"][0][0]["logpow"] == 2


def test_zero_helper():
    assert is_zero(zero())
    assert zero()(3.0) == 0.0
