import concurrent.futures
import math
import os
import sys

import numpy as np
import pytest

from mstop import mc
from mstop.finite import solve_ladder, solve_single
from mstop.mc import (
    McEstimate,
    PolicySpec,
    policy_dominance_scan,
    sample_first_passage,
    simulate_policy,
)
from mstop.model import GbmModel, derive_exponents

from conftest import ORACLE, REF_MODEL


@pytest.fixture(scope="module")
def ladder5():
    return solve_ladder(REF_MODEL, 5)


# -- first passage sampler --------------------------------------------------------


def test_first_passage_at_boundary_is_zero():
    rng = np.random.default_rng(1)
    assert sample_first_passage(3.0, 3.0, REF_MODEL, rng) == 0.0


def test_first_passage_rejects_state_above_level():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        sample_first_passage(4.0, 3.0, REF_MODEL, rng)


@pytest.mark.parametrize(
    "x, level, message",
    [
        (math.nan, 3.0, "x must be positive and finite"),
        (-1.0, 3.0, "x must be positive and finite"),
        (0.0, 3.0, "x must be positive and finite"),
        (np.array([2.0, math.nan]), 3.0, "x must be positive and finite"),
        (2.0, math.nan, "level must be positive and finite"),
        (2.0, math.inf, "level must be positive and finite"),
        (2.0, np.array([3.0, math.inf]), "level must be positive and finite"),
        (math.inf, math.inf, "x must be positive and finite"),
        (-2.0, -1.0, "x must be positive and finite"),
    ],
)
def test_first_passage_rejects_invalid_input(x, level, message):
    with pytest.raises(ValueError, match=message):
        sample_first_passage(x, level, REF_MODEL, np.random.default_rng(1))


def test_first_passage_requires_net_drift():
    rng = np.random.default_rng(1)
    flat = GbmModel(mu=0.005, sigma=0.125, r=0.05, lam=0.1, strike=2.0)
    with pytest.raises(ValueError):
        sample_first_passage(2.0, 3.0, flat, rng)


def test_first_passage_broadcasts_scalar_start():
    # A scalar x with an array of levels yields one passage time per level,
    # the same as the fully broadcast array call on the same stream.
    levels = np.array([3.0, 4.0, 5.0])
    got = sample_first_passage(2.0, levels, REF_MODEL, np.random.default_rng(7))
    want = sample_first_passage(
        np.full(3, 2.0), levels, REF_MODEL, np.random.default_rng(7)
    )
    assert isinstance(got, np.ndarray) and got.shape == (3,)
    assert np.array_equal(got, want)


def _full_first_passage(x, level, model, rng):
    """The inverse-Gaussian transform run on every entry and masked to 0
    where the log distance is 0: the sampler must reproduce it bit for bit."""
    d = np.log(level / x)
    mean = d / model.net_drift
    shape = d * d / (model.sigma * model.sigma)
    mean = np.where(mean > 0.0, mean, 1.0)
    shape = np.where(shape > 0.0, shape, 1.0)
    z = rng.standard_normal(d.shape)
    u = rng.random(d.shape)
    w = mean * (z * z)
    cand = mean + mean / (2.0 * shape) * (w - np.sqrt(w * (4.0 * shape + w)))
    tau = np.where(u <= mean / (mean + cand), cand, mean * mean / cand)
    return np.where(d > 0.0, tau, 0.0)


def test_first_passage_transforms_only_entries_below_level():
    # Entries at the level, one ulp below it (where ln(level / x) can round
    # to 0) and far below, interleaved so that no run is uniform.
    level = ORACLE["x_star_1"]
    kinds = [level, np.nextafter(level, 0.0), 0.5 * level, 2.0]
    x = np.array([kinds[k % 4] for k in range(4001)])
    got = sample_first_passage(x, level, REF_MODEL, np.random.default_rng(17))
    want = _full_first_passage(x, level, REF_MODEL, np.random.default_rng(17))
    assert np.array_equal(got, want)
    assert np.all(got[0::4] == 0.0) and np.all(got[2::4] > 0.0)
    # Per-entry levels gather with the states.
    levels = np.where(np.arange(x.size) % 3 == 0, x, 1.5 * x)
    got = sample_first_passage(x, levels, REF_MODEL, np.random.default_rng(18))
    want = _full_first_passage(x, levels, REF_MODEL, np.random.default_rng(18))
    assert np.array_equal(got, want)


def test_first_passage_mean():
    rng = np.random.default_rng(101)
    x, level = 2.0, 3.0
    n = 1_000_000
    tau = sample_first_passage(np.full(n, x), np.full(n, level), REF_MODEL, rng)
    d = math.log(level / x)
    nu = REF_MODEL.net_drift
    mean_exact = d / nu
    # IG variance = mean^3 / shape.
    shape = d * d / REF_MODEL.sigma**2
    se = math.sqrt(mean_exact**3 / shape / n)
    assert abs(tau.mean() - mean_exact) <= 4.0 * se


def test_first_passage_laplace_transform():
    rng = np.random.default_rng(103)
    x, level = 2.0, ORACLE["x_star_1"]
    n = 1_000_000
    tau = sample_first_passage(np.full(n, x), np.full(n, level), REF_MODEL, rng)
    disc = np.exp(-REF_MODEL.r * tau)
    b = derive_exponents(REF_MODEL).b
    exact = (x / level) ** b
    se = disc.std(ddof=1) / math.sqrt(n)
    assert abs(disc.mean() - exact) <= 4.0 * se


# -- policy simulation ------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        PolicySpec(thresholds=(), x0=2.0)
    with pytest.raises(ValueError):
        PolicySpec(thresholds=(3.0, -1.0), x0=2.0)
    with pytest.raises(ValueError):
        PolicySpec(thresholds=(3.0,), x0=0.0)
    # ln(threshold / x0) must be finite: 3.0 / 1e-308 overflows, and the
    # largest threshold sets the bound.
    with pytest.raises(ValueError, match=r"at least about 1\.66\d*e-308"):
        PolicySpec(thresholds=(2.0, 3.0), x0=1e-308)
    assert PolicySpec(thresholds=(2.0, 3.0), x0=1.7e-308).x0 == 1.7e-308
    with pytest.raises(ValueError, match="std_err must be nonnegative"):
        McEstimate(mean=1.0, std_err=-0.1, n_paths=10, seed=0)
    with pytest.raises(ValueError, match="n_paths must be >= 1"):
        McEstimate(mean=1.0, std_err=0.1, n_paths=0, seed=0)


@pytest.mark.parametrize(
    "thresholds, x0",
    [((3.0,), math.nan), ((math.inf,), 2.0), ((math.nan,), 2.0), ((3.0,), math.inf)],
)
def test_policy_rejects_non_finite(thresholds, x0):
    with pytest.raises(ValueError, match="finite"):
        PolicySpec(thresholds=thresholds, x0=x0)


def test_immediate_exercise_is_deterministic():
    x1 = solve_single(REF_MODEL)[0]
    policy = PolicySpec(thresholds=(x1,), x0=4.0)
    est = simulate_policy(REF_MODEL, policy, 5000, seed=9)
    assert est.mean == pytest.approx(4.0 - REF_MODEL.strike)
    assert est.std_err == 0.0


def test_single_right_agrees_with_analytic():
    x1 = solve_single(REF_MODEL)[0]
    policy = PolicySpec(thresholds=(x1,), x0=2.0)
    est = simulate_policy(REF_MODEL, policy, 400_000, seed=10)
    assert abs(est.mean - ORACLE["v1_at_2"]) <= 3.0 * est.std_err


def test_cpus_is_the_affinity_mask_else_cpu_count(monkeypatch):
    assert mc._cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert mc._cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert mc._cpus() == 1


def _spy_on_threads(monkeypatch):
    """The list of the sizes of the thread pools mc builds from now on."""
    sizes = []
    real = concurrent.futures.ThreadPoolExecutor

    def pool(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)
    return sizes


def test_reproducible_across_workers(monkeypatch):
    # Three blocks: one CPU runs them in a loop, four CPUs on three threads.
    x1 = solve_single(REF_MODEL)[0]
    policy = PolicySpec(thresholds=(x1,), x0=2.0)
    sizes = _spy_on_threads(monkeypatch)
    monkeypatch.setattr(mc, "_cpus", lambda: 1)
    a = simulate_policy(REF_MODEL, policy, 150_000, seed=77)
    assert sizes == []
    monkeypatch.setattr(mc, "_cpus", lambda: 4)
    b = simulate_policy(REF_MODEL, policy, 150_000, seed=77)
    assert sizes == [3]
    assert a.mean == b.mean
    assert a.std_err == b.std_err


def test_std_err_scaling():
    x1 = solve_single(REF_MODEL)[0]
    policy = PolicySpec(thresholds=(x1,), x0=2.0)
    small = simulate_policy(REF_MODEL, policy, 131_072, seed=5)
    large = simulate_policy(REF_MODEL, policy, 262_144, seed=5)
    ratio = large.std_err / small.std_err
    assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.10)


def test_policy_mean_bounded_by_value(ladder5):
    policy = PolicySpec(thresholds=ladder5.thresholds, x0=2.0)
    est = simulate_policy(REF_MODEL, policy, 200_000, seed=12)
    assert est.mean <= ORACLE["v5_at_2"] + 3.0 * est.std_err


def test_dominance_scan_validation(ladder5):
    with pytest.raises(ValueError):
        policy_dominance_scan(
            REF_MODEL, ladder5.thresholds, 2.0, perturbation=0.5, n_paths=1000, seed=1
        )


def test_dominance_scan_small(ladder5):
    report = policy_dominance_scan(
        REF_MODEL, ladder5.thresholds, 2.0, perturbation=0.05, n_paths=100_000, seed=21
    )
    assert report["base_dominates"]
    assert len(report["variants"]) == 10
    for variant in report["variants"]:
        assert not variant["variant_beats_base"]


def _full_simulation(model, thresholds, x0, n_paths, seed):
    """Per-path totals of one policy simulated from the start, every stage
    drawing its own numbers in the fixed per-block pattern: the scan must
    reproduce these path for path."""
    nu, sig = model.net_drift, model.sigma
    sizes = [65536] * (n_paths // 65536) + ([n_paths % 65536] if n_paths % 65536 else [])
    blocks = []
    for size, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        rng = np.random.default_rng(child)
        x, t, total = np.full(size, x0), np.zeros(size), np.zeros(size)
        for rights in range(len(thresholds), 0, -1):
            hit_x = np.maximum(x, thresholds[rights - 1])
            d = np.log(hit_x / x)
            mean = d / nu
            shape = d * d / (sig * sig)
            mean = np.where(mean > 0.0, mean, 1.0)
            shape = np.where(shape > 0.0, shape, 1.0)
            z = rng.standard_normal(size)
            u = rng.random(size)
            w = mean * (z * z)
            cand = mean + mean / (2.0 * shape) * (w - np.sqrt(w * (4.0 * shape + w)))
            tau = np.where(u <= mean / (mean + cand), cand, mean * mean / cand)
            t_ex = t + np.where(d > 0.0, tau, 0.0)
            total += np.exp(-model.r * t_ex) * (hit_x - model.strike)
            if rights > 1:
                wait = rng.exponential(1.0 / model.lam, size)
                z = rng.standard_normal(size)
                x = hit_x * np.exp(nu * wait + sig * np.sqrt(wait) * z)
                t = t_ex + wait
        blocks.append(total)
    return np.concatenate(blocks)


def test_scan_matches_full_resimulation(ladder5):
    # One full block plus a 4464-path remainder.  Every variant resumes
    # from the base's stage state; its paired differences must equal, bit
    # for bit, those of a variant simulated from the start.
    n_paths, seed = 70_000, 8
    report = policy_dominance_scan(REF_MODEL, ladder5.thresholds, 2.0, 0.05, n_paths, seed)
    base = _full_simulation(REF_MODEL, ladder5.thresholds, 2.0, n_paths, seed)
    assert report["base_mean"] == float(base.mean())
    assert report["base_se"] == float(base.std(ddof=1) / math.sqrt(n_paths))
    assert [(v["index"], v["direction"]) for v in report["variants"]] == [
        (i, d) for i in range(1, 6) for d in "+-"
    ]
    for v in report["variants"]:
        i = v["index"]
        factor = 1.05 if v["direction"] == "+" else 0.95
        shifted = list(ladder5.thresholds)
        shifted[i - 1] = shifted[i - 1] * factor
        assert v["threshold"] == shifted[i - 1]
        diff = base - _full_simulation(REF_MODEL, tuple(shifted), 2.0, n_paths, seed)
        assert v["mean_diff"] == float(diff.mean())
        assert v["se_diff"] == float(diff.std(ddof=1) / math.sqrt(n_paths))


def test_scan_identical_across_workers(ladder5, monkeypatch):
    # Three blocks, each written by its own thread into one shared array;
    # a short switch interval makes the threads interleave often.
    args = (REF_MODEL, ladder5.thresholds, 2.0, 0.05, 140_000, 3)
    sizes = _spy_on_threads(monkeypatch)
    monkeypatch.setattr(mc, "_cpus", lambda: 1)
    serial = policy_dominance_scan(*args)
    monkeypatch.setattr(mc, "_cpus", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = policy_dominance_scan(*args)
    finally:
        sys.setswitchinterval(interval)
    assert sizes == [3]
    assert threaded == serial


def test_scan_base_is_simulate_policy(ladder5):
    report = policy_dominance_scan(REF_MODEL, ladder5.thresholds, 2.0, 0.05, 70_000, 5)
    est = simulate_policy(REF_MODEL, PolicySpec(ladder5.thresholds, 2.0), 70_000, seed=5)
    assert report["base_mean"] == est.mean
    assert report["base_se"] == est.std_err


def test_flat_policy_is_suboptimal(ladder5):
    # Using the single-right threshold for every right ignores the ladder
    # and must lose measurably.
    x1 = ladder5.thresholds[0]
    flat = PolicySpec(thresholds=(x1,) * 5, x0=2.0)
    opt = PolicySpec(thresholds=ladder5.thresholds, x0=2.0)
    est_flat = simulate_policy(REF_MODEL, flat, 400_000, seed=33)
    est_opt = simulate_policy(REF_MODEL, opt, 400_000, seed=33)
    joint_se = math.hypot(est_flat.std_err, est_opt.std_err)
    assert est_opt.mean - est_flat.mean > 3.0 * joint_se
