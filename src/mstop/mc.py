"""Monte Carlo oracle for threshold policies under exponential refraction.

Simulation is exact in distribution: first passage times of the log price to
a threshold are inverse-Gaussian draws (no time discretization), and the
state after an Exp(lam) refraction period is refreshed with one lognormal
increment.  Paths therefore carry zero discretization bias and 3-standard-
error acceptance bands are meaningful.

Reproducibility: paths are processed in fixed-size blocks of 65536, each
with an independent child of SeedSequence(seed).  Results for a given
(seed, n_paths) are bit-identical regardless of worker count, and two
policies simulated with the same seed share all random draws (common random
numbers), because every block consumes draws in a fixed per-stage pattern.

The dominance scan uses that pattern directly.  A variant that moves the
threshold for i rights runs the same stages as the base policy while more
than i rights remain, so each block runs the base policy once, keeps every
stage's draws and its starting (x, t, total) state, and resumes each variant
from the base state at the stage with i rights, replaying the kept draws.
That is n(n+2) stage simulations per block instead of (2n+1)n, and one
round of draws instead of 2n+1.  The report's means and standard errors are
taken over whole columns, so the scan holds 2n+1 float64 arrays of n_paths
each (base totals and one paired difference per variant).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.typing as npt

from mstop.model import GbmModel, require_valid

BLOCK_SIZE = 65536

Array = npt.NDArray[np.float64]
# Path state at the start of a stage: state x, elapsed time t, and the
# discounted payoff total so far.
State = tuple[Array, Array, Array]
# One stage's draws: (z, u) for the first passage and, when rights remain
# after this exercise, the refraction period `wait` and the lognormal factor
# exp(nu wait + sigma sqrt(wait) z) that it moves the state by.  Draws do
# not depend on the policy, so the scan computes them, the factor included,
# once for all variants.
Draws = tuple[Array, ...]


@dataclass(frozen=True)
class PolicySpec:
    """Threshold policy: thresholds[i-1] is the exercise level with i rights
    remaining; exercise is immediate whenever the state is at or above it."""

    thresholds: tuple[float, ...]
    x0: float

    def __post_init__(self) -> None:
        if self.x0 <= 0.0:
            raise ValueError(f"x0 must be positive, got {self.x0}")
        if not self.thresholds or any(t <= 0.0 for t in self.thresholds):
            raise ValueError(f"thresholds must be positive: {self.thresholds}")

    @property
    def n_rights(self) -> int:
        return len(self.thresholds)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_err: float
    n_paths: int
    seed: int
    exercised_counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.std_err < 0.0:
            raise ValueError("std_err must be nonnegative")


def require_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def require_perturbation(perturbation: float) -> None:
    if not (0.0 < perturbation <= 0.2):
        raise ValueError(f"perturbation must be in (0, 0.2], got {perturbation}")


def sample_first_passage(
    x: float | Array,
    level: float | Array,
    model: GbmModel,
    rng: np.random.Generator,
) -> float | Array:
    """Exact first passage time of X to `level` starting from x <= level.

    The log distance d = ln(level / x) is hit by a Brownian motion with
    drift nu = mu - sigma^2/2 > 0 and volatility sigma at an inverse-
    Gaussian time with mean d / nu and shape d^2 / sigma^2, sampled by the
    transformation method (one standard normal plus one uniform).  Returns
    0 where x equals the level.
    """
    nu = model.net_drift
    if nu <= 0.0:
        raise ValueError(f"net drift must be positive, got {nu}")
    x_arr = np.asarray(x, dtype=float)
    lvl_arr = np.asarray(level, dtype=float)
    if np.any(x_arr > lvl_arr):
        raise ValueError("x must not exceed level (exercise immediately instead)")
    scalar = x_arr.ndim == 0
    d = np.atleast_1d(np.log(lvl_arr / x_arr))
    tau = _passage_time(d, model, *_ig_draws(rng, d.shape))
    return float(tau[0]) if scalar else tau


def _ig_draws(
    rng: np.random.Generator, size: int | tuple[int, ...]
) -> tuple[Array, Array]:
    """The standard normal and the uniform of one inverse-Gaussian draw."""
    return rng.standard_normal(size), rng.random(size)


def _passage_time(d: Array, model: GbmModel, z: Array, u: Array) -> Array:
    """Inverse-Gaussian hitting times of log distances d >= 0; 0 where d is 0."""
    nu = model.net_drift
    tau = _ig_transform(d / nu, d * d / (model.sigma * model.sigma), z, u)
    return np.where(d > 0.0, tau, 0.0)


def _ig_transform(mean: Array, shape: Array, z: Array, u: Array) -> Array:
    # Michael-Schucany-Haas transformation; degenerate entries (mean 0)
    # are masked out by the caller.
    mean = np.where(mean > 0.0, mean, 1.0)
    shape = np.where(shape > 0.0, shape, 1.0)
    y = z * z
    w = mean * y
    cand = mean + mean / (2.0 * shape) * (w - np.sqrt(w * (4.0 * shape + w)))
    return np.where(u <= mean / (mean + cand), cand, mean * mean / cand)


def _stage_draws(
    model: GbmModel, rng: np.random.Generator, n: int, refresh: bool
) -> Draws:
    z, u = _ig_draws(rng, n)
    if not refresh:
        return z, u
    wait = rng.exponential(1.0 / model.lam, n)
    z_wait = rng.standard_normal(n)
    growth = np.exp(model.net_drift * wait + model.sigma * np.sqrt(wait) * z_wait)
    return z, u, wait, growth


def _stage(model: GbmModel, level: float, state: State, draws: Draws) -> State:
    """Exercise one right at `level` and, if the draws carry a refresh, move
    the state over the Exp(lam) refraction period that follows.

    The exercise point is the threshold if approached from below, the
    current state if the refraction refresh landed above it.  The input
    arrays are not modified.
    """
    x, t, total = state
    hit_x = np.maximum(x, level)
    t_ex = t + _passage_time(np.log(hit_x / x), model, draws[0], draws[1])
    total = total + np.exp(-model.r * t_ex) * (hit_x - model.strike)
    if len(draws) == 2:
        return hit_x, t_ex, total
    wait, growth = draws[2], draws[3]
    return hit_x * growth, t_ex + wait, total


def _start(policy: PolicySpec, n: int) -> State:
    return np.full(n, policy.x0), np.zeros(n), np.zeros(n)


def _simulate_block(
    model: GbmModel, policy: PolicySpec, n: int, rng: np.random.Generator
) -> Array:
    """Per-path discounted payoff totals; each stage draws just before it
    runs, so blocks with equal RNG state align draw-for-draw across
    policies."""
    state = _start(policy, n)
    for rights in range(policy.n_rights, 0, -1):
        draws = _stage_draws(model, rng, n, rights > 1)
        state = _stage(model, policy.thresholds[rights - 1], state, draws)
    return state[2]


def _scan_block(
    model: GbmModel,
    policy: PolicySpec,
    variants: list[tuple[int, str, tuple[float, ...]]],
    out: Array,
    rng: np.random.Generator,
) -> None:
    """Write the base totals to out[0] and, for variant j = (i, direction,
    thresholds), the paired differences base - variant to out[1 + j].  The
    variant departs from the base at the stage with i rights and replays the
    base's draws from there."""
    n_rights, n = policy.n_rights, out.shape[1]
    starts: list[State] = []
    draws: list[Draws] = []
    state = _start(policy, n)
    # starts[k] and draws[k] belong to the stage with n_rights - k rights.
    for rights in range(n_rights, 0, -1):
        starts.append(state)
        draws.append(_stage_draws(model, rng, n, rights > 1))
        state = _stage(model, policy.thresholds[rights - 1], state, draws[-1])
    out[0] = state[2]
    for j, (i, _, thresholds) in enumerate(variants, start=1):
        state = starts[n_rights - i]
        for rights in range(i, 0, -1):
            stage_draws = draws[n_rights - rights]
            state = _stage(model, thresholds[rights - 1], state, stage_draws)
        np.subtract(out[0], state[2], out=out[j])


def _for_blocks(
    run: Callable[[slice, np.random.Generator], None],
    n_paths: int,
    seed: int,
    workers: int,
) -> None:
    """run(sl, rng) on every block, where sl is the block's slice of the
    n_paths paths and rng is seeded by the child of SeedSequence(seed) for
    the block's position."""
    starts = range(0, n_paths, BLOCK_SIZE)
    children = np.random.SeedSequence(seed).spawn(len(starts))
    jobs = [
        (slice(lo, min(lo + BLOCK_SIZE, n_paths)), np.random.default_rng(child))
        for lo, child in zip(starts, children)
    ]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda job: run(*job), jobs))
    else:
        for job in jobs:
            run(*job)


def _mean_se(values: Array) -> tuple[float, float]:
    n = values.size
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(values.mean()), se


def simulate_policy(
    model: GbmModel,
    policy: PolicySpec,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> McEstimate:
    """Estimate the expected discounted total payoff of a threshold policy.

    Every path exercises all of its rights (hitting times are a.s. finite),
    so `exercised_counts` is {n_rights: n_paths}.
    """
    require_valid(model, require_positive_net_drift=True)
    require_workers(workers)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    totals = np.empty(n_paths)

    def run(sl: slice, rng: np.random.Generator) -> None:
        totals[sl] = _simulate_block(model, policy, sl.stop - sl.start, rng)

    _for_blocks(run, n_paths, seed, workers)
    mean, std_err = _mean_se(totals)
    return McEstimate(
        mean=mean,
        std_err=std_err,
        n_paths=n_paths,
        seed=seed,
        exercised_counts={policy.n_rights: n_paths},
    )


def policy_dominance_scan(
    model: GbmModel,
    thresholds: tuple[float, ...],
    x0: float,
    perturbation: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> dict:
    """Compare the given policy against +/- perturbed variants under common
    random numbers.

    Each threshold is shifted by +/- perturbation (relative) in turn; for
    every variant the report carries the paired mean difference
    (optimal - variant), its standard error, and whether the variant beats
    the base policy by more than 3 joint standard errors.  Every variant
    resumes from the base policy's stage state and replays its draws (see
    the module docstring), which gives the same paths as simulating it with
    the same seed from the start.
    """
    require_perturbation(perturbation)
    require_valid(model, require_positive_net_drift=True)
    require_workers(workers)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    base_policy = PolicySpec(thresholds=thresholds, x0=x0)
    variants: list[tuple[int, str, tuple[float, ...]]] = []
    for i in range(1, len(thresholds) + 1):
        for sign, direction in ((+1.0, "+"), (-1.0, "-")):
            shifted = list(thresholds)
            shifted[i - 1] = shifted[i - 1] * (1.0 + sign * perturbation)
            variants.append((i, direction, tuple(shifted)))

    # Row 0 holds the base totals, row 1 + j the differences for variant j.
    columns = np.empty((1 + len(variants), n_paths))

    def run(sl: slice, rng: np.random.Generator) -> None:
        _scan_block(model, base_policy, variants, columns[:, sl], rng)

    _for_blocks(run, n_paths, seed, workers)
    rows: list[dict] = []
    dominated = True
    for (i, direction, shifted), diff in zip(variants, columns[1:]):
        mean_diff, se_diff = _mean_se(diff)
        beats = mean_diff < -3.0 * se_diff
        dominated = dominated and not beats
        rows.append(
            {
                "index": i,
                "direction": direction,
                "threshold": shifted[i - 1],
                "mean_diff": mean_diff,
                "se_diff": se_diff,
                "variant_beats_base": beats,
            }
        )
    base_mean, base_se = _mean_se(columns[0])
    return {
        "base_mean": base_mean,
        "base_se": base_se,
        "perturbation": perturbation,
        "n_paths": n_paths,
        "seed": seed,
        "variants": rows,
        "base_dominates": dominated,
    }
