"""Monte Carlo oracle for threshold policies under exponential refraction.

Simulation is exact in distribution: first passage times of the log price to
a threshold are inverse-Gaussian draws (no time discretization), and the
state after an Exp(lam) refraction period is refreshed with one lognormal
increment.  Paths therefore carry zero discretization bias and 3-standard-
error acceptance bands are meaningful.  Each stage draws for every path,
but only the paths still below the level run the inverse-Gaussian
transform; the others are exercised at once, with passage time 0.

Reproducibility: paths are processed in fixed-size blocks of 65536, each
with an independent child of SeedSequence(seed).  Results for a given
(seed, n_paths) are bit-identical regardless of thread count, and two
policies simulated with the same seed share all random draws (common random
numbers), because every block consumes draws in a fixed per-stage pattern.

The dominance scan uses that pattern directly.  A variant that moves the
threshold for i rights runs the same stages as the base policy while more
than i rights remain, so one walk serves them all: each stage draws once,
a variant joins the walk at the stage with i rights from the base policy's
(x, t, total) state there, and from then on advances through the same
draws as the base.  That is n(n+2) stage simulations per block instead of
(2n+1)n, and one round of draws instead of 2n+1; `simulate_policy` is the
same walk with no variants.  The report's means and standard errors are
taken over whole columns, so the scan holds 2n+1 float64 arrays of n_paths
each (base totals and one paired difference per variant).
"""

from __future__ import annotations

import math
import os
import sys
from collections import namedtuple

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
# not depend on the policy, so one set, the factor included, serves the
# policy and every variant in the walk.
Draws = tuple[Array, ...]
# A dominance-scan variant: (i, direction, thresholds), the policy with the
# threshold for i rights moved up ("+") or down ("-").
Variant = tuple[int, str, tuple[float, ...]]


class PolicySpec(namedtuple("PolicySpec", "thresholds x0")):
    """Threshold policy: thresholds[i-1] is the exercise level with i rights
    remaining; exercise is immediate whenever the state is at or above it."""

    __slots__ = ()

    def __new__(cls, thresholds: tuple[float, ...], x0: float) -> PolicySpec:
        if not (math.isfinite(x0) and x0 > 0.0):
            raise ValueError(f"x0 must be positive and finite, got {x0}")
        if not thresholds or not all(math.isfinite(t) and t > 0.0 for t in thresholds):
            raise ValueError(f"thresholds must be positive and finite: {thresholds}")
        # A first passage from x0 runs on ln(threshold / x0), which the
        # quotient's overflow would turn into NaN totals.
        top = max(thresholds)
        if math.isinf(top / x0):
            raise ValueError(
                f"x0 must be at least about {top / sys.float_info.max:.6g} (the "
                f"largest threshold {top} over the largest float) for "
                f"ln(threshold / x0) to be finite, got {x0}"
            )
        return super().__new__(cls, thresholds, x0)

    @property
    def n_rights(self) -> int:
        return len(self.thresholds)


class McEstimate(namedtuple("McEstimate", "mean std_err n_paths seed")):
    __slots__ = ()

    def __new__(
        cls, mean: float, std_err: float, n_paths: int, seed: int
    ) -> McEstimate:
        if n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if std_err < 0.0:
            raise ValueError("std_err must be nonnegative")
        return super().__new__(cls, mean, std_err, n_paths, seed)


def require_perturbation(perturbation: float) -> None:
    if not (0.0 < perturbation <= 0.2):
        raise ValueError(f"perturbation must be in (0, 0.2], got {perturbation}")


def sample_first_passage(
    x: float | Array,
    level: float | Array,
    model: GbmModel,
    rng: np.random.Generator,
) -> float | Array:
    """Exact first passage time of X to `level` starting from 0 < x <= level.

    The log distance d = ln(level / x) is hit by a Brownian motion with
    drift nu = mu - sigma^2/2 > 0 and volatility sigma at an inverse-
    Gaussian time with mean d / nu and shape d^2 / sigma^2, sampled by the
    transformation method (one standard normal plus one uniform).  Returns
    0 where x equals the level.  Raises ValueError where x or the level is
    not positive and finite, or x exceeds the level.
    """
    nu = model.net_drift
    if nu <= 0.0:
        raise ValueError(f"net drift must be positive, got {nu}")
    x_arr = np.asarray(x, dtype=float)
    lvl_arr = np.asarray(level, dtype=float)
    # One reduction over the inputs: 0 < x <= level < inf is false where
    # either is NaN, and makes the level positive.
    if not np.all((x_arr > 0.0) & (x_arr <= lvl_arr) & (lvl_arr < math.inf)):
        if not (np.all(x_arr > 0.0) and np.all(np.isfinite(x_arr))):
            raise ValueError("x must be positive and finite")
        if not (np.all(lvl_arr > 0.0) and np.all(np.isfinite(lvl_arr))):
            raise ValueError("level must be positive and finite")
        raise ValueError("x must not exceed level (exercise immediately instead)")
    scalar = x_arr.ndim == 0 and lvl_arr.ndim == 0
    x_arr, lvl_arr = np.broadcast_arrays(np.atleast_1d(x_arr), lvl_arr)
    z, u = _ig_draws(rng, x_arr.shape)
    # Drawn whole, transformed a block at a time: the transform's
    # temporaries then stay small and are reused from block to block.
    x_flat, lvl_flat, z, u = (a.ravel() for a in (x_arr, lvl_arr, z, u))
    tau = np.empty(z.size)
    for lo in range(0, z.size, BLOCK_SIZE):
        b = slice(lo, lo + BLOCK_SIZE)
        tau[b] = _passage_times(x_flat[b], lvl_flat[b], model, z[b], u[b])
    return float(tau[0]) if scalar else tau.reshape(x_arr.shape)


def _ig_draws(
    rng: np.random.Generator, size: int | tuple[int, ...]
) -> tuple[Array, Array]:
    """The standard normal and the uniform of one inverse-Gaussian draw."""
    return rng.standard_normal(size), rng.random(size)


def _passage_times(
    x: Array, level: float | Array, model: GbmModel, z: Array, u: Array
) -> Array:
    """First passage times of X from the states x (one-dimensional) up to
    `level` (a float, or an array shaped like x), driven by the draws (z, u)
    of every entry: inverse-Gaussian in the log distance d = ln(level / x)
    > 0 where x is below the level, 0 elsewhere.

    Only the entries below the level run the transform, since its masks
    cost more on a mixed array than the arithmetic they would throw away;
    when every entry is below, nothing is gathered.
    """
    below = x < level
    if not below.all():
        below = np.flatnonzero(below)
        if np.ndim(level):
            level = level[below]
        tau = np.zeros(x.shape)
        tau[below] = _passage_times(x[below], level, model, z[below], u[below])
        return tau
    d = np.log(level / x)
    nu = model.net_drift
    return _ig_transform(d / nu, d * d / (model.sigma * model.sigma), z, u)


def _ig_transform(mean: Array, shape: Array, z: Array, u: Array) -> Array:
    """Inverse-Gaussian draws by the Michael-Schucany-Haas transformation.

    Every mean and shape must be positive: _passage_times passes only
    entries below the level, whose log distance is at least about 2.2e-16,
    so one underflows to 0 only for parameters near 1e290 or beyond.
    """
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
    t_ex = t + _passage_times(x, level, model, draws[0], draws[1])
    total = total + np.exp(-model.r * t_ex) * (hit_x - model.strike)
    if len(draws) == 2:
        return hit_x, t_ex, total
    wait, growth = draws[2], draws[3]
    return hit_x * growth, t_ex + wait, total


def _run_block(
    model: GbmModel,
    policy: PolicySpec,
    variants: list[Variant],
    out: Array,
    rng: np.random.Generator,
) -> None:
    """Write the policy's per-path totals to out[0] and, for variant
    j = (i, direction, thresholds), the paired differences policy - variant
    to out[1 + j].

    Each stage draws once, just before it runs, so blocks with equal RNG
    state align draw-for-draw across policies.  Variant j joins at the stage
    with i rights, from the policy's state there, and from then on advances
    through the same draws as the policy.
    """
    n = out.shape[1]
    state: State = (np.full(n, policy.x0), np.zeros(n), np.zeros(n))
    # (row, state) of every variant that has joined.  Entries are replaced
    # in place, so a variant's previous state is freed as it advances.
    running: list[tuple[int, State]] = []
    for rights in range(policy.n_rights, 0, -1):
        draws = _stage_draws(model, rng, n, rights > 1)
        running += [(row, state) for row, v in enumerate(variants, 1) if v[0] == rights]
        for k, (row, vstate) in enumerate(running):
            level = variants[row - 1][2][rights - 1]
            running[k] = (row, _stage(model, level, vstate, draws))
        state = _stage(model, policy.thresholds[rights - 1], state, draws)
    out[0] = state[2]
    for row, vstate in running:
        np.subtract(out[0], vstate[2], out=out[row])


def _columns(
    model: GbmModel,
    policy: PolicySpec,
    variants: list[Variant],
    n_paths: int,
    seed: int,
) -> Array:
    """The rows `_run_block` writes, over all n_paths paths: block k covers
    paths [k BLOCK_SIZE, (k + 1) BLOCK_SIZE) and is seeded by the k-th child
    of SeedSequence(seed).  Blocks run on one thread per CPU this process
    may run on, at most one per block; each writes only its own columns."""
    require_valid(model, require_positive_net_drift=True)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    rows = 1 + len(variants)
    try:
        columns = np.empty((rows, n_paths))
    except MemoryError:
        raise ValueError(
            f"the {rows} x {n_paths} (rows x paths) float64 array needs "
            f"{8 * rows * n_paths} bytes, more than can be allocated: use fewer paths"
        ) from None
    offsets = range(0, n_paths, BLOCK_SIZE)
    children = np.random.SeedSequence(seed).spawn(len(offsets))

    def run(lo: int, child: np.random.SeedSequence) -> None:
        block = columns[:, lo : lo + BLOCK_SIZE]
        _run_block(model, policy, variants, block, np.random.default_rng(child))

    threads = min(len(offsets), _cpus())
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, offsets, children))
    else:
        for lo, child in zip(offsets, children):
            run(lo, child)
    return columns


def _cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mean_se(values: Array) -> tuple[float, float]:
    """Mean and standard error; a ValueError where their sums overflow (the
    squared deviations do once the totals pass about 1e154)."""
    n = values.size
    try:
        with np.errstate(over="raise", invalid="raise"):
            se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            return float(values.mean()), se
    except FloatingPointError:
        raise ValueError(
            f"the mean or standard error of totals up to {np.abs(values).max():.6g} "
            "overflows: use a smaller x0"
        ) from None


def simulate_policy(
    model: GbmModel,
    policy: PolicySpec,
    n_paths: int,
    seed: int,
) -> McEstimate:
    """Estimate the expected discounted total payoff of a threshold policy.

    Every path exercises all of its rights: hitting times are a.s. finite.
    """
    totals = _columns(model, policy, [], n_paths, seed)[0]
    mean, std_err = _mean_se(totals)
    return McEstimate(mean=mean, std_err=std_err, n_paths=n_paths, seed=seed)


def policy_dominance_scan(
    model: GbmModel,
    thresholds: tuple[float, ...],
    x0: float,
    perturbation: float,
    n_paths: int,
    seed: int,
) -> dict:
    """Compare the given policy against +/- perturbed variants under common
    random numbers.

    Each threshold is shifted by +/- perturbation (relative) in turn; for
    every variant the report carries the paired mean difference
    (optimal - variant), its standard error, and whether the variant beats
    the base policy by more than 3 joint standard errors.  Every variant
    joins the base policy's walk at the stage it changes and shares its
    draws from there (see the module docstring), which gives the same paths
    as simulating it with the same seed from the start.
    """
    require_perturbation(perturbation)
    base_policy = PolicySpec(thresholds=thresholds, x0=x0)
    variants: list[Variant] = []
    for i in range(1, len(thresholds) + 1):
        for sign, direction in ((+1.0, "+"), (-1.0, "-")):
            shifted = list(thresholds)
            shifted[i - 1] = shifted[i - 1] * (1.0 + sign * perturbation)
            # A variant may start from x0 too: PolicySpec checks it.
            variants.append((i, direction, PolicySpec(tuple(shifted), x0).thresholds))
    # Row 0 holds the base totals, row 1 + j the differences for variant j.
    columns = _columns(model, base_policy, variants, n_paths, seed)
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
