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
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from mstop.model import GbmModel, require_valid

BLOCK_SIZE = 65536


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


def sample_first_passage(
    x: float | npt.NDArray[np.float64],
    level: float | npt.NDArray[np.float64],
    model: GbmModel,
    rng: np.random.Generator,
) -> float | npt.NDArray[np.float64]:
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
    tau = _passage_time(np.atleast_1d(np.log(lvl_arr / x_arr)), model, rng)
    return float(tau[0]) if scalar else tau


def _passage_time(
    d: npt.NDArray[np.float64], model: GbmModel, rng: np.random.Generator
) -> npt.NDArray[np.float64]:
    """Inverse-Gaussian hitting times of log distances d >= 0; 0 where d is 0."""
    nu = model.net_drift
    tau = _ig_sample(d / nu, d * d / (model.sigma * model.sigma), rng, d.shape)
    return np.where(d > 0.0, tau, 0.0)


def _ig_sample(
    mean: npt.NDArray[np.float64],
    shape: npt.NDArray[np.float64],
    rng: np.random.Generator,
    size: tuple[int, ...],
) -> npt.NDArray[np.float64]:
    # Michael-Schucany-Haas transformation; degenerate entries (mean 0)
    # are masked out by the caller.
    mean = np.where(mean > 0.0, mean, 1.0)
    shape = np.where(shape > 0.0, shape, 1.0)
    z = rng.standard_normal(size)
    u = rng.random(size)
    y = z * z
    w = mean * y
    cand = mean + mean / (2.0 * shape) * (w - np.sqrt(w * (4.0 * shape + w)))
    return np.where(u <= mean / (mean + cand), cand, mean * mean / cand)


def _simulate_block(
    model: GbmModel,
    policy: PolicySpec,
    n: int,
    rng: np.random.Generator,
) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.int64]]:
    """Per-path discounted payoff totals and exercised-rights counts.

    Draws follow a fixed per-stage pattern (normal + uniform for the first
    passage, exponential + normal for the refraction refresh) for every
    path, so blocks with equal RNG state align draw-for-draw across policy
    variants.
    """
    nu = model.net_drift
    sig = model.sigma
    k = model.strike
    x = np.full(n, policy.x0)
    t = np.zeros(n)
    total = np.zeros(n)
    exercised = np.zeros(n, dtype=np.int64)

    for rights in range(policy.n_rights, 0, -1):
        level = policy.thresholds[rights - 1]
        # Exercise point: the threshold if approached from below, the
        # current state if the refraction refresh landed above it.
        hit_x = np.maximum(x, level)
        t_ex = t + _passage_time(np.log(hit_x / x), model, rng)
        total += np.exp(-model.r * t_ex) * (hit_x - k)
        exercised += 1
        if rights > 1:
            wait = rng.exponential(1.0 / model.lam, n)
            z = rng.standard_normal(n)
            x = hit_x * np.exp(nu * wait + sig * np.sqrt(wait) * z)
            t = t_ex + wait
    return total, exercised


def _path_totals(
    model: GbmModel,
    policy: PolicySpec,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.int64]]:
    sizes = [BLOCK_SIZE] * (n_paths // BLOCK_SIZE)
    if n_paths % BLOCK_SIZE:
        sizes.append(n_paths % BLOCK_SIZE)
    children = np.random.SeedSequence(seed).spawn(len(sizes))

    def run(args: tuple[int, np.random.SeedSequence]) -> tuple:
        size, child = args
        return _simulate_block(model, policy, size, np.random.default_rng(child))

    jobs = list(zip(sizes, children))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]
    totals = np.concatenate([r[0] for r in results])
    counts = np.concatenate([r[1] for r in results])
    return totals, counts


def simulate_policy(
    model: GbmModel,
    policy: PolicySpec,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> McEstimate:
    """Estimate the expected discounted total payoff of a threshold policy."""
    require_valid(model, require_positive_net_drift=True)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    totals, counts = _path_totals(model, policy, n_paths, seed, workers)
    mean = float(totals.mean())
    std_err = float(totals.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    hist = {int(c): int(m) for c, m in zip(*np.unique(counts, return_counts=True))}
    return McEstimate(
        mean=mean, std_err=std_err, n_paths=n_paths, seed=seed, exercised_counts=hist
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
    the base policy by more than 3 joint standard errors.
    """
    if not (0.0 < perturbation <= 0.2):
        raise ValueError(f"perturbation must be in (0, 0.2], got {perturbation}")
    require_valid(model, require_positive_net_drift=True)
    base_policy = PolicySpec(thresholds=thresholds, x0=x0)
    base_tot, _ = _path_totals(model, base_policy, n_paths, seed, workers)
    variants: list[dict] = []
    dominated = True
    for i in range(len(thresholds)):
        for sign in (+1.0, -1.0):
            shifted = list(thresholds)
            shifted[i] = shifted[i] * (1.0 + sign * perturbation)
            var_policy = PolicySpec(thresholds=tuple(shifted), x0=x0)
            var_tot, _ = _path_totals(model, var_policy, n_paths, seed, workers)
            diff = base_tot - var_tot
            mean_diff = float(diff.mean())
            se_diff = (
                float(diff.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
            )
            beats = mean_diff < -3.0 * se_diff
            dominated = dominated and not beats
            variants.append(
                {
                    "index": i + 1,
                    "direction": "+" if sign > 0 else "-",
                    "threshold": shifted[i],
                    "mean_diff": mean_diff,
                    "se_diff": se_diff,
                    "variant_beats_base": beats,
                }
            )
    return {
        "base_mean": float(base_tot.mean()),
        "base_se": float(base_tot.std(ddof=1) / math.sqrt(n_paths)),
        "perturbation": perturbation,
        "n_paths": n_paths,
        "seed": seed,
        "variants": variants,
        "base_dominates": dominated,
    }
