"""Robustness sweep over a wide parameter box (not collected by pytest;
tests/test_guards.py runs it through run_sweep).

Draws 600 models with numpy.random.default_rng(0), each in the order
    r ~ 10^U(-3, 0), sigma ~ 10^U(-3, 0.3),
    mu = sigma^2/2 + (r - sigma^2/2) U, lambda ~ 10^U(-4, 2), K ~ 10^U(-2, 2),
keeps those that validate(..., require_positive_net_drift=True) accepts, and
runs solve_ladder(m, rights) and solve_infinite(m) on each, at 6 rights,
then at 20 and at the CLI's largest depth, 100.  Prints, for each depth, the
kept and failed counts, the failures grouped by class, how many solved models
raised a smooth-fit RuntimeWarning, how many solved ladders (solve_infinite
may still fail on them) miss the Delta cross-check below by more than 1e-12
relative, with the worst one, and how many miss it by more than each of
GAP_LEVELS.  tests/test_guards.py bounds the failure counts at 6 and 20
rights and the gaps above 1e-8 at 20; the 100-right block is a report only.

Delta cross-check: on (0, K], H^i is c x^b + C x^beta, so Delta_{i-1} also
equals kappa C, read off the resolvent's homogeneous coefficient rather than
from the closed-form integral in finite.delta.

Run from the repository root:
    PYTHONPATH=src python tests/robustness_sweep.py
"""

from __future__ import annotations

import re
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from mstop import GbmModel, solve_infinite, solve_ladder, validate
from mstop.cli import MAX_RIGHTS

DRAWS = 600
RIGHTS = 6
DEEP_RIGHTS = 20
DELTA_RTOL = 1e-12
GAP_LEVELS = (1e-12, 1e-8, 1e-6, 1e-4, 1e-2)


def draw_models(rng: np.random.Generator, n: int) -> list[GbmModel]:
    models = []
    for _ in range(n):
        r = 10.0 ** rng.uniform(-3.0, 0.0)
        sigma = 10.0 ** rng.uniform(-3.0, 0.3)
        half_s2 = 0.5 * sigma * sigma
        mu = half_s2 + (r - half_s2) * rng.uniform()
        lam = 10.0 ** rng.uniform(-4.0, 2.0)
        strike = 10.0 ** rng.uniform(-2.0, 2.0)
        models.append(GbmModel(mu=mu, sigma=sigma, r=r, lam=lam, strike=strike))
    return models


def failure_class(exc: Exception) -> str:
    stage = re.match(r"float overflow in ladder stage (\d+)", str(exc))
    if stage:
        return f"{type(exc).__name__}: overflow at stage {stage.group(1)}"
    # The message with its numbers masked, so equal checks group together.
    return f"{type(exc).__name__}: {re.sub(r'-?[0-9][0-9.e+-]*', 'N', str(exc))}"


def delta_cross_check(ladder) -> tuple[float, int]:
    """Largest relative gap between Delta_{i-1} and kappa C over the ladder,
    and the stage i where it occurs (0 for a single right)."""
    exps = ladder.exponents
    worst, stage = 0.0, 0
    for i, (d, h) in enumerate(zip(ladder.deltas, ladder.h_funcs[1:]), start=2):
        alt = exps.kappa * h.polys[0].get(exps.beta, [0.0])[0]
        gap = abs(alt - d) / abs(d)
        if gap > worst:
            worst, stage = gap, i
    return worst, stage


@dataclass
class SweepReport:
    """What the sweep found: the kept models, each failure with the call that
    raised it, the solved models that warned about smooth fit, and each solved
    ladder's Delta cross-check (gap, stage, model)."""

    kept: list[GbmModel]
    failures: list[tuple[str, Exception]] = field(default_factory=list)
    warned: int = 0
    delta_gaps: list[tuple[float, int, GbmModel]] = field(default_factory=list)


def run_sweep(rights: int = RIGHTS) -> SweepReport:
    models = draw_models(np.random.default_rng(0), DRAWS)
    kept = [m for m in models if not validate(m, require_positive_net_drift=True)]
    report = SweepReport(kept)
    for m in kept:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            call = "solve_ladder"
            try:
                ladder = solve_ladder(m, rights)
                report.delta_gaps.append((*delta_cross_check(ladder), m))
                call = "solve_infinite"
                solve_infinite(m)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                report.failures.append((call, exc))
                continue
        report.warned += any(
            "first-derivative mismatch" in str(w.message) for w in caught
        )
    return report


def print_report(report: SweepReport) -> None:
    failures = Counter(failure_class(exc) for _, exc in report.failures)
    print(f"kept {len(report.kept)} of {DRAWS} draws")
    print(f"failed {len(report.failures)}")
    for name, count in sorted(failures.items()):
        print(f"  {count:4d}  {name}")
    print(f"solved with a smooth-fit warning {report.warned}")
    over = [g for g in report.delta_gaps if g[0] > DELTA_RTOL]
    print(
        f"solved ladders with a Delta cross-check gap above {DELTA_RTOL:g}: "
        f"{len(over)} of {len(report.delta_gaps)}"
    )
    if over:
        gap, stage, m = max(over, key=lambda g: g[0])
        print(
            f"  worst {gap:.2e} at stage {stage}: mu={m.mu:.8g} sigma={m.sigma:.8g} "
            f"r={m.r:.8g} lam={m.lam:.8g} K={m.strike:.8g}"
        )
    counts = [sum(g[0] > level for g in report.delta_gaps) for level in GAP_LEVELS]
    print(
        f"Delta cross-check gaps above {' / '.join(f'{x:g}' for x in GAP_LEVELS)}: "
        f"{' / '.join(map(str, counts))}"
    )


def main() -> None:
    print_report(run_sweep())
    for rights in (DEEP_RIGHTS, MAX_RIGHTS):
        print(f"at {rights} rights:")
        print_report(run_sweep(rights))


if __name__ == "__main__":
    main()
