"""Per-layer probe for traced runs.

Fixed work on the reference model, independent of the workload and its
seed, so every per-layer number means the same thing on every run and the
exact counters repeat exactly.  Spans are opened here, around calls into
each module's public functions; `mstop` itself is not instrumented.  The
ladder stages at n=40 are rebuilt from the functions `solve_ladder` calls,
in its order, so each part of a stage gets its own span.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from mstop.finite import (
    ThresholdLadder,
    _assert_invariants,
    _truncate_below,
    continuation_value,
    delta,
    solve_single,
    solve_ladder,
    solve_threshold,
)
from mstop.infinite import solve_infinite
from mstop.mc import PolicySpec, policy_dominance_scan, simulate_policy
from mstop.model import derive_exponents
from mstop.powerfn import (
    PiecewisePowerSum,
    PowerTerm,
    call_payoff,
    combine,
    resolvent_apply,
)
from mstop.resolvent_numeric import quad_resolvent

import workloads as w
from spans import Tracer

IMPORT_RUNS = 3
STAGE_RIGHTS = 40
BLOCK_PATHS = 65536  # exactly one MC block
BLOCK_RUNS = 5
QUAD_GRID = np.geomspace(0.3, 15.0, 10)
PER_LAYER_SELF = ("model", "powerfn", "finite", "infinite", "resolvent_numeric", "mc", "cli")


def _importtime(env: dict[str, str], tally: w.Tally) -> tuple[float, float]:
    """Cumulative import time of `mstop.cli` and of scipy inside it, in
    seconds, from `python -X importtime`."""
    proc = tally.timed(
        "import",
        lambda: w.run_python(["-X", "importtime", "-c", "import mstop.cli"], env),
        lambda p: p.returncode == 0,
    )
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name_field = line.split("|")
        depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        rows.append((depth, int(cumulative), name_field.strip()))
    mstop_us = sum(c for d, c, n in rows if d == 0 and n.split(".")[0] == "mstop")
    # Lines come children first; walk them parents first and count each
    # scipy subtree once, at its outermost scipy module.
    scipy_us = 0
    open_: list[tuple[int, bool]] = []
    for depth, cumulative, name in reversed(rows):
        while open_ and open_[-1][0] >= depth:
            open_.pop()
        inside = bool(open_) and open_[-1][1]
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not inside:
            scipy_us += cumulative
        open_.append((depth, inside or is_scipy))
    return mstop_us * 1e-6, scipy_us * 1e-6


def _stages(tr: Tracer, tally: w.Tally) -> dict[str, float]:
    """The n=40 ladder, stage by stage, with a span on each part."""
    model = w.REF_MODEL
    exps = derive_exponents(model)
    b, beta = exps.b, exps.beta
    x_hat = beta / (beta - 1.0) * model.strike
    g = call_payoff(model.strike)
    x1, v1, h1 = solve_single(model)
    xs, cs, vs, hs, ds = [x1], [(x1 - model.strike) / x1**b], [v1], [h1], []
    for i in range(2, STAGE_RIGHTS + 1):
        with tr.span("finite.stage"):
            with tr.span("finite.delta"):
                d = delta(model, hs[-1], xs[-1])
            with tr.span("finite.continuation_value"):
                with tr.span("powerfn.resolvent_apply"):
                    rv = resolvent_apply(vs[-1], model.r + model.lam, model)
                with tr.span("powerfn.combine"):
                    h_i = combine(g, rv, 1.0, model.lam)
            with tr.span("finite.solve_threshold"):
                x_i = solve_threshold(model, d)
            with tr.span("finite.assemble"):
                c_i = h_i(x_i) / x_i**b
                below = PiecewisePowerSum((x_i,), ((PowerTerm(c_i, b),), ()))
                above = _truncate_below(h_i, x_i)
                with tr.span("powerfn.combine"):
                    v_i = combine(below, above)
        ds.append(d)
        xs.append(x_i)
        cs.append(c_i)
        vs.append(v_i)
        hs.append(h_i)
    ladder = ThresholdLadder(
        model, exps, STAGE_RIGHTS, tuple(xs), tuple(cs), tuple(vs), tuple(hs), tuple(ds)
    )

    def invariants() -> bool:
        with tr.span("finite.invariants"):
            _assert_invariants(ladder, x_hat)
        return True

    tally.timed("invariants", invariants, lambda ok: ok)
    # The rebuilt H^40 must be the one continuation_value gives.
    h_check = continuation_value(model, vs[-2])
    grid = np.geomspace(x_hat, 2.0 * x1, 7)
    tally.timed(
        "stages",
        lambda: ladder,
        lambda lad: w.thresholds_ok(lad.thresholds[:5], 5)
        and len(lad.thresholds) == STAGE_RIGHTS
        and bool(np.array_equal(h_check.evaluate_many(grid), hs[-1].evaluate_many(grid))),
    )
    v40 = vs[-1].to_json_dict()
    out = {
        f"finite.{part}_s": tr.total(f"finite.{part}")
        for part in ("delta", "continuation_value", "solve_threshold", "assemble", "invariants")
    }
    out["finite.stage_last_s"] = tr.durations("finite.stage")[-1]
    out["powerfn.terms.n40"] = sum(len(p) for p in v40["pieces"])
    out["powerfn.pieces.n40"] = len(v40["pieces"])
    out["powerfn.max_log_power.n40"] = max(
        t.get("logpow", 0) for p in v40["pieces"] for t in p
    )
    return out


def _median_of(tr: Tracer, tally: w.Tally, name: str, runs: int, run, check) -> float:
    def spanned():
        with tr.span(name):
            return run()

    for _ in range(runs):
        tally.timed(name, spanned, check)
    return statistics.median(tr.durations(name)[-runs:])


def probe(tr: Tracer, tally: w.Tally) -> dict[str, float]:
    """Run the fixed per-layer work under `tr`; returns the per-layer
    metrics (without trace.overhead_ratio)."""
    model = w.REF_MODEL
    env = w.child_env()
    out: dict[str, float] = {}

    with tr.span("import.importtime"):
        times = [_importtime(env, tally) for _ in range(IMPORT_RUNS)]
    out["import.mstop_cli_s"] = statistics.median(t[0] for t in times)
    out["import.scipy_s"] = statistics.median(t[1] for t in times)

    batches = []
    for _ in range(5):
        with tr.span("model.derive_exponents"):
            start = time.perf_counter()
            for _ in range(1000):
                derive_exponents(model)
            batches.append((time.perf_counter() - start) / 1000)
    out["model.derive_exponents_us"] = statistics.median(batches) * 1e6

    out.update(_stages(tr, tally))
    out["powerfn.resolvent_apply_s"] = tr.total("powerfn.resolvent_apply")
    out["powerfn.combine_s"] = tr.total("powerfn.combine")

    lad20 = solve_ladder(model, 20)
    out["powerfn.terms.n20"] = sum(len(p) for p in lad20.values[-1].to_json_dict()["pieces"])
    grid = np.exp(np.random.default_rng(0).uniform(np.log(0.2), np.log(20.0), w.EVAL_POINTS))

    def evaluate():
        return [v.evaluate_many(grid) for v in lad20.values]

    out["powerfn.evaluate_many_s"] = _median_of(
        tr, tally, "powerfn.evaluate_many", 3, evaluate, w.values_ok
    )

    out["infinite.solve_infinite_s"] = _median_of(
        tr,
        tally,
        "infinite.solve_infinite",
        10,
        lambda: solve_infinite(model),
        lambda sol: abs(sol.x_hat_inf - w.X_HAT_INF) <= 1e-12,
    )

    solve = ["solve", "--rights", "5"]
    curve = ["curve", "--rights", "5", "--grid", w.CURVE_GRID]
    out["cli.solve_inproc_s"] = _median_of(
        tr, tally, "cli.main", 5, lambda: w.cli_inproc(solve), w.solve_output_ok
    )
    out["cli.curve_inproc_s"] = _median_of(
        tr, tally, "cli.main", 5, lambda: w.cli_inproc(curve), w.curve_output_ok
    )

    lad5 = solve_ladder(model, 5)
    evals = 0
    for v in lad5.values:
        with tr.span("powerfn.resolvent_apply"):
            rv = resolvent_apply(v, w.RL, model)
        for x in QUAD_GRID:
            counted = w.CountingCallable(v)
            alg = rv(float(x))
            tally.timed(
                "quad",
                lambda: _spanned(tr, "resolvent_numeric.quad_resolvent",
                                 quad_resolvent, counted, w.RL, float(x), model),
                lambda q: abs(alg - q) <= w.QUAD_REL_TOL * max(1e-9, abs(q)),
            )
            evals += counted.calls
    quad_ms = tr.durations("resolvent_numeric.quad_resolvent")
    out["resolvent_numeric.quad_call_ms"] = statistics.median(quad_ms) * 1e3
    out["resolvent_numeric.integrand_evals"] = evals / len(quad_ms)

    base = PolicySpec(thresholds=lad5.thresholds, x0=2.0)
    out["mc.block_ms"] = 1e3 * _median_of(
        tr,
        tally,
        "mc.simulate_policy",
        BLOCK_RUNS,
        lambda: simulate_policy(model, base, BLOCK_PATHS, 0),
        lambda est: est.n_paths == BLOCK_PATHS,
    )
    scan = tally.timed(
        "scan",
        lambda: _spanned(tr, "mc.policy_dominance_scan", policy_dominance_scan,
                         model, lad5.thresholds, 2.0, 0.05, w.SCAN_PATHS, 0),
        lambda rep: rep["base_dominates"],
    )
    singles = 0.0
    policies = [lad5.thresholds] + [
        tuple(v["threshold"] if j + 1 == v["index"] else t for j, t in enumerate(lad5.thresholds))
        for v in (scan["variants"] if scan else ())
    ]
    for thresholds in policies:
        policy = PolicySpec(thresholds=thresholds, x0=2.0)
        tally.timed(
            "single",
            lambda: _spanned(tr, "mc.simulate_policy", simulate_policy,
                             model, policy, w.SCAN_PATHS, 0),
            lambda est: est.n_paths == w.SCAN_PATHS,
        )
        singles += tally.last("single")
    out["mc.scan_over_single"] = tr.durations("mc.policy_dominance_scan")[-1] / singles
    out["mc.paths_total"] = BLOCK_RUNS * BLOCK_PATHS + 2 * len(policies) * w.SCAN_PATHS

    layers = tr.self_time_by_layer()
    for layer in PER_LAYER_SELF:
        out[f"self.{layer}_s"] = layers.get(layer, 0.0)
    return out


def _spanned(tr: Tracer, name: str, fn, *args):
    with tr.span(name):
        return fn(*args)
