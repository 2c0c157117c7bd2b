"""mstop benchmark: one workload per run, closed loop, one client, workers=1.

Run from the root of a checkout:

    python3 bench/run.py --workload {cli,ladder,mc,oracle} --seed N \
        --seconds S --trace {0,1}

`--trace 0` measures the end-to-end metrics with tracing off.  `--trace 1`
runs the workload for half the time untraced and half traced (their ratio is
`trace.overhead_ratio`), then the fixed per-layer probe of layers.py.  The
report lines name every metric with its unit, sample count and the time its
samples took; the last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`, whose names and units are those listed
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 3
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.WORKLOADS[sys.argv[2]][0](int(sys.argv[3]))"
)

# What each end-to-end slot holds per workload: (slot, name, display unit,
# operations pooled, statistic over inputs).
#
# The machine the baseline was recorded on is shared, and its speed wanders
# by up to 2x over seconds and over whole runs, which moves raw medians
# between runs by 20-40%.  So every repeat of an operation is calibrated:
# divided by the time of a fixed kernel measured just before and just after
# it and multiplied by that kernel's time at the reference speed (see
# workloads.CALIBRATIONS; the kernels are benchmark code and do not change
# with the package).  An input's cost is the median over its repeats of the
# calibrated times.  Only the oracle has many inputs per operation; its
# slots take the median or the 99th percentile over per-input costs.
SLOTS = {
    "cli": [
        ("op1_s", "cli_solve_s", "s", ("solve",), "p50"),
        ("op2_s", "cli_curve_s", "s", ("curve",), "p50"),
        ("op3_s", "cli_startup_s", "s", ("startup",), "p50"),
        ("op4_s", "cli_solve_inproc_s", "s", ("solve_inproc",), "p50"),
        ("op5_s", "cli_curve_inproc_s", "s", ("curve_inproc",), "p50"),
    ],
    "ladder": [
        ("op1_s", "ladder_n5_s", "s", ("n5",), "p50"),
        ("op2_s", "ladder_n20_s", "s", ("n20",), "p50"),
        ("op3_s", "ladder_n40_s", "s", ("n40",), "p50"),
        ("op4_s", "ladder_n60_s", "s", ("n60",), "p50"),
        ("op5_s", "eval_mpts_per_s", "Mpts/s", ("eval",), "p50"),
    ],
    "mc": [
        ("op1_s", "mc_mpaths_per_s", "Mpaths/s", ("simulate",), "p50"),
        ("op2_s", "scan_s", "s", ("scan",), "p50"),
        ("op3_s", "cli_verify_s", "s", ("verify",), "p50"),
        ("op4_s", "mc_200k_s", "s", ("simulate_200k",), "p50"),
        ("op5_s", "first_passage_s", "s", ("first_passage",), "p50"),
    ],
    "oracle": [
        ("op1_s", "quad_call_p50_ms", "ms", ("quad_ladder", "quad_random"), "p50"),
        ("op2_s", "quad_call_p99_ms", "ms", ("quad_ladder", "quad_random"), "p99"),
        ("op3_s", "algebra_p50_ms", "ms", ("algebra",), "p50"),
        ("op4_s", "quad_call_ladder_p50_ms", "ms", ("quad_ladder",), "p50"),
        ("op5_s", "quad_call_random_p50_ms", "ms", ("quad_random",), "p50"),
    ],
}

STATISTICS = {
    "p50": statistics.median,
    "p99": lambda v: statistics.quantiles(v, n=100, method="inclusive")[98],
}


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (args.seed >= 0 and args.seconds > 0):
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment(args: argparse.Namespace, cpus: set[int]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mstop").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def slot_rows(workload: str, tally) -> list[tuple]:
    """(slot, name, slot value in s, shown value, unit, inputs, repeats,
    shown value without calibration, seconds) per slot.  Sample names are
    `<operation>` or `<operation>/<input>`."""
    import workloads as w

    show = {
        "s": lambda t: t,
        "ms": lambda t: 1e3 * t,
        "Mpts/s": lambda t: w.EVAL_RIGHTS * w.EVAL_POINTS / 1e6 / t,
        "Mpaths/s": lambda t: w.MC_PATHS / 1e6 / t,
    }
    rows = []
    for slot, name, unit, ops, stat in SLOTS[workload]:
        keys = [k for k in tally.samples if k.split("/")[0] in ops]
        value = STATISTICS[stat](
            [statistics.median(tally.calibrated_samples(k)) for k in keys]
        )
        raw = STATISTICS[stat]([statistics.median(tally.samples[k]) for k in keys])
        repeats = [t for k in keys for t in tally.samples[k]]
        rows.append((
            slot, name, value, show[unit](value), unit, len(keys), len(repeats),
            show[unit](raw), sum(repeats),
        ))
    return rows


def measure_setup(workload: str, seed: int, tally) -> list[float]:
    """Time of a fresh interpreter importing mstop and building the
    workload's inputs, calibrated like every child interpreter."""
    import workloads as w

    env = w.child_env()
    args = ["-c", SETUP_CODE, str(BENCH), workload, str(seed)]
    for _ in range(SETUP_RUNS):
        tally.calibrate(("sp",), force=True)
        tally.timed(
            "setup", lambda: w.run_python(args, env), lambda p: p.returncode == 0, "sp"
        )
    tally.calibrate(("sp",), force=True)
    return tally.calibrated_samples("setup")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    args = parse_args()
    if not (SRC / "mstop" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no mstop sources under {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # One CPU for the benchmark and every process it starts, so calibration
    # and operations see the same processor.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    sys.path.insert(0, str(SRC))
    import workloads as w
    from spans import Tracer

    build, run = w.WORKLOADS[args.workload]
    inputs = build(args.seed)
    tally = w.Tally()
    print(f"# mstop bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment(args, cpus), sort_keys=True))
    lines: list[str] = []

    if args.trace == 0:
        setup = measure_setup(args.workload, args.seed, tally)
        run_tally = run(inputs, args.seconds, Tracer(False))
        metrics = {}
        for slot, name, value, shown, unit, n_inputs, n, raw, spent in slot_rows(
            args.workload, run_tally
        ):
            metrics[slot] = value
            lines.append(
                f"{name:<26} {shown:<14.9g} {unit:<9} inputs={n_inputs:<5} "
                f"repeats={n:<6} t={spent:<7.2f}s  uncalibrated={raw:.6g}  [{slot}]"
            )
        for kind, ref in w.CAL_REF.items():
            cal = [b[kind] for b in run_tally.blocks if kind in b]
            lines.append(f"# calibration {kind}: median {statistics.median(cal):.6g} s "
                         f"over {len(cal)} blocks, reference {ref:g} s")
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = peak_rss_mb()
        lines.append(
            f"{'setup_s':<26} {metrics['setup_s']:<14.9g} {'s':<9} repeats={len(setup)}  "
            f"uncalibrated={statistics.median(tally.samples['setup']):.6g}"
        )
        lines.append(f"{'peak_rss_mb':<26} {metrics['peak_rss_mb']:<22.9g} {'MB':<9} n=1")
        listed = spec["end_to_end"]
    else:
        plain = run(inputs, args.seconds / 2, Tracer(False))
        traced = run(inputs, args.seconds / 2, Tracer(True))
        ratios = [
            t[2] / p[2]
            for p, t in zip(slot_rows(args.workload, plain),
                            slot_rows(args.workload, traced))
        ]
        run_tally = w.Tally()
        for part in (plain, traced):
            run_tally.attempted += part.attempted
            run_tally.failed += part.failed
            run_tally.errors += part.errors
        import layers  # the per-layer probe reaches into finite's helpers

        metrics = layers.probe(Tracer(True), tally)
        metrics["trace.overhead_ratio"] = statistics.median(ratios)
        listed = spec["per_layer"]

    attempted = tally.attempted + run_tally.attempted
    failed = tally.failed + run_tally.failed
    if set(metrics) != {m["name"] for m in listed}:
        sys.stderr.write(f"bench: metrics {sorted(metrics)} differ from BENCHMARK.json\n")
        return 1
    if args.trace == 1:
        lines += [f"{m['name']:<36} {metrics[m['name']]:<22.9g} {m['unit']}" for m in listed]
    lines.append(f"{'error_rate':<26} {failed / attempted:<22.9g} {'1':<9} "
                 f"failed={failed} attempted={attempted}")
    print("\n".join(lines))
    for err in (tally.errors + run_tally.errors)[:20]:
        sys.stderr.write(f"bench: {err}\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
