"""Workloads of the mstop benchmark: inputs, timed operations, output checks.

Every workload is a closed loop with one client (this process) and
workers=1: the next operation starts only when the previous one has
finished.  Each operation's output is checked after its timer stops, and
every failed or incorrect operation counts against `error_rate`.

The end-to-end metric names in BENCHMARK.json are shared by all workloads,
so each workload reports its own metrics under the slots `op1_s`..`op5_s`
(always a time in seconds, lower is better); `SLOTS` in run.py and the
report lines name what each slot holds per workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from mstop.cli import main as cli_main
from mstop.finite import solve_ladder
from mstop.mc import (
    PolicySpec,
    policy_dominance_scan,
    sample_first_passage,
    simulate_policy,
)
from mstop.model import GbmModel
from mstop.powerfn import PiecewisePowerSum, PowerTerm, resolvent_apply
from mstop.resolvent_numeric import quad_resolvent

from spans import Tracer

SRC = Path(__file__).resolve().parents[1] / "src"

REF_MODEL = GbmModel(mu=0.008, sigma=0.125, r=0.05, lam=0.1, strike=2.0)
RL = REF_MODEL.r + REF_MODEL.lam

# Frozen oracle values for the reference model.  They were derived
# independently of the package (separate algebra, quadrature and exact
# Monte Carlo) and are the same anchors the test suite holds; the benchmark
# keeps its own copy so that it checks against values, not against itself.
THRESHOLDS_N5 = (
    3.317652748688079,
    3.0798801239994313,
    2.9341372905279126,
    2.8362727075315703,
    2.767965460527415,
)
X_HAT_INF = 2.5935075805113605
V5_AT_2 = 1.2263690819159574
B_EXPONENT = 2.5178505884735567
THRESHOLD_TOL = 5e-10
QUAD_REL_TOL = 1e-6

# MC gates are 3- and 4-standard-error tests, which a correct program fails
# on about 0.3% of seeds by chance.  MC seeds are therefore the workload seed
# modulo 40; every MC seed in 0..39 passes every MC gate on the unchanged
# package, so a gate that trips signals a real change in the estimates.
MC_SEEDS = 40
MC_PATHS = 1_000_000
SCAN_PATHS = 200_000
SCAN_POLICIES = 11  # base policy plus +/-5% on each of 5 thresholds

CLI_ENTRY = "import sys; from mstop.cli import main; sys.exit(main())"
CURVE_GRID = "0.5:10:2000"
EVAL_POINTS = 100_000
EVAL_RIGHTS = 20
ORACLE_GRID = np.geomspace(0.3, 15.0, 20)
ORACLE_RANDOM = 45
ALGEBRA_REPEATS = 5  # the algebra side takes ~0.15 ms, so it is timed 5 times


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's `src` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_python(args: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=150
    )


def cli_subprocess(argv: list[str], env: dict[str, str]) -> tuple[int, str]:
    """`mstop <argv>` in a fresh interpreter, as the console script runs it."""
    proc = run_python(["-c", CLI_ENTRY, *argv], env)
    return proc.returncode, proc.stdout


def cli_inproc(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue()


class CountingCallable:
    """Wraps the integrand callable handed to quad_resolvent and counts its
    evaluations."""

    def __init__(self, f: Callable[[float], float]) -> None:
        self.f = f
        self.calls = 0

    def __call__(self, y: float) -> float:
        self.calls += 1
        return self.f(y)


def random_power_sum(rng: np.random.Generator) -> PiecewisePowerSum:
    """Random power sum admissible for R_{r+lam} under the reference model:
    up to 2 breakpoints in (0.5, 5), up to 2 terms per piece, exponents in
    (-2, 2.2), which keep clear of every root of theta(p) = r + lam."""
    n_bp = int(rng.integers(0, 3))
    bps = np.sort(rng.uniform(0.5, 5.0, n_bp))
    pieces = []
    for _ in range(n_bp + 1):
        n_terms = int(rng.integers(1, 3))
        pieces.append(
            tuple(
                PowerTerm(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.2)))
                for _ in range(n_terms)
            )
        )
    return PiecewisePowerSum(tuple(float(x) for x in bps), tuple(pieces))


# -- output checks --------------------------------------------------------------


def thresholds_ok(xs: tuple[float, ...] | list[float], n: int) -> bool:
    return len(xs) == n and all(
        abs(x - want) <= THRESHOLD_TOL for x, want in zip(xs, THRESHOLDS_N5)
    )


def solve_output_ok(result: tuple[int, str]) -> bool:
    code, out = result
    if code != 0:
        return False
    report = json.loads(out)
    values = report["values_at_x0"]
    return thresholds_ok(report["thresholds"], 5) and all(
        b >= a - 1e-9 for a, b in zip(values, values[1:])
    )


def curve_output_ok(result: tuple[int, str]) -> bool:
    """2000 finite rows on an increasing x grid, with V1..V5, Vinf
    nondecreasing in the number of rights i."""
    code, out = result
    lines = out.strip().split("\n")
    if code != 0 or lines[0] != "x,g,V1,V2,V3,V4,V5,Vinf" or len(lines) != 2001:
        return False
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return bool(
        rows.shape == (2000, 8)
        and np.all(np.isfinite(rows))
        and np.all(np.diff(rows[:, 0]) > 0.0)
        and np.all(np.diff(rows[:, 2:], axis=1) >= -1e-9)
    )


def values_ok(values: list[np.ndarray]) -> bool:
    """Finite, and V^{i+1} >= V^i pointwise."""
    a = np.array(values)
    slack = 1e-9 * np.maximum(1.0, np.abs(a[:-1]))
    return bool(np.all(np.isfinite(a)) and np.all(np.diff(a, axis=0) >= -slack))


def same_as_first(state: dict[str, float], key: str, value: float) -> bool:
    """MC is bit-identical for a given seed: every repeat, in this process
    or another, must reproduce the first value exactly."""
    return state.setdefault(key, value) == value


# -- measurement loop -------------------------------------------------------------


@dataclass
class Task:
    name: str
    share: float  # share of the run's seconds spent on this operation
    min_n: int  # samples taken even after the share is used up
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    kernel: str = "py"  # calibration kernel closest to the operation


@dataclass
class Tally:
    """Samples, failures and calibration blocks of one measurement loop.

    A calibration block holds, for some kernels, the fastest of a few runs
    of each; every sample remembers how many blocks preceded it, so it can
    be divided by the kernel's time just before and just after it."""

    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    blocks: list[dict[str, float]] = field(default_factory=list)
    block_of: dict[str, list[int]] = field(default_factory=dict)
    kernel_of: dict[str, str] = field(default_factory=dict)
    calibrated: float = -math.inf

    def timed(
        self,
        name: str,
        run: Callable[[], Any],
        check: Callable[[Any], bool],
        kernel: str = "py",
    ):
        """Time one operation, then check its output; returns the output,
        or None when the operation raised."""
        self.attempted += 1
        start = time.perf_counter()
        result = None
        try:
            result = run()
            elapsed = time.perf_counter() - start
            ok = bool(check(result))
            if not ok:
                self.errors.append(f"{name}: output check failed")
        except Exception as exc:  # a failed operation is counted; the loop goes on
            elapsed = time.perf_counter() - start
            ok = False
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        if not ok:
            self.failed += 1
        self.samples.setdefault(name, []).append(elapsed)
        self.block_of.setdefault(name, []).append(len(self.blocks))
        self.kernel_of[name] = kernel
        return result

    def last(self, name: str) -> float:
        return self.samples[name][-1]

    def calibrate(self, kernels: tuple[str, ...] = ("py", "np"), force: bool = False) -> None:
        """Add a calibration block for `kernels`; unless forced, at most one
        every CALIBRATE_EVERY seconds."""
        if not force and time.perf_counter() - self.calibrated < CALIBRATE_EVERY:
            return
        block = {}
        for kind in kernels:
            kernel, repeats = CALIBRATIONS[kind]
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - start)
            block[kind] = min(times)
        self.blocks.append(block)
        self.calibrated = time.perf_counter()

    def calibrated_samples(self, name: str) -> list[float]:
        """Samples of `name` in seconds at the reference speed: each divided
        by the mean time of its kernel in the blocks just before and just
        after it, times the kernel's reference time."""
        kind = self.kernel_of[name]
        out = []
        for t, n in zip(self.samples[name], self.block_of[name]):
            before = [b[kind] for b in self.blocks[:n] if kind in b][-1:]
            after = [b[kind] for b in self.blocks[n:] if kind in b][:1]
            around = before + after
            out.append(t * CAL_REF[kind] * len(around) / sum(around))
        return out


def _calibrate_python() -> float:
    """Fixed pure-Python work: tuple-keyed dict updates and float powers."""
    d: dict = {}
    acc = 0.0
    for i in range(3000):
        k = (0.1 * (i % 37), i % 5)
        d[k] = d.get(k, 0.0) + 1.0000001 * i
        acc += math.log(1.0 + i) * (i * 0.5) ** 1.5
    return acc


def _calibrate_numpy() -> float:
    """Fixed numpy work: normal draws and elementwise transcendentals."""
    z = np.random.default_rng(0).standard_normal(32768)
    return float(np.sum(np.exp(0.1 * z) * np.sqrt(np.abs(z)) + np.log1p(z * z)))


def _calibrate_startup() -> None:
    """A bare interpreter start, the part every CLI call pays."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


# Calibration kernels (function, runs per block), with their fastest times on
# the reference machine: 2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.7, numpy
# 2.4.6.  Operations in a child interpreter are calibrated by "sp", which is
# taken before each of them; "py" and "np" are taken every CALIBRATE_EVERY s.
CALIBRATIONS = {
    "py": (_calibrate_python, 5),
    "np": (_calibrate_numpy, 5),
    "sp": (_calibrate_startup, 3),
}
CAL_REF = {"py": 1.40e-3, "np": 0.79e-3, "sp": 0.045}
CALIBRATE_EVERY = 0.2


def time_share(tasks: list[Task], seconds: float, tally: Tally) -> None:
    """Run the task that has used the smallest fraction of its share next,
    until every share is used and every task has min_n samples.  A hard stop
    at 2.5x the run length bounds the run when the program gets slower."""
    used = {t.name: 0.0 for t in tasks}
    stop = time.perf_counter() + 2.5 * seconds
    while time.perf_counter() < stop:
        due = [
            t
            for t in tasks
            if used[t.name] < t.share * seconds
            or len(tally.samples.get(t.name, ())) < t.min_n
        ]
        if not due:
            break
        task = min(due, key=lambda t: used[t.name] / (t.share * seconds))
        tally.calibrate()
        if task.kernel == "sp":
            tally.calibrate(("sp",), force=True)
        tally.timed(task.name, task.run, task.check, task.kernel)
        used[task.name] += tally.last(task.name)
    tally.calibrate(tuple(CALIBRATIONS), force=True)


# -- workloads --------------------------------------------------------------------
#
# build_<w>(seed) makes the inputs (timed as set-up in a fresh process);
# run_<w>(inputs, seconds, tracer) measures and returns the tally.


def build_cli(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    x0 = repr(round(float(rng.uniform(1.0, 4.0)), 6))
    return {
        "solve": ["solve", "--rights", "5", "--x0", x0],
        "curve": ["curve", "--rights", "5", "--grid", CURVE_GRID],
    }


def run_cli(inputs: dict, seconds: float, tracer: Tracer) -> Tally:
    env = child_env()
    solve_argv, curve_argv = inputs["solve"], inputs["curve"]
    # Untimed warm-up: fills the bytecode cache before any timed start-up.
    cli_subprocess(solve_argv, env)

    def sub(argv: list[str]) -> tuple[int, str]:
        with tracer.span("cli.subprocess"):
            return cli_subprocess(argv, env)

    def startup() -> int:
        with tracer.span("cli.subprocess"):
            return run_python(["-c", "import mstop.cli"], env).returncode

    def inproc(argv: list[str]) -> tuple[int, str]:
        with tracer.span("cli.main"):
            return cli_inproc(argv)

    tally = Tally()
    time_share(
        [
            Task("solve", 0.3, 5, lambda: sub(solve_argv), solve_output_ok, "sp"),
            Task("curve", 0.3, 5, lambda: sub(curve_argv), curve_output_ok, "sp"),
            Task("startup", 0.2, 5, startup, lambda code: code == 0, "sp"),
            Task("solve_inproc", 0.1, 20, lambda: inproc(solve_argv), solve_output_ok),
            Task("curve_inproc", 0.1, 20, lambda: inproc(curve_argv), curve_output_ok),
        ],
        seconds,
        tally,
    )
    return tally


def build_ladder(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    grid = np.exp(rng.uniform(math.log(0.2), math.log(20.0), EVAL_POINTS))
    return {"grid": grid, "values": solve_ladder(REF_MODEL, EVAL_RIGHTS).values}


def run_ladder(inputs: dict, seconds: float, tracer: Tracer) -> Tally:
    grid, values = inputs["grid"], inputs["values"]

    def ladder(n: int):
        with tracer.span("finite.solve_ladder"):
            return solve_ladder(REF_MODEL, n)

    def ladder_ok(n: int) -> Callable[[Any], bool]:
        def check(lad) -> bool:
            ok = thresholds_ok(lad.thresholds, n)
            if n == 60:
                ok = ok and 0.0 < lad.thresholds[-1] - X_HAT_INF < 1e-6
            return ok

        return check

    def evaluate() -> list[np.ndarray]:
        out = []
        for v in values:
            with tracer.span("powerfn.evaluate_many"):
                out.append(v.evaluate_many(grid))
        return out

    tally = Tally()
    time_share(
        [
            Task("n5", 0.04, 20, lambda: ladder(5), ladder_ok(5)),
            Task("n20", 0.08, 5, lambda: ladder(20), ladder_ok(20)),
            Task("n40", 0.25, 6, lambda: ladder(40), ladder_ok(40)),
            Task("n60", 0.53, 4, lambda: ladder(60), ladder_ok(60)),
            Task("eval", 0.1, 5, evaluate, values_ok, "np"),
        ],
        seconds,
        tally,
    )
    return tally


def build_mc(seed: int) -> dict:
    thresholds = solve_ladder(REF_MODEL, 5).thresholds
    return {
        "thresholds": thresholds,
        "mc_seed": seed % MC_SEEDS,
        "fp_x": np.full(MC_PATHS, 2.0),
        "fp_level": np.full(MC_PATHS, thresholds[0]),
    }


def run_mc(inputs: dict, seconds: float, tracer: Tracer) -> Tally:
    thresholds, seed = inputs["thresholds"], inputs["mc_seed"]
    policy = PolicySpec(thresholds=thresholds, x0=2.0)
    env = child_env()
    first: dict[str, float] = {}

    def simulate(n_paths: int):
        with tracer.span("mc.simulate_policy"):
            return simulate_policy(REF_MODEL, policy, n_paths, seed)

    def simulate_ok(est) -> bool:
        z = (est.mean - V5_AT_2) / est.std_err
        return abs(z) <= 3.0 and same_as_first(first, "mean_1m", est.mean)

    def scan() -> dict:
        with tracer.span("mc.policy_dominance_scan"):
            return policy_dominance_scan(
                REF_MODEL, thresholds, 2.0, 0.05, SCAN_PATHS, seed
            )

    def scan_ok(report: dict) -> bool:
        return (
            report["base_dominates"]
            and len(report["variants"]) == SCAN_POLICIES - 1
            and same_as_first(first, "mean_200k", report["base_mean"])
        )

    def verify() -> tuple[int, str]:
        argv = ["verify", "--rights", "5", "--paths", str(MC_PATHS), "--seed", str(seed)]
        with tracer.span("cli.subprocess"):
            return cli_subprocess(argv, env)

    def verify_ok(result: tuple[int, str]) -> bool:
        code, out = result
        report = json.loads(out)
        return (
            code == 0
            and report["pass"]
            and abs(report["analytic"] - V5_AT_2) <= 1e-9
            and same_as_first(first, "mean_1m", report["mc_mean"])
        )

    def first_passage() -> np.ndarray:
        rng = np.random.default_rng(seed)
        with tracer.span("mc.sample_first_passage"):
            return sample_first_passage(inputs["fp_x"], inputs["fp_level"], REF_MODEL, rng)

    def first_passage_ok(tau: np.ndarray) -> bool:
        # Laplace transform: E[exp(-r tau)] = (x / level)^b.
        disc = np.exp(-REF_MODEL.r * tau)
        want = (2.0 / thresholds[0]) ** B_EXPONENT
        z = (disc.mean() - want) / (disc.std(ddof=1) / math.sqrt(tau.size))
        return abs(z) <= 4.0

    tally = Tally()
    time_share(
        [
            Task("simulate", 0.25, 3, lambda: simulate(MC_PATHS), simulate_ok, "np"),
            Task("scan", 0.25, 3, scan, scan_ok, "np"),
            Task("verify", 0.3, 3, verify, verify_ok, "sp"),
            Task(
                "simulate_200k",
                0.1,
                3,
                lambda: simulate(SCAN_PATHS),
                lambda est: same_as_first(first, "mean_200k", est.mean),
                "np",
            ),
            Task("first_passage", 0.1, 3, first_passage, first_passage_ok, "np"),
        ],
        seconds,
        tally,
    )
    return tally


def build_oracle(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "functions": [("quad_ladder", v) for v in solve_ladder(REF_MODEL, 5).values]
        + [("quad_random", random_power_sum(rng)) for _ in range(ORACLE_RANDOM)]
    }


def run_oracle(inputs: dict, seconds: float, tracer: Tracer) -> Tally:
    """Criterion-3 style cross-check: quadrature against the algebra for
    V^1..V^5 and seeded random power sums, 20 grid points each.  Rounds over
    the same functions repeat until the run length is used (at least two,
    so every input is measured more than once)."""
    tally = Tally()

    def algebra(f: PiecewisePowerSum) -> list[float]:
        with tracer.span("powerfn.resolvent_apply"):
            rf = resolvent_apply(f, RL, REF_MODEL)
        return [rf(float(x)) for x in ORACLE_GRID]

    def quad(f: Callable[[float], float], x: float) -> float:
        if tracer.enabled:
            f = CountingCallable(f)
        with tracer.span("resolvent_numeric.quad_resolvent"):
            return quad_resolvent(f, RL, x, REF_MODEL)

    def agrees(alg: float) -> Callable[[float], bool]:
        return lambda q: abs(alg - q) <= QUAD_REL_TOL * max(1e-9, abs(q))

    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 2 or time.perf_counter() < deadline:
        for j, (kind, f) in enumerate(inputs["functions"]):
            if rounds >= 2 and time.perf_counter() >= deadline:
                break
            tally.calibrate()
            for _ in range(ALGEBRA_REPEATS):
                alg = tally.timed(
                    f"algebra/{j}", lambda: algebra(f), lambda v: all(map(math.isfinite, v))
                )
            if alg is None:
                continue
            for i, (x, a) in enumerate(zip(ORACLE_GRID, alg)):
                tally.timed(f"{kind}/{j}.{i}", lambda: quad(f, float(x)), agrees(a))
        rounds += 1
    tally.calibrate(tuple(CALIBRATIONS), force=True)
    return tally


WORKLOADS = {
    "cli": (build_cli, run_cli),
    "ladder": (build_ladder, run_ladder),
    "mc": (build_mc, run_mc),
    "oracle": (build_oracle, run_oracle),
}
