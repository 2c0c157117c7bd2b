"""Command-line front end.

Commands:
  solve   exponents, thresholds, and values for N rights
  table   reproduce the reference threshold table for the published example
  verify  Monte Carlo check of the analytic value (optionally a dominance scan)
  curve   export value-function curves as CSV

Model parameters come from flags, falling back to a config file (--config,
before the subcommand or after solve/verify/curve, or the MSTOP_CONFIG
environment variable), falling back to the reference configuration.  The
file holds `key = value` lines, split at the first '=' and stripped, whose
keys are the long flag names as written; blank lines and lines that start
with '#' or ';' are comments, and nothing is interpolated.  A header line
('[...'), a line without '=', an unknown or repeated key, a value float()
rejects, an empty --config path or a non-finite parameter is bad input; an
empty MSTOP_CONFIG is unset.  table runs on the reference configuration and
reads no config, neither --config nor MSTOP_CONFIG.  --rights is between 1
and MAX_RIGHTS (100); a curve has at most MAX_CURVE_VALUES values.  Exit
codes: 0 ok, 2 bad input (an unwritable --output too), 3 solver failure, 4
verification failure, 141 (128 + SIGPIPE) when the reader of stdout closed
it early, as `| head` does.

Only curve and verify load numpy (and the modules that need it), inside the
commands: solve and table run on the pure-Python algebra and start without
it.  No command loads the standard library's dataclasses module (nor the
inspect it imports): the package's records are named tuples.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterable, Sequence

from mstop.finite import solve_ladder
from mstop.infinite import solve_infinite, x_hat_infinite
from mstop.model import GbmModel, require_valid
from mstop.powerfn import call_payoff

# The model parameters, by flag and config key: (GbmModel field, help,
# reference value).  The reference values are the published worked example.
MODEL_PARAMS = {
    "mu": ("mu", "drift rate", 0.008),
    "sigma": ("sigma", "volatility", 0.125),
    "rate": ("r", "discount rate r", 0.05),
    "lambda": ("lam", "refraction rate", 0.1),
    "strike": ("strike", "call strike K", 2.0),
}

# Published reference thresholds for the table preset (N = 1..5).  Entries
# 3-5 disagree with the exact and the finite-difference solutions of the
# recursion (by 0.037, 0.097 and 0.125); `mstop table` reports them as printed
# and names them in PAPER_TABLE1_ERRATUM (README, "Published table erratum").
PAPER_TABLE1 = (3.317653, 3.079880, 2.971528, 2.738782, 2.643230)
PAPER_TABLE1_ERRATUM = (3, 4, 5)

# Largest --rights the commands accept.  The ladder's cost grows about as
# n^2.2.  On the reference model x*_80 ... x*_100 are not roots but the
# clamp x_hat_inf + BRACKET_EPS of finite.solve_threshold: the gap to
# x_hat_inf falls below 1e-12 there.
MAX_RIGHTS = 100

# Largest CSV `curve` writes, in values: points times the rights + 3 columns.
# Its peak RSS grows by about 15 bytes per value (README's 200 000-point,
# 3-right example: 46 MB for 1.2 M values); a curve at the cap peaks at
# 77-95 MB for 1 to 100 rights.
MAX_CURVE_VALUES = 5_000_000
# Values `curve` formats into one block of text before writing it.
_CURVE_CHUNK_VALUES = 1 << 16

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4
EXIT_BROKEN_PIPE = 141


# -- serialization ------------------------------------------------------------


def _emit(output: str | None, lines: Iterable[str]) -> None:
    """Write each of `lines` and a newline to stdout or, the same bytes, to
    `output`.  The lines are written as they come, not joined, so a
    generator's lines are never all held at once."""
    parts = (part for line in lines for part in (line, "\n"))
    if output is None or output == "-":
        sys.stdout.writelines(parts)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(parts)
        except OSError as exc:
            raise ValueError(f"cannot write output: {exc}") from exc


def _report(args: argparse.Namespace, report: dict, lines: list[str]) -> None:
    """Write `report` as indented JSON or, under --format text, `lines`."""
    if args.format == "text":
        _emit(args.output, lines)
    else:
        _emit(args.output, [json.dumps(report, indent=2)])


def _error(message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": message, "exit_code": code}, indent=2) + "\n")
    return code


# -- configuration ------------------------------------------------------------


def _load_config(path: str | None) -> dict[str, float]:
    """The parameters a config file sets, by flag name (grammar above)."""
    if path == "":
        raise ValueError("--config is empty: give a config file path")
    if path is None:
        # An empty MSTOP_CONFIG means unset.
        path = os.environ.get("MSTOP_CONFIG")
        if not path:
            return {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    values = {}
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line[0] in "#;":
            continue
        at = f"config file {path}, line {number}"
        if line[0] == "[":
            raise ValueError(f"{at} has a section header ({line}): the file is flat")
        key, eq, value = (part.strip() for part in line.partition("="))
        if not (eq and key):
            raise ValueError(f"{at} has parsing errors: {line!r} is not key = value")
        if key not in MODEL_PARAMS:
            raise ValueError(
                f"{at}: unknown config key(s) {key}; "
                f"expected {', '.join(MODEL_PARAMS)}"
            )
        if key in values:
            raise ValueError(f"{at}: config key {key} already exists")
        try:
            values[key] = float(value)
        except ValueError:
            raise ValueError(
                f"{at}: config key {key} is not a number: {value!r}"
            ) from None
    return values


def _model(values: dict[str, float]) -> GbmModel:
    """The model with `values` (by flag name) over the reference values."""
    return GbmModel(
        **{f: values.get(name, ref) for name, (f, _, ref) in MODEL_PARAMS.items()}
    )


def _model_dict(model: GbmModel) -> dict:
    return {name: getattr(model, f) for name, (f, _, _) in MODEL_PARAMS.items()}


def _read_model(args: argparse.Namespace) -> GbmModel:
    """The model a command runs on.  table takes the reference model and reads
    no config; the others take each parameter from its flag, else the config,
    else its reference value, and check it and --rights before any work."""
    if args.command == "table":
        if args.config is not None:
            raise ValueError("table reads no config: it runs on the reference model")
        return _model({})
    values = _load_config(args.config)
    for name in MODEL_PARAMS:
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    model = _model(values)
    require_valid(model, require_positive_net_drift=True)
    if not 1 <= args.rights <= MAX_RIGHTS:
        raise ValueError(
            f"--rights must be between 1 and {MAX_RIGHTS}, got {args.rights}"
        )
    return model


# -- commands -----------------------------------------------------------------


def _check_x0(x0: float) -> None:
    if not (math.isfinite(x0) and x0 > 0.0):
        raise ValueError(f"--x0 must be positive and finite, got {x0}")


def cmd_solve(args: argparse.Namespace, model: GbmModel) -> int:
    _check_x0(args.x0)
    ladder = solve_ladder(model, args.rights)
    exps = ladder.exponents
    inf_sol = solve_infinite(model)
    values = [v(args.x0) for v in ladder.values]
    v_inf_x0 = inf_sol.v_inf(args.x0)
    report = {
        "model": _model_dict(model),
        "exponents": exps._asdict(),
        "x_hat_inf": inf_sol.x_hat_inf,
        "thresholds": list(ladder.thresholds),
        "deltas": list(ladder.deltas),
        "values_at_x0": values,
        "v_inf_at_x0": v_inf_x0,
    }
    lines = [
        f"model: mu={model.mu:.6f} sigma={model.sigma:.6f} r={model.r:.6f} "
        f"lambda={model.lam:.6f} K={model.strike:.6f}",
        f"exponents: b={exps.b:.6f} a={exps.a:.6f} beta={exps.beta:.6f} "
        f"alpha={exps.alpha:.6f} kappa={exps.kappa:.6f} gamma={exps.gamma:.6f}",
        f"x_hat_inf: {inf_sol.x_hat_inf:.6f}",
        "thresholds: " + " ".join(f"{x:.6f}" for x in ladder.thresholds),
        "deltas: " + " ".join(f"{d:.6f}" for d in ladder.deltas),
        f"values at x0={args.x0:.6f}: " + " ".join(f"{v:.6f}" for v in values),
        f"v_inf at x0: {v_inf_x0:.6f}",
    ]
    _report(args, report, lines)
    return EXIT_OK


def cmd_table(args: argparse.Namespace, model: GbmModel) -> int:
    ladder = solve_ladder(model, 5)
    x_hat = x_hat_infinite(model)
    computed = list(ladder.thresholds)
    published = list(PAPER_TABLE1)
    diffs = [abs(c - p) for c, p in zip(computed, published)]
    report = {
        "model": _model_dict(model),
        "preset": "paper-table1",
        "computed": computed,
        "published": published,
        "abs_diff": diffs,
        "published_erratum": list(PAPER_TABLE1_ERRATUM),
        "x_hat_inf": x_hat,
    }
    lines = [
        "i         " + " ".join(f"{i:>10d}" for i in range(1, 6)),
        "computed  " + " ".join(f"{v:10.6f}" for v in computed),
        "published " + " ".join(f"{v:10.6f}" for v in published),
        "abs diff  " + " ".join(f"{v:10.6f}" for v in diffs),
        f"x_hat_inf {x_hat:10.6f}",
        "published rows "
        + ", ".join(map(str, PAPER_TABLE1_ERRATUM))
        + " are an erratum, not the solution of the recursion "
        '(README, "Published table erratum")',
    ]
    _report(args, report, lines)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, model: GbmModel) -> int:
    from mstop.mc import (
        PolicySpec,
        policy_dominance_scan,
        require_perturbation,
        simulate_policy,
    )

    if args.paths < 1000:
        raise ValueError(f"--paths must be >= 1000, got {args.paths}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    _check_x0(args.x0)
    if args.perturb is not None:
        require_perturbation(args.perturb)
    ladder = solve_ladder(model, args.rights)
    analytic = ladder.values[-1](args.x0)
    if args.perturb is None:
        policy = PolicySpec(thresholds=ladder.thresholds, x0=args.x0)
        est = simulate_policy(model, policy, args.paths, args.seed)
        mean, std_err = est.mean, est.std_err
    else:
        # The scan's base is the same walk as simulate_policy with this seed.
        dominance = policy_dominance_scan(
            model, ladder.thresholds, args.x0, args.perturb, args.paths, args.seed
        )
        mean, std_err = dominance["base_mean"], dominance["base_se"]
    # numpy's pairwise sum passes each of the n totals through at most
    # log2 n + 18 roundings (blocks of up to 128 in 8 running sums, a 3-level
    # tree and a rest of up to 7, halved recursively above 128), and the mean
    # divides once more; the totals are nonnegative, so the mean's rounding
    # is at most (log2 n + 19) u mean, u = 2^-53.  Without this term,
    # identical totals whose mean rounds a few ulps off (x0 = 1e160) give a
    # tiny std error and a false fail.
    rounding = (math.log2(args.paths) + 19.0) * sys.float_info.epsilon / 2 * mean
    spread = math.hypot(std_err, rounding)
    z = 0.0 if spread == 0.0 else (mean - analytic) / spread
    passed = abs(z) <= 3.0
    report = {
        "model": _model_dict(model),
        "rights": args.rights,
        "x0": args.x0,
        "analytic": analytic,
        "mc_mean": mean,
        "mc_std_err": std_err,
        "n_paths": args.paths,
        "seed": args.seed,
        "z_score": z,
        "pass": passed,
    }
    lines = [
        f"analytic V^{args.rights}({args.x0:.6f}) = {analytic:.6f}",
        f"mc = {mean:.6f} +- {std_err:.6f} ({args.paths} paths, seed {args.seed})",
        f"z = {z:.6f} -> {'pass' if passed else 'FAIL'}",
    ]
    if args.perturb is not None:
        report["dominance"] = dominance
        lines.append(
            f"dominance scan (+-{args.perturb:.6f}): "
            + ("base dominates" if dominance["base_dominates"] else "VIOLATION")
        )
    _report(args, report, lines)
    # A perturbed policy beating the base fails the check as a bad z does.
    ok = passed and (args.perturb is None or dominance["base_dominates"])
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_curve(args: argparse.Namespace, model: GbmModel) -> int:
    import numpy as np

    try:
        lo_s, hi_s, n_s = args.grid.split(":")
        lo, hi, n_pts = float(lo_s), float(hi_s), int(n_s)
    except (ValueError, AttributeError) as exc:
        raise ValueError(f"bad grid spec {args.grid!r}, expected lo:hi:points") from exc
    if not (lo > 0.0 and hi > lo and math.isfinite(hi) and n_pts >= 2):
        raise ValueError("bad grid spec: need finite 0 < lo < hi and points >= 2")
    n_cols = args.rights + 3
    if n_pts * n_cols > MAX_CURVE_VALUES:
        raise ValueError(
            f"--grid asks for {n_pts} points; with {n_cols} columns at most "
            f"{MAX_CURVE_VALUES // n_cols} fit the {MAX_CURVE_VALUES}-value cap"
        )
    ladder = solve_ladder(model, args.rights)
    inf_sol = solve_infinite(model)
    g = call_payoff(model.strike)
    grid = np.geomspace(lo, hi, n_pts)
    columns = [grid, g.evaluate_many(grid)]
    columns += [v.evaluate_many(grid) for v in ladder.values]
    columns.append(inf_sol.v_inf.evaluate_many(grid))
    header = "x,g," + ",".join(f"V{i}" for i in range(1, args.rights + 1)) + ",Vinf"
    _emit(args.output, _csv_lines(header, columns))
    return EXIT_OK


def _csv_lines(header: str, columns: list) -> Iterable[str]:
    """`header`, then the CSV rows of the arrays `columns`: one block of
    about _CURVE_CHUNK_VALUES values at a time, its rows joined by newlines,
    so the text of only one block is held at once."""
    # One % per row.  %.17g spells a finite float with digits, '.', '+', '-'
    # and 'e' only, so the inf and nan tokens of a block are its non-finite
    # values.
    yield header
    row = ",".join(["%.17g"] * len(columns))
    step = max(1, _CURVE_CHUNK_VALUES // len(columns))
    for s in range(0, columns[0].size, step):
        rows = zip(*[c[s : s + step].tolist() for c in columns])
        block = "\n".join([row % values for values in rows])
        yield block.replace("inf", "Infinity").replace("nan", "NaN")


# -- argument parsing ---------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change
    it."""
    parser = argparse.ArgumentParser(
        prog="mstop",
        description="Optimal multiple stopping with exponential refraction periods.",
    )
    config_help = "key = value config file (or set MSTOP_CONFIG)"
    parser.add_argument("--config", help=config_help)

    # Flags of the commands that take a model, built once and shared.
    # SUPPRESS: a --config given before the subcommand stays in force
    # unless the subcommand is given its own.
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--config", default=argparse.SUPPRESS, help=config_help)
    for name, (_, help_text, _) in MODEL_PARAMS.items():
        model.add_argument(f"--{name}", type=float, help=help_text)
    model.add_argument("--rights", type=int, default=5)

    def add_output(sub: argparse.ArgumentParser, formats: bool = True) -> None:
        if formats:
            sub.add_argument("--format", choices=("json", "text"), default="json")
        sub.add_argument("--output", help="output path (default: stdout)")

    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser(
        "solve", parents=[model], help="solve the threshold ladder"
    )
    add_output(p_solve)
    p_solve.add_argument("--x0", type=float, default=2.0)
    p_solve.set_defaults(func=cmd_solve)

    p_table = subs.add_parser(
        "table", help="reproduce the reference table (reference model only)"
    )
    add_output(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = subs.add_parser(
        "verify", parents=[model], help="Monte Carlo verification"
    )
    add_output(p_verify)
    p_verify.add_argument("--paths", type=int, default=1_000_000)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--x0", type=float, default=2.0)
    p_verify.add_argument("--perturb", type=float, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_curve = subs.add_parser(
        "curve", parents=[model], help="export value-function curves (CSV)"
    )
    add_output(p_curve, formats=False)
    p_curve.add_argument("--grid", required=True, help="lo:hi:points (log-spaced)")
    p_curve.set_defaults(func=cmd_curve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args, _read_model(args))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at /dev/null so the flush at
        # interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        return _error(str(exc), EXIT_INPUT)
    except ArithmeticError as exc:
        return _error(str(exc), EXIT_SOLVER)


if __name__ == "__main__":
    sys.exit(main())
