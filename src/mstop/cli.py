"""Command-line front end.

Commands:
  solve   exponents, thresholds, and values for N rights
  table   reproduce the reference threshold table for the published example
  verify  Monte Carlo check of the analytic value (optionally a dominance scan)
  curve   export value-function curves as CSV

Model parameters come from flags, falling back to an INI config file
(--config, before the subcommand or after solve/verify/curve, or the
MSTOP_CONFIG environment variable; flat key=value entries named after the
long flags), falling back to the built-in reference
configuration; an unknown key or a malformed file is bad input.  Exit
codes: 0 ok, 2 bad input, 3 solver failure, 4 verification failure, 141
(128 + SIGPIPE) when the reader of stdout closed it early, as `| head` does.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from mstop.finite import solve_ladder
from mstop.infinite import solve_infinite, x_hat_infinite
from mstop.mc import (
    PolicySpec,
    policy_dominance_scan,
    require_perturbation,
    require_workers,
    simulate_policy,
)
from mstop.model import GbmModel, derive_exponents, require_valid
from mstop.powerfn import call_payoff
from mstop.resolvent_numeric import QuadSpec, quad_resolvent

# Reference configuration (the published worked example).
DEFAULTS = {
    "mu": 0.008,
    "sigma": 0.125,
    "rate": 0.05,
    "lambda": 0.1,
    "strike": 2.0,
}

# Published reference thresholds for the table preset (N = 1..5).  Entries
# 3-5 disagree with the exact and the finite-difference solutions of the
# recursion (by 0.037, 0.097 and 0.125); `mstop table` reports them as printed
# and names them in PAPER_TABLE1_ERRATUM (README, "Published table erratum").
PAPER_TABLE1 = (3.317653, 3.079880, 2.971528, 2.738782, 2.643230)
PAPER_TABLE1_ERRATUM = (3, 4, 5)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4
EXIT_BROKEN_PIPE = 141


# -- serialization ------------------------------------------------------------


def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return format(v, ".17g")


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _error(message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": message, "exit_code": code}, indent=2) + "\n")
    return code


# -- configuration ------------------------------------------------------------


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        path = os.environ.get("MSTOP_CONFIG")
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    flat = not text.lstrip().startswith("[")
    if flat:
        text = "[mstop]\n" + text
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        note = " (line numbers count an added [mstop] header line)" if flat else ""
        raise ValueError(f"bad config file: {exc}{note}") from exc
    merged: dict[str, str] = {}
    for section in parser.sections():
        merged.update(parser[section])
    merged.update(parser.defaults())
    unknown = sorted(set(merged) - set(DEFAULTS))
    if unknown:
        raise ValueError(
            f"unknown config key(s) {', '.join(unknown)} in {path}; "
            f"expected {', '.join(DEFAULTS)}"
        )
    return merged


def _build_model(args: argparse.Namespace, config: dict[str, str]) -> GbmModel:
    def pick(flag: str) -> float:
        value = getattr(args, flag.replace("-", "_"), None)
        if value is not None:
            return float(value)
        if flag in config:
            return float(config[flag])
        return DEFAULTS[flag]

    return GbmModel(
        mu=pick("mu"),
        sigma=pick("sigma"),
        r=pick("rate"),
        lam=pick("lambda"),
        strike=pick("strike"),
    )


def _model_dict(model: GbmModel) -> dict:
    return {
        "mu": model.mu,
        "sigma": model.sigma,
        "rate": model.r,
        "lambda": model.lam,
        "strike": model.strike,
    }


# -- commands -----------------------------------------------------------------


def _check_x0(x0: float) -> None:
    if not (math.isfinite(x0) and x0 > 0.0):
        raise ValueError(f"--x0 must be positive and finite, got {x0}")


def cmd_solve(args: argparse.Namespace, config: dict[str, str]) -> int:
    model = _build_model(args, config)
    require_valid(model, require_positive_net_drift=True)
    if args.rights < 1:
        raise ValueError(f"--rights must be >= 1, got {args.rights}")
    _check_x0(args.x0)

    exps = derive_exponents(model)
    ladder = solve_ladder(model, args.rights)
    inf_sol = solve_infinite(model)

    if args.engine == "quadrature":
        values = _values_by_quadrature(model, ladder, args.x0)
        v_inf_x0 = quad_resolvent(
            inf_sol.sigma_density, model.r, args.x0, model, QuadSpec()
        )
    else:
        values = [v(args.x0) for v in ladder.values]
        v_inf_x0 = inf_sol.v_inf(args.x0)

    report = {
        "model": _model_dict(model),
        "exponents": {
            "b": exps.b,
            "a": exps.a,
            "beta": exps.beta,
            "alpha": exps.alpha,
            "kappa": exps.kappa,
            "gamma": exps.gamma,
            "wronskian_r": exps.wronskian_r,
            "wronskian_rl": exps.wronskian_rl,
        },
        "x_hat_inf": inf_sol.x_hat_inf,
        "thresholds": list(ladder.thresholds),
        "deltas": list(ladder.deltas),
        "values_at_x0": values,
        "v_inf_at_x0": v_inf_x0,
    }
    if args.format == "text":
        lines = [
            f"model: mu={model.mu:.6f} sigma={model.sigma:.6f} r={model.r:.6f} "
            f"lambda={model.lam:.6f} K={model.strike:.6f}",
            f"exponents: b={exps.b:.6f} a={exps.a:.6f} beta={exps.beta:.6f} "
            f"alpha={exps.alpha:.6f} kappa={exps.kappa:.6f} gamma={exps.gamma:.6f}",
            f"x_hat_inf: {inf_sol.x_hat_inf:.6f}",
            "thresholds: " + " ".join(f"{x:.6f}" for x in ladder.thresholds),
            "deltas: " + " ".join(f"{d:.6f}" for d in ladder.deltas),
            f"values at x0={args.x0:.6f}: "
            + " ".join(f"{v:.6f}" for v in values),
            f"v_inf at x0: {v_inf_x0:.6f}",
        ]
        _emit("\n".join(lines), args.output)
    else:
        _emit(json.dumps(report, indent=2), args.output)
    return EXIT_OK


def _values_by_quadrature(model: GbmModel, ladder, x0: float) -> list[float]:
    """V^i(x0) with every resolvent evaluation done by quadrature."""
    g = call_payoff(model.strike)
    b = ladder.exponents.b
    spec = QuadSpec()
    values: list[float] = []
    for i, x_star in enumerate(ladder.thresholds, start=1):
        v_prev = ladder.values[i - 2] if i >= 2 else None

        def h_at(y: float) -> float:
            base = g(y)
            if v_prev is None:
                return base
            return base + model.lam * quad_resolvent(
                v_prev, model.r + model.lam, y, model, spec
            )

        if x0 > x_star:
            values.append(h_at(x0))
        else:
            values.append(h_at(x_star) / x_star**b * x0**b)
    return values


def cmd_table(args: argparse.Namespace, config: dict[str, str]) -> int:
    if args.preset != "paper-table1":
        raise ValueError(f"unknown preset: {args.preset}")
    # `table` takes no model flags and ignores the config: the preset is the
    # reference configuration.
    model = _build_model(args, {})
    ladder = solve_ladder(model, 5)
    x_hat = x_hat_infinite(model)
    computed = list(ladder.thresholds)
    published = list(PAPER_TABLE1)
    diffs = [abs(c - p) for c, p in zip(computed, published)]
    if args.format == "json":
        report = {
            "model": _model_dict(model),
            "preset": args.preset,
            "computed": computed,
            "published": published,
            "abs_diff": diffs,
            "published_erratum": list(PAPER_TABLE1_ERRATUM),
            "x_hat_inf": x_hat,
        }
        _emit(json.dumps(report, indent=2), args.output)
    else:
        head = "i         " + " ".join(f"{i:>10d}" for i in range(1, 6))
        comp = "computed  " + " ".join(f"{v:10.6f}" for v in computed)
        publ = "published " + " ".join(f"{v:10.6f}" for v in published)
        diff = "abs diff  " + " ".join(f"{v:10.6f}" for v in diffs)
        tail = f"x_hat_inf {x_hat:10.6f}"
        note = (
            "published rows "
            + ", ".join(map(str, PAPER_TABLE1_ERRATUM))
            + " are an erratum, not the solution of the recursion "
            '(README, "Published table erratum")'
        )
        _emit("\n".join([head, comp, publ, diff, tail, note]), args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, config: dict[str, str]) -> int:
    model = _build_model(args, config)
    require_valid(model, require_positive_net_drift=True)
    if args.paths < 1000:
        raise ValueError(f"--paths must be >= 1000, got {args.paths}")
    _check_x0(args.x0)
    require_workers(args.workers)
    if args.perturb is not None:
        require_perturbation(args.perturb)
    ladder = solve_ladder(model, args.rights)
    analytic = ladder.values[-1](args.x0)
    policy = PolicySpec(thresholds=ladder.thresholds, x0=args.x0)
    est = simulate_policy(model, policy, args.paths, args.seed, args.workers)
    z = 0.0 if est.std_err == 0.0 else (est.mean - analytic) / est.std_err
    passed = abs(z) <= 3.0
    report = {
        "model": _model_dict(model),
        "rights": args.rights,
        "x0": args.x0,
        "analytic": analytic,
        "mc_mean": est.mean,
        "mc_std_err": est.std_err,
        "n_paths": est.n_paths,
        "seed": est.seed,
        "z_score": z,
        "pass": passed,
    }
    if args.perturb is not None:
        report["dominance"] = policy_dominance_scan(
            model,
            ladder.thresholds,
            args.x0,
            args.perturb,
            args.paths,
            args.seed,
            args.workers,
        )
    if args.format == "text":
        lines = [
            f"analytic V^{args.rights}({args.x0:.6f}) = {analytic:.6f}",
            f"mc = {est.mean:.6f} +- {est.std_err:.6f} ({est.n_paths} paths, "
            f"seed {est.seed})",
            f"z = {z:.6f} -> {'pass' if passed else 'FAIL'}",
        ]
        if args.perturb is not None:
            dom = report["dominance"]
            lines.append(
                f"dominance scan (+-{args.perturb:.6f}): "
                + ("base dominates" if dom["base_dominates"] else "VIOLATION")
            )
        _emit("\n".join(lines), args.output)
    else:
        _emit(json.dumps(report, indent=2), args.output)
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_curve(args: argparse.Namespace, config: dict[str, str]) -> int:
    model = _build_model(args, config)
    require_valid(model, require_positive_net_drift=True)
    try:
        lo_s, hi_s, n_s = args.grid.split(":")
        lo, hi, n_pts = float(lo_s), float(hi_s), int(n_s)
    except (ValueError, AttributeError) as exc:
        raise ValueError(f"bad grid spec {args.grid!r}, expected lo:hi:points") from exc
    if not (lo > 0.0 and hi > lo and n_pts >= 2):
        raise ValueError(f"bad grid spec: need 0 < lo < hi and points >= 2")
    ladder = solve_ladder(model, args.rights)
    inf_sol = solve_infinite(model)
    g = call_payoff(model.strike)
    grid = np.geomspace(lo, hi, n_pts)
    columns = [grid, g.evaluate_many(grid)]
    columns += [v.evaluate_many(grid) for v in ladder.values]
    columns.append(inf_sol.v_inf.evaluate_many(grid))
    header = "x,g," + ",".join(f"V{i}" for i in range(1, args.rights + 1)) + ",Vinf"
    rows = [header]
    for row in zip(*columns):
        rows.append(",".join(_fmt_float(v) for v in row))
    _emit("\n".join(rows) + "\n", args.output)
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mstop",
        description="Optimal multiple stopping with exponential refraction periods.",
    )
    config_help = "INI config file (or set MSTOP_CONFIG)"
    parser.add_argument("--config", help=config_help)

    # Flags of the commands that take a model, built once and shared.
    # SUPPRESS: a --config given before the subcommand stays in force
    # unless the subcommand is given its own.
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--config", default=argparse.SUPPRESS, help=config_help)
    model.add_argument("--mu", type=float, help="drift rate")
    model.add_argument("--sigma", type=float, help="volatility")
    model.add_argument("--rate", type=float, help="discount rate r")
    model.add_argument("--lambda", type=float, dest="lambda_", help="refraction rate")
    model.add_argument("--strike", type=float, help="call strike K")

    def add_output(sub: argparse.ArgumentParser, formats: bool = True) -> None:
        if formats:
            sub.add_argument("--format", choices=("json", "text"), default="json")
        sub.add_argument("--output", help="output path (default: stdout)")

    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser(
        "solve", parents=[model], help="solve the threshold ladder"
    )
    add_output(p_solve)
    p_solve.add_argument("--rights", type=int, default=5)
    p_solve.add_argument("--x0", type=float, default=2.0)
    p_solve.add_argument(
        "--engine", choices=("algebra", "quadrature"), default="algebra"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_table = subs.add_parser(
        "table", help="reproduce the reference table (reference model only)"
    )
    add_output(p_table)
    p_table.add_argument("--preset", default="paper-table1")
    p_table.set_defaults(func=cmd_table)

    p_verify = subs.add_parser(
        "verify", parents=[model], help="Monte Carlo verification"
    )
    add_output(p_verify)
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.add_argument("--paths", type=int, default=1_000_000)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--rights", type=int, default=5)
    p_verify.add_argument("--x0", type=float, default=2.0)
    p_verify.add_argument("--perturb", type=float, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_curve = subs.add_parser(
        "curve", parents=[model], help="export value-function curves (CSV)"
    )
    add_output(p_curve, formats=False)
    p_curve.add_argument("--rights", type=int, default=5)
    p_curve.add_argument("--grid", required=True, help="lo:hi:points (log-spaced)")
    p_curve.set_defaults(func=cmd_curve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse stores --lambda in lambda_; the picker looks for "lambda".
    if hasattr(args, "lambda_"):
        setattr(args, "lambda", args.lambda_)
    try:
        config = _load_config(args.config)
    except OSError as exc:
        return _error(f"cannot read config: {exc}", EXIT_INPUT)
    except ValueError as exc:
        return _error(str(exc), EXIT_INPUT)
    try:
        code = args.func(args, config)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        return _error(str(exc), EXIT_INPUT)
    except ArithmeticError as exc:
        return _error(str(exc), EXIT_SOLVER)
    except BrokenPipeError:
        # The reader closed stdout.  Point it at /dev/null so the flush at
        # interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
