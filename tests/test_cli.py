import json
import math
import random
import subprocess

import numpy as np
import pytest

from mstop.cli import (
    EXIT_BROKEN_PIPE,
    MAX_CURVE_VALUES,
    MAX_RIGHTS,
    MODEL_PARAMS,
    main,
)
from mstop.finite import solve_ladder
from mstop.infinite import solve_infinite
from mstop.mc import McEstimate, policy_dominance_scan
from mstop.powerfn import PiecewisePowerSum, call_payoff

from conftest import ORACLE, PAPER_TABLE1, REF_MODEL, run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- solve --------------------------------------------------------------------


def test_solve_json_schema(capsys):
    code, out, err = run_cli(capsys, "solve", "--rights", "3", "--x0", "2")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert set(report) == {
        "model",
        "exponents",
        "x_hat_inf",
        "thresholds",
        "deltas",
        "values_at_x0",
        "v_inf_at_x0",
    }
    assert report["model"]["lambda"] == 0.1
    assert len(report["thresholds"]) == 3
    assert len(report["deltas"]) == 2
    assert report["thresholds"][0] == pytest.approx(ORACLE["x_star_1"], rel=1e-12)
    assert report["values_at_x0"][2] == pytest.approx(ORACLE["v3_at_2"], rel=1e-10)
    assert report["v_inf_at_x0"] == pytest.approx(ORACLE["v_inf_at_2"], rel=1e-10)


def test_solve_single_right_threshold(capsys):
    code, out, _ = run_cli(capsys, "solve", "--rights", "1", "--x0", "2")
    assert code == 0
    report = json.loads(out)
    assert report["thresholds"] == [pytest.approx(ORACLE["x_star_1"], rel=1e-12)]


def test_solve_invalid_model_exit_2(capsys):
    code, out, err = run_cli(capsys, "solve", "--mu", "0.2", "--rights", "2")
    assert code == 2
    error = json.loads(err)
    assert "mu < r" in error["error"]
    assert error["exit_code"] == 2


@pytest.mark.parametrize(
    "arg, name", [("--lambda=inf", "lambda"), ("--rate=inf", "r"), ("--mu=nan", "mu")]
)
def test_non_finite_parameter_exit_2(capsys, arg, name):
    code, out, err = run_cli(capsys, "solve", "--rights", "2", arg)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert f"{name} is not finite" in error["error"] and error["exit_code"] == 2


def test_solve_overflow_names_stage_exit_3(capsys):
    # The resolvent of V^2 overflows a float while stage 3 builds H^3.
    code, out, err = run_cli(
        capsys,
        "solve",
        "--mu",
        "0.0020183",
        "--sigma",
        "0.056709",
        "--rate",
        "0.0020260",
        "--lambda",
        "3.1498",
        "--strike",
        "11.499",
    )
    assert code == 3 and out == ""
    error = json.loads(err)
    assert "overflow in ladder stage 3" in error["error"] and error["exit_code"] == 3


# A robustness-sweep model whose ladder overflows at stage 2 and whose
# infinite-rights solve overflows too, as 104 of the sweep's models do.
V_INF_OVERFLOW_MODEL = (
    "--mu=0.24029594496194667",
    "--sigma=0.001021026585884343",
    "--rate=0.28025970618041296",
    "--lambda=0.00015904259448963075",
    "--strike=8.291283895033407",
)


@pytest.mark.parametrize(
    "argv, code, word",
    [
        # sigma^2 underflows to 0.
        (["--sigma=1e-300"], 2, "sigma"),
        # sigma^2 is subnormal and mu/sigma^2 overflows, so b would be NaN.
        (["--sigma=1e-160"], 2, "sigma"),
        # x*_1^b underflows to 0 in V^1's coefficient H^1(x*_1) / x*_1^b.
        (["--strike=1e-300", "--lambda=1e-100"], 3, "stage 1"),
        # h + s_r cancels to 0: b is not above 1 in floats.
        (["--sigma=1e-10"], 2, "mu, r and sigma"),
        # mu an ulp below r: b rounds to 1.
        (["--mu=0.049999999999999996"], 2, "mu, r and sigma"),
        # The ladder solves at one right; R_r of the Riesz density overflows.
        ([*V_INF_OVERFLOW_MODEL, "--rights=1"], 3, "infinite-rights"),
    ],
    ids=[
        "sigma_squared_underflows",
        "exponents_overflow",
        "x1_power_underflows",
        "b_cancels_for_tiny_sigma",
        "b_rounds_to_1",
        "v_inf_overflows",
    ],
)
def test_float_edge_errors_name_their_cause(capsys, argv, code, word):
    exit_code, out, err = run_cli(capsys, "solve", *argv)
    assert exit_code == code and out == ""
    error = json.loads(err)
    assert word in error["error"] and error["exit_code"] == code


# beta is about 1255 here, so x_hat^beta underflows to 0.
TINY_X_HAT_POWER_MODEL = (
    "--mu=0.003534940877158942",
    "--sigma=0.008222039746705065",
    "--rate=0.01226113343401934",
    "--lambda=57.66216902666691",
    "--strike=0.5399313106697877",
)


def test_underflowing_x_hat_power_solves(capsys):
    # V-hat's coefficient (x_hat - K) / x_hat^beta divides by 0 here; the
    # infinite-rights solution needs only x_hat and the Riesz density.
    code, out, err = run_cli(capsys, "solve", "--rights", "3", *TINY_X_HAT_POWER_MODEL)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert all(x > report["x_hat_inf"] for x in report["thresholds"])
    code, out, err = run_cli(
        capsys, "curve", "--rights", "3", "--grid", "0.05:5:50", *TINY_X_HAT_POWER_MODEL
    )
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 51


def test_solve_text_format_six_decimals(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--rights", "1", "--x0", "2", "--format", "text"
    )
    assert code == 0
    assert "thresholds: 3.317653" in out


# -- table --------------------------------------------------------------------


def test_table_preset(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["published"] == list(PAPER_TABLE1)
    assert report["x_hat_inf"] == pytest.approx(2.593508, abs=1e-6)
    assert report["computed"][0] == pytest.approx(3.317653, abs=1e-6)
    assert report["computed"][1] == pytest.approx(3.079880, abs=1e-6)
    assert len(report["abs_diff"]) == 5


def test_table_names_published_erratum(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "json")
    assert code == 0
    assert json.loads(out)["published_erratum"] == [3, 4, 5]
    code, out, _ = run_cli(capsys, "table", "--format", "text")
    assert code == 0
    assert out.strip().split("\n")[-1] == (
        "published rows 3, 4, 5 are an erratum, not the solution of the "
        'recursion (README, "Published table erratum")'
    )


# -- verify --------------------------------------------------------------------


def test_verify_passes_small_run(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--paths",
        "50000",
        "--seed",
        "42",
        "--rights",
        "2",
        "--x0",
        "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert abs(report["z_score"]) <= 3.0
    assert report["n_paths"] == 50000
    assert report["seed"] == 42


def test_verify_immediate_exercise_zero_z(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--paths",
        "2000",
        "--rights",
        "1",
        "--x0",
        "4.0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["mc_std_err"] == 0.0
    assert report["mc_mean"] == pytest.approx(report["analytic"], rel=1e-12)
    assert report["z_score"] == 0.0


def test_verify_rejects_too_few_paths(capsys):
    code, _, err = run_cli(capsys, "verify", "--paths", "10")
    assert code == 2


def test_verify_paths_beyond_memory_exit_2(capsys):
    # 10**16 float64 totals need 8e16 bytes, more than a 64-bit process can
    # map, so the allocation fails the same way on every host.
    argv = ["verify", "--paths", str(10**16), "--rights", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert f"1 x {10**16} (rows x paths)" in error and f"{8 * 10**16} bytes" in error


@pytest.mark.parametrize(
    "argv", [("solve", "--x0", "nan"), ("verify", "--x0", "inf", "--paths", "1000")]
)
def test_non_finite_x0_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "--x0" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("--x0", "5e-324"),
        ("--x0", "1e-308"),
        # The base policy's thresholds fit, the +20% variant of x*_1 does not.
        ("--x0", "2e-308", "--rights", "1", "--perturb", "0.2"),
    ],
)
def test_verify_x0_below_overflow_bound_exit_2(capsys, argv):
    # The log distance ln(threshold / x0) overflowed to inf, and verify
    # printed bare NaN totals in its JSON.
    code, out, err = run_cli(capsys, "verify", "--paths", "1000", *argv)
    assert code == 2 and out == ""
    assert "x0 must be at least about" in json.loads(err)["error"]


@pytest.mark.parametrize("rights", ["0", str(MAX_RIGHTS + 1)])
@pytest.mark.parametrize(
    "argv", [("solve",), ("verify",), ("curve", "--grid", "1:2:2")]
)
def test_rights_out_of_range_exit_2_before_solving(capsys, monkeypatch, argv, rights):
    def no_solve(*_):
        raise AssertionError("solved before checking --rights")

    monkeypatch.setattr("mstop.cli.solve_ladder", no_solve)
    code, out, err = run_cli(capsys, *argv, "--rights", rights)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["exit_code"] == 2 and "--rights" in error["error"]


def test_verify_with_perturb_reports_dominance(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--paths",
        "20000",
        "--rights",
        "2",
        "--x0",
        "2",
        "--perturb",
        "0.05",
    )
    assert code == 0
    report = json.loads(out)
    assert "dominance" in report
    assert len(report["dominance"]["variants"]) == 4


def test_verify_perturb_json_is_base_report_plus_scan(capsys):
    # With --perturb the MC columns come from the scan's base walk.  The JSON
    # must be byte for byte the report without --perturb, whose estimate is
    # simulate_policy's, followed by the scan run on its own.
    argv = ["verify", "--paths", "70000", "--rights", "3", "--x0", "2", "--seed", "11"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv, "--perturb", "0.05")
    assert code == 0
    report = json.loads(plain)
    report["dominance"] = policy_dominance_scan(
        REF_MODEL, solve_ladder(REF_MODEL, 3).thresholds, 2.0, 0.05, 70_000, 11
    )
    assert out == json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("dominates", [True, False])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_perturb_exit_code_covers_scan(capsys, monkeypatch, fmt, dominates):
    # The base estimate sits on the analytic value, so the z-test passes and
    # the exit code is the scan's alone: 4 when a variant beats the base.
    analytic = solve_ladder(REF_MODEL, 2).values[-1](2.0)

    def scan(model, thresholds, x0, perturbation, n_paths, seed):
        return {
            "base_mean": analytic,
            "base_se": 0.01,
            "perturbation": perturbation,
            "n_paths": n_paths,
            "seed": seed,
            "variants": [],
            "base_dominates": dominates,
        }

    monkeypatch.setattr("mstop.mc.policy_dominance_scan", scan)
    code, out, _ = run_cli(
        capsys, "verify", "--rights", "2", "--perturb", "0.05", "--format", fmt
    )
    assert code == (0 if dominates else 4)
    if fmt == "json":
        report = json.loads(out)
        assert report["pass"] and report["dominance"]["base_dominates"] == dominates
    else:
        assert "-> pass" in out and ("VIOLATION" in out) != dominates


@pytest.mark.parametrize(
    "argv",
    [
        ("--perturb", "0.5"),
        ("--perturb", "0"),
        ("--perturb", "nan"),
        ("--seed", "-1"),
    ],
)
def test_verify_bad_mc_args_exit_2_before_solving(capsys, monkeypatch, argv):
    # A bad --perturb or --seed is reported before any ladder
    # solve or simulation starts.
    def no_solve(*_):
        raise AssertionError("solved before checking the MC arguments")

    monkeypatch.setattr("mstop.cli.solve_ladder", no_solve)
    code, out, err = run_cli(capsys, "verify", "--paths", "1000000", *argv)
    assert code == 2 and out == ""
    assert argv[0].lstrip("-") in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("--rights", "1", "--paths", "1000", "--x0", "1e300"),
        ("--rights", "2", "--paths", "1000", "--x0", "1e200", "--perturb", "0.1"),
    ],
)
def test_verify_overflowing_totals_exit_2(capsys, argv):
    # Totals past about 1e154 overflow the squared deviations of the standard
    # error: an infinite one would make z = 0 and pass any estimate.
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert "overflows" in error and "smaller x0" in error


@pytest.mark.parametrize(
    "paths, x0", [("1000", "1e160"), ("1000", "1e100"), ("100000", "1e160")]
)
def test_verify_rounded_mean_of_identical_totals_passes(capsys, paths, x0):
    # One right above its threshold: every path exercises at once, so every
    # total is x0 - K.  numpy's mean of them rounds a few ulps off, far more
    # than the standard error of identical totals; z counts that rounding.
    code, out, _ = run_cli(
        capsys, "verify", "--rights", "1", "--paths", paths, "--x0", x0
    )
    report = json.loads(out)
    assert report["analytic"] == float(x0)
    assert report["mc_mean"] != report["analytic"]
    assert abs(report["mc_mean"] - report["analytic"]) > 3.0 * report["mc_std_err"]
    assert code == 0 and report["pass"] is True and abs(report["z_score"]) < 1.0


def test_verify_rounding_term_sets_z(capsys, monkeypatch):
    # No standard error and a mean 60 ulp above V^1(3.97) = 1.97: the
    # rounding term (log2 n + 19) u mean alone scales the gap, to z = 2.10
    # at 1000 paths.  A term built on log2 n + 1 would give z = 5.55, exit 4.
    analytic = 3.97 - 2.0

    def identical_totals(model, policy, n_paths, seed):
        return McEstimate(analytic + 60 * math.ulp(analytic), 0.0, n_paths, seed)

    monkeypatch.setattr("mstop.mc.simulate_policy", identical_totals)
    code, out, _ = run_cli(
        capsys, "verify", "--rights", "1", "--paths", "1000", "--x0", "3.97"
    )
    report = json.loads(out)
    assert report["analytic"] == analytic and report["mc_std_err"] == 0.0
    assert code == 0 and 2.05 < report["z_score"] < 2.15


# -- curve --------------------------------------------------------------------


def test_curve_log_grid(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--rights", "2", "--grid", "1:5:3"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,g,V1,V2,Vinf"
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs == pytest.approx([1.0, math.sqrt(5.0), 5.0], rel=1e-12)
    # g column is the call payoff.
    g_col = [float(line.split(",")[1]) for line in lines[1:]]
    assert g_col == pytest.approx([0.0, math.sqrt(5.0) - 2.0, 3.0], rel=1e-12)


def test_curve_column_monotonicity(capsys):
    code, out, _ = run_cli(capsys, "curve", "--rights", "3", "--grid", "0.5:10:40")
    assert code == 0
    rows = [list(map(float, line.split(","))) for line in out.strip().split("\n")[1:]]
    for row in rows:
        values = row[2:]  # V1..V3, Vinf
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-9


def test_curve_bad_grid_exit_2(capsys):
    code, _, err = run_cli(capsys, "curve", "--rights", "1", "--grid", "5:1:3")
    assert code == 2
    code, _, err = run_cli(capsys, "curve", "--rights", "1", "--grid", "oops")
    assert code == 2
    code, out, err = run_cli(capsys, "curve", "--rights", "2", "--grid", "0.5:inf:4")
    assert code == 2 and out == "" and "finite" in err


def _reference_fmt(v):
    # The writer's spelling of one value: 17 significant digits, and the JSON
    # reports' tokens for the non-finite values.
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return format(v, ".17g")


def _reference_csv(rights, columns):
    """The CSV `mstop curve` writes for `columns`, formatted value by value."""
    lines = ["x,g," + ",".join(f"V{i}" for i in range(1, rights + 1)) + ",Vinf"]
    lines += [",".join(map(_reference_fmt, row)) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def _reference_curve(rights, lo, hi, points):
    ladder = solve_ladder(REF_MODEL, rights)
    grid = np.geomspace(lo, hi, points)
    columns = [grid, call_payoff(REF_MODEL.strike).evaluate_many(grid)]
    columns += [v.evaluate_many(grid) for v in ladder.values]
    columns.append(solve_infinite(REF_MODEL).v_inf.evaluate_many(grid))
    return _reference_csv(rights, columns)


def test_curve_bytes_match_per_value_format(capsys):
    code, out, _ = run_cli(capsys, "curve", "--rights", "5", "--grid", "0.5:10:2000")
    assert code == 0
    assert out == _reference_curve(5, 0.5, 10.0, 2000)


def test_curve_overflow_writes_infinity(capsys):
    # At x = 1.7e308, V2 and Vinf overflow; the CSV spells them Infinity.
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, out, _ = run_cli(capsys, "curve", "--rights", "3", "--grid", "1:1.7e308:3")
        expected = _reference_curve(3, 1.0, 1.7e308, 3)
    assert code == 0
    assert out == expected
    assert out.splitlines()[-1].endswith(",Infinity,Infinity,Infinity")


def test_curve_non_finite_and_signed_zero_bytes(capsys, monkeypatch):
    # The ladder and V_inf are solved before evaluate_many is replaced, since
    # the ladder's own checks evaluate its pieces.
    ladder, inf_sol = solve_ladder(REF_MODEL, 2), solve_infinite(REF_MODEL)
    monkeypatch.setattr("mstop.cli.solve_ladder", lambda *_: ladder)
    monkeypatch.setattr("mstop.cli.solve_infinite", lambda *_: inf_sol)
    specials = np.array([math.nan, -math.inf, -0.0, math.inf, 0.25])
    monkeypatch.setattr(PiecewisePowerSum, "evaluate_many", lambda self, x: specials)
    code, out, _ = run_cli(capsys, "curve", "--rights", "2", "--grid", "1:5:5")
    assert code == 0
    assert out == _reference_csv(2, [np.geomspace(1.0, 5.0, 5)] + [specials] * 4)
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == [
        "NaN", "-Infinity", "-0", "Infinity", "0.25"
    ]


def test_curve_point_cap_exit_2_before_allocating(capsys, monkeypatch):
    def no_work(*_):
        raise AssertionError("worked before checking the point count")

    monkeypatch.setattr("mstop.cli.solve_ladder", no_work)
    monkeypatch.setattr("numpy.geomspace", no_work)
    code, out, err = run_cli(
        capsys, "curve", "--rights", "2", "--grid", "0.5:10:10000000000000"
    )
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["exit_code"] == 2 and str(MAX_CURVE_VALUES // 5) in error["error"]
    # The most points the cap allows at 5 columns pass the check, and so
    # does README's 200 000-point, 3-right example.
    for rights, points in (("2", MAX_CURVE_VALUES // 5), ("3", 200_000)):
        with pytest.raises(AssertionError, match="worked before"):
            main(["curve", "--rights", rights, "--grid", f"0.5:10:{points}"])


def test_curve_writes_file(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys, "curve", "--rights", "1", "--grid", "1:2:2", "--output", str(path)
    )
    assert code == 0 and out == ""
    text = path.read_text()
    assert text.startswith("x,g,V1,Vinf")
    assert text.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--rights", "3"),
        ("solve", "--rights", "3", "--format", "text"),
        ("table",),
        ("table", "--format", "text"),
        ("verify", "--rights", "1", "--paths", "2000", "--format", "text"),
    ],
)
def test_output_file_gets_stdout_bytes(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "report"
    code, out_file, _ = run_cli(capsys, *argv, "--output", str(path))
    assert code == 0 and out_file == ""
    assert path.read_bytes() == out.encode()


def test_unwritable_output_exit_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "solve", "--rights", "1", "--output", str(path))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert str(path) in error["error"] and error["exit_code"] == 2


# -- flags ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--workers", "2"),
        ("table", "--workers", "2"),
        ("curve", "--grid", "1:2:2", "--workers", "2"),
        ("curve", "--grid", "1:2:2", "--format", "json"),
        ("solve", "--format", "csv"),
        ("table", "--format", "csv"),
        ("verify", "--format", "csv"),
        ("table", "--mu", "0.01"),
        ("table", "--config", "mstop.ini"),
        ("table", "--preset", "paper-table1"),
        ("verify", "--workers", "2"),
        ("solve", "--engine", "quadrature"),
    ],
)
def test_unused_flags_rejected_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err


# -- config --------------------------------------------------------------------


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "mstop.ini"
    cfg.write_text("mu = 0.009\nsigma = 0.125\n")
    code, out, _ = run_cli(
        capsys,
        "--config",
        str(cfg),
        "solve",
        "--rights",
        "1",
        "--x0",
        "2",
    )
    assert code == 0
    assert json.loads(out)["model"]["mu"] == 0.009
    # A flag overrides the config value.
    code, out, _ = run_cli(
        capsys,
        "--config",
        str(cfg),
        "solve",
        "--rights",
        "1",
        "--x0",
        "2",
        "--mu",
        "0.01",
    )
    assert code == 0
    assert json.loads(out)["model"]["mu"] == 0.01


def test_config_after_subcommand(tmp_path, capsys):
    cfg = tmp_path / "mstop.ini"
    cfg.write_text("mu = 0.009\n")
    code, out, _ = run_cli(capsys, "solve", "--rights", "1", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["model"]["mu"] == 0.009


def test_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "env.ini"
    cfg.write_text("strike = 3.0\n")
    monkeypatch.setenv("MSTOP_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "solve", "--rights", "1", "--x0", "2")
    assert code == 0
    assert json.loads(out)["model"]["strike"] == 3.0


def test_repeat_invocations_byte_identical(capsys):
    _, out1, _ = run_cli(
        capsys, "verify", "--paths", "20000", "--rights", "1", "--x0", "2"
    )
    _, out2, _ = run_cli(
        capsys, "verify", "--paths", "20000", "--rights", "1", "--x0", "2"
    )
    assert out1 == out2


@pytest.mark.parametrize(
    "text, message",
    [
        ("mu = 0.009\nmu = 0.010\n", "already exists"),
        ("sigma = 0.125\nthis is not a key value pair\n", "parsing errors"),
        ("sigma = 0.125\nmu = abc\n", "config key mu is not a number: 'abc'"),
        # A config file is flat: a header would decide which of several
        # values of one key wins, so every header is rejected, the first named.
        ("[DEFAULT]\nmu = 0.009\n[mstop]\nmu = 0.01\n", "header ([DEFAULT])"),
        ("[a]\nmu = 0.009\n[b]\nmu = 0.0095\n", "header ([a])"),
        ("mu = 0.009\n[other]\nmu = 0.0095\n", "header ([other])"),
        ("[mstop]\nmu = 0.009\n", "header ([mstop])"),
        # Nothing is interpolated, ':' is no separator and keys are not
        # case-folded.
        ("mu = 0.01%\n", "config key mu is not a number: '0.01%'"),
        ("mu = %(nope)s\n", "config key mu is not a number: '%(nope)s'"),
        ("sigma = 0.2\nmu = %(sigma)s\n", "config key mu is not a number"),
        ("mu: 0.009\n", "parsing errors"),
        ("MU = 0.009\n", "unknown config key(s) MU"),
        # The error names the offending line, comments and blanks counted.
        ("# model\n\nsigma = 0.125\nmu = abc\n", "line 4: config key mu"),
    ],
)
def test_malformed_config_exit_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "--config", str(cfg), "solve", "--rights", "1")
    assert code == 2 and out == ""
    error = json.loads(err)
    assert message in error["error"] and error["exit_code"] == 2


def test_config_comments_blank_lines_and_bare_equals(tmp_path, capsys):
    cfg = tmp_path / "mstop.ini"
    cfg.write_text("# drift\n; comment\n\n  # indented comment\nmu=0.009\n\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "solve", "--rights", "1")
    assert code == 0
    assert json.loads(out)["model"]["mu"] == 0.009


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "typo.ini"
    cfg.write_text("lam = 0.2\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "solve", "--rights", "1")
    assert code == 2 and out == ""
    assert "unknown config key(s) lam" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv",
    [("--config", "", "solve"), ("solve", "--config", ""), ("verify", "--config", "")],
)
def test_empty_config_path_exit_2(tmp_path, capsys, monkeypatch, argv):
    # An empty --config is an error, not "no config": it must not switch off
    # MSTOP_CONFIG either.
    cfg = tmp_path / "typo.ini"
    cfg.write_text("lam = 0.2\n")
    monkeypatch.setenv("MSTOP_CONFIG", str(cfg))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert "--config is empty" in error["error"] and error["exit_code"] == 2


def test_empty_config_env_var_is_unset(capsys, monkeypatch):
    monkeypatch.setenv("MSTOP_CONFIG", "")
    code, out, err = run_cli(capsys, "solve", "--rights", "1")
    assert code == 0 and err == ""
    monkeypatch.delenv("MSTOP_CONFIG")
    assert run_cli(capsys, "solve", "--rights", "1") == (0, out, "")


def test_table_rejects_config_before_subcommand(tmp_path, capsys):
    cfg = tmp_path / "mstop.ini"
    cfg.write_text("mu = 0.009\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "table")
    assert code == 2 and out == ""
    error = json.loads(err)
    assert "table reads no config" in error["error"] and error["exit_code"] == 2


def test_table_does_not_open_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("lam = 0.2\nthis is not a key value pair\n")
    monkeypatch.setenv("MSTOP_CONFIG", str(cfg))
    code, out, err = run_cli(capsys, "table")
    assert code == 0 and err == ""
    monkeypatch.delenv("MSTOP_CONFIG")
    assert run_cli(capsys, "table") == (0, out, "")


@pytest.mark.parametrize("argv", [("verify",), ("curve", "--grid", "1:2:2")])
def test_config_after_subcommand_is_read(tmp_path, capsys, argv):
    cfg = tmp_path / "typo.ini"
    cfg.write_text("lam = 0.2\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert "unknown config key(s) lam" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv", [("curve", "--grid", "0.5:10:2000"), ("solve", "--rights", "1")]
)
def test_closed_stdout_exits_quietly(argv):
    # The reader goes away before the command writes anything, as `| head`
    # does when it has read enough.
    proc = run_python(
        "import sys; from mstop.cli import main; sys.exit(main())",
        *argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert "Traceback" not in err and "BrokenPipeError" not in err


# -- contract over edge inputs ------------------------------------------------

# Values at the ends of the float range, signed zero, NaN and infinities, for
# the model flags and --x0; grids and Monte Carlo flags in and out of range.
EDGE_VALUES = (
    "1e-300", "1e-100", "5e-324", "-0", "0.5", "2.5", "1e100", "1e300",
    "nan", "inf", "-inf",
)
GRIDS = ("1:2:2", "0.5:10:4", "5e-324:1:3", "1e-300:1e300:5")
BAD_GRIDS = (
    "2:1:3", "0:1:3", "-1:2:3", "1:inf:3", "nan:2:3", "1:2:1", "1:2", "1:2:3:4",
    "1:2:2.5", "a:b:c",
)
BAD_PATHS = ("999", "-1", str(10**16))
PERTURBS = ("0.05", "0.2", "0", "-0.1", "0.3", "nan", "inf")


def _contract_cases(count: int = 100, seed: int = 20) -> list[list[str]]:
    # Each value is joined to its flag with '=', so argparse takes "-inf"
    # as a value, not as a flag.
    rng = random.Random(seed)
    cases: dict[str, list[str]] = {}
    while len(cases) < count:
        command = rng.choice(("solve", "curve", "verify"))
        argv = [command, "--rights=" + rng.choice("123")]
        for name in rng.sample(sorted(MODEL_PARAMS), rng.randint(0, 2)):
            argv.append(f"--{name}={rng.choice(EDGE_VALUES)}")
        if command == "curve":
            grids = BAD_GRIDS if rng.random() < 0.4 else GRIDS
            argv.append("--grid=" + rng.choice(grids))
        else:
            argv.append("--x0=" + rng.choice(EDGE_VALUES))
        if command == "verify":
            paths = rng.choice(BAD_PATHS) if rng.random() < 0.3 else "1000"
            argv.append("--paths=" + paths)
            if rng.random() < 0.5:
                argv.append("--perturb=" + rng.choice(PERTURBS))
        cases[" ".join(argv)] = argv
    return list(cases.values())


@pytest.mark.parametrize("argv", _contract_cases(), ids=" ".join)
def test_cli_contract_on_edge_inputs(capsys, argv):
    # Every input either runs or is refused with a typed exit code and one
    # JSON error object; nothing escapes as a traceback or a bare NaN.
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in out + err
    assert "NaN" not in out
    if code != 0:
        error = json.loads(err)
        assert isinstance(error, dict) and error["exit_code"] == code
