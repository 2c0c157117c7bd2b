import json
import math
import subprocess

import numpy as np
import pytest

from mstop.cli import EXIT_BROKEN_PIPE, main

from conftest import ORACLE, PUBLISHED_THRESHOLDS, run_python


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


def test_solve_engines_agree(capsys):
    code, out_a, _ = run_cli(capsys, "solve", "--rights", "2", "--x0", "2")
    assert code == 0
    code, out_q, _ = run_cli(
        capsys, "solve", "--rights", "2", "--x0", "2", "--engine", "quadrature"
    )
    assert code == 0
    alg = json.loads(out_a)
    quad = json.loads(out_q)
    for va, vq in zip(alg["values_at_x0"], quad["values_at_x0"]):
        assert vq == pytest.approx(va, rel=1e-6)
    assert quad["v_inf_at_x0"] == pytest.approx(alg["v_inf_at_x0"], rel=1e-6)


def test_solve_invalid_model_exit_2(capsys):
    code, out, err = run_cli(capsys, "solve", "--mu", "0.2", "--rights", "2")
    assert code == 2
    error = json.loads(err)
    assert "mu < r" in error["error"]
    assert error["exit_code"] == 2


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
    assert report["published"] == list(PUBLISHED_THRESHOLDS)
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


def test_table_unknown_preset_exit_2(capsys):
    code, _, err = run_cli(capsys, "table", "--preset", "nope")
    assert code == 2
    assert "unknown preset" in json.loads(err)["error"]


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


@pytest.mark.parametrize(
    "argv", [("solve", "--x0", "nan"), ("verify", "--x0", "inf", "--paths", "1000")]
)
def test_non_finite_x0_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "--x0" in json.loads(err)["error"]


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


@pytest.mark.parametrize(
    "argv", [("--perturb", "0.5"), ("--workers", "0"), ("--workers", "-3")]
)
def test_verify_bad_mc_args_exit_2_before_solving(capsys, monkeypatch, argv):
    # A bad --perturb or --workers is reported before any ladder solve or
    # simulation starts.
    def no_solve(*_):
        raise AssertionError("solved before checking the MC arguments")

    monkeypatch.setattr("mstop.cli.solve_ladder", no_solve)
    code, out, err = run_cli(capsys, "verify", "--paths", "1000000", *argv)
    assert code == 2 and out == ""
    assert argv[0].lstrip("-") in json.loads(err)["error"]


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


def test_curve_writes_file(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys, "curve", "--rights", "1", "--grid", "1:2:2", "--output", str(path)
    )
    assert code == 0 and out == ""
    text = path.read_text()
    assert text.startswith("x,g,V1,Vinf")
    assert text.endswith("\n")


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
    ],
)
def test_malformed_config_exit_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "--config", str(cfg), "solve", "--rights", "1")
    assert code == 2 and out == ""
    error = json.loads(err)
    assert message in error["error"] and error["exit_code"] == 2


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "typo.ini"
    cfg.write_text("lam = 0.2\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "solve", "--rights", "1")
    assert code == 2 and out == ""
    assert "unknown config key(s) lam" in json.loads(err)["error"]


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
