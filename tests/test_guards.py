"""Guards on the whole package: the robustness sweep's failure counts, a
package surface that holds only what the package and the benchmark use,
every package name the benchmark imports, the exact solver's entry points
running without numpy, every command running without dataclasses, import,
solve and table running without typing, the CLI reading its config without
configparser, the package's records and README naming the CLI's flags."""

import argparse
import ast
import importlib
import json
import re
import subprocess
from collections import Counter
from pathlib import Path

import pytest

import mstop
from mstop.cli import build_parser, main

from conftest import REF_MODEL, run_python
from robustness_sweep import run_sweep

SRC = Path(mstop.__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"
README = SRC.parents[1] / "README.md"


def test_robustness_sweep_counts():
    # The sweep's box, seed and draws are fixed; a change may only lower the
    # failure count, and every failure left is a typed ladder overflow.
    report = run_sweep()
    assert len(report.kept) == 441
    assert len(report.failures) <= 159
    for call, exc in report.failures:
        assert call != "solve_infinite", exc
        assert isinstance(exc, ArithmeticError), exc
        assert str(exc).startswith("float overflow in ladder stage"), exc


def _mentions(node: ast.AST) -> list[str]:
    """Every name and attribute that `node` mentions, once per mention."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]


def test_package_surface_has_no_unused_names():
    # A public top-level def or class of mstop, or a public method of one of
    # its classes, must be used outside its own body by the package or by
    # the benchmark; a name only tests call belongs in the tests.
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    defs = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    defs += [
        node
        for cls in defs
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    ]
    uses = Counter(name for tree in trees for name in _mentions(tree))
    bench = set().union(
        *(_mentions(ast.parse(path.read_text())) for path in BENCH.glob("*.py"))
    )
    unused = [
        node.name
        for node in defs
        if not node.name.startswith("_")
        and node.name not in bench
        and uses[node.name] == _mentions(node).count(node.name)
    ]
    assert unused == []


def test_benchmark_imports_exist():
    # bench/ changes only with the benchmark itself, so a refactor that drops
    # or renames a name it imports from mstop (private ones included) would
    # break its runs unseen.
    imports = [
        (node.module, alias.name)
        for path in sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "mstop"
        for alias in node.names
    ]
    assert ("mstop.finite", "_truncate_below") in imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def _fresh_run(code: str, *argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `python -c code argv...`."""
    proc = run_python(
        code, *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    out, err = proc.communicate(timeout=60)
    return proc.returncode, out, err


CLI_MAIN = "from mstop.cli import main; sys.exit(main())"
# Makes numpy unimportable: any `import numpy` after it raises ImportError.
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "
# The same for dataclasses: the package's records are named tuples.
BLOCK_DATACLASSES = "import sys; sys.modules['dataclasses'] = None; "


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--rights", "5", "--x0", "2.5"],
        ["solve", "--rights", "5", "--x0", "2.5", "--format", "text"],
        ["table"],
        ["table", "--format", "text"],
    ],
    ids=["solve_json", "solve_text", "table_json", "table_text"],
)
def test_solve_and_table_run_without_numpy(capsys, argv):
    # The same bytes as a run in this process, which has numpy loaded.
    assert main(argv) == 0
    expected = capsys.readouterr().out
    code, out, err = _fresh_run(BLOCK_NUMPY + CLI_MAIN, *argv)
    assert code == 0, err
    assert out == expected


def test_package_imports_without_dataclasses():
    code, out, err = _fresh_run(BLOCK_DATACLASSES + "import mstop")
    assert code == 0, err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["table"], ["curve", "--grid", "1:2:2"], ["verify", "--paths", "1000"]],
    ids=["solve", "table", "curve", "verify"],
)
def test_commands_run_without_dataclasses(capsys, argv):
    # numpy, loaded by curve and verify, does not import dataclasses either.
    assert main(argv) == 0
    expected = capsys.readouterr().out
    code, out, err = _fresh_run(BLOCK_DATACLASSES + CLI_MAIN, *argv)
    assert code == 0, err
    assert out == expected


# The same for typing: the package names its annotation types in strings or
# takes them from collections.abc.  numpy imports typing itself, so curve and
# verify are not run under this block.
BLOCK_TYPING = "import sys; sys.modules['typing'] = None; "


def test_package_imports_without_typing():
    code, out, err = _fresh_run(BLOCK_TYPING + "import mstop")
    assert code == 0, err
    assert out == ""


@pytest.mark.parametrize("argv", [["solve"], ["table"]], ids=["solve", "table"])
def test_solve_and_table_run_without_typing(capsys, argv):
    assert main(argv) == 0
    expected = capsys.readouterr().out
    code, out, err = _fresh_run(BLOCK_TYPING + CLI_MAIN, *argv)
    assert code == 0, err
    assert out == expected


# Makes configparser unimportable: the CLI reads its config file itself.
BLOCK_CONFIGPARSER = "import sys; sys.modules['configparser'] = None; "


def test_config_is_read_without_configparser(tmp_path, capsys):
    cfg = tmp_path / "mstop.ini"
    cfg.write_text("# drift\nmu = 0.009\nstrike = 3\n")
    argv = ["solve", "--rights", "1", "--config", str(cfg)]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    code, out, err = _fresh_run(BLOCK_CONFIGPARSER + CLI_MAIN, *argv)
    assert code == 0, err
    assert out == expected


def test_package_solves_without_numpy():
    code, out, err = _fresh_run(
        BLOCK_NUMPY + "import mstop; "
        f"print(repr(mstop.solve_ladder(mstop.{REF_MODEL!r}, 60).thresholds[-1]))"
    )
    assert code == 0, err
    assert float(out) == mstop.solve_ladder(REF_MODEL, 60).thresholds[-1]


def test_monte_carlo_names_load_on_first_use():
    from mstop import mc

    assert mstop.simulate_policy is mc.simulate_policy
    assert mstop.PolicySpec is mc.PolicySpec
    assert mstop.McEstimate is mc.McEstimate
    namespace: dict = {}
    exec("from mstop import *", namespace)
    assert set(mstop.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="no_such_name"):
        mstop.no_such_name


def _records():
    from mstop.mc import McEstimate, PolicySpec

    return [
        REF_MODEL,
        mstop.derive_exponents(REF_MODEL),
        mstop.PowerTerm(1.0, 2.0),
        mstop.solve_ladder(REF_MODEL, 2),
        mstop.solve_infinite(REF_MODEL),
        PolicySpec((3.0, 2.5), 2.0),
        McEstimate(1.0, 0.5, 1000, 7),
    ]


def test_record_reprs_and_fields():
    # The strings and field orders the records printed as frozen dataclasses.
    model, exps, term, ladder, inf_sol, policy, est = _records()
    assert repr(model) == "GbmModel(mu=0.008, sigma=0.125, r=0.05, lam=0.1, strike=2.0)"
    assert repr(exps) == (
        "Exponents(b=2.5178505884735567, a=-2.5418505884735567, "
        "beta=4.369796891687246, alpha=-4.393796891687245, "
        "kappa=1.8519463032136882, gamma=6.911647480160802, "
        "wronskian_r=5.059701176947113, wronskian_rl=8.76359378337449)"
    )
    assert repr(term) == "PowerTerm(coef=1.0, exponent=2.0, log_power=0)"
    assert repr(policy) == "PolicySpec(thresholds=(3.0, 2.5), x0=2.0)"
    assert repr(est) == "McEstimate(mean=1.0, std_err=0.5, n_paths=1000, seed=7)"
    for record, fields in (
        (ladder, "model exponents n thresholds c_stars values h_funcs deltas"),
        (inf_sol, "model exponents x_hat_inf sigma_density v_inf"),
    ):
        named = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields.split())
        assert repr(record) == f"{type(record).__name__}({named})"
    assert term.log_power == 0 and mstop.PowerTerm(1.0, 2.0, 3).log_power == 3


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    # No instance dict either: a new attribute cannot be added.
    with pytest.raises(AttributeError):
        record.extra = None


def test_solve_json_exponent_keys_keep_their_order(capsys):
    assert main(["solve", "--rights", "1"]) == 0
    exponents = json.loads(capsys.readouterr().out)["exponents"]
    assert list(exponents) == [
        "b", "a", "beta", "alpha", "kappa", "gamma", "wronskian_r", "wronskian_rl"
    ]


def test_readme_and_parser_name_the_same_flags():
    # A flag added to or removed from the CLI must reach README, and README
    # must not document a flag the CLI no longer has.
    parsers = [build_parser()]
    for parser in parsers:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
    parsed = {
        flag
        for parser in parsers
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }
    named = set(re.findall(r"--[a-z][a-z0-9-]*", README.read_text()))
    named.discard("--no-build-isolation")  # pip's, in the install section
    assert parsed - named == set()
    assert named - parsed == set()
