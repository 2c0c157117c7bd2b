"""Guards on the whole package: the robustness sweep's failure counts, and a
package surface that holds only what the package and the benchmark use."""

import ast
from pathlib import Path

import mstop

from robustness_sweep import run_sweep

SRC = Path(mstop.__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"


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


def _referenced(node: ast.AST) -> set[str]:
    """Every name and attribute that `node` mentions."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_package_surface_has_no_unused_names():
    # A public top-level def or class of mstop must be used by another part
    # of the package or by the benchmark; a name only tests call belongs in
    # the tests.
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    stmts = [(stmt, _referenced(stmt)) for tree in trees for stmt in tree.body]
    bench = set().union(
        *(_referenced(ast.parse(path.read_text())) for path in BENCH.glob("*.py"))
    )
    unused = [
        node.name
        for node, _ in stmts
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in bench
        and not any(node.name in names for stmt, names in stmts if stmt is not node)
    ]
    assert unused == []
