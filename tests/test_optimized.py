"""The input-contract, quadratic-field, Galois-module, check, unit, p-adic,
command-line, number-theory, integer-matrix, group-ring, cyclotomic,
special-unit, traced-name and acceptance suites pass under ``python -O``.

`-O` strips `assert` statements and ``if __debug__:`` blocks, so any input
validation or invariant check still written as one disappears there.
Pytest rewrites the tests' own asserts, so the tests keep checking.  The
re-runs prove this for the lines the suites reach; a static test proves it
for every module of the package, reached or not.  Kept in its own module so
that the suites it runs do not run it again.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rayverify"


def _optimize_dependent(tree):
    """Line numbers of the code that behaves differently under -O: an
    `assert`, a use of `__debug__`, or a read of `sys.flags.optimize`."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "__debug__")
        or (
            isinstance(node, ast.Attribute)
            and node.attr == "optimize"
            and getattr(node.value, "attr", getattr(node.value, "id", None)) == "flags"
        )
    )


def test_the_static_guard_sees_each_kind():
    code = "import sys\nassert x\nif __debug__:\n    y = sys.flags.optimize\n"
    assert _optimize_dependent(ast.parse(code)) == [2, 3, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_behaves_the_same_under_optimize(path):
    assert _optimize_dependent(ast.parse(path.read_text())) == []


def _pytest_under_optimize(*suites):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *suites],
        cwd=root, capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_harness_and_quadratic_suites_pass_under_optimize():
    # one process each: the residue-ring oracle grid alone takes about a minute
    _pytest_under_optimize("tests/test_harness.py")
    _pytest_under_optimize("tests/test_quadratic.py")


def test_gmodules_and_checks_suites_pass_under_optimize():
    _pytest_under_optimize("tests/test_gmodules.py", "tests/test_checks.py")


def test_units_padics_and_cli_suites_pass_under_optimize():
    _pytest_under_optimize(
        "tests/test_units.py", "tests/test_padics.py", "tests/test_cli.py"
    )


def test_nt_and_intmat_suites_pass_under_optimize():
    _pytest_under_optimize("tests/test_nt.py", "tests/test_intmat.py")


def test_grouprings_cyclo_and_special_suites_pass_under_optimize():
    _pytest_under_optimize(
        "tests/test_grouprings.py", "tests/test_cyclo.py", "tests/test_special.py"
    )


def test_benchmark_targets_suite_passes_under_optimize():
    # the layers import one another lazily; every traced name still resolves
    _pytest_under_optimize("tests/test_benchmark_targets.py")


def test_acceptance_suite_passes_under_optimize():
    _pytest_under_optimize("tests/test_acceptance.py")
