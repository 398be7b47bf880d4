"""The input-contract, quadratic-field, Galois-module, check, unit, p-adic,
command-line, number-theory, integer-matrix, group-ring, cyclotomic,
special-unit and traced-name suites pass under ``python -O``.

`-O` strips `assert` statements, so any input validation or invariant check
still written as one disappears there.  Pytest rewrites the tests' own
asserts, so the tests keep checking.  Kept in its own module so that the
suites it runs do not run it again.
"""

import os
import subprocess
import sys
from pathlib import Path


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
