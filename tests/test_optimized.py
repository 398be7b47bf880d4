"""Static guards over every module of `src/rayverify`, and two runs under
``python -O``.

`-O` strips `assert` statements and ``if __debug__:`` blocks and sets
``sys.flags.optimize``; nothing else in a module's source behaves
differently there, except code compiled at run time, which loses its
asserts too.  So a static test that finds none of those constructs, nor a
call of the builtins `exec`, `eval` or `compile`, proves for every line of
the package, reached or not, that it behaves the same under `-O`.  Tier-1
itself checks that each suite passes, so re-running a whole suite under
`-O` would add nothing for the package.  Two runs under `-O` stay as
end-to-end witnesses, each in one child process: the acceptance gates,
and the golden report digests, whose commands cover every verb in
process.  Pytest rewrites the tests' own asserts, so the tests keep
checking there.

Beside it, static tests prove that no module holds a float, that only the
command-line program ends the process, and that no command can load
`cyclo`, `padics` or `grouprings`.  Kept in its own module so that the
suites it runs do not run it again.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rayverify"


#: the builtins that compile code at run time, whose asserts -O strips
_RUNTIME_COMPILERS = ("exec", "eval", "compile")


def _optimize_dependent(tree):
    """Line numbers of the code that behaves differently under -O: an
    `assert`, a use of `__debug__`, a read of `sys.flags.optimize`, or a
    call of a builtin in `_RUNTIME_COMPILERS`."""
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
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _RUNTIME_COMPILERS
        )
    )


def test_the_static_guard_sees_each_kind():
    code = (
        "import re, sys\nassert x\nif __debug__:\n    y = sys.flags.optimize\n"
        "exec('assert x')\neval('x')\nc = compile('assert x', 'f', 'exec')\n"
        "r = re.compile('x')\nz = x.eval()\n"
    )
    assert _optimize_dependent(ast.parse(code)) == [2, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_behaves_the_same_under_optimize(path):
    assert _optimize_dependent(ast.parse(path.read_text())) == []


_FLOAT_MATH = {"log", "log1p", "log2", "log10", "sin", "cos", "sqrt", "exp", "pi"}


def _float_constructs(tree):
    """Line numbers of floating point: a float literal, a call of `float`,
    or one of the `math` functions and constants in `_FLOAT_MATH`."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
        or (
            isinstance(node, ast.Attribute)
            and node.attr in _FLOAT_MATH
            and getattr(node.value, "id", None) == "math"
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "math"
            and any(alias.name in _FLOAT_MATH for alias in node.names)
        )
    )


def test_the_float_guard_sees_each_kind():
    code = (
        "import math\nfrom math import sqrt\nx = 0.5\ny = float(1)\n"
        + "".join("z = math.%s\n" % name for name in sorted(_FLOAT_MATH))
        + "w = math.isqrt(4) + math.gcd(2, 4) + 7 // 2\n"
    )
    assert _float_constructs(ast.parse(code)) == list(range(2, 5 + len(_FLOAT_MATH)))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_holds_no_float(path):
    assert _float_constructs(ast.parse(path.read_text())) == []


_EXIT_CALLS = {("os", "_exit"): "os._exit", ("sys", "exit"): "sys.exit"}


def _is_main_guard(node):
    """Whether `node` is ``if __name__ == "__main__":``."""
    test = getattr(node, "test", None)
    return (
        isinstance(node, ast.If)
        and isinstance(test, ast.Compare)
        and getattr(test.left, "id", None) == "__name__"
        and isinstance(test.ops[0], ast.Eq)
        and getattr(test.comparators[0], "value", None) == "__main__"
    )


def _process_exits(tree):
    """(kind, scope) of each statement that ends the process: a call of
    `os._exit`, `sys.exit` or a bare `exit`, `quit` or `_exit`, or a raise
    of `SystemExit`.  The scope is the name of the top-level function or
    class that holds it, "__main__" for the ``if __name__ == "__main__":``
    block, or None."""
    found = []
    for top in tree.body:
        scope = getattr(top, "name", "__main__" if _is_main_guard(top) else None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    kind = _EXIT_CALLS.get((getattr(func.value, "id", None), func.attr))
                elif isinstance(func, ast.Name) and func.id in ("exit", "quit", "_exit"):
                    kind = "exit"
                else:
                    kind = None
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                kind = "raise SystemExit" if getattr(exc, "id", None) == "SystemExit" else None
            else:
                kind = None
            if kind:
                found.append((node.lineno, kind, scope))
    return sorted(found)


def test_the_exit_guard_sees_each_kind():
    code = (
        "import os, sys\n"
        "def f():\n"
        "    sys.exit(1)\n"
        "class C:\n"
        "    def g(self):\n"
        "        os._exit(0)\n"
        "exit(2)\n"
        "quit()\n"
        "raise SystemExit(2)\n"
        "if __name__ == '__main__':\n"
        "    raise SystemExit\n"
        "if __name__ != '__main__':\n"
        "    _exit(0)\n"
        "raise ValueError(os.exit)\n"
    )
    assert _process_exits(ast.parse(code)) == [
        (3, "sys.exit", "f"), (6, "os._exit", "C"), (7, "exit", None),
        (8, "exit", None), (9, "raise SystemExit", None),
        (11, "raise SystemExit", "__main__"), (13, "exit", None),
    ]


#: the one module that ends the process, and how: its ``__main__`` block
#: leaves by `os._exit` or `sys.exit`, and `_fail` raises the SystemExit
#: of a usage error
_EXITS = {
    "cli.py": [("os._exit", "__main__"), ("raise SystemExit", "_fail"),
               ("sys.exit", "__main__")],
}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_command_line_program_ends_the_process(path):
    exits = [(kind, scope) for _, kind, scope in _process_exits(ast.parse(path.read_text()))]
    assert sorted(exits) == _EXITS.get(path.name, [])


#: the layers that no command loads: they stay for the gates, the test
#: oracles and the names the benchmark traces
_OFF_PATH = ("cyclo", "padics", "grouprings")


def _is_import_all(node):
    """Whether `node` is ``if __name__ != "__main__":``, the branch in which
    `cli` loads every module for the programs that import it."""
    test = getattr(node, "test", None)
    return (
        isinstance(node, ast.If)
        and isinstance(test, ast.Compare)
        and getattr(test.left, "id", None) == "__name__"
        and isinstance(test.ops[0], ast.NotEq)
        and getattr(test.comparators[0], "value", None) == "__main__"
    )


def _layers_named(node):
    """The rayverify layers that `node` imports: by ``import rayverify.X``,
    ``from rayverify import X``, ``from . import X``, ``from .X import Y`` or
    ``from rayverify.X import Y``, or names in a string (for
    `importlib.import_module` or a table of home modules) such as "X",
    ".X" or "rayverify.X"."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = ".".join(filter(None, ("rayverify" if node.level else "", node.module)))
        names = [base + "." + alias.name if base == "rayverify" else base
                 for alias in node.names]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names = ["rayverify." + node.value.lstrip(".").removeprefix("rayverify.")]
    else:
        return []
    return [name.split(".")[1] for name in names if name.startswith("rayverify.")]


def _off_path_imports(tree):
    """(line, layer, scope) for each import of a layer of `_OFF_PATH`.  The
    scope is "function" inside a function body, "import-all" in a top-level
    ``if __name__ != "__main__":`` block, and "module" elsewhere."""
    found = []
    stack = [(node, "import-all" if _is_import_all(node) else "module") for node in tree.body]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope = "function"
        found += [(node.lineno, layer, scope) for layer in _layers_named(node)
                  if layer in _OFF_PATH]
        stack += [(child, scope) for child in ast.iter_child_nodes(node)]
    return sorted(found)


def test_the_off_path_guard_sees_each_import_form():
    code = (
        "import rayverify.padics\n"
        "import rayverify.grouprings as G, rayverify.nt\n"
        "from rayverify import padics, nt\n"
        "from . import grouprings\n"
        "from .padics import PadicRing\n"
        "from rayverify.grouprings import galois_log_quad\n"
        "def f():\n"
        "    from .padics import PadicElement\n"
        "    return importlib.import_module('.grouprings', __package__)\n"
        "class C:\n"
        "    g = lambda: importlib.import_module('rayverify.padics')\n"
        "    homes = {'galois_log_quad': 'grouprings'}\n"
        "if __name__ != '__main__':\n"
        "    from . import cache, padics\n"
        "    from .nt import valuation\n"
        "if __name__ == '__main__':\n"
        "    import rayverify.grouprings\n"
        "from .padica import x\n"
        "'`padics` and `grouprings`'\n"
        "from .cyclo import FieldSpec\n"
        "def g():\n"
        "    from rayverify.cyclo import cyclotomic_polynomial\n"
        "from .nt import subgroup_generated\n"
        "from . import cyclotomic\n"
    )
    assert _off_path_imports(ast.parse(code)) == [
        (1, "padics", "module"), (2, "grouprings", "module"), (3, "padics", "module"),
        (4, "grouprings", "module"), (5, "padics", "module"), (6, "grouprings", "module"),
        (8, "padics", "function"), (9, "grouprings", "function"),
        (11, "padics", "function"), (12, "grouprings", "module"),
        (14, "padics", "import-all"), (17, "grouprings", "module"),
        (20, "cyclo", "module"), (22, "cyclo", "function"),
    ]


#: the only modules that import a layer of `_OFF_PATH`: the import-all
#: branch of `cli`; `grouprings`, in the functions that test for a
#: `PadicElement`; and `padics`, in `PadicRing.cyclotomic_root`.  So no
#: command loads any of the three
_OFF_PATH_IMPORTERS = {
    "cli.py": {("cyclo", "import-all"), ("grouprings", "import-all"),
               ("padics", "import-all")},
    "grouprings.py": {("padics", "function")},
    "padics.py": {("cyclo", "function")},
}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_listed_importers_import_the_off_path_layers(path):
    found = {(layer, scope) for _, layer, scope in _off_path_imports(ast.parse(path.read_text()))}
    assert found == _OFF_PATH_IMPORTERS.get(path.name, set())


def _pytest_under_optimize(*suites):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *suites],
        cwd=root, capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_golden_report_digests_hold_under_optimize():
    # the golden commands cover every verb, each run in process by `cli.main`
    _pytest_under_optimize("tests/test_cli.py::test_report_digests_are_golden")


def test_acceptance_suite_passes_under_optimize():
    _pytest_under_optimize("tests/test_acceptance.py")
