import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rayverify import __version__
from rayverify.cli import main
from rayverify.harness import COMMANDS, strip_timings
from test_benchmark_targets import _targets


def test_verify_rays_passes(capsys):
    code = main(["verify", "rays", "--quad", "5", "--ell", "2", "--p", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass] ray-residue-structure D=5 ell=2 p=3 e=1" in out
    assert "1 pass, 0 fail" in out


def test_default_field_per_target(capsys):
    code = main(["verify", "rays"])
    out = capsys.readouterr().out
    assert code == 0
    assert "D=5 ell=11 p=5" in out


def test_report_file_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(
            ["verify", "rays", "--quad", "13", "--ell", "3", "--p", "3",
             "--report", str(path), "--seed", "7"]
        )
        assert code == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["seed"] == 7
    assert strip_timings(ra) == strip_timings(rb)
    assert ra["version"]
    assert ra["field"]["discriminant"] == 13


def test_field_flag_resolves_and_rejects(capsys):
    code = main(["verify", "rays", "--field", "5:4", "--ell", "2", "--p", "3"])
    assert code == 0
    code = main(["verify", "rays", "--field", "16:15", "--ell", "2", "--p", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "only real quadratic" in err


def test_computational_error_exits_two(capsys):
    # 7 is ramified in no sense here: sinnott requires p unramified and odd;
    # p = 5 divides the discriminant, so the check refuses to run
    code = main(["verify", "sinnott", "--quad", "5", "--p", "5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


#: ``verify rays`` with ell = p ramified: O/(ell^e) used to be built before
#: the target refused it with a message that named no flag
_RAMIFIED_ELL_IS_P = [
    ["verify", "rays", "--quad", "5", "--ell", "5", "--p", "5"],
    ["verify", "rays", "--quad", "12", "--ell", "3", "--p", "3"],
]


@pytest.mark.parametrize("argv", _RAMIFIED_ELL_IS_P)
def test_rays_refuses_ell_equal_to_a_ramified_p_before_any_ring(argv, monkeypatch, capsys):
    from rayverify import gmodules

    built = []

    def residue_galois_module(*args):
        built.append(args)
        raise AssertionError("a residue ring was built")

    monkeypatch.setattr(gmodules, "residue_galois_module", residue_galois_module)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert built == [] and out == ""
    assert "error: --ell %s --p %s:" % (argv[5], argv[7]) in err
    assert "unramified" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "sinnott", "--quad", "5", "--prec", "6", "--d", "1"],
        ["verify", "gras"],
        ["verify", "rays"],
    ],
)
def test_a_strong_pseudoprime_to_every_base_is_no_verification_prime(argv, capsys):
    # 1287836182261 * 2575672364521 passes Miller-Rabin on the bases up to 41
    code = main(argv + ["--p", str(1287836182261 * 2575672364521)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "below 3317044064679887385961981" in err


def test_every_unread_engine_flag_exits_two(capsys, tmp_path):
    values = {"mode": "scan", "cache": str(tmp_path)}
    engine = {flag for _, flags in COMMANDS.values() for flag in flags}
    unread = [
        (verb, target, flag)
        for (verb, target), (_, flags) in COMMANDS.items()
        for flag in sorted(engine - set(flags))
    ]
    assert len(unread) == 26
    for verb, target, flag in unread:
        with pytest.raises(SystemExit) as exc:
            main([verb, target, "--" + flag, values.get(flag, "3")])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: --%s: %s %s does not read it" % (flag, verb, target) in err


def test_main_looks_the_runner_up_when_it_runs(monkeypatch, capsys):
    # so that a tracer which patches harness.run_rays records its span
    from rayverify import harness

    calls = []
    run_rays = harness.run_rays

    def spy(D, **opts):
        calls.append((D, opts))
        return run_rays(D, **opts)

    monkeypatch.setattr(harness, "run_rays", spy)
    assert main(["verify", "rays", "--quad", "5", "--ell", "11", "--p", "5"]) == 0
    assert calls == [(5, {"ell": 11, "p": 5})]
    assert "[pass] ray-residue-structure D=5 ell=11 p=5" in capsys.readouterr().out


def test_bad_usage_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _exit_code(argv):
    """main's exit status: returned, or raised as SystemExit on bad usage."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


_RAYS = ["verify", "rays", "--quad", "5"]
_TESTS_DIR = str(Path(__file__).resolve().parent)

#: argv -> (exit status, text on stdout, text on stderr).  An empty stdout
#: or stderr column means that stream must be empty.
_PARSER_CONTRACT = {
    # accepted forms
    "flag space value": (_RAYS + ["--ell", "2", "--p", "3"], 0, "D=5 ell=2 p=3 e=1", ""),
    "flag=value": (_RAYS + ["--ell=2", "--p=3"], 0, "D=5 ell=2 p=3 e=1", ""),
    "flags before the target": (
        ["--ell", "2", "verify", "--p", "3", "rays"], 0, "D=5 ell=2 p=3 e=1", ""),
    "the last repeat wins": (
        _RAYS + ["--ell", "7", "--p", "3", "--ell", "2"], 0, "D=5 ell=2 p=3 e=1", ""),
    "a negative value": (
        ["verify", "rays", "--quad", "-5"], 2, "", "it must be a positive non-square"),
    "a negative value=": (
        ["verify", "rays", "--quad=-5"], 2, "", "it must be a positive non-square"),
    # usage errors
    "no verb": ([], 2, "", "error: the following arguments are required: verb"),
    "no target": (["verify"], 2, "", "error: the following arguments are required: target"),
    "unknown verb": (
        ["prove", "rays"], 2, "",
        "error: argument verb: invalid choice: 'prove' (choose from 'verify', "
        "'explore', 'cache')"),
    "unknown target": (
        ["explore", "rays"], 2, "",
        "error: argument target: invalid choice: 'rays' (choose from 'conjecture')"),
    "unknown cache op": (
        ["cache", "purge"], 2, "",
        "error: argument target: invalid choice: 'purge' (choose from 'clear', 'stats')"),
    "a second target": (_RAYS + ["gras"], 2, "", "error: unrecognized arguments: gras"),
    "unknown flag": (_RAYS + ["--bogus", "1"], 2, "", "error: unrecognized arguments: --bogus"),
    "single dash": (_RAYS + ["-p", "3"], 2, "", "error: unrecognized arguments: -p"),
    "no abbreviation": (
        ["verify", "sinnott", "--pre", "12"], 2, "", "error: unrecognized arguments: --pre"),
    "flag at the end": (
        ["verify", "sinnott", "--prec"], 2, "", "error: argument --prec: expected one argument"),
    "flag before a flag": (
        ["verify", "sinnott", "--p", "--d", "1"], 2, "",
        "error: argument --p: expected one argument"),
    "non-int value": (
        ["verify", "sinnott", "--p", "x"], 2, "", "error: argument --p: invalid int value: 'x'"),
    "non-int value=": (
        ["verify", "sinnott", "--seed=1.5"], 2, "",
        "error: argument --seed: invalid int value: '1.5'"),
    "quad with field": (
        ["verify", "gras", "--quad", "5", "--field", "8:7"], 2, "",
        "error: argument --field: not allowed with argument --quad"),
    "field with quad": (
        ["verify", "gras", "--field", "8:7", "--quad", "5"], 2, "",
        "error: argument --quad: not allowed with argument --field"),
    "engine flag on cache": (
        ["cache", "stats", "--p", "3"], 2, "", "error: --p: cache stats does not read it"),
    "field flag on cache": (
        ["cache", "clear", "--quad", "5"], 2, "", "error: --quad: cache clear does not read it"),
    "report into a missing directory": (
        _RAYS + ["--ell", "2", "--p", "3", "--report", "no/such/dir/r.json"], 2, "",
        "error: argument --report: no directory 'no/such/dir' to write the report in"),
    # this ran the check and printed its verdict before the write failed
    "report naming a directory": (
        ["verify", "gras", "--quad", "5", "--report", _TESTS_DIR], 2, "",
        "error: argument --report: %r is a directory, not a file" % _TESTS_DIR),
    "cache flag off its mode": (
        ["verify", "annihilator", "--mode", "thaine", "--cache", "unused"], 2, "",
        "error: --cache: verify annihilator --mode thaine does not read it"),
    # help and version
    "--version": (["--version"], 0, "rayverify " + __version__, ""),
    "-h": (["-h"], 0, "usage: rayverify", ""),
    "--help": (["--help"], 0, "usage: rayverify", ""),
    "--help after a verb": (["verify", "--help"], 0, "usage: rayverify", ""),
    "-h after a target": (_RAYS + ["-h"], 0, "usage: rayverify", ""),
}


@pytest.mark.parametrize("case", sorted(_PARSER_CONTRACT))
def test_parser_contract(case, capsys):
    argv, code, out_text, err_text = _PARSER_CONTRACT[case]
    assert _exit_code(argv) == code
    out, err = capsys.readouterr()
    for stream, text in ((out, out_text), (err, err_text)):
        if text:
            assert text in stream
        else:
            assert stream == ""
    if "usage: rayverify" in out_text:
        # the help lists every command of the tables it is generated from
        listed = [line.split()[:2] for line in out.splitlines() if line.startswith("  ")]
        for verb, target in list(COMMANDS) + [("cache", "clear"), ("cache", "stats")]:
            assert [verb, target] in listed, (verb, target)


def test_cache_stats_and_clear(tmp_path, capsys):
    cachedir = str(tmp_path / "cache")
    code = main(
        ["verify", "annihilator", "--quad", "13", "--mode", "special",
         "--cache", cachedir]
    )
    assert code == 0
    capsys.readouterr()

    code = main(["cache", "stats", "--cache", cachedir])
    assert code == 0
    st = json.loads(capsys.readouterr().out)
    assert st["entries"] == 1  # the nine certificates of one run, in one entry

    code = main(["cache", "clear", "--cache", cachedir])
    assert code == 0
    assert "removed 1 entries" in capsys.readouterr().out

    code = main(["cache", "stats", "--cache", cachedir])
    assert json.loads(capsys.readouterr().out)["entries"] == 0


def test_cached_and_fresh_reports_agree(tmp_path):
    for quad in (5, 29):
        cachedir = tmp_path / ("cache%d" % quad)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):  # cold, then warm
            code = main(
                ["verify", "annihilator", "--quad", str(quad), "--mode", "special",
                 "--cache", str(cachedir), "--report", str(path)]
            )
            assert code == 0
            # the nine certificates of a run are one entry
            assert len(list(cachedir.glob("*.json"))) == 1
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        assert strip_timings(ra) == strip_timings(rb)
        assert ra["summary"]["pass"] == 9


def test_explore_conjecture_runs(capsys):
    code = main(["explore", "conjecture", "--quad", "5", "--p", "3", "--d", "18"])
    out = capsys.readouterr().out
    assert code == 0
    assert "unit-index-vs-ray-exponent D=5 d=18 p=3" in out


@pytest.mark.parametrize(
    "argv",
    [
        # 2 splits in Q(sqrt 17), so (O/2)^* is trivial
        ["verify", "gras", "--quad", "17", "--p", "3", "--d", "2"],
        ["explore", "conjecture", "--quad", "17", "--p", "3", "--d", "2"],
        # a class-group base generator that no other prime's class reaches
        ["verify", "gras", "--quad", "65", "--p", "3", "--d", "1"],
        ["verify", "annihilator", "--quad", "82", "--mode", "both"],
    ],
)
def test_formerly_failing_commands_pass(argv, capsys):
    assert main(argv) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("[")]
    assert lines and all(l.startswith("[pass]") for l in lines)


# ----------------------------------------------------------------------
# start-up: which modules a command loads

def _run_python(args):
    """A fresh interpreter on `args`, with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def _modules_after(code, also=()):
    """The rayverify modules loaded after running `code` in a fresh process,
    plus those of the names in `also` (such as "dataclasses") that are loaded.

    They are listed by an exit handler, since a command run as a program
    ends the process by `os._exit` once its handlers have run."""
    # listed before the handler imports json, so that `also` may name it
    script = (
        "import atexit, sys\n"
        "def _list():\n"
        "    loaded = sorted(m for m in sys.modules "
        "if m.startswith('rayverify') or m in %r)\n"
        "    import json\n"
        "    print(json.dumps(loaded))\n"
        "atexit.register(_list)\n" % (tuple(also),)
    ) + code
    proc = _run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _as_program(argv):
    # what `python -m rayverify.cli ARGV` runs
    return (
        "import runpy\n"
        "sys.argv = ['rayverify'] + %r\n"
        "runpy.run_module('rayverify.cli', run_name='__main__', alter_sys=True)\n"
        % (argv,)
    )


def _as_script(argv):
    # what the `rayverify` console script runs
    return (
        "from rayverify.__main__ import main\n"
        "sys.argv = ['rayverify'] + %r\n"
        "main()\n" % (argv,)
    )


#: standard modules that the front end loads only where it uses them:
#: `argparse` never, as `cli` parses argv from its own tables; `hashlib`
#: never, as the cache's source digest is two `zlib` checksums; `json` for
#: the cache and ``--report``
_FRONT_END = ("argparse", "hashlib", "json")


@pytest.mark.parametrize(
    "argv", [["--version"], ["cache", "stats"], ["cache", "clear"]]
)
def test_version_and_cache_commands_load_no_engine_layer(argv, tmp_path):
    # --version is answered before the command table (`harness`) is loaded
    expected, allowed = {"rayverify"}, set()
    if argv[0] == "cache":
        argv = argv + ["--cache", str(tmp_path)]
        # the cache reads and writes JSON entries named by a source digest
        expected |= {"rayverify.harness", "rayverify.cache"}
        allowed = {"json"}
    loaded = _modules_after(_as_program(argv), also=_FRONT_END)
    assert loaded - allowed == expected, sorted(loaded)
    loaded = _modules_after(_as_script(argv), also=_FRONT_END)
    assert loaded - allowed == expected | {"rayverify.__main__"}, sorted(loaded)


def test_python_m_rayverify_runs_the_command_line():
    proc = _run_python(["-m", "rayverify", "verify", "rays", "--ell", "2", "--p", "3"])
    assert proc.returncode == 0, proc.stderr
    assert "[pass] ray-residue-structure D=5 ell=2 p=3 e=1" in proc.stdout


#: what every verify or explore command loads: the command line, the shared
#: part of the checks and `nt`, which reads the field
_BASE = {"rayverify", "rayverify.harness", "rayverify.checks", "rayverify.nt"}

_RAYS = {"quadratic", "gmodules", "intmat", "residues"}
_RAY_CLASS = _RAYS | {"rayclass", "classgroup", "units", "circular"}


def _with_cache(argv, directory):
    """argv with the word after --cache, "cold" or "warm", replaced by the
    fresh cache `directory`, which one cold run primes when it is "warm"."""
    if "--cache" not in argv:
        return argv
    i = argv.index("--cache") + 1
    out = argv[:i] + [str(directory)] + argv[i + 1:]
    if argv[i] == "warm":
        _modules_after(_as_program(out))
    return out


#: each command loads the module of its check family, which holds its
#: runner.  No command loads `cyclo`: each check builds its Galois group
#: {1, sigma} in `quadratic`, and a --field is read with `nt` alone;
#: sinnott and solomon decide their claims in integers, so no command loads
#: `grouprings` or `padics`.  A class group (`classgroup`) and the unit
#: group (`units`) come only with a ray class group (`rayclass`) or with
#: sinnott, and no command loads `fractions`.  h90 loads the cyclotomic
#: numbers (`circular`) but neither `units` nor `gmodules`.
#: No command loads `argparse` or `hashlib`, and only the special
#: annihilator loads the certificate cache (`cache`); served from the
#: cache, it loads neither `quadratic` nor `special`.
@pytest.mark.parametrize(
    "argv, layers, fraction_free",
    [
        (["verify", "rays"], {"checks_rays"} | _RAYS, True),
        (["verify", "gras"], {"checks_gras"} | _RAY_CLASS, True),
        (["verify", "gras", "--mode", "scan", "--d", "12"], {"checks_gras"} | _RAY_CLASS, True),
        (["explore", "conjecture"], {"checks_gras"} | _RAY_CLASS, True),
        (["verify", "sinnott"], {"checks_sinnott", "quadratic", "units", "circular"}, True),
        (["verify", "h90", "--quad", "13", "--ell", "53"],
         {"checks_special", "quadratic", "special", "circular"}, True),
        (["verify", "annihilator", "--quad", "5", "--mode", "special", "--cache", "cold"],
         {"checks_annihilators", "quadratic", "special", "circular", "cache"}, True),
        # every certificate is served from the cache: the entry is read, and
        # nothing is built
        (["verify", "annihilator", "--quad", "5", "--mode", "special", "--cache", "warm"],
         {"checks_annihilators", "cache"}, True),
        (["verify", "annihilator", "--mode", "thaine"],
         {"checks_annihilators", "special"} | _RAY_CLASS, True),
        (["verify", "annihilator", "--mode", "solomon"],
         {"checks_annihilators"} | _RAY_CLASS, True),
        (["verify", "annihilator", "--mode", "both"],
         {"checks_annihilators", "special"} | _RAY_CLASS, True),
        (["verify", "rays", "--field", "5:4"], {"checks_rays"} | _RAYS, True),
        # the index-2 subgroup {1, 4, 11, 14} of (Z/15)^*: conductor 5
        (["verify", "gras", "--field", "15:4,14"], {"checks_gras"} | _RAY_CLASS, True),
    ],
)
def test_each_command_loads_only_the_layers_it_calls(argv, layers, fraction_free, tmp_path):
    expected = _BASE | {"rayverify." + name for name in layers}
    loaded = _modules_after(
        _as_program(_with_cache(argv, tmp_path / "program")),
        also=("dataclasses", "fractions") + _FRONT_END,
    )
    assert "dataclasses" not in loaded
    assert "argparse" not in loaded
    assert "hashlib" not in loaded
    if fraction_free:
        assert "fractions" not in loaded
    loaded -= {"fractions", "json"}
    assert loaded == expected, sorted(loaded)
    loaded = _modules_after(_as_script(_with_cache(argv, tmp_path / "script")))
    assert loaded == expected | {"rayverify.__main__"}, sorted(loaded)


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rayverify"

#: the checks and the layers under them that import neither `cyclo` nor
#: `grouprings` when they load, so that the commands which never call into
#: those two do not compile them
_BELOW_GROUP_RINGS = (
    "checks", "checks_annihilators", "checks_gras", "checks_rays",
    "checks_sinnott", "checks_special", "quadratic", "classgroup", "residues",
    "gmodules", "rayclass", "intmat", "units", "circular", "padics", "special",
    "nt",
)


def _module_level_layers(tree):
    """(line, layer) for each rayverify layer imported when the module loads:
    by any import statement outside a function body."""
    found = []
    stack = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is relative to the package
            base = ".".join(filter(None, ("rayverify" if node.level else "", node.module)))
            names = [base + "." + a.name for a in node.names]
        else:
            continue
        found += [(node.lineno, name.split(".")[1]) for name in names
                  if name.startswith("rayverify.")]
    return sorted(found)


def test_the_static_layer_guard_sees_each_kind():
    code = (
        "from .cyclo import FieldSpec\n"
        "from . import grouprings, nt\n"
        "import rayverify.cyclo\n"
        "def f():\n"
        "    from .grouprings import GaloisGroup\n"
        "if f:\n"
        "    from rayverify import grouprings\n"
        "class C:\n"
        "    from rayverify.cyclo import FieldSpec\n"
    )
    assert _module_level_layers(ast.parse(code)) == [
        (1, "cyclo"), (2, "grouprings"), (2, "nt"), (3, "cyclo"),
        (7, "grouprings"), (9, "cyclo"),
    ]


@pytest.mark.parametrize("name", _BELOW_GROUP_RINGS)
def test_layer_imports_neither_cyclo_nor_grouprings_when_it_loads(name):
    tree = ast.parse((PACKAGE / (name + ".py")).read_text())
    found = [(line, layer) for line, layer in _module_level_layers(tree)
             if layer in ("cyclo", "grouprings")]
    assert found == [], name


@pytest.mark.parametrize("name", ("quadratic", "special", "circular", "gmodules"))
def test_layer_imports_neither_units_nor_rayclass_when_it_loads(name):
    # so that h90 compiles neither, and rays no ray class group
    tree = ast.parse((PACKAGE / (name + ".py")).read_text())
    found = [(line, layer) for line, layer in _module_level_layers(tree)
             if layer in ("units", "rayclass")]
    assert found == [], name


def test_harness_imports_no_check_module_when_it_loads():
    # each runner lives in its family, which `cli` reaches through `_MOVED`
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    found = [(line, layer) for line, layer in _module_level_layers(tree)
             if layer.startswith("checks")]
    assert found == []


def test_module_import_loads_every_module_of_the_package():
    # importers that instrument the layers (perfbench/tracer.py) find every
    # one of them loaded; __main__ is the entry point, not a layer
    every = {
        "rayverify" if path.stem == "__init__" else "rayverify." + path.stem
        for path in PACKAGE.glob("*.py")
        if path.stem != "__main__"
    }
    assert _modules_after("import rayverify.cli") == every


#: every table of names that resolve in another module than their home
_LAZY_TABLES = [
    ("checks", "_HOMES"), ("quadratic", "_MOVED"), ("harness", "_MOVED"),
    ("units", "_MOVED"), ("gmodules", "_MOVED"), ("special", "_MOVED"),
]


def test_every_lazy_table_is_listed():
    tables = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                tables |= {(path.stem, t.id) for t in node.targets
                           if isinstance(t, ast.Name) and t.id in ("_HOMES", "_MOVED")}
    assert tables == set(_LAZY_TABLES)


def _defined_names(path):
    """The functions and classes a module defines, at any depth."""
    return {node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


@pytest.mark.parametrize("name, table", _LAZY_TABLES)
def test_a_lazy_name_has_one_home(name, table):
    # a move leaves no second definition behind, in any module of the package
    homes = getattr(importlib.import_module("rayverify." + name), table)
    defined = {path.stem: _defined_names(path) for path in PACKAGE.glob("*.py")}
    for attr, home in homes.items():
        others = sorted(stem for stem, names in defined.items() if attr in names and stem != home)
        assert others == [], attr


@pytest.mark.parametrize("name, table", _LAZY_TABLES)
def test_lazy_names_are_the_objects_their_home_modules_define(name, table):
    module = importlib.import_module("rayverify." + name)
    homes = getattr(module, table)
    assert homes
    for attr, home in homes.items():
        home_module = importlib.import_module("rayverify." + home)
        value = vars(home_module)[attr]
        assert getattr(module, attr) is value, attr
        if callable(value):  # defined there, not imported from elsewhere
            assert value.__module__ == home_module.__name__, attr
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


@pytest.mark.parametrize("name, table", _LAZY_TABLES)
def test_a_lazy_table_lists_only_traced_names(name, table):
    # each key is a name `TARGETS` reads in that layer, or the class of one
    # of its `Class.attr` entries, so the tables can only shrink
    traced = {qual.partition(".")[0] for qual in _targets().get(name, ())}
    homes = getattr(importlib.import_module("rayverify." + name), table)
    assert sorted(set(homes) - traced) == []


# ----------------------------------------------------------------------
# how a command run as a program ends: exit handlers, a flush, `os._exit`

_SINNOTT = ["verify", "sinnott", "--quad", "5", "--p", "7", "--prec", "12", "--d", "6"]


def test_stdout_to_a_file_is_complete_and_in_order(tmp_path):
    # block-buffered: nothing reaches the file before the flush at the end
    out_path, report_path = tmp_path / "out.txt", tmp_path / "report.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    with open(out_path, "w") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "rayverify", *_SINNOTT, "--report", str(report_path)],
            stdout=out, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text())
    s = report["summary"]
    expected = ["[%s] %s (%.2fs)" % (c["status"], c["name"], c["elapsed"])
                for c in report["checks"]]
    expected += [
        "verify sinnott on discriminant 5: %d pass, %d fail, %d inconclusive, "
        "%d falsifies-paper" % (s["pass"], s["fail"], s["inconclusive"], s["falsifies-paper"]),
        "report written to %s" % report_path,
    ]
    assert out_path.read_text().splitlines() == expected
    assert len(report["checks"]) > 1
    in_process = tmp_path / "in-process.json"
    assert main(_SINNOTT + ["--report", str(in_process)]) == 0
    assert strip_timings(report) == strip_timings(json.loads(in_process.read_text()))


#: (argv, exit status): a pass, an engine error that `main` returns, and a
#: usage error that `main` raises as SystemExit
_ENDINGS = [
    (["verify", "rays", "--quad", "5", "--ell", "11", "--p", "5"], 0),
    (_RAMIFIED_ELL_IS_P[0], 2),
    (["verify", "rays", "--ell"], 2),
]


@pytest.mark.parametrize("entry", ["rayverify", "rayverify.cli"])
@pytest.mark.parametrize("argv, status", _ENDINGS)
def test_a_program_exits_with_the_status_of_main(entry, argv, status):
    proc = _run_python(["-m", entry, *argv])
    assert proc.returncode == status, proc.stderr
    if status:
        assert proc.stdout == "" and "error:" in proc.stderr
    else:
        assert "1 pass, 0 fail" in proc.stdout and proc.stderr == ""


@pytest.mark.parametrize("argv, status", _ENDINGS)
def test_exit_handlers_run_once(argv, status):
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'exit handler ran')\n"
        "sys.argv = ['rayverify'] + %r\n"
        "runpy.run_module('rayverify.cli', run_name='__main__', alter_sys=True)\n"
        % (argv,)
    )
    proc = _run_python(["-c", script])
    assert proc.returncode == status, proc.stderr
    assert proc.stdout.count("exit handler ran") == 1
    assert proc.stdout.endswith("exit handler ran\n")


def test_a_failed_flush_is_left_to_the_interpreter():
    # as with sys.exit: the interpreter reports the error and exits 120
    script = (
        "import atexit, io, runpy, sys\n"
        "class Closed(io.StringIO):\n"
        "    def flush(self):\n"
        "        raise BrokenPipeError(32, 'Broken pipe')\n"
        "atexit.register(print, 'exit handler ran', file=sys.stderr)\n"
        "sys.stdout = Closed()\n"
        "sys.argv = ['rayverify', '--version']\n"
        "runpy.run_module('rayverify.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = _run_python(["-c", script])
    assert proc.returncode == 120, proc.stderr
    assert proc.stderr.count("exit handler ran") == 1
    # reported once, by the interpreter's own flush
    assert proc.stderr.count("Traceback") == 1
    assert "Exception ignored" in proc.stderr and "BrokenPipeError" in proc.stderr


def test_a_command_without_stdout_exits_zero():
    # sys.stdout is None when descriptor 1 was closed at start-up
    script = (
        "import runpy, sys\n"
        "sys.stdout = None\n"
        "sys.argv = ['rayverify', '--version']\n"
        "runpy.run_module('rayverify.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = _run_python(["-c", script])
    assert proc.returncode == 0 and proc.stderr == ""


def test_a_profiled_command_still_prints_its_statistics():
    proc = _run_python(["-m", "cProfile", "-m", "rayverify.cli", "--version"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rayverify %s\n" % __version__)
    assert "function calls" in proc.stdout


# ----------------------------------------------------------------------
# golden report digests: reports are byte-identical up to `timings`

#: sha256 of json.dumps(strip_timings(report), sort_keys=True) per argv.  A
#: change that alters a witness on purpose updates the digest and says why.
#: The sinnott digests carry the k_p embedding ("hensel" or "hensel-inert")
#: and each record's ``content``.
_GOLDEN = {
    # the README verify and explore commands
    "verify sinnott --quad 5 --p 7 --prec 12 --d 6":
        "cc62f7ab305bd49628213608b83f0ede770289777deebe575bba83e178651381",
    "verify rays --quad 5 --ell 11 --p 5":
        "c546f62c414dfb1c5e9b519c13fb72aa6bde72fdd9d317c21ab9b0e1199214b6",
    "verify gras --quad 79 --p 3 --d 1":
        "3cfad0802b76ae60226a5e81630682c082921c0c387b3d5d232a83638a289014",
    "verify gras --quad 5 --mode scan --d 50":
        "0e4f170eaa0cf4032ca628814007ae6026fd25051075a8c6635e4107d18310f6",
    "verify h90 --quad 13 --ell 53":
        "ee3e2f977e13b84cc1626cbc27acf78bfd286f959cb8717377f5c3fca84df399",
    "verify annihilator --quad 79 --mode both --p 3":
        "5d3d73ffdcc68a2760066eedba098816b10c3ba3935e120753230e834e164328",
    "verify annihilator --quad 5 --mode special":
        "6829b74955342ae4b8267d6687b560035066b05158e9de0f7ad6dcdd18006c56",
    "explore conjecture --quad 5 --p 3 --d 18":
        "c0fcdb728278d0a7cfdf5ce026a956605733560aaf15afdab71cc84f6c669e7d",
    # rho-parts at larger moduli and a prime-power residue module
    "verify gras --quad 79 --mode scan --d 12":
        "ab79dd9bf8ee4171a52aeee93118bd7001eff433fcd4323a49a70306ef2fad94",
    "verify gras --quad 13 --mode scan --d 30 --p 3":
        "27862d563b205a49d7c5edf7c0d7c5ce91002761517a3941b64742ed442a38b5",
    "verify annihilator --quad 79 --mode solomon --p 3 --modulus 12":
        "e5a2cab6307554ee552849b8ff5869f77cff7b26c00c69a028e602c6f957110d",
    "verify rays --quad 12 --ell 7 --p 7 --modulus 2401":
        "916353228b8f0a2e8596899883fe0b240682e5d182a76894f46084e3f7471541",
    # the p-adic side at 40 digits, for split p with ord_D(p) = 4 and 6
    "verify sinnott --quad 120 --p 7 --prec 40 --d 12":
        "fb0f5c8c5f86a6e290ea5c34289626cdcd927d609309e0c02d1eaafac6f5965b",
    "verify sinnott --quad 56 --p 5 --prec 40 --d 12":
        "cffd4d24e2c4eaecbaa8ea9f83db1f23ea3b8c7e39c9ef510fbd8aa3884da6ae",
    # new: p = 5 in the denominator of a cyclotomic number (it used to exit 2)
    "verify sinnott --quad 12 --p 5 --prec 12 --d 6":
        "e75c78f8b9e41b173b1b69b0b33146bd3de09a099d80abe89ee9fde1d57c26e0",
    # a class prime relation at M = 1 on D = 3084 (it used to take 30 s)
    "verify gras --quad 771 --p 3 --d 1":
        "55fc696eafbdd6ba2b7fae6afd7aa590bc7ebc9635fc9766abda1952cea6a459",
    # new: the unit of radicand 1549, and thaine at D = 3084 (neither finished)
    "verify gras --quad 1549 --p 3 --d 1":
        "26afeb6d048994ac66942dbaa233d5bf182b86b2a4da3de6fdca87b61a49b440",
    "verify annihilator --quad 771 --mode thaine --p 3":
        "d18da9c373e4bf1e874549179fd8f912762734d1144eb620e04075f68f9f6b61",
    # thaine at ell = 1 mod n for large n: the digest at p = 100003 is the
    # one the F_ell^* tables gave in about two minutes; p = 1000003 is new
    "verify annihilator --quad 79 --mode thaine --p 100003":
        "b2b09a0469ca09fe563075bdb64ac8ba223ac1b6f400e170672196d807e5484f",
    "verify annihilator --quad 5 --mode thaine --p 1000003":
        "3e58bdba9b2d35b127a738195c31e5be161c03e4fd22f46ad92cc6b5c25c34d9",
    # u_D and the special units at large radicands, from products modulo
    # primes: the first two digests are those of the earlier exact routes
    "verify sinnott --quad 9001 --p 3 --d 1":
        "30ed3c21149e7b64257946cbc7f58192e617ea4a5b69d3d5f40cd658142b6b7d",
    # sinnott at a large p, inert (D = 5) and split (D = 13): the digests of
    # the p-adic route, which the unit-exponent route reproduces
    "verify sinnott --quad 5 --p 1000003 --prec 40 --d 6":
        "525b2882958faee63d812339a3a8f3fa200c90b2c10d75bc7727112f10df7557",
    "verify sinnott --quad 13 --p 1000003 --prec 12 --d 12":
        "4c69c94b8d607f9c1b85dc087b6ea37a6ed41e25823798d05820e189453568d0",
    "verify annihilator --quad 1549 --mode special":
        "24d633926cbf6772578d151f3b95126b6c785b17177467955445f37990258824",
    # new: D = 38476 (no result in 120 s before): unit index 1, ray order 1
    "verify gras --quad 9619 --p 3 --d 1":
        "f8529510d1772c6e90a4e0c153f1802a68d1d58c348c3b387ebb8900904b57bf",
}


@pytest.mark.parametrize("command", sorted(_GOLDEN))
def test_report_digests_are_golden(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RAYVERIFY_CACHE", str(tmp_path / "cache"))
    path = tmp_path / "report.json"
    assert main(command.split() + ["--report", str(path)]) == 0
    capsys.readouterr()
    report = strip_timings(json.loads(path.read_text()))
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == _GOLDEN[command]


#: commands that once ran for minutes or without end, with their budgets in
#: seconds: a regression fails here instead of stalling the suite
_FORMER_HANGS = {
    "verify gras --quad 1549 --p 3 --d 1": 5,
    "explore conjecture --quad 1549 --p 3 --d 1": 5,
    "verify gras --quad 771 --p 3 --d 1": 2,
    "verify annihilator --quad 771 --mode thaine --p 3": 2,
    # a square root of D mod p found by scanning F_p: solomon gave no result
    # in 30 s; sinnott stopped with "too large" before it got there
    "verify annihilator --quad 5 --mode solomon --p 1000000009": 5,
    "verify sinnott --quad 5 --p 1000000009": 5,
    # thaine scanned every odd q for ell = 1 mod p and tabled F_ell^*: about
    # two minutes at p = 100003, and no result in 200 s at p = 1000003
    "verify annihilator --quad 79 --mode thaine --p 100003": 5,
    "verify annihilator --quad 5 --mode thaine --p 1000003": 5,
    # u_D in O(D^2) list passes, and F_t by Newton's identities in k
    "verify gras --quad 9619 --p 3 --d 1": 5,
    "verify annihilator --quad 1549 --mode special": 2,
    # 8 of its 19 orbit products were repeats, each lifted over 8 primes
    # where 3 do: 7.2 s
    "verify annihilator --quad 9001 --mode special": 5,
    # the Galois group {1, sigma} was built by listing (Z/D)^*: 3.9 s and
    # 200 MB peak RSS
    "verify rays --quad 1000033 --ell 2 --p 3": 2,
    # each norm took ell - 3 products, and the h90 chain took its own norm
    # besides; the digits were unpacked byte by byte: 2.0 s
    "verify h90 --quad 5 --ell 241": 1.5,
}


@pytest.mark.parametrize("command", sorted(_FORMER_HANGS))
def test_former_hangs_finish_within_budget(command, tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
        RAYVERIFY_CACHE=str(tmp_path),
    )
    proc = subprocess.run(
        [sys.executable, "-m", "rayverify"] + command.split(),
        capture_output=True, text=True, env=env, timeout=_FORMER_HANGS[command],
    )
    assert proc.returncode == 0, proc.stderr
