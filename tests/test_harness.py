import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rayverify.checks import CheckResult
from rayverify.cyclo import FieldSpec
from rayverify.gmodules import residue_structure_target
from rayverify.grouprings import GaloisGroup
from rayverify.harness import (
    COMMANDS,
    Cache,
    build_report,
    resolve_discriminant,
    run_annihilator,
    run_conjecture,
    run_gras,
    run_rays,
    run_sinnott,
    strip_timings,
)


def _result(status, elapsed=0.0, witness=None):
    return CheckResult(
        name="stub %s" % status,
        anchor="stub",
        status=status,
        witness=witness or {},
        elapsed=elapsed,
    )


def test_cache_roundtrip(tmp_path):
    cache = Cache(tmp_path / "c")
    assert cache.get("missing") is None
    cache.put("entry-1", {"a": [1, 2], "b": "x"})
    assert cache.get("entry-1") == {"a": [1, 2], "b": "x"}
    st = cache.stats()
    assert st["entries"] == 1
    assert st["bytes"] > 0
    assert cache.clear() == 1
    assert cache.get("entry-1") is None
    assert cache.stats()["entries"] == 0


def test_cache_ignores_corrupt_entries(tmp_path):
    cache = Cache(tmp_path)
    cache.put("k", {"v": 1})
    path = next(tmp_path.glob("*.json"))
    path.write_text("{not json")
    assert cache.get("k") is None


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("RAYVERIFY_CACHE", str(tmp_path / "envcache"))
    cache = Cache()
    cache.put("k", {"v": 2})
    assert (tmp_path / "envcache").is_dir()
    assert Cache().get("k") == {"v": 2}


def test_cache_keys_are_version_scoped(tmp_path):
    from rayverify import __version__

    cache = Cache(tmp_path)
    cache.put("k", {"v": 1})
    assert "v%s" % __version__ in next(tmp_path.glob("*.json")).name


def test_cache_entries_of_other_code_are_not_returned(tmp_path, monkeypatch):
    from rayverify import harness

    cache = Cache(tmp_path)
    monkeypatch.setattr(harness, "source_digest", lambda: "0" * 64)
    cache.put("k", {"v": 1})
    assert cache.get("k") == {"v": 1}
    monkeypatch.undo()
    assert cache.get("k") is None
    assert harness.source_digest()[:16] in cache._path("k").name


def test_cache_put_evicts_entries_of_other_code(tmp_path, monkeypatch):
    from rayverify import __version__, harness

    cache = Cache(tmp_path)
    (tmp_path / ("k-v%s.json" % __version__)).write_text("{}")  # pre-digest name
    (tmp_path / "kk-v0.0.1.json").write_text("{}")  # another key
    monkeypatch.setattr(harness, "source_digest", lambda: "0" * 64)
    cache.put("k", {"v": 1})
    cache.put("j", {"v": 1})
    monkeypatch.undo()
    st = cache.stats()
    # the pre-digest entry of "k" is gone
    assert (st["entries"], st["stale"]) == (0, 3)
    cache.put("k", {"v": 2})
    names = sorted(p.name for p in tmp_path.glob("*.json"))
    old_j = "j-v%s-%s.json" % (__version__, "0" * 16)
    assert names == sorted([cache._path("k").name, old_j, "kk-v0.0.1.json"])
    st = cache.stats()
    assert (st["entries"], st["stale"]) == (1, 2)
    assert st["bytes"] == cache._path("k").stat().st_size


def test_cache_clear_and_stats_see_only_entries(tmp_path):
    from rayverify import __version__

    cache = Cache(tmp_path)
    cache.put("k", {"v": 1})
    (tmp_path / ("k-v%s.json" % __version__)).write_text("{}")  # pre-digest name
    foreign = ["package.json", "my-venv.json", "k-v0.1.0-notadigest.json"]
    for name in foreign:
        (tmp_path / name).write_text("{}")
    st = cache.stats()
    assert (st["entries"], st["stale"]) == (1, 1)
    assert cache.clear() == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(foreign)


def test_resolve_discriminant_normalizes():
    assert resolve_discriminant(quad=5) == 5
    assert resolve_discriminant(quad=79) == 316
    assert resolve_discriminant(quad=316) == 316
    assert resolve_discriminant(quad=12) == 12


def test_resolve_discriminant_field_strings():
    assert resolve_discriminant(field="5:4") == 5
    gens = ",".join(str(a) for a in FieldSpec.quadratic(316).H)
    assert resolve_discriminant(field="316:%s" % gens) == 316
    # conductor reduction: the index-two subgroup {1,4,11,14} of (Z/15)^*
    # cuts out a field of conductor 5
    assert resolve_discriminant(field="15:4,14") == 5


def test_resolve_discriminant_rejects_non_quadratic():
    with pytest.raises(ValueError, match="real quadratic"):
        resolve_discriminant(field="16:15")
    with pytest.raises(ValueError, match="--quad or --field"):
        resolve_discriminant()


def test_resolve_discriminant_checks_field_arguments():
    with pytest.raises(ValueError, match="at least 3"):
        resolve_discriminant(field="2:1")
    with pytest.raises(ValueError, match="not prime to 15"):
        resolve_discriminant(field="15:4,5")
    with pytest.raises(ValueError, match="not real"):
        resolve_discriminant(field="7:2")  # Q(sqrt -7)


@pytest.mark.parametrize("quad", [0, 1, 4, 9, -3, -5])
def test_resolve_discriminant_checks_quad(quad):
    with pytest.raises(ValueError, match="real quadratic"):
        resolve_discriminant(quad=quad)


def test_build_report_summary_and_exit_status():
    results = [_result("pass", 0.5), _result("inconclusive", 0.25)]
    rep = build_report("verify rays", 5, {"ell": 2}, results)
    assert rep["exit_status"] == 0
    assert rep["summary"] == {
        "pass": 1,
        "fail": 0,
        "inconclusive": 1,
        "falsifies-paper": 0,
    }
    assert rep["timings"]["total"] == 0.75
    assert rep["field"] == {"type": "real-quadratic", "discriminant": 5}

    rep = build_report("verify rays", 5, {}, results + [_result("fail")])
    assert rep["exit_status"] == 1
    rep = build_report("verify rays", 5, {}, [_result("falsifies-paper")])
    assert rep["exit_status"] == 1


def test_build_report_collects_embeddings():
    results = [
        _result("pass", witness={"embedding": "hensel"}),
        _result("pass", witness={"embedding": "gauss"}),
        _result("pass", witness={"embedding": "gauss"}),
    ]
    rep = build_report("verify sinnott", 5, {}, results)
    assert rep["embeddings"] == ["gauss", "hensel"]


def test_strip_timings_makes_reports_comparable():
    a = build_report("verify rays", 5, {}, [_result("pass", 0.1)])
    b = build_report("verify rays", 5, {}, [_result("pass", 0.9)])
    assert a != b
    assert strip_timings(a) == strip_timings(b)
    assert json.dumps(strip_timings(a), sort_keys=True) == json.dumps(
        strip_timings(b), sort_keys=True
    )


def test_command_table_is_complete():
    assert set(COMMANDS) == {
        ("verify", "sinnott"),
        ("verify", "rays"),
        ("verify", "gras"),
        ("verify", "h90"),
        ("verify", "annihilator"),
        ("explore", "conjecture"),
    }


def test_each_runner_takes_exactly_the_flags_of_its_table_entry():
    from rayverify import harness

    for (verb, target), (quad, flags) in COMMANDS.items():
        code = getattr(harness, "run_" + target).__code__
        assert code.co_varnames[: code.co_argcount] == ("D",) + flags, target
        assert code.co_kwonlyargcount == 0, target
        assert not code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS), target
        assert resolve_discriminant(quad) in (5, 316), target


def test_run_rays_modulus_must_be_prime_power():
    rep = run_rays(13, ell=3, p=3, modulus=9)
    assert rep["params"]["exponent"] == 2
    with pytest.raises(ValueError, match="power of ell"):
        run_rays(13, ell=3, p=3, modulus=12)
    with pytest.raises(ValueError, match="power of ell"):
        run_rays(13, ell=3, p=3, modulus=0)
    with pytest.raises(ValueError, match="must be a prime"):
        run_rays(13, ell=12, p=3)


def test_p_prec_and_d_contracts():
    for p in (1, 2, 4, 9, 15, -3):
        with pytest.raises(ValueError, match="odd prime"):
            run_gras(5, p=p)
        with pytest.raises(ValueError, match="odd prime"):
            run_gras(5, p=p, d=2, mode="scan")
        with pytest.raises(ValueError, match="odd prime"):
            run_rays(5, ell=11, p=p)
        with pytest.raises(ValueError, match="odd prime"):
            run_sinnott(5, p=p)
        with pytest.raises(ValueError, match="odd prime"):
            run_conjecture(5, p=p)
    with pytest.raises(ValueError, match="must not divide"):
        run_sinnott(5, p=5)
    with pytest.raises(ValueError, match="must not divide"):
        run_sinnott(12, p=3)
    with pytest.raises(ValueError, match="--prec -1"):
        run_sinnott(5, p=7, prec=-1)
    with pytest.raises(ValueError, match="at least 1"):
        run_gras(5, d=0, mode="scan")
    with pytest.raises(ValueError, match="at least 1"):
        run_conjecture(5, d=-2)
    for d in (0, -2):
        with pytest.raises(ValueError, match="--d %d: the twist bound" % d):
            run_sinnott(5, p=7, d=d)
    for mode in ("bogus", "Scan", ""):
        with pytest.raises(ValueError, match="single, scan"):
            run_gras(5, mode=mode)
    for p, mode in [(4, "thaine"), (2, "thaine"), (9, "both"), (1, "solomon")]:
        with pytest.raises(ValueError, match="odd prime"):
            run_annihilator(79, p=p, mode=mode)
    for mode in ("solomon", "both"):
        with pytest.raises(ValueError, match="splits in k"):
            run_annihilator(17, p=3, mode=mode)
    for flag in ("p", "modulus"):
        with pytest.raises(ValueError, match="--%s: .* special does not read it" % flag):
            run_annihilator(5, mode="special", **{flag: 3})
    for mode in ("thaine", "solomon", "both"):
        with pytest.raises(ValueError, match="--cache: .* --mode %s does not" % mode):
            run_annihilator(79, mode=mode, cache="unused")
    group = GaloisGroup(FieldSpec.quadratic(5))
    with pytest.raises(ValueError, match="must not divide the degree"):
        residue_structure_target(group, 11, 2)


# ----------------------------------------------------------------------
# input contracts hold with and without -O


@pytest.mark.parametrize("optimize", ([], ["-O"]))
@pytest.mark.parametrize(
    "argv, reason",
    [
        (["verify", "rays", "--quad", "5", "--ell", "11", "--modulus", "12"],
         "power of ell"),
        (["verify", "gras", "--quad", "0"], "real quadratic"),
        (["verify", "gras", "--quad", "1"], "real quadratic"),
        (["verify", "gras", "--quad", "9"], "real quadratic"),
        (["verify", "gras", "--quad", "4"], "real quadratic"),
        (["verify", "gras", "--quad", "-3"], "real quadratic"),
        (["verify", "annihilator", "--quad", "5", "--mode", "bogus"], "mode"),
        (["verify", "gras", "--quad", "5", "--p", "9"], "odd prime"),
        (["verify", "rays", "--quad", "5", "--ell", "11", "--p", "4"], "odd prime"),
        (["verify", "rays", "--quad", "5", "--ell", "11", "--p", "2"], "odd prime"),
        (["verify", "sinnott", "--quad", "5", "--prec", "0"], "p-adic digit"),
        (["verify", "gras", "--quad", "5", "--d", "10001"], "too large"),
        # a scan used to build 10000 ray class groups before it got there
        (["verify", "gras", "--quad", "5", "--mode", "scan", "--d", "10001"], "too large"),
        (["verify", "gras", "--quad", "5", "--d", "0"], "at least 1"),
        (["verify", "annihilator", "--quad", "79", "--p", "4", "--mode", "thaine"],
         "odd prime"),
        (["verify", "annihilator", "--quad", "79", "--p", "2", "--mode", "thaine"],
         "odd prime"),
        (["verify", "annihilator", "--quad", "17", "--p", "3", "--mode", "solomon"],
         "splits in k"),
        (["verify", "rays", "--quad", "5", "--ell", "10007"], "too large"),
        # these used to exit 0: zero sinnott checks, a silent single-mode gras
        (["verify", "sinnott", "--quad", "5", "--p", "7", "--d", "0"], "at least 1"),
        (["verify", "sinnott", "--quad", "5", "--p", "7", "--d", "-2"], "at least 1"),
        (["verify", "gras", "--quad", "5", "--mode", "bogus"], "single, scan"),
        # O/(1) is the zero ring: this used to report falsifies-paper
        (["verify", "rays", "--quad", "5", "--ell", "11", "--p", "5", "--modulus", "1"],
         "positive power of ell"),
        (["verify", "annihilator", "--quad", "79", "--mode", "solomon",
          "--modulus", "0"], "--modulus 0: the ray modulus must be at least 1"),
        (["verify", "annihilator", "--quad", "79", "--mode", "thaine",
          "--modulus", "-4"], "--modulus -4: the ray modulus must be at least 1"),
        # engine flags the command does not read; each of these exited 0
        (["verify", "rays", "--quad", "5", "--d", "0", "--prec", "-1", "--mode", "bogus"],
         "--d: verify rays does not read it"),
        (["explore", "conjecture", "--quad", "5", "--ell", "4", "--modulus", "0",
          "--mode", "bogus", "--prec", "0"], "--ell: explore conjecture does not read it"),
        (["verify", "h90", "--quad", "13", "--ell", "53", "--p", "4", "--d", "-3"],
         "--p: verify h90 does not read it"),
        (["verify", "sinnott", "--quad", "5", "--ell", "11"],
         "--ell: verify sinnott does not read it"),
        (["verify", "rays", "--quad", "5", "--d", "3"], "--d: verify rays does not read it"),
        (["verify", "gras", "--quad", "5", "--cache", "unused"],
         "--cache: verify gras does not read it"),
        (["verify", "h90", "--quad", "13", "--p", "5"], "--p: verify h90 does not read it"),
        (["verify", "annihilator", "--quad", "79", "--d", "3"],
         "--d: verify annihilator does not read it"),
        (["explore", "conjecture", "--quad", "5", "--mode", "scan"],
         "--mode: explore conjecture does not read it"),
        (["verify", "annihilator", "--quad", "5", "--mode", "special", "--p", "4"],
         "--p: verify annihilator --mode special does not read it"),
        (["verify", "annihilator", "--quad", "5", "--mode", "special", "--modulus", "4"],
         "--modulus: verify annihilator --mode special does not read it"),
        # only the special mode reads a cache; the others exited 0 and ignored it
        (["verify", "annihilator", "--quad", "79", "--mode", "thaine", "--cache", "unused"],
         "--cache: verify annihilator --mode thaine does not read it"),
        (["verify", "annihilator", "--quad", "79", "--mode", "solomon", "--cache", "unused"],
         "--cache: verify annihilator --mode solomon does not read it"),
        (["verify", "annihilator", "--quad", "79", "--mode", "both", "--cache", "unused"],
         "--cache: verify annihilator --mode both does not read it"),
        # an empty mode used to run the default one
        (["verify", "annihilator", "--quad", "79", "--mode", ""], "--mode : the annihilator mode"),
        # these raised d-th powers of cyclotomic numbers for over 60 s, and
        # listed (Z/m)^* for 4.2 s and 400 MB, before their errors
        (["verify", "annihilator", "--quad", "79", "--mode", "solomon", "--p", "3",
          "--modulus", "99991"], "too large"),
        (["verify", "rays", "--field", "10000019:10000018", "--ell", "2", "--p", "3"],
         "has degree 5000009"),
    ],
)
def test_invalid_arguments_exit_2_with_message(optimize, argv, reason):
    """Each exits 2 with its message, before any work: within 2 s."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "rayverify.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stdout
    assert proc.stdout == ""
    message = proc.stderr.strip().partition("error:")[2].strip()
    assert reason in message
    assert elapsed < 2, elapsed


@pytest.mark.parametrize("optimize", ([], ["-O"]))
def test_sinnott_passes_where_the_residue_field_of_zeta_D_is_large(optimize):
    # f = ord_73(5) = 72: the ring of the 73rd roots of unity took over 20 s
    # to build; 5 is inert in Q(sqrt 73), so the check runs in Q_25
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["verify", "sinnott", "--quad", "73", "--p", "5", "--prec", "8", "--d", "3"]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "rayverify.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.startswith("[")]
    assert lines and all(l.startswith("[pass]") for l in lines)
    assert elapsed < 5, elapsed


def test_sinnott_passes_with_p_in_a_denominator(capsys):
    # the level-10, twist-2 cyclotomic number of Q(sqrt 12) is 1/5; this
    # command used to stop with "denominator not a p-adic unit"
    from rayverify.cli import main
    from rayverify.quadratic import QuadField
    from rayverify.units import cyclotomic_number

    assert cyclotomic_number(QuadField(12), 10, 2) == QuadField(12).element(1) / 5
    argv = ["verify", "sinnott", "--quad", "12", "--p", "5", "--prec", "12", "--d", "6"]
    assert main(argv) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("[")]
    assert lines and all(l.startswith("[pass]") for l in lines)


# ----------------------------------------------------------------------
# layer separation: the padic-sinnott benchmark workload expects no normal form


@pytest.mark.parametrize("D", (5, 120))
def test_sinnott_runs_without_integer_normal_forms(D, monkeypatch):
    from rayverify import intmat

    def forbidden(*args, **kwargs):
        raise AssertionError("verify sinnott reached an integer normal form")

    # patch the module functions and every layer's imported name for them
    targets = {intmat.snf, intmat.hnf}
    for name, mod in list(sys.modules.items()):
        if name == "rayverify" or name.startswith("rayverify."):
            for attr, value in list(vars(mod).items()):
                if any(value is t for t in targets):
                    monkeypatch.setattr(mod, attr, forbidden)
    report = run_sinnott(D, 7, 12, 6)
    assert report["checks"]
    assert all(c["status"] == "pass" for c in report["checks"])
