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
    for p, mode in [(4, "thaine"), (2, "thaine"), (9, "both"), (1, "solomon")]:
        with pytest.raises(ValueError, match="odd prime"):
            run_annihilator(79, p=p, mode=mode)
    for mode in ("solomon", "both"):
        with pytest.raises(ValueError, match="splits in k"):
            run_annihilator(17, p=3, mode=mode)
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
        (["verify", "gras", "--quad", "5", "--d", "0"], "at least 1"),
        (["verify", "annihilator", "--quad", "79", "--p", "4", "--mode", "thaine"],
         "odd prime"),
        (["verify", "annihilator", "--quad", "79", "--p", "2", "--mode", "thaine"],
         "odd prime"),
        (["verify", "annihilator", "--quad", "17", "--p", "3", "--mode", "solomon"],
         "splits in k"),
        (["verify", "rays", "--quad", "5", "--ell", "10007"], "too large"),
        (["verify", "sinnott", "--quad", "17", "--p", "5", "--prec", "8", "--d", "3"],
         "too large"),
        (["verify", "sinnott", "--quad", "12", "--p", "5", "--prec", "12", "--d", "6"],
         "p-adic unit"),
    ],
)
def test_invalid_arguments_exit_2_with_message(optimize, argv, reason):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "rayverify.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stdout
    assert proc.stdout == ""
    message = proc.stderr.strip().partition("error:")[2].strip()
    assert reason in message


@pytest.mark.parametrize("optimize", ([], ["-O"]))
def test_sinnott_stops_on_a_large_residue_field_before_building_the_ring(optimize):
    # f = ord_73(5) = 72: building the ring alone used to take over 20 s
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["verify", "sinnott", "--quad", "73", "--p", "5", "--prec", "8", "--d", "3"]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "rayverify.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stdout
    assert "too large" in proc.stderr
    assert elapsed < 5, elapsed
