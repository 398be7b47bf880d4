import inspect
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rayverify.checks import CheckResult
from rayverify.cyclo import FieldSpec, subgroup_generated
from rayverify.gmodules import residue_structure_target
from rayverify.grouprings import GaloisGroup
from rayverify.cache import Cache
from rayverify.harness import (
    COMMANDS,
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
    from rayverify import cache as cache_module

    cache = Cache(tmp_path)
    monkeypatch.setattr(cache_module, "source_digest", lambda: "0" * 16)
    cache.put("k", {"v": 1})
    assert cache.get("k") == {"v": 1}
    monkeypatch.undo()
    assert cache.get("k") is None
    assert cache_module.source_digest() in cache._path("k").name


def test_a_one_byte_edit_of_a_source_changes_the_tag(tmp_path):
    # the digest of a copy of the package, as it is and after each edit
    from rayverify import cache as cache_module

    package = tmp_path / "rayverify"
    package.mkdir()
    for path in Path(cache_module.__file__).resolve().parent.glob("*.py"):
        (package / path.name).write_bytes(path.read_bytes())

    def digest():
        code = "from rayverify.cache import source_digest; print(source_digest())"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(tmp_path)),
            capture_output=True, text=True, check=True,
        )
        return proc.stdout.strip()

    tags = [digest()]
    assert tags[0] == cache_module.source_digest()
    assert len(tags[0]) == 16 and int(tags[0], 16) >= 0
    source = package / "nt.py"
    original = source.read_bytes()
    for position in (0, len(original) // 2, len(original) - 1):
        edited = bytearray(original)
        edited[position] ^= 1
        source.write_bytes(bytes(edited))
        tags.append(digest())
    source.write_bytes(original)
    source.rename(package / "nu.py")  # a name is hashed too
    tags.append(digest())
    assert len(set(tags)) == len(tags), tags


def test_cache_put_evicts_entries_of_other_code(tmp_path, monkeypatch):
    from rayverify import __version__
    from rayverify import cache as cache_module

    cache = Cache(tmp_path)
    (tmp_path / ("k-v%s.json" % __version__)).write_text("{}")  # pre-digest name
    (tmp_path / "kk-v0.0.1.json").write_text("{}")  # another key
    monkeypatch.setattr(cache_module, "source_digest", lambda: "0" * 16)
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


def test_overlapping_puts_of_one_key_both_succeed(tmp_path, monkeypatch):
    # a second write of the key starts and ends while the first one writes
    from rayverify import cache as cache_module

    cache = Cache(tmp_path)
    dump = cache_module.json.dump
    nested = []

    def dump_with_a_nested_put(value, fh, **kw):
        if not nested:
            nested.append(value)
            cache.put("k", {"v": "inner"})
        dump(value, fh, **kw)

    monkeypatch.setattr(cache_module.json, "dump", dump_with_a_nested_put)
    cache.put("k", {"v": "outer"})
    monkeypatch.undo()
    assert nested
    assert cache.get("k") == {"v": "outer"}  # the write that ended last
    assert [p.name for p in tmp_path.iterdir()] == [cache._path("k").name]


def _put_many(root, n):
    cache = Cache(root)
    for i in range(n):
        cache.put("k", {"v": i})


def test_concurrent_writers_of_one_key_all_finish(tmp_path):
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    writers = [ctx.Process(target=_put_many, args=(str(tmp_path), 50)) for _ in range(4)]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=60)
    assert [(w.is_alive(), w.exitcode) for w in writers] == [(False, 0)] * 4
    cache = Cache(tmp_path)
    assert cache.get("k") in [{"v": i} for i in range(50)]
    assert [p.name for p in tmp_path.iterdir()] == [cache._path("k").name]


def test_a_root_that_is_a_file_leaves_the_run_uncached(tmp_path):
    from rayverify.checks_annihilators import check_special_units

    root = tmp_path / "F"
    root.write_text("not a directory")
    cache = Cache(root)
    cache.put("k", {"v": 1})
    assert cache.get("k") is None
    results = check_special_units(5, cache=cache)
    assert len(results) == 9 and all(r.status == "pass" for r in results)
    assert root.read_text() == "not a directory"
    assert [p.name for p in tmp_path.iterdir()] == ["F"]


def test_a_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    from rayverify import cache as cache_module

    def full_disk(value, fh, **kw):
        fh.write("{")
        raise OSError(28, "No space left on device")

    cache = Cache(tmp_path)
    monkeypatch.setattr(cache_module.json, "dump", full_disk)
    cache.put("k", {"v": 1})
    monkeypatch.undo()
    assert cache.get("k") is None
    assert list(tmp_path.iterdir()) == []


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


def test_resolve_discriminant_counts_a_whole_unit_group_as_degree_1():
    # 2 generates (Z/11)^*: the enumeration stops past half of it
    with pytest.raises(ValueError, match="field 11:2 has degree 1"):
        resolve_discriminant(field="11:2")
    with pytest.raises(ValueError, match="has degree 5"):
        resolve_discriminant(field="11:10")


def _field_spec_route(field):
    """The conductor of the fixed field of <a_i> in (Z/m)^*, from H listed
    as a `cyclo.FieldSpec` and matched against `FieldSpec.quadratic` of its
    conductor: an oracle that lists (Z/m)^* and reads no quadratic
    character.  The checks and their messages come first, in the order
    `resolve_discriminant` makes them."""
    m, _, gens = field.partition(":")
    m = int(m)
    if m < 3:
        raise ValueError("field %s: the modulus m must be at least 3" % field)
    gens = [int(a) for a in gens.split(",") if a.strip()]
    for a in gens:
        if math.gcd(a, m) != 1:
            raise ValueError("field %s: %d is not prime to %d" % (field, a, m))
    phi = len([a for a in range(1, m) if math.gcd(a, m) == 1])
    H = subgroup_generated(m, gens, limit=phi // 2)
    if H is not None and m - 1 not in H:
        raise ValueError(
            "field %s is not real (-1 is not in the subgroup); only real "
            "quadratic fields are supported here" % field
        )
    if H is None or phi != 2 * len(H):
        raise ValueError(
            "field %s has degree %d; only real quadratic fields are "
            "supported here" % (field, 1 if H is None else phi // len(H))
        )
    spec = FieldSpec(m, H)
    assert spec.H == FieldSpec.quadratic(spec.conductor).H, field
    return spec.conductor


def _outcome(resolve, field):
    try:
        return resolve(field)
    except ValueError as exc:
        return str(exc)


def test_field_matches_the_field_spec_route_on_a_seeded_grid():
    # most generators are units mod m, some are not, or lie outside [0, m)
    rng = random.Random(3301)
    resolved = 0
    for _ in range(6254):
        m = rng.randrange(3, 400)
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        gens = [
            rng.choice(units) if rng.random() < 0.9 else rng.randrange(-m, 3 * m)
            for _ in range(rng.randrange(0, 5))
        ]
        field = "%d:%s" % (m, ",".join(map(str, gens)))
        expected = _outcome(_field_spec_route, field)
        assert _outcome(lambda f: resolve_discriminant(field=f), field) == expected
        resolved += isinstance(expected, int)
    assert resolved > 300


def test_field_stops_above_its_modulus_limit_before_any_residue(monkeypatch):
    from rayverify import harness, nt

    listed = []
    listing = nt.subgroup_generated
    monkeypatch.setattr(
        nt, "subgroup_generated", lambda m, gens, limit: listed.append(m) or listing(m, gens, limit)
    )
    m = harness.FIELD_MODULUS_LIMIT
    with pytest.raises(ValueError, match="above FIELD_MODULUS_LIMIT = %d" % m):
        resolve_discriminant(field="%d:%d" % (m + 1, m))
    assert listed == []
    # at the limit the subgroup is listed: H = {+-1} has degree phi(m) / 2
    with pytest.raises(ValueError, match="has degree 200000"):
        resolve_discriminant(field="%d:%d" % (m, m - 1))
    assert listed == [m]


def test_h90_stops_above_its_ell_limit_before_any_work(monkeypatch):
    from rayverify import checks_special, harness

    ran = []
    monkeypatch.setattr(checks_special, "check_h90", lambda D, ell: ran.append(ell) or [])
    with pytest.raises(ValueError, match="H90_ELL_LIMIT = %d" % harness.H90_ELL_LIMIT):
        harness.run_h90(5, ell=harness.H90_ELL_LIMIT + 1)
    assert ran == []
    harness.run_h90(5, ell=harness.H90_ELL_LIMIT)
    assert ran == [harness.H90_ELL_LIMIT]


def test_conjecture_stops_above_the_modulus_limit_before_any_group(monkeypatch):
    # the limit used to be reached inside the ray class group, after the
    # class group of k: at radicand 1000033 that took most of a minute,
    # where verify gras refuses the same --d at once
    from rayverify import rayclass
    from rayverify.residues import MODULUS_LIMIT

    built = []

    def refuse(field, group, modulus):
        built.append(modulus)
        raise AssertionError("built a ray class group")

    monkeypatch.setattr(rayclass, "RayClassGroup", refuse)
    with pytest.raises(ValueError, match="too large"):
        run_conjecture(5, p=3, d=MODULUS_LIMIT + 1)
    assert built == []
    with pytest.raises(AssertionError):
        run_conjecture(5, p=3, d=MODULUS_LIMIT)
    assert built == [MODULUS_LIMIT]


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
        (["explore", "conjecture", "--quad", "5", "--d", "10001"], "too large"),
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
        # this raised d-th powers of cyclotomic numbers for over 60 s before
        # its error
        (["verify", "annihilator", "--quad", "79", "--mode", "solomon", "--p", "3",
          "--modulus", "99991"], "too large"),
        # moduli above the --field limit stop before any residue is listed:
        # the first listed (Z/m)^* for 4.2 s and 400 MB before "has degree
        # 5000009", the second for 0.8 s and 93 MB before "has degree 1", and
        # the real quadratic field of the third took 0.27 s and 52 MB
        (["verify", "rays", "--field", "10000019:10000018", "--ell", "2", "--p", "3"],
         "above FIELD_MODULUS_LIMIT = 1000000"),
        (["verify", "rays", "--field", "1000003:2", "--ell", "2", "--p", "3"],
         "above FIELD_MODULUS_LIMIT = 1000000"),
        (["verify", "rays", "--field", "1000033:25", "--ell", "2", "--p", "3"],
         "above FIELD_MODULUS_LIMIT = 1000000"),
        # k(zeta_401) arithmetic took 17 s
        (["verify", "h90", "--quad", "5", "--ell", "401"], "above H90_ELL_LIMIT = 250"),
        # these said only "invalid literal for int()"
        (["verify", "rays", "--field", ":4"], "--field :4: not of the form m:a1,a2,..."),
        (["verify", "rays", "--field", "5:4:3"], "--field 5:4:3: not of the form m:a1,a2,..."),
        (["verify", "rays", "--field", "5:x"], "--field 5:x: not of the form m:a1,a2,..."),
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
    from rayverify.circular import cyclotomic_number

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
