import json

import pytest

from rayverify.cli import build_parser, main
from rayverify.harness import strip_timings


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


def test_bad_usage_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


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
    assert st["entries"] == 9

    code = main(["cache", "clear", "--cache", cachedir])
    assert code == 0
    assert "removed 9 entries" in capsys.readouterr().out

    code = main(["cache", "stats", "--cache", cachedir])
    assert json.loads(capsys.readouterr().out)["entries"] == 0


def test_cached_and_fresh_reports_agree(tmp_path):
    cachedir = str(tmp_path / "cache")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(
            ["verify", "annihilator", "--quad", "5", "--mode", "special",
             "--cache", cachedir, "--report", str(path)]
        )
        assert code == 0
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
