"""The rayverify benchmark: seeded workloads of fresh ``rayverify`` processes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ray-class --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --quick        # self-check, about 15 s

Each op is one fresh ``python -m rayverify.cli ...`` process, as a user
runs it: interpreter start, package import, refilled in-process caches.
The load is a closed loop with one client; an op starts when the previous
one has exited.  A run executes whole passes of its workload (see
``workloads.py``) and starts another pass only while the mean pass still
fits in ``--seconds``, so every pass has the same mix of ops.

Times are in reference seconds: wall time scaled by the speed of a fixed
probe measured around each op (see ``PROBE_REF_S``).  ``--trace 0``
prints the end-to-end metrics.  ``--trace 1`` runs every op
of a pass untraced and then through ``tracer.py`` and prints the per-layer
metrics, per pass, with the tracing overhead and coverage.  Every op's
verdicts, wall time, peak RSS and report digest go to
``perfbench/results/<workload>-s<seed>-t<trace>.json``; ``digests.py``
compares the digests of two sets of runs.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: An op killed at this limit counts as failed, at this elapsed time.  The
#: slowest passing op in the pools takes about 8 s (h90 13/53).
OP_LIMIT_S = 60.0
#: ``--version`` processes per run; setup_s is their median.
SETUP_REPS = 11
#: Reported times are in reference seconds: each op's wall time is scaled
#: by PROBE_REF_S / (the median probe time within PROBE_WINDOW_S of the
#: op).  The probe is a fresh interpreter running PROBE_CODE, fixed work of
#: the engine's kind; one runs before an op whenever PROBE_EVERY_S have
#: passed since the last.  On a shared 2-vCPU VM (Xeon, 2.1 GHz) the CPU
#: speed changes by up to 1.5x for tens of seconds at a time: medians of
#: raw op times over 40 s windows spread by 30 % there, scaled ones by
#: 1-8 %.
PROBE_REF_S = 0.075
PROBE_EVERY_S = 1.0
PROBE_WINDOW_S = 6.0
PROBE_CODE = """
from fractions import Fraction
acc = Fraction(0)
for i in range(1, 1500):
    acc += Fraction(i % 7 + 1, i)
rows = [[(i * j + 7) % 101 for j in range(24)] for i in range(24)]
for _ in range(6):
    for k in range(24):
        for i in range(24):
            rows[i] = [(a * 3 + b) % 1000003 for a, b in zip(rows[i], rows[k])]
"""

END_TO_END = [
    ("setup_s", "s"),
    ("checks_per_s", "1/s"),
    ("cmd_p50_s", "s"),
    ("readme_s", "s"),
    ("peak_rss_mb", "MB"),
]
#: Printed in the table, not in the result line: failed_frac is 0 on these
#: workloads by construction and warm_cmd_p50_s exists on one workload only.
TABLE_ONLY = [("failed_frac", "ratio"), ("warm_cmd_p50_s", "s")]


# ---------------------------------------------------------------------------
# per-layer metrics, from the folded spans of the traced ops


def _calls(*names):
    return lambda a: sum(a["stats"].get(n, (0, 0, 0))[0] for n in names)


def _self(*names):
    return lambda a: sum(a["stats"].get(n, (0, 0, 0))[1] for n in names)


def _incl(*names):
    return lambda a: sum(a["stats"].get(n, (0, 0, 0))[2] for n in names)


def _layer(prefix):
    return lambda a: sum(v[1] for k, v in a["stats"].items() if k.startswith(prefix + "."))


def _extra(key):
    return lambda a: a["extra"].get(key, 0)


def _ratio(num, den):
    return lambda a: num(a) / den(a) if den(a) else 0.0


_SNF_CALLS = _calls("intmat.snf")

PER_LAYER = [
    ("intmat.snf.calls", "count", _SNF_CALLS),
    ("intmat.snf.distinct", "count", _extra("intmat.snf.distinct")),
    ("intmat.snf.repeat_frac", "ratio",
     _ratio(lambda a: _SNF_CALLS(a) - a["extra"].get("intmat.snf.distinct", 0), _SNF_CALLS)),
    ("intmat.snf.max_dim", "count", _extra("intmat.snf.max_dim")),
    ("intmat.snf.self_s", "s", _self("intmat.snf")),
    ("intmat.solve.calls", "count", _calls("intmat.solve")),
    ("intmat.solve.self_s", "s", _self("intmat.solve")),
    ("intmat.hnf.calls", "count", _calls("intmat.hnf")),
    ("intmat.hnf.self_s", "s", _self("intmat.hnf")),
    ("intmat.self_s", "s", _layer("intmat")),
    ("quadratic.principalize.calls", "count", _calls("quadratic.ClassGroup.principalize")),
    ("quadratic.principalize.self_s", "s", _self("quadratic.ClassGroup.principalize")),
    ("quadratic.class_group.self_s", "s", _self("quadratic.QuadField.class_group")),
    ("quadratic.residue_structure.calls", "count", _calls("quadratic.ResidueRing.structure")),
    ("quadratic.residue_structure.self_s", "s", _self("quadratic.ResidueRing.structure")),
    ("quadratic.residue_structure.max_units", "count",
     _extra("quadratic.residue_structure.max_units")),
    ("quadratic.self_s", "s", _layer("quadratic")),
    ("gmodules.ray_class_group.calls", "count", _calls("gmodules.RayClassGroup.__init__")),
    ("gmodules.ray_class_group.self_s", "s", _self("gmodules.RayClassGroup.__init__")),
    ("gmodules.isomorphism_certificate.self_s", "s", _self("gmodules.isomorphism_certificate")),
    ("gmodules.isomorphism_certificate.inconclusive", "count",
     _extra("gmodules.isomorphism_certificate.inconclusive")),
    ("gmodules.sylow.self_s", "s", _self("gmodules.FiniteGModule.sylow")),
    ("gmodules.submodule.self_s", "s", _self("gmodules.FiniteGModule.submodule")),
    ("gmodules.self_s", "s", _layer("gmodules")),
    ("padics.ring.calls", "count", _calls("padics.PadicRing.__init__")),
    ("padics.ring.max_degree", "count", _extra("padics.ring.max_degree")),
    ("padics.iwasawa_log.calls", "count", _calls("padics.PadicRing.iwasawa_log")),
    ("padics.iwasawa_log.self_s", "s", _self("padics.PadicRing.iwasawa_log")),
    ("padics.cyclotomic_root.calls", "count", _calls("padics.PadicRing.cyclotomic_root")),
    ("padics.cyclotomic_root.self_s", "s", _self("padics.PadicRing.cyclotomic_root")),
    ("padics.self_s", "s", _layer("padics")),
    ("grouprings.galois_log.calls", "count", _calls("grouprings.galois_log")),
    ("grouprings.galois_log.self_s", "s",
     _self("grouprings.galois_log", "grouprings.galois_log_quad")),
    ("grouprings.lseries_derivative.self_s", "s",
     _self("grouprings.lseries_derivative", "grouprings.lseries_derivative_element")),
    ("grouprings.self_s", "s", _layer("grouprings")),
    ("units.cyclotomic_number.calls", "count", _calls("units.cyclotomic_number")),
    ("units.cyclotomic_number.self_s", "s", _self("units.cyclotomic_number")),
    ("units.lattices.self_s", "s",
     _self("units.congruence_unit_lattice", "units.circular_unit_lattice",
           "units.congruence_circular_lattice")),
    ("units.self_s", "s", _layer("units")),
    ("cyclo.power_sums_to_elementary.self_s", "s", _self("cyclo.power_sums_to_elementary")),
    ("cyclo.subgroup_trace_of_power.self_s", "s", _self("cyclo.subgroup_trace_of_power")),
    ("cyclo.self_s", "s", _layer("cyclo")),
    ("special.special_unit.calls", "count", _calls("special.special_unit")),
    ("special.special_unit.self_s", "s", _self("special.special_unit")),
    ("special.hilbert90_witness.self_s", "s", _self("special.hilbert90_witness")),
    ("special.certificate.self_s", "s", _self("special.special_unit_certificate")),
    ("special.mul.calls", "count", _calls("special.CycQuadElement.__mul__")),
    ("special.mul.self_s", "s", _self("special.CycQuadElement.__mul__")),
    ("special.inverse.calls", "count", _calls("special.CycQuadElement.inverse")),
    ("special.inverse.self_s", "s", _self("special.CycQuadElement.inverse")),
    ("special.norm_to_quad.calls", "count", _calls("special.CycQuadElement.norm_to_quad")),
    ("special.norm_to_quad.self_s", "s", _self("special.CycQuadElement.norm_to_quad")),
    ("special.self_s", "s", _layer("special")),
    ("harness.cache.hits", "count", _extra("harness.cache.hits")),
    ("harness.cache.misses", "count", _extra("harness.cache.misses")),
    ("harness.cache.get_s", "s", _incl("harness.Cache.get")),
    ("harness.cache.put_s", "s", _incl("harness.Cache.put")),
    ("harness.build_report.self_s", "s", _self("harness.build_report")),
    ("checks.self_s", "s", _layer("checks")),
    ("checks.sinnott.s", "s", _incl("checks.check_sinnott")),
    ("checks.gras.s", "s", _incl("checks.check_gras", "checks.check_gras_scan")),
    ("checks.rays.s", "s", _incl("checks.check_rays")),
    ("checks.thaine.s", "s", _incl("checks.check_thaine")),
    ("checks.solomon.s", "s", _incl("checks.check_solomon")),
    ("checks.h90.s", "s", _incl("checks.check_h90")),
    ("checks.special.s", "s", _incl("checks.check_special_units")),
    ("checks.conjecture.s", "s", _incl("checks.explore_conjecture")),
    ("process.import_s", "s", _incl("process.import")),
    ("cli.main.self_s", "s", _self("cli.main")),
    ("nt.self_s", "s", _layer("nt")),
    ("trace.coverage", "ratio",
     _ratio(lambda a: a["covered_s"], lambda a: a["traced_wall_s"])),
    ("trace.overhead", "ratio",
     _ratio(lambda a: a["traced_wall_s"], lambda a: a["untraced_wall_s"])),
]
#: per-layer maxima; every other per-layer metric is summed and reported
#: per pass
_MAXIMA = {"intmat.snf.max_dim", "quadratic.residue_structure.max_units",
           "padics.ring.max_degree"}
_RATIOS = {"intmat.snf.repeat_frac", "trace.coverage", "trace.overhead"}


# ---------------------------------------------------------------------------
# running one op


class Runner:
    """Launches ops as fresh processes inside one run-private directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.cache = os.path.join(workdir, "cache")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        # never ~/.cache/rayverify: its entries are keyed on a hard-coded
        # version and would serve stale certificates across commits
        self.env["RAYVERIFY_CACHE"] = self.cache
        self.count = 0
        self.probes = []  # (end, seconds) of each probe

    def probe(self, force=False):
        """Time PROBE_CODE in a fresh interpreter, at most every PROBE_EVERY_S."""
        start = time.perf_counter()
        if self.probes and start - self.probes[-1][0] < PROBE_EVERY_S and not force:
            return
        subprocess.run([sys.executable, "-c", PROBE_CODE], check=True, env=self.env)
        end = time.perf_counter()
        self.probes.append((end, end - start))

    def scale_at(self, start, wall):
        """Factor from wall seconds to reference seconds for an interval."""
        near = [d for t, d in self.probes
                if start - PROBE_WINDOW_S <= t <= start + wall + PROBE_WINDOW_S]
        if not near:
            near = [min(self.probes, key=lambda p: abs(p[0] - start))[1]]
        return PROBE_REF_S / statistics.median(near)

    def launch(self, argv, tag):
        """Run argv to completion; (start, wall_s, exit code, max RSS KiB,
        stdout, stderr)."""
        self.count += 1
        self.probe()
        out_path = os.path.join(self.workdir, "%s-%d.out" % (tag, self.count))
        err_path = out_path[:-4] + ".err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            killed = threading.Event()
            timer = threading.Timer(OP_LIMIT_S, lambda: (killed.set(), proc.send_signal(signal.SIGKILL)))
            try:
                timer.start()
                # wait without reaping, so the timer can never signal a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                timer.cancel()
                timer.join()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:  # interrupted: leave no child behind
                    proc.kill()
                    proc.wait()
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        code = "killed" if killed.is_set() else proc.returncode
        return start, wall, code, usage.ru_maxrss, stdout, stderr

    def cache_entries(self):
        if not os.path.isdir(self.cache):
            return 0
        return sum(1 for n in os.listdir(self.cache) if n.endswith(".json"))

    def run_op(self, op, traced=False):
        """Run one op and check its output; returns the op record."""
        argv = list(op["argv"])
        verb = argv[0]
        report_path = None
        if verb != "cache":
            report_path = os.path.join(self.workdir, "report-%d.json" % (self.count + 1))
            argv += ["--report", report_path]
        if traced:
            spans = os.path.join(self.workdir, "spans-%d.json" % (self.count + 1))
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans] + argv
        else:
            cmd = [sys.executable, "-m", "rayverify.cli"] + argv
        entries_before = self.cache_entries()
        start, wall, code, rss, stdout, stderr = self.launch(cmd, "op")
        rec = {
            "argv": op["argv"], "role": op["role"], "warm": op.get("warm", False),
            "traced": traced, "start": start, "wall_s": wall, "exit": code, "max_rss_kb": rss,
            "checks": 0, "verdicts": None, "digest": None, "error": None,
        }
        if code != 0:
            rec["error"] = "exit %s: %s" % (code, stderr.strip()[-200:])
            return rec
        try:
            if report_path is None:
                self._check_cache_op(op, rec, stdout, entries_before)
            else:
                self._check_report(op, rec, report_path, stdout)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rec["error"] = "bad output: %s" % exc
        if traced and rec["error"] is None:
            with open(spans) as fh:
                rec["spans"] = json.load(fh)
        return rec

    def _check_report(self, op, rec, path, stdout):
        with open(path) as fh:
            report = json.load(fh)
        statuses = [c["status"] for c in report["checks"]]
        summary = report["summary"]
        rec["checks"] = len(statuses)
        rec["verdicts"] = summary
        rec["digest"] = digest(strip_timings(report))
        expected = " ".join(op["argv"][:2])
        if report["command"] != expected:
            raise ValueError("report is for %r, not %r" % (report["command"], expected))
        if op["disc"] is not None and report["field"]["discriminant"] != op["disc"]:
            raise ValueError("report names discriminant %s" % report["field"]["discriminant"])
        if not statuses:
            raise ValueError("no checks in the report")
        for status in set(statuses) | set(summary):
            if statuses.count(status) != summary.get(status, 0):
                raise ValueError("summary disagrees with the checks")
        if summary["fail"] or summary["falsifies-paper"] or report["exit_status"]:
            rec["error"] = "verdicts %s" % summary
        if not re.search(r"%d pass, %d fail" % (summary["pass"], summary["fail"]), stdout):
            raise ValueError("printed summary disagrees with the report")

    def _check_cache_op(self, op, rec, stdout, entries_before):
        text = stdout.replace(self.cache, "<cache>")
        rec["digest"] = digest(text)
        if op["argv"][1] == "stats":
            if json.loads(stdout)["entries"] != entries_before:
                raise ValueError("cache stats miscounts the entries")
        elif not text.startswith("removed %d entries" % entries_before) or self.cache_entries():
            raise ValueError("cache clear left entries behind")


def strip_timings(report):
    """The report without timing fields (the rule of harness.strip_timings)."""
    out = {k: v for k, v in report.items() if k != "timings"}
    out["checks"] = [{k: v for k, v in c.items() if k != "elapsed"} for c in report["checks"]]
    return out


def digest(obj):
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# a run


def measure_setup(runner):
    """(start, wall) of SETUP_REPS fresh ``rayverify --version`` processes."""
    times = []
    for _ in range(SETUP_REPS):
        start, wall, code, _, stdout, stderr = runner.launch(
            [sys.executable, "-m", "rayverify.cli", "--version"], "setup")
        if code != 0 or not stdout.startswith("rayverify "):
            raise RuntimeError("rayverify --version failed: %s" % stderr.strip()[-200:])
        times.append((start, wall))
    return times


def run_passes(runner, name, seed, start, seconds, trace, make_pass=workloads.make_pass):
    """Whole passes until the mean pass would end past `seconds` after
    `start`; returns one list of op records per pass.

    With tracing, each pass runs untraced and then traced, so that both
    halves meet the same cache states (a pass ends with ``cache clear``).
    """
    rng = random.Random(seed)
    passes = []
    first = time.perf_counter()
    while True:
        ops = make_pass(name, rng)
        recs = [runner.run_op(op) for op in ops]
        if trace:
            recs += [runner.run_op(op, traced=True) for op in ops]
        passes.append(recs)
        now = time.perf_counter()
        if now - start + (now - first) / len(passes) > seconds:
            return passes


def consistency_errors(passes):
    """Digests that differ for one argv: across passes, traced versus
    untraced, cold versus warm cache."""
    seen, errors = {}, []
    for recs in passes:
        for rec in recs:
            if rec["digest"] is None or rec["argv"][0] == "cache":
                continue
            key = json.dumps(rec["argv"])
            if seen.setdefault(key, rec["digest"]) != rec["digest"]:
                errors.append("report digest differs for %s" % " ".join(rec["argv"]))
    return errors


def end_to_end(passes, setup_s):
    ops = [r for recs in passes for r in recs if not r["traced"]]
    times = [r["ref_s"] for r in ops]
    warm = [r["ref_s"] for r in ops if r["warm"]]
    readme = [sum(r["ref_s"] for r in recs if r["role"] == "anchor" and not r["traced"])
              for recs in passes]
    return {
        "setup_s": setup_s,
        "checks_per_s": sum(r["checks"] for r in ops) / sum(times),
        "cmd_p50_s": statistics.median(times),
        "readme_s": statistics.median(readme),
        "peak_rss_mb": max(r["max_rss_kb"] for r in ops) / 1024.0,
        "failed_frac": sum(1 for r in ops if r["error"]) / len(ops),
        "warm_cmd_p50_s": statistics.median(warm) if warm else None,
    }


def per_layer(passes):
    agg = {"stats": {}, "extra": {}, "covered_s": 0.0, "traced_wall_s": 0.0,
           "untraced_wall_s": 0.0}
    for recs in passes:
        for rec in recs:
            if not rec["traced"]:
                agg["untraced_wall_s"] += rec["ref_s"]
                continue
            agg["traced_wall_s"] += rec["ref_s"]
            spans = rec.get("spans")
            if spans is None:
                continue
            scale = rec["ref_s"] / rec["wall_s"]
            agg["covered_s"] += scale * sum(s["end"] - s["start"] for s in spans["spans"])
            for k, v in spans["stats"].items():
                tot = agg["stats"].setdefault(k, [0, 0.0, 0.0])
                tot[0] += v[0]
                tot[1] += v[1] * scale
                tot[2] += v[2] * scale
            for k, v in spans["extra"].items():
                if k in _MAXIMA:
                    agg["extra"][k] = max(agg["extra"].get(k, 0), v)
                else:
                    agg["extra"][k] = agg["extra"].get(k, 0) + v
    n = len(passes)
    out = {}
    for name, _, fn in PER_LAYER:
        value = fn(agg)
        out[name] = value if name in _MAXIMA or name in _RATIOS else value / n
    return out


def execute(name, seed, seconds, trace, make_pass=workloads.make_pass):
    """Set up, run the passes and summarize; returns the result dict."""
    tag = "%s-s%d-t%d" % (name, seed, trace)
    workdir = os.path.join(HERE, "work", "%s-%d" % (tag, os.getpid()))
    os.makedirs(workdir)
    try:
        start = time.perf_counter()
        runner = Runner(workdir)
        setup_times = [] if trace else measure_setup(runner)
        passes = run_passes(runner, name, seed, start, seconds, trace, make_pass)
        runner.probe(force=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = [r for recs in passes for r in recs]
    for r in ops:
        r["ref_s"] = r["wall_s"] * runner.scale_at(r["start"], r["wall_s"])
    failed = [r for r in ops if r["error"]]
    errors = ["%s: %s" % (" ".join(r["argv"]), r["error"]) for r in failed]
    errors += consistency_errors(passes)
    probe_s = statistics.median(d for _, d in runner.probes)
    if trace:
        metrics = per_layer(passes)
        units = {n: unit for n, unit, _ in PER_LAYER}
        shown = list(metrics)
    else:
        setup_s = statistics.median(w * runner.scale_at(t, w) for t, w in setup_times)
        metrics = end_to_end(passes, setup_s)
        units = dict(END_TO_END + TABLE_ONLY)
        shown = [n for n, _ in END_TO_END]
    print("workload %s  seed %d  trace %d  passes %d  ops %d  failed %d  probe %.4f s"
          % (name, seed, trace, len(passes), len(ops), len(failed), probe_s))
    for key, value in metrics.items():
        if value is not None:
            print("  %-46s %14.6g %s" % (key, value, units[key]))
    for line in errors:
        print("  ERROR " + line)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", tag + ".json"), "w") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                   "probes": runner.probes, "metrics": metrics, "errors": errors,
                   "passes": passes}, fh, indent=1)
    return {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in shown},
    }


def have_sources():
    if os.path.isfile(os.path.join(ROOT, "src", "rayverify", "cli.py")):
        return True
    print("error: no rayverify sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="run the self-check instead")
    args = ap.parse_args()
    if not args.quick and args.workload is None:
        ap.error("--workload is required")
    if not have_sources():
        return 2
    if args.quick:
        import selfcheck

        return selfcheck.main()
    result = execute(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
