"""Quick self-check of the benchmark: ``python3 perfbench/run.py --quick``.

Runs one short op per workload, untraced and traced, and asserts that

* the metric lists in ``BENCHMARK.json`` match the ones this code prints,
* every metric is printed by name with its unit (``warm_cmd_p50_s`` on
  special-units, ``failed_frac`` everywhere),
* the bypass predictions hold: ``intmat.snf.calls`` is 0 on padic-sinnott
  and special-units, ``special.mul.calls`` is 0 on ray-class and
  padic-sinnott, and each counter is non-zero on the workload whose layer
  it measures,
* no op failed and every report digest agrees with its traced repeat.
"""

import contextlib
import io
import json
import os

import run
import workloads

QUICK_OPS = {
    "ray-class": [workloads.RAY_ANCHORS[2]],
    "padic-sinnott": [workloads.SINNOTT_ANCHOR],
    "special-units": [
        ["verify", "annihilator", "--quad", "29", "--mode", "special"],
        ["verify", "annihilator", "--quad", "29", "--mode", "special"],
        ["cache", "clear"],
    ],
}
QUICK_DISC = {"ray-class": 5, "padic-sinnott": 5, "special-units": 29}

#: (workload, per-layer metric, whether it must be zero)
BYPASS = [
    ("ray-class", "intmat.snf.calls", False),
    ("padic-sinnott", "intmat.snf.calls", True),
    ("special-units", "intmat.snf.calls", True),
    ("ray-class", "special.mul.calls", True),
    ("padic-sinnott", "special.mul.calls", True),
    ("special-units", "special.mul.calls", False),
]


def _quick_pass(name):
    def make(_name, _rng):
        ops, seen = [], set()
        for argv in QUICK_OPS[name]:
            key = tuple(argv)
            disc = None if argv[0] == "cache" else QUICK_DISC[name]
            ops.append({"argv": list(argv), "role": "anchor", "disc": disc, "warm": key in seen})
            seen.add(key)
        return ops

    return make


def _declared():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        bench = json.load(fh)
    return ([(m["name"], m["unit"]) for m in bench["end_to_end"]],
            [(m["name"], m["unit"]) for m in bench["per_layer"]])


def main():
    problems = []
    e2e, layers = _declared()
    if e2e != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if layers != [(n, u) for n, u, _ in run.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    layer_values = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                result = run.execute(name, 0, 0, trace, make_pass=_quick_pass(name))
            text = buf.getvalue()
            print(text, end="")
            if not result["correct"] or result["failed"]:
                problems.append("%s trace %d: not correct" % (name, trace))
            wanted = layers + [("trace.coverage", "ratio")] if trace else e2e + [("failed_frac", "ratio")]
            if not trace and name == "special-units":
                wanted.append(("warm_cmd_p50_s", "s"))
            lines = [line.split() for line in text.splitlines()]
            printed = {(w[0], w[-1]) for w in lines if len(w) == 3}
            for metric in wanted:
                if metric not in printed:
                    problems.append("%s trace %d: %s %s not printed" % ((name, trace) + metric))
            if trace:
                layer_values[name] = {k: v["value"] for k, v in result["metrics"].items()}
    for name, metric, zero in BYPASS:
        value = layer_values[name][metric]
        if (value == 0) != zero:
            problems.append("%s: %s = %s, expected %s" % (name, metric, value, "0" if zero else "> 0"))
    for line in problems:
        print("SELF-CHECK FAILED: " + line)
    if not problems:
        print("self-check passed")
    return 1 if problems else 0
