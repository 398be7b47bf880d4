"""The traced benchmark wraps rayverify callables by name.

`perfbench/tracer.py` lists them in `TARGETS` and raises on a missing one,
which would stop every traced benchmark run.  This test reads that table
(without running the tracer) and resolves each name the way the tracer
does: a plain name is a module attribute, `Class.attr` must be defined in
the class body itself.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS table in %s" % TRACER)


def test_every_traced_name_resolves():
    missing = []
    targets = _targets()
    assert targets
    for layer, names in targets.items():
        mod = importlib.import_module("rayverify." + layer)
        for qual in names:
            cls_name, _, attr = qual.rpartition(".")
            if cls_name:
                owner = getattr(mod, cls_name, None)
                found = owner is not None and attr in vars(owner)
            else:
                found = hasattr(mod, attr)
            if not found:
                missing.append("%s.%s" % (layer, qual))
    assert missing == []
