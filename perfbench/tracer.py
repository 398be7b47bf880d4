"""Outside-in tracer for one ``rayverify`` command.

Run as a script, it is the benchmark's traced runner::

    python perfbench/tracer.py SPANS.json verify gras --quad 79 --p 3 --d 1

It imports ``rayverify.cli`` inside an import span, wraps the public
functions and methods listed in ``TARGETS``, runs ``rayverify.cli.main``
on the remaining arguments inside a ``cli.main`` span, writes the span
summary to SPANS.json and exits with the command's status.

Wrappers are installed in every ``rayverify.*`` namespace that holds the
original object (modules import names directly, e.g. ``from .intmat import
solve``), and methods are patched on their classes.  No per-element
arithmetic dunder is wrapped except ``CycQuadElement.__mul__``:
``QuadElement.__mul__`` alone runs more than 100k times per deep op.

Spans are kept in memory on a stack; self time is a span's duration minus
the time its child spans cover.  A deep op opens tens of thousands of
spans, so each closed span is folded by name into calls, self time and
outermost inclusive time; only the two top-level spans (import and
``cli.main``) are kept whole, with name, start, end, parent and op id.
"""

import importlib
import json
import os
import sys
import time

#: Qualified names of the wrapped callables, by layer (module of rayverify).
TARGETS = {
    "intmat": [
        "identity", "zeros", "transpose", "mat_mul", "mat_vec", "det", "snf",
        "smith_diagonal", "hnf", "kernel", "solve", "preimage_lattice",
        "intersection_lattice",
    ],
    "nt": [
        "is_prime", "factorize", "prime_factors", "divisors", "euler_phi",
        "moebius", "valuation", "squarefree_part", "multiplicative_order",
        "primitive_root", "crt", "kronecker", "fundamental_discriminant",
        "disc_character",
    ],
    "cyclo": [
        "cyclotomic_polynomial", "units_mod", "subgroup_generated",
        "is_subgroup", "conductor", "quad_gauss_sum", "to_quadratic",
        "subgroup_trace_of_power", "power_sums_to_elementary",
        "subgroup_product_polynomial", "CycNumber.norm_over",
        "CycNumber.norm_to_q", "CycNumber.inverse",
    ],
    "padics": [
        "PadicRing.__init__", "PadicRing.teichmueller", "PadicRing.iwasawa_log",
        "PadicRing.cyclotomic_root", "PadicRing.sqrt_disc",
        "PadicRing.embed_cyc", "PadicRing.embed_quadratic",
        "splitting_degree", "ring_for_conductor",
    ],
    "quadratic": [
        "QuadField.fundamental_unit", "QuadField.class_group",
        "QuadField.prime_valuation", "ClassGroup.principalize",
        "ClassGroup.class_order_of", "ResidueRing.structure",
        "analytic_class_number", "unit_exponent",
    ],
    "grouprings": [
        "radical", "characters", "one_element", "basis_element",
        "embed_group_ring", "integer_coefficients", "char_idempotent",
        "frobenius_orbits", "orbit_idempotent", "ramification", "galois_log",
        "galois_log_quad", "lseries_derivative", "lseries_derivative_element",
        "norm_log_factor", "euler_twist", "unit_log_factor",
        "residue_euler_element", "chi_component", "ray_annihilator",
    ],
    "gmodules": [
        "FiniteGModule.__init__", "FiniteGModule.elements",
        "FiniteGModule.element_order", "FiniteGModule.annihilated_by",
        "FiniteGModule.sylow", "FiniteGModule.submodule",
        "FiniteGModule.quotient", "FiniteGModule.contains",
        "FiniteGModule.rho_component", "FiniteGModule.annihilator_lattice",
        "FiniteGModule.module_annihilator", "FiniteGModule.find_generator",
        "lift_coefficients_mod", "isomorphism_certificate",
        "residue_galois_module", "residue_structure_target",
        "RayClassGroup.__init__", "RayClassGroup.connecting",
        "RayClassGroup.principal_vector", "RayClassGroup.prime_class",
        "RayClassGroup.prime_class_of_norm_factorization",
    ],
    "units": [
        "cyclotomic_number", "auxiliary_prime", "generating_levels",
        "twist_power", "unit_pair", "full_unit_lattice",
        "congruence_unit_lattice", "congruence_exponent",
        "circular_unit_lattice", "congruence_circular_lattice",
        "lattice_index",
    ],
    "special": [
        "CycQuadElement.__mul__", "CycQuadElement.inverse",
        "CycQuadElement.norm_to_quad", "CycQuadElement.absolute_norm",
        "CycQuadElement.galois_zeta", "quad_residue",
        "special_prime_candidates", "special_unit",
        "special_unit_certificate", "hilbert90_witness", "residue_dlogs",
        "dlog_annihilator_coefficients",
    ],
    "checks": [
        "check_sinnott", "check_rays", "unit_quotient_module", "check_gras",
        "check_gras_scan", "check_h90", "check_special_units",
        "thaine_admissible_primes", "check_thaine", "check_solomon",
        "check_cyclic", "ray_power_subgroup_orders", "explore_conjecture",
    ],
    "harness": [
        "Cache.get", "Cache.put", "Cache.clear", "Cache.stats",
        "resolve_discriminant", "build_report", "strip_timings",
        "run_sinnott", "run_rays", "run_gras", "run_h90", "run_annihilator",
        "run_conjecture",
    ],
}


class Tracer:
    """Span recorder: a stack of open spans plus per-name totals."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.stack = []  # [name, start, child_seconds] of each open span
        self.active = {}  # name -> open activations, for inclusive time
        self.stats = {}  # name -> [calls, self_s, incl_s]
        self.extra = {}  # counters observed at span boundaries
        self.snf_keys = set()
        self.top = []  # full records of the top-level spans

    def wrap(self, name, fn, observe=None):
        stack, active, stats = self.stack, self.active, self.stats
        clock = time.perf_counter
        stats.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                active[name] -= 1
                rec = stats[name]
                rec[0] += 1
                rec[1] += dur - frame[2]
                if not active[name]:
                    rec[2] += dur
            if observe is not None:
                # hide the observer's own time from the enclosing span
                t0 = clock()
                observe(self, args, result)
                if stack:
                    stack[-1][2] += clock() - t0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def span(self, name, fn, *args):
        """Run fn(*args) as a top-level span recorded in full."""
        start = time.perf_counter()
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.top.append(
                {"name": name, "start": start, "end": time.perf_counter(),
                 "parent": None, "op": self.op_id}
            )

    def bump(self, key, value=1):
        self.extra[key] = self.extra.get(key, 0) + value

    def high(self, key, value):
        self.extra[key] = max(self.extra.get(key, 0), value)

    def summary(self):
        extra = dict(self.extra)
        extra["intmat.snf.distinct"] = len(self.snf_keys)
        return {
            "op": self.op_id,
            "spans": self.top,
            "stats": {k: v for k, v in self.stats.items() if v[0]},
            "extra": extra,
        }


# ---------------------------------------------------------------------------
# counters taken at span boundaries, outside the timed region


def _observe_snf(tr, args, result):
    A = args[0]
    tr.snf_keys.add(tuple(tuple(row) for row in A))
    tr.high("intmat.snf.max_dim", max(len(A), len(A[0]) if A else 0))


def _observe_structure(tr, args, result):
    tr.high("quadratic.residue_structure.max_units", len(result[2]))


def _observe_ring(tr, args, result):
    tr.high("padics.ring.max_degree", args[0].f)


def _observe_certificate(tr, args, result):
    if result.get("status") == "inconclusive":
        tr.bump("gmodules.isomorphism_certificate.inconclusive")


def _observe_cache_get(tr, args, result):
    tr.bump("harness.cache.misses" if result is None else "harness.cache.hits")


OBSERVERS = {
    "intmat.snf": _observe_snf,
    "quadratic.ResidueRing.structure": _observe_structure,
    "padics.PadicRing.__init__": _observe_ring,
    "gmodules.isomorphism_certificate": _observe_certificate,
    "harness.Cache.get": _observe_cache_get,
}


def install(tracer):
    """Wrap every target in every rayverify namespace that holds it."""
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "rayverify" or name.startswith("rayverify.")
    }
    for layer, names in TARGETS.items():
        mod = modules["rayverify." + layer]
        for qual in names:
            span = "%s.%s" % (layer, qual)
            cls_name, _, attr = qual.rpartition(".")
            if cls_name:
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
                traced = tracer.wrap(span, original, OBSERVERS.get(span))
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        setattr(owner, key, traced)
                continue
            original = getattr(mod, attr)
            traced = tracer.wrap(span, original, OBSERVERS.get(span))
            for holder in modules.values():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)


def main(argv):
    out_path, op_argv = argv[0], argv[1:]
    tracer = Tracer(os.path.splitext(os.path.basename(out_path))[0])
    cli = tracer.span("process.import", importlib.import_module, "rayverify.cli")
    install(tracer)
    status = tracer.span("cli.main", cli.main, op_argv)
    with open(out_path, "w") as fh:
        json.dump(tracer.summary(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
