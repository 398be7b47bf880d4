"""Report assembly and command orchestration.

A report is a plain dict (JSON-serializable) wrapping the outcome of one
verification command: engine version, the field and parameters acted on,
one entry per check with its anchor / status / witness, timing data, and a
roll-up summary.  Reports are deterministic for fixed inputs up to the
timing fields.

`COMMANDS` is the one table of commands: per (verb, target), the default
field and the engine flags that ``run_<target>`` reads; `cli` parses the
command line from it, and imports this module only once ``--version`` is
answered.  Each ``run_<target>`` lives in the family module of its check
(`checks_sinnott`, `checks_rays`, `checks_gras`, `checks_special` or
`checks_annihilators`) and resolves here on first access (`_MOVED`), so
``getattr(harness, "run_" + target)`` loads only that family; this module
keeps what the runners share: the validators, `resolve_discriminant`
(which reads a ``--field`` with `nt` alone), `build_report` and
`strip_timings`.  It imports no engine module when it loads, so
``--version``, ``--help`` and the cache commands start without one (the
`cli` docstring lists the modules of each command).  `Cache` lives in
`cache` and resolves here too.
"""

import math

from . import __version__, _lazy_getattr

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_ERROR = 2

#: the largest m of a ``--field m:a1,...``: its subgroup is listed, phi(m) / 2
#: residues, so m = 1000033 took 0.27 s and 52 MB (2-vCPU VM, Python 3.11)
FIELD_MODULUS_LIMIT = 10**6


def resolve_discriminant(quad=None, field=None):
    """Fundamental discriminant from either a --quad or a --field argument.

    `quad` is a radicand or discriminant of a real quadratic field; `field`
    is an "m:a1,a2,..." description of the fixed field of the subgroup
    generated by the a_i in (Z/m)^*, m at most `FIELD_MODULUS_LIMIT`.
    Raises ValueError for arguments that do not describe a real quadratic
    field, and for a larger m before any residue is listed.
    """
    from .nt import divisors, euler_phi, fundamental_discriminant, kronecker
    from .nt import squarefree_part, subgroup_generated

    if field is not None:
        m, _, gens = field.partition(":")
        try:
            m = int(m)
            gens = [int(a) for a in gens.split(",") if a.strip()]
        except ValueError:
            raise ValueError(
                "--field %s: not of the form m:a1,a2,... with integers m and a_i" % field
            ) from None
        if m < 3:
            raise ValueError("field %s: the modulus m must be at least 3" % field)
        for a in gens:
            if math.gcd(a, m) != 1:
                raise ValueError("field %s: %d is not prime to %d" % (field, a, m))
        if m > FIELD_MODULUS_LIMIT:
            raise ValueError(
                "field %s: the modulus m is above FIELD_MODULUS_LIMIT = %d; name "
                "the field by --quad" % (field, FIELD_MODULUS_LIMIT)
            )
        phi = euler_phi(m)
        # |H| divides phi(m), so past phi(m) / 2 elements H is all of (Z/m)^*
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
        # an even H of index 2 is the kernel of exactly one chi_D, D > 0
        # fundamental and dividing m: the D at which every a_i is a residue
        for D in divisors(m):
            if squarefree_part(D) != 1 and fundamental_discriminant(D) == D:
                if all(kronecker(D, a) == 1 for a in gens):
                    return D
        raise ArithmeticError("field %s: no chi_D mod %d has H as its kernel" % (field, m))
    if quad is None:
        raise ValueError("a field is required: pass --quad or --field")
    quad = int(quad)
    if quad < 2 or squarefree_part(quad) == 1:
        raise ValueError(
            "--quad %d: not the radicand or discriminant of a real quadratic "
            "field (it must be a positive non-square)" % quad
        )
    return fundamental_discriminant(quad)


def build_report(command, D, params, results):
    """Assemble the result records of one command into a report dict."""
    from . import checks

    summary = {
        checks.PASS: 0,
        checks.FAIL: 0,
        checks.INCONCLUSIVE: 0,
        checks.REFUTES: 0,
    }
    embeddings = set()
    for r in results:
        summary[r.status] += 1
        if "embedding" in r.witness:
            embeddings.add(r.witness["embedding"])
    return {
        "version": __version__,
        "command": command,
        "field": {"type": "real-quadratic", "discriminant": D},
        "params": params,
        "seed": None,
        "embeddings": sorted(embeddings),
        "checks": [r.to_dict() for r in results],
        "timings": {"total": round(sum(r.elapsed for r in results), 6)},
        "summary": summary,
        "exit_status": (
            EXIT_FAILED if summary[checks.FAIL] or summary[checks.REFUTES] else EXIT_OK
        ),
    }


def strip_timings(report):
    """A copy of the report without timing fields, for determinism tests."""
    out = {k: v for k, v in report.items() if k != "timings"}
    out["checks"] = [
        {k: v for k, v in c.items() if k != "elapsed"} for c in report["checks"]
    ]
    return out


# --------------------------------------------------------------------------
# command dispatch

#: (verb, target) -> (default --quad, the engine flags ``run_<target>``
#: reads, in the order of its keyword parameters).  `cli` forwards exactly
#: these flags and rejects every other engine flag with exit status 2.
COMMANDS = {
    ("verify", "sinnott"): (5, ("p", "prec", "d")),
    ("verify", "rays"): (5, ("ell", "p", "modulus")),
    ("verify", "gras"): (5, ("p", "d", "mode")),
    ("verify", "h90"): (5, ("ell",)),
    ("verify", "annihilator"): (79, ("p", "modulus", "mode", "cache")),
    ("explore", "conjecture"): (5, ("p", "d")),
}


#: the largest --ell of ``verify h90``: its cost grows faster than ell^3, and
#: the slowest ell admitted (241) takes about 0.45 s (2-vCPU VM, Python 3.11)
H90_ELL_LIMIT = 250


def _check_odd_prime(p):
    """Raise ValueError unless the verification prime p is an odd prime
    below `nt.PRIME_LIMIT`, where `is_prime` is a proof."""
    from .nt import PRIME_LIMIT, is_prime

    if p >= PRIME_LIMIT:
        raise ValueError(
            "--p %d: the verification prime must be below %d, where primality "
            "is proved" % (p, PRIME_LIMIT)
        )
    if p == 2 or not is_prime(p):
        raise ValueError("--p %d: the verification prime must be an odd prime" % p)


def _check_modulus_limit(M):
    """Raise ValueError for a ray modulus above `residues.MODULUS_LIMIT`."""
    from .residues import MODULUS_LIMIT

    if M > MODULUS_LIMIT:
        raise ValueError("residue ring O/(%d) too large (modulus above %d)" % (M, MODULUS_LIMIT))


#: the names that moved to `cache` and to the check families, resolved on
#: first access for `cli`, the `TARGETS` of perfbench/tracer.py and the tests
_MOVED = {
    "Cache": "cache",
    "run_sinnott": "checks_sinnott",
    "run_rays": "checks_rays",
    "run_gras": "checks_gras",
    "run_h90": "checks_special",
    "run_annihilator": "checks_annihilators",
    "run_conjecture": "checks_gras",
}

__getattr__ = _lazy_getattr(globals(), _MOVED)
