"""Report assembly and command orchestration.

A report is a plain dict (JSON-serializable) wrapping the outcome of one
verification command: engine version, the field and parameters acted on,
one entry per check with its anchor / status / witness, timing data, and a
roll-up summary.  Reports are deterministic for fixed inputs up to the
timing fields.

The engine (`checks` and the layers below it) is imported by the functions
that use it, not by this module, so that ``--version`` and the cache
commands start without it.  Each ``run_*`` imports `checks`, which loads
only `nt` and `quadratic`; ``checks.check_X`` then loads the family module
of that check, which imports the rest of what it uses (the `cli` docstring
lists the modules of each command).  `resolve_discriminant` reads a
``--field`` with `nt` alone, and `run_annihilator` loads the certificate
cache (`cache`) only in its special mode.  `COMMANDS` is the one table of
commands: per (verb, target), the default field and the engine flags that
``run_<target>`` reads; `cli` parses the command line from it, and
imports this module only once ``--version`` is answered.

`Cache` lives in `cache`; `harness.Cache` resolves to it on first access
(`_MOVED`), for programs that look it up here.
"""

import math

from . import __version__, _lazy_getattr

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_ERROR = 2


def resolve_discriminant(quad=None, field=None):
    """Fundamental discriminant from either a --quad or a --field argument.

    `quad` is a radicand or discriminant of a real quadratic field; `field`
    is an "m:a1,a2,..." description of the fixed field of the subgroup
    generated by the a_i in (Z/m)^*.  Raises ValueError for arguments that
    do not describe a real quadratic field.
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


def run_sinnott(D, p=7, prec=12, d=6):
    from . import checks

    _check_odd_prime(p)
    if D % p == 0:
        raise ValueError(
            "--p %d: the verification prime must not divide D = %d" % (p, D)
        )
    if prec < 1:
        raise ValueError("--prec %d: at least one p-adic digit must be compared" % prec)
    if d < 1:
        raise ValueError("--d %d: the twist bound must be at least 1" % d)
    params = {"p": p, "prec": prec, "d_max": d}
    return build_report(
        "verify sinnott", D, params, checks.check_sinnott(D, p, prec, d)
    )


def run_rays(D, ell=11, p=5, modulus=None):
    from . import checks
    from .nt import is_prime, valuation

    _check_odd_prime(p)
    if not is_prime(ell):
        raise ValueError("--ell %d: the auxiliary prime must be a prime" % ell)
    if ell == p and D % p == 0:  # before O/(ell^e) is built
        raise ValueError(
            "--ell %d --p %d: ell = p must be unramified in the field, but it "
            "divides the discriminant %d" % (ell, p, D)
        )
    if modulus is None:
        e = 1
    else:
        e = valuation(modulus, ell) if modulus > 0 else 0
        if e < 1 or ell**e != modulus:
            raise ValueError(
                "--modulus %d: the modulus must be a positive power of ell = %d"
                % (modulus, ell)
            )
    params = {"ell": ell, "p": p, "exponent": e}
    return build_report("verify rays", D, params, checks.check_rays(D, ell, p, e))


def run_gras(D, p=None, d=None, mode=None):
    from . import checks

    if mode not in (None, "single", "scan"):
        raise ValueError("--mode %s: the gras mode is one of single, scan" % mode)
    if p is not None:
        _check_odd_prime(p)
    if d is not None and d < 1:
        raise ValueError("--d %d: the ray modulus or scan bound must be at least 1" % d)
    if d is not None:  # before a scan builds d - 1 rings
        _check_modulus_limit(d)
    if mode == "scan":
        p_list = (3, 5, 7) if p is None else (p,)
        d_max = 50 if d is None else d
        params = {"p_list": list(p_list), "d_max": d_max, "mode": "scan"}
        results = checks.check_gras_scan(D, p_list, d_max)
    else:
        p = 3 if p is None else p
        d = 1 if d is None else d
        params = {"p": p, "d": d, "mode": "single"}
        results = checks.check_gras(D, p, d)
    return build_report("verify gras", D, params, results)


def run_h90(D, ell=11):
    if ell > H90_ELL_LIMIT:
        raise ValueError(
            "--ell %d: above H90_ELL_LIMIT = %d, the largest auxiliary prime "
            "of verify h90" % (ell, H90_ELL_LIMIT)
        )
    from . import checks

    params = {"ell": ell, "level": 3, "twist": 4}
    return build_report("verify h90", D, params, checks.check_h90(D, ell))


def run_annihilator(D, p=None, modulus=None, mode=None, cache=None):
    """`cache` is the --cache directory of the special mode (see
    `cache.Cache`)."""
    from . import checks
    from .nt import kronecker

    mode = "both" if mode is None else mode
    if mode not in ("thaine", "solomon", "special", "both"):
        raise ValueError(
            "--mode %s: the annihilator mode is one of thaine, solomon, "
            "special, both" % mode
        )
    unread = {"p": p, "modulus": modulus} if mode == "special" else {"cache": cache}
    for flag, value in unread.items():
        if value is not None:
            raise ValueError(
                "--%s: verify annihilator --mode %s does not read it" % (flag, mode)
            )
    if mode == "special":
        from .cache import Cache

        # no prime is used, but reports have always recorded the default one
        results = checks.check_special_units(D, cache=Cache(cache))
        return build_report("verify annihilator", D, {"p": 3, "mode": mode}, results)
    p = 3 if p is None else p
    _check_odd_prime(p)
    if modulus is not None:
        if modulus < 1:
            raise ValueError("--modulus %d: the ray modulus must be at least 1" % modulus)
        _check_modulus_limit(modulus)  # before the d-th powers of cyclotomic numbers
    if mode in ("solomon", "both") and kronecker(D, p) != 1:
        raise ValueError("--p %d: the solomon check needs a prime that splits in k" % p)
    results = []
    params = {"p": p, "mode": mode}
    if mode in ("thaine", "both"):
        m = 1 if modulus is None else modulus
        params["thaine_modulus"] = m
        results += checks.check_thaine(D, n_exp=p, modulus=m)
    if mode in ("solomon", "both"):
        moduli = (1, 4) if modulus is None else (modulus,)
        params["solomon_moduli"] = list(moduli)
        results += checks.check_solomon(D, p=p, moduli=moduli)
    return build_report("verify annihilator", D, params, results)


def run_conjecture(D, p=3, d=18):
    from . import checks

    _check_odd_prime(p)
    if d < 1:
        raise ValueError("--d %d: the ray modulus must be at least 1" % d)
    _check_modulus_limit(d)  # before the class group and the ray class group
    params = {"p": p, "d": d}
    return build_report("explore conjecture", D, params, checks.explore_conjecture(D, p, d))


#: the name that moved to `cache`, resolved on first access for the
#: `TARGETS` of perfbench/tracer.py and the tests
_MOVED = {"Cache": "cache"}

__getattr__ = _lazy_getattr(globals(), _MOVED)
