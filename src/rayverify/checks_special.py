"""Special units in k(zeta_ell): ``verify h90`` (`check_h90`) and
``verify annihilator --mode special`` (`check_special_units`).

Both load `units` and `special`, and neither loads `fractions`: the h90
check reads its witness in integer coordinates, and the certificate forms
its absolute norm in integers.
"""

import math
import time

from .checks import PASS, REFUTES, CheckResult
from .quadratic import QuadField


# --------------------------------------------------------------------------
# explicit norm-one cocycle witnesses


def check_h90(D, ell, level=3, twist=4):
    """Build a norm-one special unit and its explicit cocycle preimage.

    The special unit at the given (level, twist) has norm one down to the
    quadratic field, so it must be the (1 - tau)-power of an explicit
    alternating sum over the cyclotomic Galois orbit; the check verifies
    the sum is nonzero, satisfies the cocycle identity exactly, and spans a
    Galois-stable principal ideal.
    """
    from .special import hilbert90_witness, special_unit

    field = QuadField(D)
    t0 = time.perf_counter()
    eps = special_unit(field, level, twist, ell)
    wit = hilbert90_witness(eps)
    ok = wit["nonzero"] and wit["cocycle_identity"] and wit["ideal_stable"]
    # the largest |numerator| of x and y over the coefficients x + y sqrt(D)
    # = (X + b sqrt(D)) / 2e of alpha, with X = 2a + (D mod 2) b
    odd = field.D % 2
    height = max(
        abs(n) // math.gcd(n, 2 * c.e)
        for c in wit["alpha"].coeffs
        for n in (2 * c.a + odd * c.b, c.b)
    )
    return [
        CheckResult(
            name="norm-one-cocycle D=%d ell=%d" % (D, ell),
            anchor="norm-one-cocycle",
            status=PASS if ok else REFUTES,
            witness={
                "discriminant": D,
                "ell": ell,
                "level": level,
                "twist": twist,
                "primitive_root": wit["primitive_root"],
                "root_exponent": wit["root_exponent"],
                "nonzero": wit["nonzero"],
                "cocycle_identity": wit["cocycle_identity"],
                "ideal_stable": wit["ideal_stable"],
                "coefficient_height": str(height),
            },
            elapsed=time.perf_counter() - t0,
        )
    ]


# --------------------------------------------------------------------------
# special-unit certificates


def check_special_units(D, twists=(2, 3, 4), count=3, cache=None):
    """Certify special units at the field's own cyclotomic level.

    For each twist d and the first `count` admissible primes ell, builds
    the special unit in k(zeta_ell) and verifies exactly: it is a unit, its
    norm to k is one, it is congruent to +-1 mod d, and its residues at
    both primes over ell match the residues of the twisted cyclotomic
    number.  Certificates are cached when a cache is supplied.
    """
    from .special import special_prime_candidates, special_unit_certificate

    field = QuadField(D)
    n = field.D
    results = []
    for d in twists:
        for ell in special_prime_candidates(field, n, d, count):
            t0 = time.perf_counter()
            key = "special-unit-%d-%d-%d-%d" % (D, n, d, ell)
            cert = cache.get(key) if cache is not None else None
            if cert is None:
                raw = special_unit_certificate(field, n, d, ell)
                cert = {
                    "discriminant": raw["discriminant"],
                    "level": raw["level"],
                    "twist": raw["twist"],
                    "aux_prime": raw["aux_prime"],
                    "is_unit": raw["is_unit"],
                    "norm_one": raw["norm_one"],
                    "congruent_one_mod_d": raw["congruent_one_mod_d"],
                    "sign": raw["sign"],
                    "matches_cyclotomic_residues": raw["matches_cyclotomic_residues"],
                    "residues": sorted(
                        [int(r), int(a), int(b)]
                        for r, (a, b) in raw["residues"].items()
                    ),
                    "absolute_norm": raw["absolute_norm"],
                }
                if cache is not None:
                    cache.put(key, cert)
            ok = (
                cert["is_unit"]
                and cert["norm_one"]
                and cert["congruent_one_mod_d"]
                and cert["matches_cyclotomic_residues"]
            )
            results.append(
                CheckResult(
                    name="special-unit-certificate D=%d n=%d d=%d ell=%d"
                    % (D, n, d, ell),
                    anchor="special-unit-certificate",
                    status=PASS if ok else REFUTES,
                    witness=cert,
                    elapsed=time.perf_counter() - t0,
                )
            )
    return results
