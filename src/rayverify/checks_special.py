"""Special units in k(zeta_ell): ``verify h90`` (`check_h90`) and
``verify annihilator --mode special`` (`check_special_units`).

Both load `units` and `special`, but for a special-unit run that its cache
serves, and neither loads `fractions`: the h90 check reads its witness in
integer coordinates, and the certificate forms its absolute norm in
integers.
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
    number.  Each witness is a `special.special_unit_certificate` as is; a
    cache holds all of a call's in one entry, keyed by D, the twists and the
    count.  The `elapsed` add up to the call: a built call counts the read
    to its first record and the write to its last, a served call all to
    its last.
    """
    t0 = time.perf_counter()
    key = "special-units-%d-%s-%d" % (D, "_".join(map(str, twists)), count)
    certs = cache.get(key) if cache is not None else None
    stamps = [t0]
    if certs is None:
        from .special import special_prime_candidates, special_unit_certificate

        field = QuadField(D)
        certs = []
        for d in twists:
            for ell in special_prime_candidates(field, field.D, d, count):
                certs.append(special_unit_certificate(field, field.D, d, ell))
                stamps.append(time.perf_counter())
        if cache is not None:
            cache.put(key, certs)
    else:
        stamps += [t0] * len(certs)
    stamps[-1] = time.perf_counter()  # the last record ends with the call
    results = []
    for cert, start, end in zip(certs, stamps, stamps[1:]):
        ok = (
            cert["is_unit"]
            and cert["norm_one"]
            and cert["congruent_one_mod_d"]
            and cert["matches_cyclotomic_residues"]
        )
        results.append(
            CheckResult(
                name="special-unit-certificate D=%d n=%d d=%d ell=%d"
                % (D, cert["level"], cert["twist"], cert["aux_prime"]),
                anchor="special-unit-certificate",
                status=PASS if ok else REFUTES,
                witness=cert,
                elapsed=end - start,
            )
        )
    return results
