"""Special units in k(zeta_ell): ``verify h90`` (`run_h90`, `check_h90`).

It loads `special` with `quadratic` and `circular`, and neither `units`
nor `fractions`: the check reads its witness in integer coordinates.  The
special-unit certificates of ``verify annihilator --mode special`` are
`checks_annihilators.check_special_units`.
"""

import math
import time

from .checks import PASS, REFUTES, CheckResult
from .harness import H90_ELL_LIMIT, build_report


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
    from .quadratic import QuadField
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


def run_h90(D, ell=11):
    if ell > H90_ELL_LIMIT:
        raise ValueError(
            "--ell %d: above H90_ELL_LIMIT = %d, the largest auxiliary prime "
            "of verify h90" % (ell, H90_ELL_LIMIT)
        )
    params = {"ell": ell, "level": 3, "twist": 4}
    return build_report("verify h90", D, params, check_h90(D, ell))
