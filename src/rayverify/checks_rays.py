"""Galois structure of residue rings: ``verify rays`` (`run_rays`,
`check_rays`) and the cyclicity of O/(p) over the group ring
(`check_cyclic`).

`check_rays` loads `gmodules` (with `intmat` and `residues`) and no class
group, ray class group or unit; `check_cyclic` stays in `quadratic`.
"""

import time

from .checks import PASS, REFUTES, CheckResult, _quad_setup
from .harness import _check_odd_prime, build_report
from .nt import is_prime, valuation
from .quadratic import QuadField


# --------------------------------------------------------------------------
# residue-ring Galois structure


def check_rays(D, ell, p, exponent=1):
    """Certify the Sylow-p structure of the units of O/(ell^exponent).

    Builds the actual unit group of the residue ring as a Galois module and
    compares it with the predicted presentation (free rank one over the
    group ring modulo the structural ideal at ell) via an isomorphism
    certificate.
    """
    from .gmodules import (
        isomorphism_certificate,
        residue_galois_module,
        residue_structure_target,
    )

    if exponent < 1:
        raise ValueError("exponent %d: the modulus ell^e needs e >= 1" % exponent)
    field, group = _quad_setup(D)
    t0 = time.perf_counter()
    M = ell**exponent
    module, _ = residue_galois_module(field, group, M)
    syl = module.sylow(p)
    target = residue_structure_target(group, ell, p, exponent)
    cert = isomorphism_certificate(syl, target)
    status = {"isomorphic": PASS, "not-isomorphic": REFUTES}.get(cert["status"])
    if status is None:
        raise ArithmeticError("unknown certificate status %r" % cert["status"])
    return [
        CheckResult(
            name="ray-residue-structure D=%d ell=%d p=%d e=%d" % (D, ell, p, exponent),
            anchor="ray-residue-structure",
            status=status,
            witness={
                "discriminant": D,
                "ell": ell,
                "p": p,
                "exponent": exponent,
                "sylow_order": syl.order(),
                "sylow_invariants": syl.invariants(),
                "target_order": target.order(),
                "target_invariants": target.invariants(),
                "certificate": cert,
            },
            elapsed=time.perf_counter() - t0,
        )
    ]


# --------------------------------------------------------------------------
# cyclicity of O/p over the group ring


def check_cyclic(D, p):
    """Exhibit an explicit group-ring generator of O/(p).

    The candidate generator is omega when p does not divide its trace and
    1 + omega otherwise; the certificate is the invertibility mod p of the
    2x2 matrix whose rows are the generator and its conjugate in the
    omega-basis.
    """
    field = QuadField(D)
    if p % 2 == 0 or field.D % p == 0:
        raise ValueError("p=%d must be odd and unramified" % p)
    t0 = time.perf_counter()
    if field.omega_trace % p != 0:
        gen, label = field.omega(), "omega"
    else:
        gen, label = field.one() + field.omega(), "1+omega"
    rows = [list(gen.omega_coords()), list(gen.conj().omega_coords())]
    rows = [[int(a) % p, int(b) % p] for a, b in rows]
    det = (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % p
    return [
        CheckResult(
            name="residue-ring-cyclicity D=%d p=%d" % (D, p),
            anchor="residue-ring-cyclicity",
            status=PASS if det != 0 else REFUTES,
            witness={
                "discriminant": D,
                "p": p,
                "generator": label,
                "matrix_mod_p": rows,
                "det_mod_p": det,
            },
            elapsed=time.perf_counter() - t0,
        )
    ]


def run_rays(D, ell=11, p=5, modulus=None):
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
    return build_report("verify rays", D, params, check_rays(D, ell, p, e))
