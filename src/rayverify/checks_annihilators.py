"""Annihilators of ray classes: the discrete-log elements of
``verify annihilator --mode thaine`` (`check_thaine`) and the scaled p-adic
logs of ``--mode solomon`` (`check_solomon`).

Both load the ray class layers (`gmodules`, `classgroup`, `residues` and
`intmat`) and `units`; thaine adds `special`, and solomon, the one check
that takes p-adic logs, `grouprings` and `padics`.
"""

import time

from .checks import FAIL, PASS, PRECISION_HEADROOM, REFUTES, CheckResult, _quad_setup, _rho_part
from .nt import is_prime


# --------------------------------------------------------------------------
# discrete-log annihilators of ray classes


def thaine_admissible_primes(field, n_exp, levels, modulus, count=3):
    """First `count` odd split primes ell = 1 mod n_exp coprime to the data."""
    out = []
    step = n_exp if n_exp % 2 == 0 else 2 * n_exp  # the odd q = 1 mod n_exp
    q = step + 1
    while len(out) < count:
        if (
            is_prime(q)
            and field.chi(q) == 1
            and modulus % q != 0
            and all(lvl % q != 0 for lvl in levels)
        ):
            out.append(q)
        q += step
    return out


def check_thaine(D, n_exp=3, modulus=1, count=3):
    """Check that discrete-log group-ring elements kill ray classes mod n.

    For each admissible prime ell (odd, split, 1 mod n_exp) and each
    cyclotomic number generating the circular numbers at the modulus, the
    element with coefficients minus-the-discrete-logs of the number at the
    two primes over ell must annihilate the class of either prime in the
    ray class group modulo n_exp-th powers.  Exact integer arithmetic.
    """
    from .gmodules import RayClassGroup
    from .special import dlog_annihilator_coefficients
    from .units import cyclotomic_number, generating_levels

    field, group = _quad_setup(D)
    levels = generating_levels(field, modulus)
    rcg = RayClassGroup(field, group, modulus)
    mod_n = rcg.module.mod(n_exp)
    results = []
    for ell in thaine_admissible_primes(field, n_exp, levels, modulus, count):
        t0 = time.perf_counter()
        roots = field.prime_roots(ell)
        cls = mod_n.reduce(rcg.prime_class(ell, roots[0]))
        per_level = []
        all_zero = True
        for n in levels:
            delta = cyclotomic_number(field, n, modulus)
            info = dlog_annihilator_coefficients(field, group, delta, ell, n_exp)
            image = mod_n.apply_coeffs(info["coefficients"], cls)
            zero = mod_n.is_zero(image)
            all_zero = all_zero and zero
            per_level.append(
                {
                    "level": n,
                    "coefficients": list(info["coefficients"]),
                    "coefficients_mod_n": list(info["coefficients_mod_n"]),
                    "annihilates": zero,
                }
            )
        results.append(
            CheckResult(
                name="dlog-class-annihilation D=%d ell=%d mod=%d n=%d"
                % (D, ell, modulus, n_exp),
                anchor="dlog-class-annihilation",
                status=PASS if all_zero else REFUTES,
                witness={
                    "discriminant": D,
                    "ell": ell,
                    "modulus": modulus,
                    "n": n_exp,
                    "prime_root": roots[0],
                    "class_order_mod_n": mod_n.element_order(cls),
                    "levels": per_level,
                },
                elapsed=time.perf_counter() - t0,
            )
        )
    return results


# --------------------------------------------------------------------------
# scaled p-adic logarithm annihilators


def check_solomon(D, p=3, prec=12, moduli=(1, 4)):
    """Check integrality and annihilation for scaled log elements.

    p must split in the field.  For each ray modulus, a circular unit at
    that modulus is logged coefficientwise into Z_p (square root embedded
    by Hensel lifting); the claim is that every coefficient has valuation
    at least one, and that the element divided by p annihilates the
    non-trivial-character part of the Sylow p-component of the ray class
    group.
    """
    from .gmodules import RayClassGroup
    from .grouprings import galois_log_quad
    from .padics import PadicRing
    from .units import circular_unit_lattice

    field, group = _quad_setup(D)
    if field.chi(p) != 1:
        raise ValueError("p=%d must split in the field" % p)
    ring = PadicRing(p, prec + PRECISION_HEADROOM)
    sqrt_img = ring.sqrt_disc(D, "hensel")
    results = []
    for modulus in moduli:
        t0 = time.perf_counter()
        lat = circular_unit_lattice(field, modulus)
        k, s = (int(lat[0][0]), int(lat[0][1]))
        delta = field.fundamental_unit() ** k
        if s % 2:
            delta = -delta
        theta = galois_log_quad(group, ring, delta, sqrt_img)
        vals = [c.valuation() for c in theta.coeffs]
        integral = all(v >= 1 for v in vals)
        witness = {
            "discriminant": D,
            "p": p,
            "modulus": modulus,
            "unit_exponent": k,
            "unit_sign": s,
            "coefficient_valuations": vals,
            "embedding": "hensel",
        }
        ok = integral
        if integral:
            scaled = [c.divide_exact(p) for c in theta.coeffs]
            r_order, r_syl, rho = _rho_part(
                RayClassGroup(field, group, modulus).module, p
            )
            witness["ray_sylow_order"] = r_syl.order()
            witness["ray_rho_order"] = r_order
            if rho is not None:
                e = rho.exponent()
                coeffs = [c.lift_int() % e for c in scaled]
                annihilates, bad = rho.annihilated_by(coeffs)
                witness["scaled_coefficients_mod_exponent"] = coeffs
                witness["annihilates"] = annihilates
                if not annihilates:
                    witness["counterexample"] = bad
                ok = annihilates
            else:
                witness["annihilates"] = True
        results.append(
            CheckResult(
                name="scaled-log-annihilator D=%d p=%d mod=%d" % (D, p, modulus),
                anchor="scaled-log-annihilator",
                status=PASS if ok else FAIL,
                witness=witness,
                elapsed=time.perf_counter() - t0,
            )
        )
    return results
