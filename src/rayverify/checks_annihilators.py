"""Annihilators of ray classes: the discrete-log elements of
``verify annihilator --mode thaine`` (`check_thaine`) and the scaled p-adic
logs of ``--mode solomon`` (`check_solomon`).

Both load the ray class layers (`gmodules`, `classgroup`, `residues` and
`intmat`) and `units`; thaine adds `special`.  Solomon takes its one p-adic
log, log_p eps mod p^K, as a truncated series on plain integers
(`_unit_log`), so neither check loads `padics`, `grouprings` or
`fractions`.
"""

import time

from .checks import FAIL, PASS, PRECISION_HEADROOM, REFUTES, CheckResult, _quad_setup, _rho_part
from .nt import is_prime, sqrt_mod, valuation


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


def _unit_log(field, p, K):
    """log_p eps mod p^K for a split odd p, in the embedding of k into Q_p
    that sends sqrt(D) to the Hensel lift of the smaller square root s of D
    mod p (`nt.sqrt_mod`), so omega to the lift of (T + s) / 2.

    With x the image of eps, z = x^(p - 1) - 1 is divisible by p, and
    log_p eps = log(1 + z) / (p - 1).  The term z^j / j of the series has
    valuation at least j - floor(log_p j).  Take g = floor(log_p 2K): as
    p^(g + 2) > 6K, that bound is at least K for every j > K + g, so the
    first K + g terms are all that is nonzero mod p^K.  Each of them has
    j <= 2K, so v_p(j) <= g, and dividing z^j by the p-part of j costs at
    most the g guard digits: z is formed mod p^(K + g), and every term is
    exact mod p^K.
    """
    g = 0
    while p ** (g + 1) <= 2 * K:
        g += 1
    M = p ** (K + g)
    eps = field.fundamental_unit()
    r = (field.omega_trace + sqrt_mod(field.D, p)) * ((p + 1) // 2) % p
    x = eps.a + eps.b * field.prime_root_lifted(p, r, K + g)
    z = (pow(x, p - 1, M) - 1) % M
    total, power = 0, 1
    for j in range(1, K + g + 1):
        power = power * z % M
        pj = p ** valuation(j, p)
        total += (-1) ** (j + 1) * (power // pj) * pow(j // pj, -1, M)
    return total * pow(p - 1, -1, M) % p**K


def check_solomon(D, p=3, prec=12, moduli=(1, 4)):
    """Check integrality and annihilation for scaled log elements.

    p must be an odd prime that splits in the field.  For each ray modulus,
    the circular unit delta = +-eps^k at that modulus is logged
    coefficientwise into Z_p: theta = log delta + log(sigma delta) sigma,
    and log(sigma delta) = -log delta, so both coefficients come from
    L = k log_p eps mod p^K, K = prec + 8 (`_unit_log`, whose embedding
    ``"hensel"`` names).  The claim is that both coefficients have
    valuation at least one, and that theta / p annihilates the
    non-trivial-character part of the Sylow p-component of the ray class
    group.  Valuations are capped at K, and all arithmetic is on integers.
    """
    from .gmodules import RayClassGroup
    from .units import circular_unit_lattice

    if p == 2 or not is_prime(p):
        raise ValueError("p = %d: odd primes only" % p)
    field, group = _quad_setup(D)
    if field.chi(p) != 1:
        raise ValueError("p=%d must split in the field" % p)
    K = prec + PRECISION_HEADROOM
    pK = p**K
    log_eps = _unit_log(field, p, K)
    results = []
    for modulus in moduli:
        t0 = time.perf_counter()
        lat = circular_unit_lattice(field, modulus)
        k, s = (int(lat[0][0]), int(lat[0][1]))
        L = k * log_eps % pK
        v = valuation(L, p) if L else K
        witness = {
            "discriminant": D,
            "p": p,
            "modulus": modulus,
            "unit_exponent": k,
            "unit_sign": s,
            "coefficient_valuations": [v, v],
            "embedding": "hensel",
        }
        ok = v >= 1  # integral
        if ok:
            r_order, r_syl, rho = _rho_part(
                RayClassGroup(field, group, modulus).module, p
            )
            witness["ray_sylow_order"] = r_syl.order()
            witness["ray_rho_order"] = r_order
            if rho is not None:
                e = rho.exponent()
                coeffs = [L // p % e, -L % pK // p % e]
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
