"""``verify annihilator`` (`run_annihilator`): the discrete-log elements
of ``--mode thaine`` (`check_thaine`), the scaled p-adic logs of
``--mode solomon`` (`check_solomon`) and the special-unit certificates
of ``--mode special`` (`check_special_units`).

Thaine and solomon load the ray class layers and `units`, and thaine
`special`.  Solomon decides each record by one integer inequality between
v_p(k log_p eps), read from `units.log_eps_valuation`, and the exponent of
the rho-part, so no mode loads `padics`, `grouprings` or `fractions`.  The
special mode loads `cache`, and `quadratic`, `special` and `circular` only
when its cache misses.
"""

import math
import time

from .checks import FAIL, PASS, PRECISION_HEADROOM, REFUTES, CheckResult, _quad_setup, _rho_part
from .harness import _check_modulus_limit, _check_odd_prime, build_report
from .nt import is_prime, kronecker, primitive_root, valuation


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


def residue_dlogs(field, z, ell):
    """Discrete logs of z at the two primes over a split odd prime ell.

    Returns (s, {root: dlog}) with z = s^dlog at omega -> root for
    s = `primitive_root(ell)`: the residue-field logs of `_local_factors`.
    """
    from .residues import _local_factors
    from .special import _check_split, quad_residue

    _check_split(field, ell)
    out = {}
    for loc in _local_factors(field, ell, 1):
        v = quad_residue(z, ell, loc.r)
        if v == 0:
            raise ValueError("number is not a unit at %d" % ell)
        out[loc.r] = loc._residue_log(v)
    return primitive_root(ell), out


def dlog_annihilator_coefficients(field, group, z, ell, n_exp):
    """Group-ring coefficients sum_sigma a_sigma sigma^(-1) from residues of z.

    a_sigma is minus the discrete log of z at the prime indexed by sigma
    (identity: the first root in sorted order; the nontrivial element: the
    second), reduced modulo ell - 1.  Requires ell odd, split, and
    ell = 1 mod n_exp so the reduction mod n_exp is meaningful.
    """
    if (ell - 1) % n_exp:
        raise ValueError("ell=%d must be 1 mod %d" % (ell, n_exp))
    s, dlogs = residue_dlogs(field, z, ell)
    roots = field.prime_roots(ell)
    ident = group.coset_of(1)
    other = 1 - ident  # two-element group
    coeffs = [0, 0]
    coeffs[ident] = (-dlogs[roots[0]]) % (ell - 1)
    coeffs[other] = (-dlogs[roots[1]]) % (ell - 1)
    return {
        "primitive_root": s,
        "coefficients": coeffs,
        "coefficients_mod_n": [c % n_exp for c in coeffs],
        "dlogs": dlogs,
        "roots": roots,
    }


def check_thaine(D, n_exp=3, modulus=1, count=3):
    """Check that discrete-log group-ring elements kill ray classes mod n.

    For each admissible prime ell (odd, split, 1 mod n_exp) and each
    cyclotomic number generating the circular numbers at the modulus, the
    element with coefficients minus-the-discrete-logs of the number at the
    two primes over ell must annihilate the class of either prime in the
    ray class group modulo n_exp-th powers.  Exact integer arithmetic.
    """
    from .circular import cyclotomic_number, generating_levels
    from .rayclass import RayClassGroup

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

    p must be an odd prime that splits in the field.  The circular unit of
    each ray modulus is delta = (-1)^s eps^k (the first Hermite row of
    `circular_unit_lattice`), and delta sigma(delta) = +-1, so
    theta = log delta + log(sigma delta) sigma = L (1 - sigma) with
    L = k log_p eps in Z_p.  The claims: its coefficients are integral,
    v = v_p(L) >= 1, and theta / p kills e_rho M, the non-trivial-character
    part of the Sylow p-part M of the ray class group.  sigma is -1 on
    e_rho M, so theta / p acts there as 2L / p, and for odd p it kills an
    exponent e = p^a iff v - 1 >= a.  v = v_p(k) + w, with w = v_p(log_p
    eps) from `units.log_eps_valuation`, read to enough digits that its
    cap never decides the inequality.

    `coefficient_valuations` are [v, v] capped at K = prec + 8.  A passing
    record with a rho-part has `scaled_coefficients_mod_exponent` [0, 0]
    (L / p and -L / p mod e), a failing one both sides of the inequality,
    `scaled_valuation` v - 1 and `rho_exponent` e.  ``"embedding":
    "hensel"`` names the embedding of the test-side p-adic oracle only,
    sqrt(D) lifted from the smaller square root of D mod p; it is kept so
    that reports stay stable.
    """
    from .rayclass import RayClassGroup
    from .units import circular_unit_lattice, log_eps_valuation

    if p == 2 or not is_prime(p):
        raise ValueError("p = %d: odd primes only" % p)
    field, group = _quad_setup(D)
    if field.chi(p) != 1:
        raise ValueError("p=%d must split in the field" % p)
    K = prec + PRECISION_HEADROOM
    digits = K + 1
    w = log_eps_valuation(field, p, digits)  # exact below `digits`
    results = []
    for modulus in moduli:
        t0 = time.perf_counter()
        lat = circular_unit_lattice(field, modulus)
        k, s = (int(lat[0][0]), int(lat[0][1]))
        v = valuation(k, p) + w
        witness = {
            "discriminant": D,
            "p": p,
            "modulus": modulus,
            "unit_exponent": k,
            "unit_sign": s,
            "coefficient_valuations": [min(v, K)] * 2,
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
                a = valuation(e, p)
                if digits < a + 2:  # a w at its cap could not decide v - 1 >= a
                    digits = a + 2
                    w = log_eps_valuation(field, p, digits)
                    v = valuation(k, p) + w
                ok = v - 1 >= a
                if ok:
                    witness["scaled_coefficients_mod_exponent"] = [0, 0]
                else:
                    witness["scaled_valuation"] = v - 1
                    witness["rho_exponent"] = e
            witness["annihilates"] = ok
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


# --------------------------------------------------------------------------
# special-unit certificates


def special_prime_candidates(field, n, d, count=3):
    """The first `count` odd primes, split in the field, coprime to n*d."""
    return thaine_admissible_primes(field, 1, [n], d, count)


def special_unit_certificate(field, n, d, ell):
    """Exact certificate for the level-(n, d) unit at the auxiliary prime ell.

    Verifies, with no rounding anywhere:
      * integrality and absolute norm +-1 (the element is a unit),
      * relative norm down to the quadratic field exactly 1,
      * a sign choice making the element congruent to 1 modulo d,
      * at every prime over ell the element reduces (zeta -> 1) to the
        cyclotomic number of the same level.

    Reports print it and the cache stores it as is: the residues are the
    sorted [r, a, b], a and b those of the element and of the cyclotomic
    number at omega -> r, and the absolute norm an int or the reduced "p/q".
    """
    from .circular import cyclotomic_number
    from .special import quad_residue, special_unit

    eps = special_unit(field, n, d, ell)
    delta = cyclotomic_number(field, n, d)
    nrm = eps.norm_to_quad()
    # the norm down to Q, exact in integers: num / den in lowest terms
    num, den = nrm._norm_numerator(), nrm.e**2
    g = math.gcd(num, den)
    num, den = num // g, den // g
    is_unit = eps.is_integral() and abs(num) == den == 1
    norm_one = nrm == field.one()

    if (eps - 1).divisible_by_int(d):
        sign = 1
    elif (eps + 1).divisible_by_int(d):
        sign = -1
    else:
        sign = 0
    congruent = sign != 0

    residues = sorted(
        [r, eps.residue_at(r), quad_residue(delta, ell, r)] for r in field.prime_roots(ell)
    )
    matches = all(a == b for _, a, b in residues)

    return {
        "discriminant": field.D,
        "level": n,
        "twist": d,
        "aux_prime": ell,
        "is_unit": is_unit,
        "norm_one": norm_one,
        "congruent_one_mod_d": congruent,
        "sign": sign,
        "matches_cyclotomic_residues": matches,
        "residues": residues,
        "absolute_norm": num if den == 1 else "%d/%d" % (num, den),
    }


def check_special_units(D, twists=(2, 3, 4), count=3, cache=None):
    """Certify special units at the field's own cyclotomic level.

    For each twist d and the first `count` admissible primes ell, builds
    the special unit in k(zeta_ell) and verifies exactly: it is a unit, its
    norm to k is one, it is congruent to +-1 mod d, and its residues at
    both primes over ell match the residues of the twisted cyclotomic
    number.  Each witness is a `special_unit_certificate` as is; a cache
    holds all of a call's in one entry, keyed by D, the twists and the
    count.  The `elapsed` add up to the call: a built call counts the read
    to its first record and the write to its last, a served call all to
    its last.
    """
    t0 = time.perf_counter()
    key = "special-units-%d-%s-%d" % (D, "_".join(map(str, twists)), count)
    certs = cache.get(key) if cache is not None else None
    stamps = [t0]
    if certs is None:
        from .quadratic import QuadField

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


def run_annihilator(D, p=None, modulus=None, mode=None, cache=None):
    """`cache` is the --cache directory of the special mode (see
    `cache.Cache`)."""
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
        results = check_special_units(D, cache=Cache(cache))
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
        results += check_thaine(D, n_exp=p, modulus=m)
    if mode in ("solomon", "both"):
        moduli = (1, 4) if modulus is None else (modulus,)
        params["solomon_moduli"] = list(moduli)
        results += check_solomon(D, p=p, moduli=moduli)
    return build_report("verify annihilator", D, params, results)
