"""Named verification checks over real quadratic fields.

Each public ``check_*`` / ``explore_*`` function runs one family of
verifications and returns a list of :class:`CheckResult` records.  A record
carries a stable ``anchor`` identifying the mathematical claim being tested,
a ``status``, and a ``witness`` dict of the measured quantities backing the
verdict, so that reports are reproducible and auditable.

Statuses
--------
``pass``
    The claim held with every hypothesis checked.
``fail``
    A quantity disagreed, but through a layer that involves finite
    precision, an embedding choice, or a computable surrogate for the exact
    object — evidence of a problem, not refutation-grade evidence.
``inconclusive``
    The surrogate object is too small to decide the claim either way (the
    circular side of ``explore conjecture`` is only a lower bound).
``falsifies-paper``
    An exact-arithmetic identity failed with all of its hypotheses
    mechanically verified.  Reserved for integer/rational computations with
    no precision or surrogate caveats.

All checks are deterministic: given the same parameters they produce the
same records up to the ``elapsed`` fields.

Every check builds its field with `quadratic` (and `nt` below it), so
those layers are imported here; `_quad_setup` adds the field's Galois
group {1, sigma}, a `quadratic.QuadGaloisGroup` built in O(1).  Every
other layer is imported by the checks that call into them, so that a
command loads and compiles only the layers it uses: ``verify rays``, for
example, never loads `padics`, `units` or `special`, ``verify sinnott``
loads only `units`, only the check that takes p-adic logs (solomon) loads
`grouprings` and `padics`, and no check loads `cyclo`.

``verify sinnott`` decides its identity by unit exponents in k: its
L-value is k_D log_p eps, read off the level-D cyclotomic number, and the
valuation of log_p eps comes from one power of eps in O/(p^K), so no
p-adic log is taken and no check builds the cyclotomic ring of degree
ord_D(p).
"""

import time

from .nt import is_prime, valuation
from .quadratic import QuadField, QuadGaloisGroup, _pair_pow, dirichlet_exponent, unit_exponent

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
REFUTES = "falsifies-paper"

#: extra p-adic digits carried beyond the digits that are compared
PRECISION_HEADROOM = 8


class CheckResult:
    """One verified claim: stable anchor, verdict, and backing data."""

    def __init__(self, name, anchor, status, witness, elapsed):
        self.name = name
        self.anchor = anchor
        self.status = status
        self.witness = witness
        self.elapsed = elapsed

    def to_dict(self):
        return {
            "name": self.name,
            "anchor": self.anchor,
            "status": self.status,
            "witness": self.witness,
            "elapsed": round(self.elapsed, 6),
        }


def _quad_setup(D):
    field = QuadField(D)
    return field, QuadGaloisGroup(field)


def _rho_part(module, p):
    """(order, sylow, rho): the non-trivial-character component of Syl_p.

    For p odd, e_rho = (1 - sigma)/2 and e_rho M is the quotient
    M / (1 + sigma)M (`FiniteGModule.sign_part(-1)`); rho is None when the
    Sylow part is trivial.  Raises ValueError for even p.
    """
    if p % 2 == 0:
        raise ValueError("p=%d must be odd for the rho-part" % p)
    syl = module.sylow(p)
    if syl.order() == 1:
        return 1, syl, None
    rho = syl.sign_part(-1)
    return rho.order(), syl, rho


# --------------------------------------------------------------------------
# twisted logarithm identities


def _unit_log_valuation(field, p, K):
    """w = v_p(log_p eps) = v_P(eps^(q - 1) - 1), capped at K, for an odd
    unramified p: q = p at either prime P over a split p (the two values
    agree, as eps sigma(eps) = +-1), and q = p^2 at P = (p) for inert p.
    eps^(q - 1) is formed in O/(p^K) only, with omega sent to a root lifted
    mod p^K for split p; for odd p, v_p(log(1 + z)) = v_p(z) once p | z."""
    eps, M = field.fundamental_unit(), p**K
    if field.chi(p) == 1:
        root = field.prime_root_lifted(p, field.prime_roots(p)[0], K)
        z = [(pow(eps.a + eps.b * root, p - 1, M) - 1) % M]
    else:
        x, y = _pair_pow((eps.a, eps.b), p * p - 1, M, -field.omega_trace, field.omega_norm)
        z = [(x - 1) % M, y]
    return min(valuation(c, p) if c else K for c in z)


def check_sinnott(D, p, prec=12, d_max=6):
    """Decide the twisted-log identity of each cyclotomic number in integers.

    For G = {1, sigma} both sides of the group-ring identity are multiples
    of e_chi = (1 - sigma)/2, so each record compares one p-adic number:
    x = (log delta - log sigma delta) - r L', for delta the level-n, twist-d
    cyclotomic number and r = c_1 - c_sigma (`units.unit_log_value`).
    L' = L'_p(0, chi_D) = log u_D - log sigma u_D, with u_D = N(1 - zeta_D)
    the level-D cyclotomic number (Leopoldt).  Write delta / sigma delta =
    +-eps^a and u_D / sigma u_D = +-eps^k_D (`unit_exponent`,
    `dirichlet_exponent`); then x = (a - r k_D) log_p eps, in any
    embedding of k into Q_p (split p) or Q_{p^2} (inert p), and log_p eps
    is not 0.  So the identity holds exactly iff a = r k_D, and no p-adic
    log is taken.

    `difference_valuations` are those of the coefficients x/2 and -x/2 of
    x e_chi, as a p-adic route at prec + 8 digits would measure them:
    prec + 8 when a = r k_D, else min(v_p(a - r k_D) + w, prec + 8), with
    w = v_p(log_p eps) (`_unit_log_valuation`).  The record passes when
    they reach `prec`.  A delta / sigma delta that is not a unit fails,
    with no valuations.  ``embedding`` is kept so that reports stay stable:
    it names the embedding of the test-side p-adic oracle, sqrt(D) lifted
    from a residue root ("hensel", or "hensel-inert" in Q_{p^2}), which
    the verdict does not depend on.  A record has no ``content`` when
    r = 0 and delta = +-sigma delta exactly: both sides are then 0 whatever
    the logs.
    """
    from .units import cyclotomic_number, generating_levels, unit_log_value

    field = QuadField(D)
    if p % 2 == 0 or D % p == 0:
        raise ValueError("p=%d must be odd and unramified" % p)
    split = field.chi(p) == 1
    top = prec + PRECISION_HEADROOM
    _, k_D = dirichlet_exponent(field)
    w = _unit_log_valuation(field, p, top + 1)
    results = []
    for d in range(1, d_max + 1):
        for n in generating_levels(field, d):
            t0 = time.perf_counter()
            delta = cyclotomic_number(field, n, d)
            r = unit_log_value(D, n, d)
            quotient = delta / delta.conj()
            if quotient.is_unit():
                gap = unit_exponent(field, quotient)[1] - r * k_D
                v = min(valuation(gap, p) + w, top) if gap else top
                ok = v >= prec
            else:
                v, ok = None, False
            results.append(
                CheckResult(
                    name="twisted-log-identity D=%d p=%d n=%d d=%d" % (D, p, n, d),
                    anchor="twisted-log-identity",
                    status=PASS if ok else FAIL,
                    witness={
                        "discriminant": D,
                        "p": p,
                        "level": n,
                        "twist": d,
                        "digits_required": prec,
                        "difference_valuations": [v, v],
                        "embedding": "hensel" if split else "hensel-inert",
                        "content": r != 0 or (delta.x != 0 and delta.y != 0),
                    },
                    elapsed=time.perf_counter() - t0,
                )
            )
    return results


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
# index equality between unit quotients and ray class groups


def _unit_action_matrix(field):
    """Conjugation on (exponent, sign) coordinates of the unit group.

    Units are (-1)^s eps^k; conjugation sends eps to norm(eps) / eps, so the
    matrix depends only on the norm of the fundamental unit.
    """
    nrm = int(field.fundamental_unit().norm())
    if nrm not in (1, -1):
        raise ArithmeticError("the fundamental unit has norm %d" % nrm)
    return [[-1, 0 if nrm == 1 else 1], [0, 1]]


def unit_quotient_module(field, group, sup, sub):
    """The quotient of two unit lattices in (exponent, sign) coordinates.

    `sup` and `sub` are basis rows with sub contained in sup; both must be
    stable under conjugation.  Returns a FiniteGModule on the rows of sup.
    """
    from .gmodules import FiniteGModule
    from .intmat import Lattice, mat_vec, transpose
    from .units import lattice_index

    act = _unit_action_matrix(field)
    lattice = Lattice(sup)
    rels = []
    for r in sub:
        x = lattice.coords(r)
        if x is None:
            raise ArithmeticError(
                "not a sublattice: the small unit lattice is not in the big one"
            )
        rels.append(x)
    sigma_rows = []
    for r in sup:
        img = mat_vec(transpose(act), list(r))
        x = lattice.coords(img)
        if x is None:
            raise ArithmeticError("lattice is not stable under conjugation")
        sigma_rows.append(x)
    ident = [[1, 0], [0, 1]]
    module = FiniteGModule(group, 2, rels, [ident, sigma_rows])
    if module.order() != lattice_index(sub, sup):
        raise ArithmeticError("the unit quotient order disagrees with the lattice index")
    return module


def _unit_module(field, group, rcg):
    """E_d/C_d at the modulus d of `rcg`: the units congruent to 1 mod d
    over the circular ones among them, on the lattice `rcg` already holds."""
    from .units import congruence_circular_lattice

    sup = rcg.unit_lattice
    sub = congruence_circular_lattice(field, rcg.modulus, sup)
    return unit_quotient_module(field, group, sup, sub)


def _gras_point(rcg, U, p, t0):
    """The index-equality record at p for the ray class group `rcg` and its
    unit module `U`; `t0` is when the work for this record began."""
    D, d = rcg.field.D, rcg.modulus
    u_order, u_syl, _ = _rho_part(U, p)
    r_order, r_syl, _ = _rho_part(rcg.module, p)
    return CheckResult(
        name="ray-index-equality D=%d d=%d p=%d" % (D, d, p),
        anchor="ray-index-equality",
        status=PASS if u_order == r_order else FAIL,
        witness={
            "discriminant": D,
            "modulus": d,
            "p": p,
            "unit_index": U.order(),
            "unit_sylow_order": u_syl.order(),
            "unit_rho_order": u_order,
            "ray_order": rcg.module.order(),
            "ray_sylow_order": r_syl.order(),
            "ray_sylow_invariants": r_syl.invariants(),
            "ray_rho_order": r_order,
            "trivial_character_only": r_syl.order() > 1 and r_order == 1,
        },
        elapsed=time.perf_counter() - t0,
    )


def check_gras(D, p, d=1):
    """Compare congruence-unit / circular-unit index with the ray class group.

    The compared quantities are the orders of the non-trivial-character
    components of the Sylow p-parts on both sides, for the ray modulus d.
    """
    from .gmodules import RayClassGroup

    field, group = _quad_setup(D)
    if p % 2 == 0:
        raise ValueError("p=%d must be odd" % p)
    t0 = time.perf_counter()
    rcg = RayClassGroup(field, group, d)
    return [_gras_point(rcg, _unit_module(field, group, rcg), p, t0)]


def check_gras_scan(D, p_list=(3, 5, 7), d_max=50):
    """Run the index-equality check at every modulus with p-torsion.

    Scans d = 1..d_max; for each prime in p_list a record is emitted only
    when the full Sylow p-part of the ray class group is nontrivial (the
    equality is contentless otherwise).  The unit module is built at most
    once per d.
    """
    from .gmodules import RayClassGroup

    field, group = _quad_setup(D)
    for p in p_list:
        if p % 2 == 0:
            raise ValueError("p=%d must be odd" % p)
    results = []
    for d in range(1, d_max + 1):
        rcg = RayClassGroup(field, group, d)
        order = rcg.module.order()
        U = None
        for p in p_list:
            if order % p != 0:
                continue
            t0 = time.perf_counter()
            if U is None:
                U = _unit_module(field, group, rcg)
            results.append(_gras_point(rcg, U, p, t0))
    return results


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
    alpha = wit["alpha"]
    height = max(
        max(abs(c.x.numerator), abs(c.y.numerator)) for c in alpha.coeffs
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
                    "absolute_norm": int(raw["absolute_norm"]),
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


# --------------------------------------------------------------------------
# exploratory index-versus-exponent comparison


def ray_power_subgroup_orders(rcg, p, n_exp, count=25):
    """Orders of the subgroup of Cl(a)/p^n generated by norm-one-mod-p^n primes.

    Scans primes whose degree-one or degree-two prime ideals have norm
    congruent to 1 mod p^n and coprime to p and the modulus, accumulating
    their classes; returns the subgroup order after each contribution.
    """
    field = rcg.field
    q = p**n_exp
    mod_n = rcg.module.mod(q)
    total = mod_n.order()
    gens = []
    orders = []
    ell = 2
    found = 0
    while found < count:
        while not is_prime(ell):
            ell += 1
        if ell % p != 0 and rcg.modulus % ell != 0:
            nrm = ell if field.chi(ell) >= 0 else ell * ell
            if nrm % q == 1:
                gens += [list(rcg.prime_class(ell, r)) for _, r in field.primes_over(ell)]
                orders.append(total // mod_n.quotient(gens).order())
                found += 1
        ell += 1
    return orders


def explore_conjecture(D, p, d=1, stabilization=25):
    """Compare a unit-index order with a ray-class exponent (exploratory).

    Computes the order of the non-trivial-character Sylow p-part of
    congruence units modulo the congruence circular units, and the exponent
    of the same component of the ray class group at modulus d.  The circular
    side is a computable subgroup of the conjectured one, so its index is
    only an upper bound: equality is corroboration, a larger unit side is
    inconclusive, and a smaller unit side is a genuine discrepancy.
    """
    from .gmodules import RayClassGroup

    field, group = _quad_setup(D)
    if p % 2 == 0:
        raise ValueError(
            "p=%d must be odd: the comparison applies away from the group order" % p
        )
    t0 = time.perf_counter()
    rcg = RayClassGroup(field, group, d)
    u_order, _, _ = _rho_part(_unit_module(field, group, rcg), p)
    r_order, r_syl, rho = _rho_part(rcg.module, p)
    r_exp = 1 if rho is None else rho.exponent()
    if u_order == r_exp:
        status = PASS
    elif u_order > r_exp:
        status = INCONCLUSIVE
    else:
        status = FAIL
    witness = {
        "discriminant": D,
        "p": p,
        "modulus": d,
        "unit_rho_order": u_order,
        "ray_rho_order": r_order,
        "ray_rho_exponent": r_exp,
        "ray_sylow_order": r_syl.order(),
    }
    if r_syl.order() > 1:
        n_exp = valuation(r_syl.exponent(), p)
        witness["prime_class_subgroup_orders"] = ray_power_subgroup_orders(
            rcg, p, n_exp, stabilization
        )
    return [
        CheckResult(
            name="unit-index-vs-ray-exponent D=%d d=%d p=%d" % (D, d, p),
            anchor="unit-index-vs-ray-exponent",
            status=status,
            witness=witness,
            elapsed=time.perf_counter() - t0,
        )
    ]
