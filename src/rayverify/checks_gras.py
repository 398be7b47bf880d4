"""Unit indices against ray class groups: ``verify gras`` (`run_gras`,
`check_gras`, `check_gras_scan`) and ``explore conjecture``
(`run_conjecture`, `explore_conjecture`).

Both sides are Galois modules: the congruence units over the congruence
circular units (`unit_quotient_module`) and the ray class group, compared
on their non-trivial-character Sylow p-parts (`checks._rho_part`).  These
checks load the ray class layers (`rayclass`, `gmodules`, `classgroup`,
`residues` and `intmat`), `units` and `circular`.
"""

import time

from .checks import FAIL, INCONCLUSIVE, PASS, CheckResult, _quad_setup, _rho_part
from .harness import _check_modulus_limit, _check_odd_prime, build_report
from .nt import is_prime, valuation


# --------------------------------------------------------------------------
# index equality between unit quotients and ray class groups


def _unit_action_matrix(field):
    """Conjugation on (exponent, sign) coordinates of the unit group.

    Units are (-1)^s eps^k; conjugation sends eps to norm(eps) / eps, so the
    matrix depends only on the norm of the fundamental unit.
    """
    eps = field.fundamental_unit()
    # N(eps) = num / e^2, read in integers
    num, den = eps._norm_numerator(), eps.e * eps.e
    if num not in (den, -den):
        raise ArithmeticError("the fundamental unit has norm %d/%d" % (num, den))
    return [[-1, 0 if num == den else 1], [0, 1]]


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
    from .rayclass import RayClassGroup

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
    from .rayclass import RayClassGroup

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
    from .rayclass import RayClassGroup

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


def run_gras(D, p=None, d=None, mode=None):
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
        results = check_gras_scan(D, p_list, d_max)
    else:
        p = 3 if p is None else p
        d = 1 if d is None else d
        params = {"p": p, "d": d, "mode": "single"}
        results = check_gras(D, p, d)
    return build_report("verify gras", D, params, results)


def run_conjecture(D, p=3, d=18):
    _check_odd_prime(p)
    if d < 1:
        raise ValueError("--d %d: the ray modulus must be at least 1" % d)
    _check_modulus_limit(d)  # before the class group and the ray class group
    params = {"p": p, "d": d}
    return build_report("explore conjecture", D, params, explore_conjecture(D, p, d))
