"""The unit group of a real quadratic field and the lattices inside it.

The fundamental unit comes from one period of an integer continued
fraction (`fundamental_unit`, which `QuadField.fundamental_unit` caches),
and `unit_exponent` writes any unit as +-eps^k.  Dirichlet's formula
gives the class number exactly as u_D / sigma(u_D) = +-eps^(+-2h)
(`dirichlet_exponent`, `analytic_class_number`), u_D from `circular`.
`unit_log_value` gives the integer r with log delta - log sigma delta =
r L'_p(0, chi_D) for each cyclotomic number delta, and
`log_eps_valuation` the valuation of log_p eps that ``verify sinnott``
and the solomon annihilator read, from one power of eps in O/(p^K).

The lattices are in (exponent, sign) coordinates with respect to the
fundamental unit and -1: the units congruent to 1 mod d
(`congruence_unit_lattice`), the units among the products of the
cyclotomic numbers of twist d and their conjugates, found as the kernel
of their valuations (`circular_unit_lattice`), and their indices
(`lattice_index`).  `__getattr__` resolves the cyclotomic numbers of
`circular` here too (`_MOVED`).
"""

import math

from . import _lazy_getattr, circular
from .nt import divisors, euler_phi, factorize, kronecker, moebius, radical, valuation
from .quadratic import QuadElement, QuadField, _pair_pow


def fundamental_unit(field):
    """The fundamental unit > 1, from one period of the continued
    fraction of the reduced number x0 = (b + sqrt D)/2, where b is the
    largest integer below sqrt D with b = D mod 2, so that O = Z[x0].

    The complete quotients (P + sqrt D)/Q start at P = b, Q = 2 and come
    back to Q = 2 first at x0 itself, after a period l of O(sqrt(D)
    log D) steps; then eps = q_(l-1) x0 + q_(l-2) with q the convergent
    denominators (Cohen, GTM 138, section 5.7).  It is the same loop for
    odd and even D, and it always ends.
    """
    D = field.D
    s = math.isqrt(D)
    b = s - (s - D) % 2
    P, Q = b, 2
    q_prev, q = 1, 0
    while True:
        a = (P + s) // Q
        q_prev, q = q, a * q + q_prev
        P = a * Q - P
        Q = (D - P * P) // Q
        if Q <= 0:
            raise ArithmeticError("continued fraction for D=%d broke down" % D)
        if Q == 2:
            break
    # x0 = (b - D mod 2)/2 + omega
    eps = QuadElement(field, q * ((b - D % 2) // 2) + q_prev, q)
    if not (eps.is_unit() and eps > 1):
        raise ArithmeticError("fundamental unit search failed for D=%d" % D)
    return eps


def dirichlet_exponent(field):
    """(sign, k) with u_D / sigma(u_D) = sign eps^k, for u_D the norm of
    1 - zeta_D to k (`circular.cyclotomic_number`, checked by N(u_D) =
    Phi_D(1)).  It gives h = |k| / 2 (`analytic_class_number`) and
    L'_p(0, chi_D) = log u_D - log sigma u_D = k log_p eps
    (`checks.check_sinnott`)."""
    u = circular.cyclotomic_number(field, field.D)
    return unit_exponent(field, u / u.conj())


def analytic_class_number(D):
    """h(D), exactly, from Dirichlet's formula: u_D / sigma(u_D) = +-eps^k with
    h = |k| / 2 (Washington, GTM 83, ch. 8), k from `dirichlet_exponent`.  An
    odd or zero k raises ArithmeticError."""
    _, k = dirichlet_exponent(QuadField(D))
    if k % 2 or not k:
        raise ArithmeticError("u_D / sigma(u_D) = +-eps^%d in Q(sqrt %d): odd or 0" % (k, D))
    return abs(k) // 2


def unit_exponent(field, u):
    """Write a unit of O as +-eps^k; returns (sign, k).

    Exact binary descent: with v = |u| >= 1 (inverting if needed), square
    eps until eps^(2^m) exceeds v, then divide out eps^(2^i) from the
    largest i down whenever v >= eps^(2^i).  Every comparison is an exact
    sign test, and it takes O(log |k|) products.
    """
    if not (isinstance(u, QuadElement) and u.is_unit()):
        raise ValueError("not a unit: %r" % (u,))
    sign = u.sign()
    cur = u if sign > 0 else -u
    flip = cur < 1
    if flip:
        cur = cur.inverse()
    powers = [field.fundamental_unit()]
    while not cur < powers[-1]:
        powers.append(powers[-1] * powers[-1])
    k = 0
    for i in range(len(powers) - 1, -1, -1):
        if not cur < powers[i]:
            cur = cur * powers[i].inverse()
            k += 1 << i
    if cur != 1:
        raise ArithmeticError("unit is not a power of the fundamental unit")
    return sign, -k if flip else k


def log_eps_valuation(field, p, K):
    """w = v_p(log_p eps), capped at K, for an odd unramified p: the least
    v_p of the coordinates of eps^(p^2 - 1) - 1 in O/(p^K), as for odd p
    v_p(log(1 + z)) = v_p(z) once p | z.  One power serves split and inert
    p alike: p + 1 is a p-adic unit, and the two primes over a split p give
    the same value, as eps sigma(eps) = +-1.  It is at least 1, since
    p^2 - 1 kills (O/p)^*; a value below K is exact."""
    eps, M = field.fundamental_unit(), p**K
    x, y = _pair_pow((eps.a, eps.b), p * p - 1, M, -field.omega_trace, field.omega_norm)
    return min(valuation(c, p) if c else K for c in ((x - 1) % M, y))


def norm_log_value(D, n, level):
    """The chi_D value of the log factor of a level-`level` norm product
    inside level n (`grouprings.norm_log_factor` at t = n / level):
    phi(n) / phi(level) prod over ell | level of (1 - chi_D(ell)) when D
    divides `level`, else 0."""
    if level % D:
        return 0
    factor = math.prod(1 - kronecker(D, ell) for ell, _ in factorize(level))
    return euler_phi(n) // euler_phi(level) * factor


def unit_log_value(D, n, d):
    """r = c_1 - c_sigma, the chi_D value of the log factor c_1 + c_sigma sigma
    of the level-n, twist-d cyclotomic number delta (trivial value 0): the
    paper's identity reads log delta - log sigma delta = r L'_p(0, chi_D).

    Defined for n > 1 not dividing the radical of d.  It is the Moebius sum
    of `norm_log_value` over the divisors t of gcd(radical(d), n), times
    d / radical(d) and prod (ell - chi_D(ell)) over the primes ell of the
    radical away from n.  `grouprings.unit_log_factor` builds its element
    from this integer.
    """
    if n <= 1:
        raise ValueError("level must exceed 1")
    dbar = radical(d)
    if dbar % n == 0:
        raise ValueError("levels dividing the radical are excluded")
    g = math.gcd(dbar, n)
    r = sum(moebius(t) * (g // t) * norm_log_value(D, n, n // t) for t in divisors(g))
    return r * (d // dbar) * math.prod(ell - kronecker(D, ell) for ell, _ in factorize(dbar // g))


# ----------------------------------------------------------------------
# unit-group lattices, in (exponent, sign) coordinates


def unit_pair(field, u):
    """(k, s) with u = (-1)^s * eps^k, eps the fundamental unit; s is 0 or 1."""
    sign, k = unit_exponent(field, u)
    return (k, 0 if sign > 0 else 1)


def full_unit_lattice():
    return [[1, 0], [0, 1]]


def congruence_unit_lattice(field, d):
    """Lattice of units congruent to 1 modulo d."""
    if d == 1:
        return full_unit_lattice()
    from .intmat import hnf, preimage_lattice

    res = field.residue_ring(d)
    _, rels, _ = res.structure()
    rows = preimage_lattice(
        [
            res.dlog(res.reduce(field.fundamental_unit())),
            res.dlog(res.reduce(field.element(-1))),
        ],
        [list(r) for r in rels],
    )
    return hnf([list(r) for r in rows])


def congruence_exponent(field, d):
    """Smallest positive k with (-1)^s eps^k congruent to 1 mod d for some s."""
    return congruence_unit_lattice(field, d)[0][0]


def circular_unit_lattice(field, d=1):
    """Lattice of units in the group generated by -1 and the twist-d
    cyclotomic numbers of the generating levels with their conjugates."""
    from .intmat import hnf, kernel, transpose

    gens = []
    for n in circular.generating_levels(field, d):
        z = circular.cyclotomic_number(field, n, d)
        gens.append(z)
        gens.append(z.conj())
    # (z) for z = (a + b omega) / e lies over the primes dividing N(a + b omega) e
    support = sorted({p for z in gens for p, _ in factorize(abs(z._norm_numerator()) * z.e)})
    primes = [P for p in support for P in field.primes_over(p)]
    V = [[field.prime_valuation(z, p, r) for p, r in primes] for z in gens]
    rows = [[0, 1]]
    for combo in kernel(transpose(V)):
        u = field.one()
        for z, e in zip(gens, combo):
            if e:
                u = u * z**e
        rows.append(list(unit_pair(field, u)))
    return hnf(rows)


def congruence_circular_lattice(field, d, congruence=None):
    """Units congruent to 1 mod d inside the circular unit lattice.

    `congruence` is ``congruence_unit_lattice(field, d)``, if the caller
    already holds it."""
    from .intmat import intersection_lattice

    if congruence is None:
        congruence = congruence_unit_lattice(field, d)
    return intersection_lattice(circular_unit_lattice(field, d), congruence)


def lattice_index(sub, sup):
    """Index of one full-rank unit lattice inside another."""
    ds = math.prod(sub[i][i] for i in range(len(sub)))
    dS = math.prod(sup[i][i] for i in range(len(sup)))
    if ds % dS:
        raise ArithmeticError("not a sublattice: index %d does not divide %d" % (dS, ds))
    return ds // dS


#: the names that moved to `circular`, resolved on first access for the
#: `TARGETS` of perfbench/tracer.py
_MOVED = {
    "cyclotomic_number": "circular",
    "auxiliary_prime": "circular",
    "generating_levels": "circular",
    "twist_power": "circular",
}

__getattr__ = _lazy_getattr(globals(), _MOVED)
