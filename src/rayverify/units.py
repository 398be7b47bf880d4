"""Cyclotomic numbers of real quadratic fields and the unit lattices they span.

The basic object is the exact field element obtained by norming a twisted
product of quantities 1 - zeta_n^t down from the n-th cyclotomic field to
its intersection with a fixed real quadratic field: for a twist d whose
radical is not divisible by n, the product runs over divisors t of the
radical with exponents mu(t) * d / t.  Untwisted (d = 1) these are the
classical cyclotomic numbers; general d builds in congruence conditions
modulo d.

Each norm of 1 - zeta_n^t is read at the conductor s of zeta_n^t.  It is
rational unless D divides s; then it is a power of u_s, the norm of
1 - zeta_s, or of its conjugate.  u_s is one product of the 1 - x^h over
ker(chi_D) mod s in Z[x]/(x^s - 1), summed against closed-form Gauss
periods (`_period`), and cached once per (D, s) as the norm at (n, t) =
(s, 1).  The same periods give `orbit_polynomial`, the coefficients of F_t
that `special.special_unit` needs, by Newton's identities in k.

`generating_levels` lists the levels n whose numbers generate the whole
group of such elements for a given twist.  The raw parametrization runs
over products y * m_r of divisor data of the field discriminant; entries
that collapse (level 1, or a level dividing the radical of the twist) are
replaced by their multiples by a small auxiliary inert prime, which changes
the generated group only by a factor of 2 in index and so is invisible to
every odd-part comparison.

On top sit exact lattice computations inside the unit group, coordinatized
as (exponent, sign) with respect to the fundamental unit and -1:

* `congruence_unit_lattice(field, d)`: the units congruent to 1 mod d.
* `circular_unit_lattice(field, d)`: the units among products of the
  cyclotomic numbers of twist d and their conjugates (together with -1),
  found by an exact valuation-matrix kernel computation.
* `lattice_index`: indices between such lattices, whose p-parts are the
  quantities the verification engine compares against L-value data.
"""

import math
from fractions import Fraction

from .cyclo import power_sums_to_elementary, units_mod
from .grouprings import radical
from .nt import divisors, euler_phi, factorize, is_prime, kronecker, moebius, valuation
from .quadratic import QuadElement, unit_exponent

__all__ = [
    "cyclotomic_number",
    "orbit_polynomial",
    "generating_levels",
    "auxiliary_prime",
    "unit_pair",
    "full_unit_lattice",
    "congruence_unit_lattice",
    "congruence_exponent",
    "circular_unit_lattice",
    "congruence_circular_lattice",
    "lattice_index",
    "twist_power",
]

_norm_cache = {}
_orbit_cache = {}


def _period(D, m, sign):
    """Twice the coordinates (x, y) of the Gauss period x + y sqrt(D) over
    one orbit of ker(chi_D) on (Z/m)^*: the Ramanujan sum mu(m) when D does
    not divide m (`sign` 0), else the coset where chi_D is `sign`, with
    period (mu(m) + sign mu(r) chi(r) sqrt(D)) / 2 for m = D r."""
    if not sign:
        return 2 * moebius(m), 0
    return moebius(m), sign * moebius(m // D) * kronecker(D, m // D)


def orbit_polynomial(field, n, t):
    """F_t(X) = prod over h in S of (X - zeta_n^(t h)), S the subgroup of
    (Z/n)^* fixing k in Q(zeta_n): ker(chi_D) mod n if D | n, else all of it.

    Its coefficients lie in that part, so they come back as a tuple of
    QuadElements, ascending.  They are Newton's identities on the power sums
    over S of zeta_n^(t j h): |S| / |S_m| times the `_period` of the orbit
    of zeta_n^(t j), m its order and S_m the image of S mod m.  Only
    `special.special_unit` needs them; norms skip this route.
    """
    D = field.D
    key = (D, n, t % n)
    if key in _orbit_cache:
        return _orbit_cache[key]
    size = euler_phi(n) // (2 if n % D == 0 else 1)
    traces, powers = {}, []
    for j in range(1, size + 1):
        g = math.gcd(n, t * j)
        m = n // g
        orbit = (m, kronecker(D, t * j // g) if m % D == 0 else 0)
        if orbit not in traces:
            x2, y2 = _period(D, *orbit)
            fibre = size * (2 if orbit[1] else 1) // euler_phi(m)  # |S| / |S_m|
            traces[orbit] = field.element(Fraction(fibre * x2, 2), Fraction(fibre * y2, 2))
        powers.append(traces[orbit])
    # F(X) = X^r - e1 X^(r-1) + e2 X^(r-2) - ...
    coeffs = [field.one()]
    for i, e in enumerate(power_sums_to_elementary(powers, field.one()), start=1):
        coeffs.append(-e if i % 2 else e)
    _orbit_cache[key] = coeffs = tuple(reversed(coeffs))
    return coeffs


def _level_norm(field, s):
    """u_s = prod over h in ker(chi_D) mod s of (1 - zeta_s^h), for D | s.

    One product P = prod (1 - x^h) in Z[x]/(x^s - 1), one list pass per h.
    P is invariant under ker(chi_D), so P(zeta_s) sums its coefficients
    against the periods eta_O = sum over an orbit O of zeta_s^i.  The orbit
    of i = g j, g = gcd(i, s) and m = s / g, is g times an orbit of
    ker(chi_D) on (Z/m)^*, named by chi_D(j) when D | m (see `_period`).
    """
    D = field.D
    chi = [kronecker(D, a) for a in range(D)]
    P = [1] + [0] * (s - 1)
    for h in units_mod(s):
        if chi[h % D] == 1:
            P = [a - b for a, b in zip(P, P[-h:] + P[:-h])]
    x2 = y2 = 0  # twice the rational and the sqrt(D) coordinate
    for m in divisors(s):
        g = s // m
        orbits = {}  # chi(j) when D | m, else 0 -> the coefficient on the orbit
        for j in units_mod(m):
            c = P[g * j]
            if orbits.setdefault(chi[j % D] if m % D == 0 else 0, c) != c:
                raise ArithmeticError(
                    "the product at level %d is not invariant under ker(chi_%d)" % (s, D)
                )
        for sign, c in orbits.items():
            px, py = _period(D, m, sign)
            x2 += c * px
            y2 += c * py
    return field.element(Fraction(x2, 2), Fraction(y2, 2))


def _norm_one_minus_power(field, n, t):
    """Exact norm, down to the field's part of the n-th cyclotomic field,
    of 1 - zeta_n^t, read at the conductor s = n / gcd(n, t) of zeta_n^t.

    Reduction mod s maps the fixing subgroup S at level n onto the one at
    level s, S_s, |S| / |S_s| to one.  When D does not divide s, S_s is all
    of (Z/s)^* and the norm is rational: Phi_s(1), which is p for s a power
    of p and 1 otherwise, to the power |S| / |S_s|.  Otherwise it is
    u_s = N(1 - zeta_s) (see `_level_norm`) to the power phi(n) / phi(s),
    conjugated when t / gcd(n, t) is a non-residue of chi_D."""
    D = field.D
    key = (D, n, t % n)
    if key in _norm_cache:
        return _norm_cache[key]
    g = math.gcd(n, t)
    s = n // g
    if s == 1:
        raise ValueError("the root of unity degenerates to 1 (n=%d, t=%d)" % (n, t))
    if s % D:
        fac = factorize(s)
        base = fac[0][0] if len(fac) == 1 else 1
        size = euler_phi(n) if n % D else euler_phi(n) // 2
        value = field.element(base ** (size // euler_phi(s)))
    elif key == (D, s, 1):  # u_s itself
        value = _level_norm(field, s)
    else:
        value = _norm_one_minus_power(field, s, 1) ** (euler_phi(n) // euler_phi(s))
        if field.chi(t // g) == -1:
            value = value.conj()
    _norm_cache[key] = value
    return value


def cyclotomic_number(field, n, d=1):
    """The twist-d cyclotomic number of level n, as an exact field element.

    Defined for n > 1 with n not dividing the radical of d.  For d = 1 this
    is the norm of 1 - zeta_n; the general twist is the product over
    divisors t of the radical of d of the norms of 1 - zeta_n^t, raised to
    mu(t) * d / t.
    """
    if n < 2:
        raise ValueError("level %d: must be at least 2" % n)
    dbar = radical(d)
    if dbar % n == 0:
        raise ValueError("level %d divides the radical of the twist %d" % (n, d))
    out = field.one()
    for t in divisors(dbar):
        e = moebius(t) * (d // t)
        if e:
            out = out * _norm_one_minus_power(field, n, t) ** e
    return out


def auxiliary_prime(field, d):
    """Smallest inert prime dividing neither the twist radical nor the
    discriminant, used to repair degenerate levels in the generating set."""
    dbar = radical(d)
    q = 2
    while True:
        if is_prime(q) and field.chi(q) == -1 and dbar % q != 0:
            return q
        q += 1


def generating_levels(field, d=1):
    """Sorted levels n whose twist-d cyclotomic numbers generate them all.

    Parametrized by n = y * m_r with m_r the full discriminant part of a
    squarefree r prime to gcd(radical(d), D) and y a divisor of the
    discriminant part of that gcd.  Degenerate candidates (n = 1, or n
    dividing the radical of the twist) are replaced by their multiple by
    the auxiliary inert prime, keeping their content up to a factor 2.
    """
    m = field.D
    dbar = radical(d)
    dprime = math.gcd(dbar, m)

    def disc_part(r):
        return math.prod(p ** valuation(m, p) for p, _ in factorize(r))

    md = disc_part(dprime)
    mbar = radical(m)
    out = set()
    aux = None
    for r in divisors(mbar):
        if math.gcd(r, dprime) != 1:
            continue
        mr = disc_part(r)
        for y in divisors(md):
            n = y * mr
            if n > 1 and dbar % n != 0:
                out.add(n)
            elif dprime > 1:
                if aux is None:
                    aux = auxiliary_prime(field, d)
                out.add(aux * n)
    return sorted(out)


def twist_power(z, a, b):
    """z^(a + b sigma) for a quadratic field element z: z^a * conj(z)^b."""
    return z**a * z.conj() ** b


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


def _support_columns(field, values):
    primes = set()
    for z in values:
        nm = z.norm()
        for p, _ in factorize(abs(nm.numerator) * nm.denominator):
            primes.add(p)
    cols = []
    for p in sorted(primes):
        ch = field.chi(p)
        if ch == 1:
            r1, r2 = field.prime_roots(p)
            cols.append((p, r1, "split"))
            cols.append((p, r2, "split"))
        elif ch == 0:
            cols.append((p, field.prime_roots(p)[0], "ramified"))
        else:
            cols.append((p, None, "inert"))
    return cols


def _valuation_row(field, z, cols):
    den = z.e
    zi = QuadElement(field, z.a, z.b)
    row = []
    for p, r, kind in cols:
        if kind == "inert":
            v = valuation(abs(int(zi.norm())), p) // 2 - valuation(den, p)
        elif kind == "ramified":
            v = field.prime_valuation(zi, p, r) - 2 * valuation(den, p)
        else:
            v = field.prime_valuation(zi, p, r) - valuation(den, p)
        row.append(v)
    return row


def circular_unit_lattice(field, d=1):
    """Lattice of units in the group generated by -1 and the twist-d
    cyclotomic numbers of the generating levels with their conjugates."""
    from .intmat import hnf, kernel, transpose

    gens = []
    for n in generating_levels(field, d):
        z = cyclotomic_number(field, n, d)
        gens.append(z)
        gens.append(z.conj())
    cols = _support_columns(field, gens)
    V = [_valuation_row(field, z, cols) for z in gens]
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
