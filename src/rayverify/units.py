"""Cyclotomic numbers of real quadratic fields and the unit lattices they span.

The basic object is the exact field element obtained by norming a twisted
product of quantities 1 - zeta_n^t down from the n-th cyclotomic field to
its intersection with a fixed real quadratic field: for a twist d whose
radical is not divisible by n, the product runs over divisors t of the
radical with exponents mu(t) * d / t.  Untwisted (d = 1) these are the
classical cyclotomic numbers; general d builds in congruence conditions
modulo d.

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

from .cyclo import (
    FieldSpec,
    power_sums_to_elementary,
    subgroup_trace_of_power,
    to_quadratic,
)
from .grouprings import radical
from .intmat import hnf, intersection_lattice, kernel, preimage_lattice, transpose
from .nt import divisors, euler_phi, factorize, is_prime, moebius, valuation
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


def orbit_polynomial(field, n, t):
    """F_t(X) = prod over h in S of (X - zeta_n^(t h)), S the subgroup of
    (Z/n)^* fixing the field's part of the n-th cyclotomic field.

    Its coefficients lie in that part, so they come back as a tuple of
    QuadElements, ascending.  They are Newton's identities on the Gauss-period traces
    sum over S of zeta_n^(t j h), one per orbit t j S mod n.
    """
    key = (field.D, n, t % n)
    if key in _orbit_cache:
        return _orbit_cache[key]
    S = FieldSpec.quadratic(field.D).fixing_subgroup_at(n)
    # the trace over S of zeta_n^(t j) depends on j only through the
    # orbit t j S mod n, named by its least element
    traces = {}
    powers = []
    for j in range(1, len(S) + 1):
        orbit = min(t * j * h % n for h in S)
        if orbit not in traces:
            x, y = to_quadratic(subgroup_trace_of_power(n, S, t * j), field.D)
            traces[orbit] = field.element(x, y)
        powers.append(traces[orbit])
    # F(X) = X^r - e1 X^(r-1) + e2 X^(r-2) - ...
    coeffs = [field.one()]
    for i, e in enumerate(power_sums_to_elementary(powers, field.one()), start=1):
        coeffs.append(-e if i % 2 else e)
    _orbit_cache[key] = coeffs = tuple(reversed(coeffs))
    return coeffs


def _norm_one_minus_power(field, n, t):
    """Exact norm, down to the field's part of the n-th cyclotomic field,
    of 1 - zeta_n^t: F_t(1).  Rational when the field does not sit inside
    level n."""
    key = (field.D, n, t % n)
    if key in _norm_cache:
        return _norm_cache[key]
    s = n // math.gcd(n, t)
    if s == 1:
        raise ValueError("the root of unity degenerates to 1 (n=%d, t=%d)" % (n, t))
    if n % field.D:
        # the intersection field is Q: classical rational norm
        fac = factorize(s)
        base = fac[0][0] if len(fac) == 1 else 1
        value = field.element(base ** (euler_phi(n) // euler_phi(s)))
    else:
        value = sum(orbit_polynomial(field, n, t), field.zero())
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
