"""Real quadratic fields: exact elements, units, ideals, class data.

A QuadField is keyed by its fundamental discriminant D > 0.  The ring of
integers is Z[omega] with omega = (1 + sqrt D)/2 for odd D and sqrt(D)/2
for even D, and an element is held as integer coordinates over one common
denominator: (a + b omega) / e, reduced by gcd(a, b, e).  Products rewrite
omega^2 = T omega - N exactly as the residue rings O/(M) do; the rational
coordinates x + y sqrt(D) are views computed on demand.  The fundamental
unit comes from one period of an integer continued fraction.  Only this
module lists the primes over p by chi_D(p): `primes_over` names them as
(p, r) for (p, omega - r), or (p, None) for an inert (p), and
`prime_valuation` values any nonzero element of k at each of them.
`QuadGaloisGroup` is Gal(k/Q) = {1, sigma} with the unit a mod D mapped
to sigma by chi_D(a) = -1: the group that the checks hand to the
group-ring and Galois-module layers, built in O(1).

The class group is computed from scratch: relations among the primes
below the Minkowski bound are harvested from elements of smooth norm in a
growing search box until the index of their lattice is the class number,
which Dirichlet's formula gives exactly as u_D / sigma(u_D) = +-eps^(+-2h)
(`dirichlet_exponent`, `analytic_class_number`; found relations can only
over-count h).  Every relation row keeps the element that witnessed it, so
principality questions reduce to exact integer linear algebra plus an
explicit generator.  The module holds no float.

Residue rings O/(M) for integer moduli M present their unit group on the
CRT lifts of explicit local generators (a primitive-root lift and the
1-units of the filtration at each prime over ell^e || M), with triangular
relation rows and discrete logs computed on demand, which is what the ray
class layer consumes; nothing enumerates or scans the ring, and
`QuadField.residue_ring` keeps the last one built.  Bad
arguments raise ValueError and broken invariants ArithmeticError, so
`python -O` behaves the same.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

from .nt import factorize, is_prime, kronecker, primitive_root, sqrt_mod, squarefree_part, valuation


def _is_fundamental(D):
    if D % 4 == 1:
        return squarefree_part(D) == D
    if D % 4 == 0:
        d0 = D // 4
        return squarefree_part(d0) == d0 and d0 % 4 in (2, 3)
    return False


class QuadElement:
    """(a + b omega) / e with integers a, b and a positive integer e.

    omega generates O = Z[omega] and satisfies omega^2 = T omega - N, with T
    and N its trace and norm.  The triple is reduced by gcd(a, b, e), so it
    is unique: equality, hashing, `sign` and the comparisons work on
    integers, and the element is integral exactly when e == 1.  `x` and `y`
    (the element is x + y sqrt(D)), `norm` and `omega_coords` are
    Fraction-valued views.
    """

    __slots__ = ("field", "a", "b", "e")

    def __init__(self, field, a, b=0, e=1):
        if not e:
            raise ZeroDivisionError("zero denominator")
        if e < 0:
            a, b, e = -a, -b, -e
        g = math.gcd(a, b, e)
        if g > 1:
            a, b, e = a // g, b // g, e // g
        self.field = field
        self.a = a
        self.b = b
        self.e = e

    def _coerce(self, other):
        if isinstance(other, QuadElement):
            if other.field.D != self.field.D:
                raise ValueError("mixed quadratic fields")
            return other
        if isinstance(other, int):
            return QuadElement(self.field, other)
        if isinstance(other, Fraction):
            return QuadElement(self.field, other.numerator, 0, other.denominator)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e, f = self.e, other.e
        if e == f:
            return QuadElement(self.field, self.a + other.a, self.b + other.b, e)
        return QuadElement(
            self.field, self.a * f + other.a * e, self.b * f + other.b * e, e * f
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadElement(self.field, -self.a, -self.b, self.e)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.a, self.b, other.a, other.b
        bd = b * d
        return QuadElement(
            self.field,
            a * c - bd * self.field.omega_norm,
            a * d + b * c + bd * self.field.omega_trace,
            self.e * other.e,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        e = int(e)
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.e == other.e

    def __hash__(self):
        return hash((self.field.D, self.a, self.b, self.e))

    def __repr__(self):
        return "QuadElement(%s + %s*sqrt(%d))" % (self.x, self.y, self.field.D)

    @property
    def x(self):
        """The rational part x of x + y sqrt(D)."""
        return Fraction(2 * self.a + (self.field.D % 2) * self.b, 2 * self.e)

    @property
    def y(self):
        """The coefficient y of sqrt(D) in x + y sqrt(D)."""
        return Fraction(self.b, 2 * self.e)

    def conj(self):
        # conj(omega) = T - omega
        return QuadElement(
            self.field, self.a + self.b * self.field.omega_trace, -self.b, self.e
        )

    def _norm_numerator(self):
        """norm(self) * e^2, an integer."""
        a, b = self.a, self.b
        return a * a + a * b * self.field.omega_trace + b * b * self.field.omega_norm

    def norm(self):
        return Fraction(self._norm_numerator(), self.e * self.e)

    def trace(self):
        return Fraction(2 * self.a + self.b * self.field.omega_trace, self.e)

    def inverse(self):
        n = self._norm_numerator()
        if not n:
            raise ZeroDivisionError("inverse of zero")
        e = self.e
        return QuadElement(
            self.field, (self.a + self.b * self.field.omega_trace) * e, -self.b * e, n
        )

    def omega_coords(self):
        """(a, b) with self = a + b omega; Fractions, integers iff integral."""
        return Fraction(self.a, self.e), Fraction(self.b, self.e)

    def is_integral(self):
        return self.e == 1

    def is_unit(self):
        return self.e == 1 and abs(self._norm_numerator()) == 1

    def is_rational(self):
        return self.b == 0

    def sign(self):
        """Sign of the real number x + y sqrt(D), exactly."""
        # 2 e (x + y sqrt(D)) = X + Y sqrt(D)
        X = 2 * self.a + (self.field.D % 2) * self.b
        Y = self.b
        if X >= 0 and Y >= 0:
            return 1 if X or Y else 0
        if X <= 0 and Y <= 0:
            return -1
        # opposite signs: compare X^2 against D Y^2
        big_x = X * X > self.field.D * Y * Y
        if X > 0:
            return 1 if big_x else -1
        return -1 if big_x else 1

    def __gt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() > 0

    def __lt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0


class QuadField:
    """Q(sqrt(D)) for a positive fundamental discriminant D."""

    _cache = {}

    def __new__(cls, D):
        if D in cls._cache:
            return cls._cache[D]
        self = super().__new__(cls)
        cls._cache[D] = self
        return self

    def __init__(self, D):
        if hasattr(self, "D"):
            return
        if not (D > 4 and _is_fundamental(D)):
            raise ValueError("%r is not a positive fundamental discriminant" % (D,))
        self.D = D
        self.d0 = squarefree_part(D)
        if D % 2:
            self.omega_trace, self.omega_norm = 1, (1 - D) // 4
        else:
            self.omega_trace, self.omega_norm = 0, -self.d0
        self._unit = None
        self._classgroup = None
        self._residue = None
        self._local_units = {}  # (ell, e) -> the local factors of O/(ell^e)

    def element(self, x, y=0):
        """x + y sqrt(D) for rational x and y."""
        if isinstance(x, int) and not y:
            return QuadElement(self, x)
        y = Fraction(y)
        # sqrt(D) = 2 omega - (D mod 2)
        return self.from_omega_coords(Fraction(x) - (self.D % 2) * y, 2 * y)

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def sqrt_disc(self):
        return self.element(0, 1)

    def omega(self):
        return QuadElement(self, 0, 1)

    def from_omega_coords(self, a, b):
        """a + b omega for rational a and b."""
        if isinstance(a, int) and isinstance(b, int):
            return QuadElement(self, a, b)
        a, b = Fraction(a), Fraction(b)
        e = math.lcm(a.denominator, b.denominator)
        a, b = a.numerator * (e // a.denominator), b.numerator * (e // b.denominator)
        return QuadElement(self, a, b, e)

    def chi(self, a):
        return kronecker(self.D, a)

    # -- units

    def fundamental_unit(self):
        """The fundamental unit > 1, from one period of the continued
        fraction of the reduced number x0 = (b + sqrt D)/2, where b is the
        largest integer below sqrt D with b = D mod 2, so that O = Z[x0].

        The complete quotients (P + sqrt D)/Q start at P = b, Q = 2 and come
        back to Q = 2 first at x0 itself, after a period l of O(sqrt(D)
        log D) steps; then eps = q_(l-1) x0 + q_(l-2) with q the convergent
        denominators (Cohen, GTM 138, section 5.7).  It is the same loop for
        odd and even D, and it always ends.
        """
        if self._unit is not None:
            return self._unit
        D = self.D
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
        eps = QuadElement(self, q * ((b - D % 2) // 2) + q_prev, q)
        if not (eps.is_unit() and eps > 1):
            raise ArithmeticError("fundamental unit search failed for D=%d" % D)
        self._unit = eps
        return eps

    # -- primes

    def split_type(self, p):
        chi = self.chi(p)
        return {1: "split", -1: "inert", 0: "ramified"}[chi]

    def prime_roots(self, p):
        """Roots mod the prime p of omega's minimal polynomial, one per prime
        over p: for odd p, (T +- sqrt(D)) / 2 with `sqrt_mod`, sorted."""
        T, Nm = self.omega_trace, self.omega_norm
        if p == 2:
            return [r for r in range(2) if (r * r - T * r + Nm) % 2 == 0]
        if self.chi(p) == -1:
            return []
        s, half = sqrt_mod(self.D, p), (p + 1) // 2
        return sorted({(T + s) * half % p, (T - s) * half % p})

    def prime_root_lifted(self, p, r, k):
        """The root of omega's minimal polynomial mod p^k lifting r (r simple)."""
        T, Nm = self.omega_trace, self.omega_norm
        M = p**k
        x = r % p
        # Newton; the derivative 2x - T is a unit mod p for unramified p
        if (2 * r - T) % p == 0:
            raise ValueError("needs a simple root")
        for _ in range(k.bit_length() + 1):
            fx = (x * x - T * x + Nm) % M
            dfx = (2 * x - T) % M
            x = (x - fx * pow(dfx, -1, M)) % M
        if (x * x - T * x + Nm) % M:
            raise ArithmeticError("Hensel lift failed")
        return x

    def primes_over(self, p):
        """The primes over the prime p, each named (p, r): the prime
        (p, omega - r) for each root r of `prime_roots` (two when p splits,
        one when p ramifies), or (p, None) for the prime (p) when p is inert."""
        return [(p, r) for r in self.prime_roots(p)] or [(p, None)]

    def prime_valuation(self, z, p, r):
        """v_P(z) for a nonzero z of k at the prime P named (p, r) by
        `primes_over`.  The numerator of z = (a + b omega) / e is valued
        through its norm, and e counts as v_p(e) times the ramification
        index of P.  A pair (p, r) that names no prime raises ValueError."""
        nrm = z._norm_numerator()
        if not nrm:
            raise ValueError("valuation of zero")
        if (p, r) not in self.primes_over(p):
            raise ValueError("(%d, %s) names no prime over %d" % (p, r, p))
        chi = self.chi(p)
        v = valuation(nrm, p)
        if chi == -1:
            if v % 2:
                raise ArithmeticError("odd norm valuation at inert %d" % p)
            v //= 2  # N(P) = p^2
        elif chi == 1 and v:
            # O/P^(v + 1) = Z/p^(v + 1) with omega -> r lifted; at a
            # ramified P, v is v_p of the norm already
            rlift = self.prime_root_lifted(p, r, v + 1)
            val = (z.a + z.b * rlift) % p ** (v + 1)
            if val:
                v = min(valuation(val, p), v)
        return v - (2 if chi == 0 else 1) * valuation(z.e, p)

    def residue_ring(self, M):
        """O/(M).  The last ring asked for is kept, so the ray class group,
        the residue Galois module and the congruence units of one modulus
        share one presentation of its units."""
        if self._residue is None or self._residue.M != M:
            self._residue = ResidueRing(self, M)
        return self._residue

    # -- class group

    def class_group(self):
        if self._classgroup is None:
            self._classgroup = ClassGroup(self)
        return self._classgroup


class QuadGaloisGroup:
    """Gal(k/Q) = {1, sigma} for the real quadratic field k of discriminant D.

    Index 0 is the identity and index 1 is sigma, and the level `m` is D:
    the unit a mod D restricts to sigma exactly when chi_D(a) = -1
    (`coset_of`).  `order`, `mult`, `inv` and `exponent` are the fixed
    tables of a group of order 2, so the group is built in O(1), with no
    list of (Z/D)^*.  Two such groups are equal when their D are.
    """

    __slots__ = ("m",)

    order = 2
    exponent = 2
    mult = ((0, 1), (1, 0))
    inv = (0, 1)

    def __init__(self, field):
        self.m = field.D

    def coset_of(self, a):
        """Index of the element that the unit a mod D restricts to."""
        a %= self.m
        chi = kronecker(self.m, a)
        if chi == 0:
            raise ValueError("%d is not a unit at level %d" % (a, self.m))
        return int(chi == -1)

    def __repr__(self):
        return "QuadGaloisGroup(D=%d)" % self.m

    def __eq__(self, other):
        return isinstance(other, QuadGaloisGroup) and self.m == other.m

    def __hash__(self):
        return hash((QuadGaloisGroup, self.m))


def dirichlet_exponent(field):
    """(sign, k) with u_D / sigma(u_D) = sign eps^k, for u_D the norm of
    1 - zeta_D to k (`units.cyclotomic_number`, checked by N(u_D) =
    Phi_D(1)).  It gives h = |k| / 2 (`analytic_class_number`) and
    L'_p(0, chi_D) = log u_D - log sigma u_D = k log_p eps
    (`checks.check_sinnott`)."""
    from .units import cyclotomic_number  # units imports this module

    u = cyclotomic_number(field, field.D)
    return unit_exponent(field, u / u.conj())


def analytic_class_number(D):
    """h(D), exactly, from Dirichlet's formula: u_D / sigma(u_D) = +-eps^k with
    h = |k| / 2 (Washington, GTM 83, ch. 8), k from `dirichlet_exponent`.  An
    odd or zero k raises ArithmeticError."""
    _, k = dirichlet_exponent(QuadField(D))
    if k % 2 or not k:
        raise ArithmeticError("u_D / sigma(u_D) = +-eps^%d in Q(sqrt %d): odd or 0" % (k, D))
    return abs(k) // 2


class ClassGroup:
    """Ideal class group presented on the primes below the Minkowski bound.

    gens: the (p, r) of `QuadField.primes_over` for the split and ramified
    p below the bound (ramified primes appear once, split primes twice).
    relations: integer rows in those generators; witnesses[i] is an
    explicit field element generating the ideal prod gens^relations[i].
    With no such p every class is principal (Minkowski), so h = 1 is not
    computed; otherwise `_harvest` reaches h = `analytic_class_number(D)`.
    """

    def __init__(self, field):
        from .intmat import Lattice

        self.field = field
        D = field.D
        mink = math.isqrt(D) // 2
        # the split and ramified primes; an inert (p) is principal
        primes = [p for p in range(2, mink + 1) if is_prime(p)]
        self.gens = [(p, r) for p in primes for r in field.prime_roots(p)]
        self.relations = []
        self.witnesses = []
        self.lattice = Lattice([])
        self.invariants = []
        self.order = 1
        if self.gens:
            self._harvest(analytic_class_number(D))

    def _factor_vector(self, z, cofactor=1):
        """Exponent vector of (z) over the base, or None unless |N(z)| is
        `cofactor` times a product of base primes."""
        if z.e != 1:
            raise ValueError("factoring a non-integral element")
        nrm = abs(z._norm_numerator())
        if not nrm:
            raise ValueError("factoring zero")
        rem, left = divmod(nrm, cofactor)
        if left:
            return None
        for p in {p for p, _ in self.gens}:
            while rem % p == 0:
                rem //= p
        if rem != 1:
            return None
        vec = [0] * len(self.gens)
        for i, (p, r) in enumerate(self.gens):
            if nrm % p == 0:
                vec[i] = self.field.prime_valuation(z, p, r)
        return vec

    def _harvest(self, h):
        """Relations from the rational primes of the base and from the
        smooth a + b omega with |a|, b <= bound, doubling the bound until
        the index of the relation lattice is the class number h.  Found
        relations span a sublattice of the full relation lattice, so their
        index is a multiple of h: reaching h pins the lattice, and a full
        rank index that h does not divide refutes h (ArithmeticError).
        """
        from .intmat import Lattice

        field = self.field
        bound = 8
        for _ in range(10):
            rows, wits = [], []
            # rational relations: (p) as a product of the primes above p
            for p in sorted({p for p, _ in self.gens}):
                z = field.element(p)
                vec = self._factor_vector(z)
                if vec is None:
                    raise ArithmeticError("base prime %d is not smooth" % p)
                rows.append(vec)
                wits.append(z)
            for b in range(1, bound + 1):
                for a in range(-bound, bound + 1):
                    z = field.from_omega_coords(a, b)
                    if not z._norm_numerator():
                        continue
                    vec = self._factor_vector(z)
                    if vec is not None:
                        rows.append(vec)
                        wits.append(z)
            lattice = Lattice(rows)
            diag = lattice.invariants()
            index = math.prod(diag) if len(diag) == len(self.gens) else 0
            if index == h:
                self.relations = rows
                self.lattice = lattice
                self.witnesses = wits
                self.invariants = [d for d in diag if d != 1]
                self.order = h
                return
            if index % h:
                raise ArithmeticError("relation index %d is not a multiple of h = %d" % (index, h))
            bound *= 2
        raise ArithmeticError("class group relations did not reach h = %d" % h)

    def principalize(self, vec):
        """A field element generating prod gens^vec, or None if non-principal."""
        if not self.gens:
            return self.field.one()
        x = self.lattice.coords(vec)
        if x is None:
            return None
        z = self.field.one()
        for c, w in zip(x, self.witnesses):
            if c:
                z = z * w**c
        return z

    def class_order_of(self, vec):
        """Order of the ideal class of prod gens^vec."""
        return self.lattice.order(vec)


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


#: Largest modulus M of a residue ring O/(M).  Its cost is small at any M
#: up to the limit: factoring q - 1 for the residue fields F_q (q = ell or
#: ell^2, ell | M) by trial division and the baby-step giant-step over its
#: largest prime take about sqrt(M) steps, and a unit's digits one discrete
#: log per local factor.  Built cold, a presentation took at most 5 ms for
#: every M in [9000, 10^4] on D = 5, 8, 12, 13, 17, 40 and 9240 (Python
#: 3.11 on a 2-vCPU VM).  So the limit is an input bound of the commands
#: (they exit 2 past it), not a cost bound.
MODULUS_LIMIT = 10**4


def _pair_mul(u, v, n, s, t):
    """(a + b theta)(c + d theta) mod n, where theta^2 = -s theta - t."""
    a, b = u
    c, d = v
    bd = b * d
    return ((a * c - bd * t) % n, (a * d + b * c - bd * s) % n)


def _pair_pow(u, k, n, s, t):
    out = (1 % n, 0)
    while k:
        if k & 1:
            out = _pair_mul(out, u, n, s, t)
        k >>= 1
        if k:
            u = _pair_mul(u, u, n, s, t)
    return out


def _pair_inverse(u, n, s, t):
    """Inverse of a unit: its conjugate x - y s - y theta over its norm."""
    x, y = u
    conj = ((x - y * s) % n, -y % n)
    ninv = pow(_pair_mul(u, conj, n, s, t)[0], -1, n)
    return (conj[0] * ninv % n, conj[1] * ninv % n)


class _LocalUnits:
    """The units of one local factor A of O/(M), as an explicit product of
    cyclic groups.

    A is O/(ell^e) when ell is inert or ramified, and Z/ell^e at one of the
    two primes over a split ell, the prime named (ell, r) as by
    `QuadField.primes_over`.  Elements are pairs (x, y) meaning
    x + y theta mod ell^e with theta = omega - r; in the split case omega
    maps to the root r and y stays 0.  P is the maximal ideal of A: (ell)
    unless ell ramifies, where P = (theta) (theta^2 = ell * unit, as O =
    Z[omega] is maximal at ell).  F_q = A/P has q = ell^2 when ell is inert
    and q = ell otherwise.

    A^* is generated by a lift g of a primitive root of F_q (left out when
    q = 2) and by one 1-unit 1 + ell^j theta^c per F_ell-dimension of each
    step (1 + P^i)/(1 + P^(i+1)) = A/P of the filtration.  `_log` writes a
    unit in them: the exponent of g is a discrete log in F_q^*
    (Pohlig-Hellman, with a baby-step giant-step per prime of q - 1), and
    the 1-unit exponents in [0, ell) come off one filtration step at a time
    (Cohen, Advanced Topics in Computational Number Theory, ch. 4).  Row i
    of `rels` is the order of generator i modulo the deeper steps minus the
    log of that power, so the rows are triangular (zero before column i)
    and span every relation: their diagonal product is |A^*|, and `_log`
    is the digit vector of a unit in the box prod [0, rels[i][i]).

    `gens` are the generators as elements a + b omega of O/(ell^e); at a
    split ell each is 1 at the other prime over ell, so that `digits` of a
    unit of O/(M) is `_log` of its image in A.
    """

    def __init__(self, field, ell, e, r):
        T, Nm = field.omega_trace, field.omega_norm
        n = ell**e
        split = field.chi(ell) == 1
        self.inert = inert = r is None
        # a split root is lifted to ell^e; the inert root is 0
        r = field.prime_root_lifted(ell, r, e) if split else r or 0
        self.ell, self.n, self.r = ell, n, r
        self.has_theta = 0 if split else 1
        # theta = omega - r satisfies theta^2 = -s theta - t
        self.s = s = (2 * r - T) % n
        self.t = t = (r * r - T * r + Nm) % n
        self.q = ell * ell if inert else ell
        if split or inert:
            steps = [(c, ell**j) for j in range(1, e) for c in range(1 + inert)]
        else:
            steps = [(i % 2, ell ** (i // 2)) for i in range(1, 2 * e)]
        gens = [(1 + pw, 0) if c == 0 else (1, pw) for c, pw in steps]
        # (coordinate, ell^j, inverse of the generator 1 + ell^j theta^c)
        self.steps = [(c, pw, _pair_inverse(g, n, s, t)) for (c, pw), g in zip(steps, gens)]
        orders = [ell] * len(gens)
        if self.q > 2:
            self._setup_residue_field()
            gens.insert(0, self.g)
            orders.insert(0, self.q - 1)
        self.rels = []
        for i, (g, o) in enumerate(zip(gens, orders)):
            row = [-c for c in self._log(_pair_pow(g, o, n, s, t))]
            row[i] += o
            self.rels.append(row)
        self.count = (self.q - 1) * ell ** len(steps)
        triangular = not any(any(row[:i]) for i, row in enumerate(self.rels))
        diagonal = math.prod(row[i] for i, row in enumerate(self.rels))
        if not triangular or diagonal != self.count:
            raise ArithmeticError("the unit relations of O/(%d) are incomplete" % n)
        # x + y theta = (x - y r) + y omega; at a split ell, b (r - r') = x - 1
        # makes a + b omega equal x at omega = r and 1 at the other root r'
        inv = pow(2 * r - T, -1, n) if split else 0
        self.gens = []
        for x, y in gens:
            if split:
                y = (x - 1) * inv % n
            self.gens.append(((x - y * r) % n, y))

    def _setup_residue_field(self):
        """g, and Pohlig-Hellman tables for F_q^*.  F_ell is plain integers
        mod ell; F_ell^2 (ell inert) is pairs mod ell."""
        ell, N = self.ell, self.q - 1
        factors = dict(factorize(ell - 1))
        if self.inert:
            s, t = self.s % ell, self.t % ell
            self._fmul = lambda u, v: _pair_mul(u, v, ell, s, t)
            self._fpow = lambda u, k: _pair_pow(u, k, ell, s, t)
            one = (1, 0)
            for p, k in factorize(ell + 1):
                factors[p] = factors.get(p, 0) + k
            # the first a + omega, then a + 2 omega, ... of order q - 1
            candidates = ((a, b) for b in range(1, ell) for a in range(ell))
            g = next(
                x for x in candidates if all(self._fpow(x, N // p) != one for p in factors)
            )
            self.g = g
        else:
            self._fmul = lambda u, v: u * v % ell
            self._fpow = lambda u, k: pow(u, k, ell)
            one = 1
            g = primitive_root(ell)
            self.g = (g, 0)
        if self.steps:
            self._g_inv = _pair_inverse(self.g, self.n, self.s, self.t)
        # per prime power p^k || q - 1: g^(N / p^k), its inverse, and baby
        # steps of gamma = g^(N / p), which has order p
        self._ph = []
        for p, k in sorted(factors.items()):
            gp = self._fpow(g, N // p**k)
            gamma = self._fpow(g, N // p)
            m = math.isqrt(p) + 1
            baby = {}
            cur = one
            for j in range(m):
                baby.setdefault(cur, j)
                cur = self._fmul(cur, gamma)
            giant = self._fpow(gamma, p - m % p)  # gamma^-m
            self._ph.append((p, k, gp, self._fpow(gp, p**k - 1), baby, m, giant))

    def _residue_log(self, h):
        """k in [0, q - 1) with g^k = h in F_q^*, by Pohlig-Hellman."""
        N = self.q - 1
        x, mod = 0, 1
        for p, k, gp, gp_inv, baby, m, giant in self._ph:
            pk = p**k
            hp = self._fpow(h, N // pk)
            xp = 0
            for i in range(k):
                # (hp / gp^xp)^(p^(k-1-i)) = gamma^(digit i of xp)
                y = self._fmul(hp, self._fpow(gp_inv, xp)) if xp else hp
                y = self._fpow(y, p ** (k - 1 - i))
                for step in range(m):
                    if y in baby:
                        break
                    y = self._fmul(y, giant)
                else:
                    raise ArithmeticError("discrete log in F_%d failed" % self.q)
                xp += (step * m + baby[y]) % p * p**i
            x += mod * ((xp - x) * pow(mod, -1, pk) % pk)
            mod *= pk
        return x

    # -- the unit group

    def _log(self, u):
        """Exponents of the unit u (in A's coordinates) in the generators."""
        ell, n, s, t = self.ell, self.n, self.s, self.t
        out = []
        if self.q > 2:
            h = (u[0] % ell, u[1] % ell) if self.inert else u[0] % ell
            k = self._residue_log(h)
            out.append(k)
            if not self.steps:
                return out  # A = F_q
            u = _pair_mul(u, _pair_pow(self._g_inv, k, n, s, t), n, s, t)
        for c, pw, inv in self.steps:
            # u lies in the filtration step of this generator
            d = (u[c] - (c == 0)) // pw % ell
            if d:
                u = _pair_mul(u, _pair_pow(inv, d, n, s, t), n, s, t)
            out.append(d)
        if u != (1 % n, 0):
            raise ArithmeticError("unit filtration of O/(%d) did not end at 1" % n)
        return out

    def digits(self, u):
        """The digits of the unit u of O/(M): `_log` of its image in A."""
        a, b = u
        return self._log(((a + b * self.r) % self.n, b * self.has_theta % self.n))


def _local_factors(field, ell, e):
    """The `_LocalUnits` of O/(ell^e): one per prime over ell.  They are
    kept on the field, as a scan over moduli meets the same prime powers
    again and again."""
    if (ell, e) not in field._local_units:
        field._local_units[ell, e] = tuple(
            _LocalUnits(field, ell, e, r) for _, r in field.primes_over(ell)
        )
    return field._local_units[ell, e]


class _UnitDigits(Mapping):
    """The digits of every unit of a ResidueRing, computed on demand.

    A read-only mapping from the units (a, b) of O/(M) to their digit
    tuples: `len` is |(O/M)^*|, a lookup of anything else raises KeyError,
    and iteration runs over the units in lexicographic order.
    """

    def __init__(self, ring):
        self._ring = ring

    def __getitem__(self, u):
        ring = self._ring
        pair = isinstance(u, tuple) and len(u) == 2
        if not (pair and all(isinstance(x, int) and 0 <= x < ring.M for x in u)):
            raise KeyError(u)
        if not ring.is_unit(u):
            raise KeyError(u)
        return ring._digits(u)

    def __len__(self):
        return self._ring.unit_count()

    def __iter__(self):
        ring = self._ring
        for a in range(ring.M):
            for b in range(ring.M):
                if ring.is_unit((a, b)):
                    yield (a, b)


class ResidueRing:
    """O/(M) for a positive integer modulus M, with unit-group structure.

    Elements are pairs (a, b) meaning a + b omega mod M.  By CRT, O/(M) is
    the product of the local factors at the primes over each ell^e || M,
    and (O/M)^* is presented on their generators: each `_LocalUnits`
    generator lifted to 1 at every other factor, with the factors'
    triangular relation rows placed block-diagonally.  The digits of a unit
    are its local `_log`s, concatenated; digit i lies in [0, rels[i][i]).
    Nothing enumerates or scans the ring.  M may be at most MODULUS_LIMIT.
    """

    def __init__(self, field, M):
        if M < 1:
            raise ValueError("modulus %d: must be a positive integer" % M)
        if M > MODULUS_LIMIT:
            raise ValueError(
                "residue ring O/(%d) too large (modulus above %d)" % (M, MODULUS_LIMIT)
            )
        self.field = field
        self.M = M
        self._locals = [
            loc for ell, e in factorize(M) for loc in _local_factors(field, ell, e)
        ]
        self._structure = None

    def one(self):
        return (1 % self.M, 0)

    def mul(self, u, v):
        # omega^2 = T omega - Nm
        return _pair_mul(u, v, self.M, -self.field.omega_trace, self.field.omega_norm)

    def pow(self, u, e):
        e = int(e)
        if e < 0:
            return self.pow(self.inverse(u), -e)
        return _pair_pow(u, e, self.M, -self.field.omega_trace, self.field.omega_norm)

    def norm_lift(self, u):
        a, b = u
        T, Nm = self.field.omega_trace, self.field.omega_norm
        return a * a + a * b * T + b * b * Nm

    def is_unit(self, u):
        return math.gcd(self.norm_lift(u) % self.M, self.M) == 1

    def inverse(self, u):
        return _pair_inverse(u, self.M, -self.field.omega_trace, self.field.omega_norm)

    def conj(self, u):
        a, b = u
        T = self.field.omega_trace
        return ((a + b * T) % self.M, (-b) % self.M)

    def reduce(self, z):
        """Image of an integral QuadElement."""
        if z.e != 1:
            raise ValueError("not integral")
        return (z.a % self.M, z.b % self.M)

    def structure(self):
        """(gens, relations, dlog): a presentation of (O/M)^*.

        The generators are those of each local factor, lifted by CRT to 1
        at every other factor, and the relations are the factors' own
        triangular rows, placed block-diagonally.  Two checks guard the
        result: each row evaluates to 1 in O/(M), and the product of the
        diagonal is |(O/M)^*|.  `dlog` is a `_UnitDigits`
        mapping; the benchmark tracer (`perfbench/tracer.py`) reads its
        `len` as the unit count.
        """
        if self._structure is not None:
            return self._structure
        M = self.M
        gens, rels = [], []
        for loc in self._locals:
            rest = M // loc.n
            # 0 mod ell^e and 1 mod the rest of M
            idem = loc.n * pow(loc.n, -1, rest) % M
            rels += [[0] * len(gens) + row for row in loc.rels]
            gens += [((a + idem * (1 - a)) % M, b * (1 - idem) % M) for a, b in loc.gens]
        width = len(gens)
        rels = [row + [0] * (width - len(row)) for row in rels]
        for row in rels:
            acc = self.one()
            for g, c in zip(gens, row):
                if c:
                    acc = self.mul(acc, self.pow(g, c))
            if acc != self.one():
                raise ArithmeticError("a unit relation of O/(%d) does not hold" % M)
        if math.prod(row[i] for i, row in enumerate(rels)) != self.unit_count():
            raise ArithmeticError("the relations of (O/%d)^* miss its order" % M)
        self._structure = (gens, rels, _UnitDigits(self))
        return self._structure

    def _digits(self, u):
        return tuple(c for loc in self._locals for c in loc.digits(u))

    def unit_count(self):
        """|(O/M)^*|, the product of the local unit counts."""
        return math.prod(loc.count for loc in self._locals)

    def dlog(self, u):
        _, _, dl = self.structure()
        return list(dl[u])
