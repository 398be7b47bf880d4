"""Real quadratic fields: exact elements, ideals, class data.

A QuadField is keyed by its fundamental discriminant D > 0.  The ring of
integers is Z[omega] with omega = (1 + sqrt D)/2 for odd D and sqrt(D)/2
for even D, and an element is held as integer coordinates over one common
denominator: (a + b omega) / e, reduced by gcd(a, b, e).  Products rewrite
omega^2 = T omega - N exactly as the residue rings O/(M) do; the rational
coordinates x + y sqrt(D) are views computed on demand.  Only this
module lists the primes over p by chi_D(p): `primes_over` names them as
(p, r) for (p, omega - r), or (p, None) for an inert (p), and
`prime_valuation` values any nonzero element of k at each of them.
`QuadGaloisGroup` is Gal(k/Q) = {1, sigma} with the unit a mod D mapped
to sigma by chi_D(a) = -1: the group that the checks hand to the
group-ring and Galois-module layers, built in O(1).

The fundamental unit and Dirichlet's formula are `units`, the class
group `classgroup.ClassGroup` and the residue rings O/(M)
`residues.ResidueRing`: `QuadField.fundamental_unit`,
`QuadField.class_group` and `QuadField.residue_ring` import them when
first called, so a command that needs none of them (``verify h90``)
compiles none of those modules.  The `_pair_*` helpers are the products
mod n that `residues` and `units` share.  `__getattr__` still
resolves the moved names (`_MOVED`) here.  The module holds no float, and
it imports `fractions` only in the code that builds a Fraction: the views
`x`, `y`, `norm` and `omega_coords`, and non-int input.  Bad arguments
raise ValueError and broken invariants ArithmeticError, so `python -O`
behaves the same.
"""

from __future__ import annotations

import math

from . import _lazy_getattr
from .nt import kronecker, sqrt_mod, squarefree_part, valuation


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
        from fractions import Fraction

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
        from fractions import Fraction

        return Fraction(2 * self.a + (self.field.D % 2) * self.b, 2 * self.e)

    @property
    def y(self):
        """The coefficient y of sqrt(D) in x + y sqrt(D)."""
        from fractions import Fraction

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
        from fractions import Fraction

        return Fraction(self._norm_numerator(), self.e * self.e)

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
        from fractions import Fraction

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
        from fractions import Fraction

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
        from fractions import Fraction

        a, b = Fraction(a), Fraction(b)
        e = math.lcm(a.denominator, b.denominator)
        a, b = a.numerator * (e // a.denominator), b.numerator * (e // b.denominator)
        return QuadElement(self, a, b, e)

    def chi(self, a):
        return kronecker(self.D, a)

    # -- units

    def fundamental_unit(self):
        """The fundamental unit > 1 (`units.fundamental_unit`), computed
        once per field."""
        if self._unit is None:
            from .units import fundamental_unit

            self._unit = fundamental_unit(self)
        return self._unit

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
            from .residues import ResidueRing

            self._residue = ResidueRing(self, M)
        return self._residue

    # -- class group

    def class_group(self):
        if self._classgroup is None:
            from .classgroup import ClassGroup

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


#: names that moved to `classgroup`, `residues` and `units`, with their new home
_MOVED = {
    "ClassGroup": "classgroup",
    "ResidueRing": "residues",
    "analytic_class_number": "units",
    "unit_exponent": "units",
}

__getattr__ = _lazy_getattr(globals(), _MOVED)
