"""Exact arithmetic in cyclotomic fields and their real subfields.

Elements of Q(zeta_n) are stored as integer coefficient vectors over the
power basis 1, zeta, ..., zeta^{phi(n)-1} with one shared positive
denominator.  Products reduce through cached tables of zeta^j rewritten in
the power basis, so polynomial division happens once per level, at table
build time.  Everything is exact; nothing here touches floating point.

The module also handles abelian fields cut out of Q(zeta_m) by a subgroup
H of (Z/m)^*: conductor reduction, the subgroup fixing the intersection
with a smaller cyclotomic field, quadratic Gauss sums as canonical square
roots of discriminants, and Gauss-period power sums feeding Newton's
identities, which turn norms from large cyclotomic fields into compact
subfield data without ever multiplying in the large field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .nt import divisors, euler_phi, kronecker


# ----------------------------------------------------------------------
# cyclotomic polynomials and power-basis reduction tables


def _poly_div_monic(num, den):
    """Exact division of integer polynomials, monic divisor, zero remainder."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    assert all(v == 0 for v in num), "division left a remainder"
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of the n-th cyclotomic polynomial, ascending degree."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        num = _poly_div_monic(num, cyclotomic_polynomial(d))
    return tuple(num)


def _degree(n):
    return euler_phi(n)


@lru_cache(maxsize=None)
def _zeta_powers(n):
    """zeta_n^k in the power basis, for k = 0 .. max(n, 2*deg-1) - 1.

    Rows deg .. 2*deg-2 double as the reduction table for products, rows
    0 .. n-1 drive Galois twists and level lifts.
    """
    phi_ = cyclotomic_polynomial(n)
    deg = len(phi_) - 1
    count = max(n, 2 * deg - 1)
    rows = []
    for k in range(count):
        if k < deg:
            cur = [0] * deg
            cur[k] = 1
        else:
            prev = rows[k - 1]
            cur = [0] + list(prev[:-1])
            lead = prev[-1]
            if lead:
                for i in range(deg):
                    cur[i] -= lead * phi_[i]
        rows.append(tuple(cur))
    return tuple(rows)


@lru_cache(maxsize=None)
def units_mod(n):
    """Sorted residues prime to n."""
    if n == 1:
        return (0,)
    return tuple(a for a in range(1, n) if math.gcd(a, n) == 1)


# ----------------------------------------------------------------------
# elements


class CycNumber:
    """An element of Q(zeta_n) in power-basis coordinates."""

    __slots__ = ("n", "den", "c")

    def __init__(self, n, coeffs, den=1):
        deg = _degree(n)
        c = list(map(int, coeffs))
        assert len(c) <= deg, "coefficient vector too long"
        c += [0] * (deg - len(c))
        den = int(den)
        assert den != 0
        if den < 0:
            den = -den
            c = [-v for v in c]
        g = den
        for v in c:
            g = math.gcd(g, v)
            if g == 1:
                break
        if g > 1:
            den //= g
            c = [v // g for v in c]
        self.n = n
        self.den = den
        self.c = tuple(c)

    # -- constructors

    @classmethod
    def zero(cls, n):
        return cls(n, [])

    @classmethod
    def one(cls, n):
        return cls(n, [1])

    @classmethod
    def rational(cls, n, q):
        q = Fraction(q)
        return cls(n, [q.numerator], q.denominator)

    @classmethod
    def zeta(cls, n, k=1):
        return cls(n, _zeta_powers(n)[k % n])

    # -- plumbing

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            assert other.n == self.n, "mixed levels; lift explicitly"
            return other
        if isinstance(other, (int, Fraction)):
            return CycNumber.rational(self.n, other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.c == other.c

    def __hash__(self):
        return hash((self.n, self.den, self.c))

    def __repr__(self):
        terms = []
        for i, v in enumerate(self.c):
            if v:
                terms.append("%d*z^%d" % (v, i) if i else str(v))
        body = " + ".join(terms) if terms else "0"
        if self.den != 1:
            body = "(%s)/%d" % (body, self.den)
        return "CycNumber(%d: %s)" % (self.n, body)

    def is_zero(self):
        return all(v == 0 for v in self.c)

    def is_rational(self):
        return all(v == 0 for v in self.c[1:])

    def rational_value(self):
        assert self.is_rational(), "not rational: %r" % (self,)
        return Fraction(self.c[0], self.den)

    def is_integral(self):
        """True when the element lies in Z[zeta_n] (the ring of integers)."""
        return self.den == 1

    # -- ring operations

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        l = self.den * other.den // math.gcd(self.den, other.den)
        fa = l // self.den
        fb = l // other.den
        return CycNumber(self.n, [fa * a + fb * b for a, b in zip(self.c, other.c)], l)

    __radd__ = __add__

    def __neg__(self):
        out = CycNumber.__new__(CycNumber)
        out.n, out.den, out.c = self.n, self.den, tuple(-v for v in self.c)
        return out

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
        deg = len(self.c)
        conv = [0] * (2 * deg - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    if b:
                        conv[i + j] += a * b
        out = conv[:deg]
        rows = _zeta_powers(self.n)
        for j in range(deg, 2 * deg - 1):
            v = conv[j]
            if v:
                row = rows[j]
                for i in range(deg):
                    out[i] += v * row[i]
        return CycNumber(self.n, out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycNumber(self.n, [v * q.denominator for v in self.c], self.den * q.numerator)
        if isinstance(other, CycNumber):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, e):
        e = int(e)
        if e < 0:
            return self.inverse() ** (-e)
        out = CycNumber.one(self.n)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def inverse(self):
        """Multiplicative inverse via the product of the other conjugates."""
        assert not self.is_zero(), "division by zero"
        if self.is_rational():
            return CycNumber.rational(self.n, 1 / self.rational_value())
        prod = None
        for a in units_mod(self.n):
            if a == 1:
                continue
            g = self.galois(a)
            prod = g if prod is None else prod * g
        nrm = (self * prod).rational_value()
        return prod / nrm

    # -- Galois structure

    def galois(self, a):
        """Image under zeta -> zeta^a, for a prime to the level."""
        n = self.n
        assert math.gcd(a, n) == 1, "not a unit exponent"
        rows = _zeta_powers(n)
        out = [0] * len(self.c)
        for i, v in enumerate(self.c):
            if v:
                row = rows[(a * i) % n]
                for j in range(len(out)):
                    out[j] += v * row[j]
        return CycNumber(n, out, self.den)

    def lift(self, N):
        """The same number viewed in Q(zeta_N), for a multiple N of the level."""
        assert N % self.n == 0
        if N == self.n:
            return self
        step = N // self.n
        rows = _zeta_powers(N)
        out = [0] * _degree(N)
        for i, v in enumerate(self.c):
            if v:
                row = rows[(step * i) % N]
                for j in range(len(out)):
                    out[j] += v * row[j]
        return CycNumber(N, out, self.den)

    def norm_over(self, subgroup):
        """Product of galois(a) over a subgroup of (Z/n)^*."""
        prod = None
        for a in subgroup:
            g = self.galois(a)
            prod = g if prod is None else prod * g
        return prod

    def norm_to_q(self):
        """Field norm down to Q, as a Fraction."""
        return self.norm_over(units_mod(self.n)).rational_value()

    def evaluate_mod(self, ell, zeta_image):
        """Reduce through zeta -> zeta_image in Z/ell (caller picks a valid root)."""
        assert math.gcd(self.den, ell) == 1, "denominator not invertible"
        acc = 0
        for v in reversed(self.c):
            acc = (acc * zeta_image + v) % ell
        return acc * pow(self.den, -1, ell) % ell


# ----------------------------------------------------------------------
# subfield bookkeeping


def subgroup_generated(m, gens):
    """Subgroup of (Z/m)^* generated by gens, as a sorted tuple."""
    if m == 1:
        return (0,)
    seen = {1}
    frontier = [1]
    gens = [g % m for g in gens]
    for g in gens:
        assert math.gcd(g, m) == 1
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % m
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return tuple(sorted(seen))


def is_subgroup(m, H):
    Hs = set(H)
    return 1 in Hs and all(a * b % m in Hs for a in Hs for b in Hs)


class FieldSpec:
    """A real abelian field: the fixed field of H <= (Z/m)^* inside Q(zeta_m).

    H must contain -1 (so the field is real).  The stored modulus is the
    conductor: the constructor pushes (m, H) down to the smallest level.
    """

    __slots__ = ("m", "H")

    def __init__(self, m, H):
        assert m >= 3, "modulus too small to cut out a nontrivial field"
        H = tuple(sorted({a % m for a in H}))
        assert all(math.gcd(a, m) == 1 for a in H), "H must consist of units"
        assert is_subgroup(m, H), "H must be a subgroup"
        assert (m - 1) in H, "field must be real: -1 must fix it"
        m, H = self._reduce(m, H)
        self.m = m
        self.H = H

    @staticmethod
    def _reduce(m, H):
        Hs = set(H)
        for f in divisors(m):
            if f < 3:
                continue
            ker = {a for a in units_mod(m) if a % f == 1}
            if ker <= Hs:
                return f, tuple(sorted({a % f for a in H}))
        return m, H

    @classmethod
    def quadratic(cls, D):
        """The real quadratic field of fundamental discriminant D > 0."""
        assert D > 0
        H = tuple(a for a in units_mod(D) if kronecker(D, a) == 1)
        return cls(D, H)

    @property
    def conductor(self):
        return self.m

    def degree(self):
        return len(units_mod(self.m)) // len(self.H)

    def cosets(self):
        """Cosets of H in (Z/m)^*, each a sorted tuple, smallest representative first."""
        seen = set()
        out = []
        for a in units_mod(self.m):
            if a in seen:
                continue
            cs = tuple(sorted(a * h % self.m for h in self.H))
            seen.update(cs)
            out.append(cs)
        return out

    def fixing_subgroup_at(self, n):
        """Subgroup S of (Z/n)^* with Q(zeta_n)^S = (this field) intersect Q(zeta_n)."""
        L = math.lcm(self.m, n)
        Hs = set(self.H)
        return tuple(sorted({a % n for a in units_mod(L) if a % self.m in Hs}))

    def __repr__(self):
        return "FieldSpec(m=%d, H=%s)" % (self.m, list(self.H))

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.m, self.H) == (other.m, other.H)

    def __hash__(self):
        return hash((self.m, self.H))


def conductor(m, H):
    return FieldSpec(m, H).conductor


# ----------------------------------------------------------------------
# quadratic Gauss sums and compact subfield coordinates


@lru_cache(maxsize=None)
def quad_gauss_sum(D, n=None):
    """The canonical square root of D in Q(zeta_|D|), lifted to level n.

    For a fundamental discriminant D > 0 this is the classical quadratic
    Gauss sum sum_a (D/a) zeta_|D|^a, which equals +sqrt(D) under the
    embedding zeta_N -> exp(2 pi i / N).  Its square is checked to be D.
    """
    m = abs(D)
    rows = _zeta_powers(m)
    vec = [0] * _degree(m)
    for a in units_mod(m):
        chi = kronecker(D, a)
        if chi:
            row = rows[a % m]
            for j in range(len(vec)):
                vec[j] += chi * row[j]
    g = CycNumber(m, vec)
    assert (g * g).rational_value() == D, "Gauss sum square sanity"
    if n is not None and n != m:
        g = g.lift(n)
    return g


def to_quadratic(z, D):
    """Write z in Q(sqrt(D)) as a pair (x, y) of Fractions: z = x + y sqrt(D).

    z must be a CycNumber fixed by the kernel of the discriminant character
    (rational elements are fine at any level; a genuinely quadratic z needs
    |D| dividing its level).  With tau a Galois element moving sqrt(D),
    z + tau z = 2x and w = z - tau z = 2y g for the Gauss sum g = sqrt(D),
    so 2y is read off one coefficient of w over the matching one of g,
    after checking that every coefficient of w is in that proportion.
    Raises ValueError when z is not in Q(sqrt(D)).
    """
    if z.is_rational():
        return z.rational_value(), Fraction(0)
    n = z.n
    m = abs(D)
    if n % m:
        raise ValueError("level %d does not see sqrt(%d)" % (n, D))
    tau = next(a for a in units_mod(n) if kronecker(D, a % m) == -1)
    zt = z.galois(tau)
    x2 = z + zt
    w = z - zt
    g = quad_gauss_sum(D, n)
    k = next(i for i, v in enumerate(g.c) if v)
    wk, gk = w.c[k], g.c[k]
    if not x2.is_rational() or any(a * gk != wk * b for a, b in zip(w.c, g.c)):
        raise ValueError("element not in the quadratic field")
    return x2.rational_value() / 2, Fraction(wk * g.den, 2 * w.den * gk)


# ----------------------------------------------------------------------
# Gauss periods and Newton's identities


def subgroup_trace_of_power(n, S, j):
    """sum over h in S of zeta_n^(j h), as a CycNumber."""
    rows = _zeta_powers(n)
    vec = [0] * _degree(n)
    for h in S:
        row = rows[(j * h) % n]
        for i in range(len(vec)):
            vec[i] += row[i]
    return CycNumber(n, vec)


def power_sums_to_elementary(ps, one):
    """Newton's identities: power sums p_1..p_r to elementary symmetric e_1..e_r.

    Works over any commutative coefficient type supporting +, -, * and
    division by a positive int.
    """
    e = [one]
    for k in range(1, len(ps) + 1):
        acc = None
        for i in range(1, k + 1):
            term = e[k - i] * ps[i - 1]
            if i % 2 == 0:
                term = -term
            acc = term if acc is None else acc + term
        e.append(acc / k)
    return e[1:]


def subgroup_product_polynomial(n, S, t):
    """Monic F(X) = prod over h in S of (X - zeta_n^(t h)), coefficients ascending.

    Coefficients are CycNumbers at level n; they are S-invariant, hence lie
    in the fixed field of S.  Callers wanting compact coordinates push them
    through to_quadratic.
    """
    r = len(S)
    ps = [subgroup_trace_of_power(n, S, t * i) for i in range(1, r + 1)]
    es = power_sums_to_elementary(ps, CycNumber.one(n))
    # F(X) = X^r - e1 X^(r-1) + e2 X^(r-2) - ...
    coeffs = [CycNumber.one(n)]
    for i, ei in enumerate(es, start=1):
        coeffs.append(-ei if i % 2 else ei)
    return list(reversed(coeffs))
