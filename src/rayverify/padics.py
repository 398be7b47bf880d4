"""Exact p-adic arithmetic in unramified extensions of Z_p.

A PadicRing models O = Z_p[t]/(H) at a fixed working precision.  The
modulus H is pinned deterministically: h is the lexicographically smallest
monic irreducible of its degree over F_p (coefficient tuple read constant
term first), and H is the factor of X^(q-1) - 1 lifting h, so the roots of
H are Teichmueller representatives and the Frobenius of O is literally
t -> t^p.  Construction checks both facts and raises ArithmeticError if
either fails.

Elements carry a declared precision (in digits); arithmetic runs at a
guarded internal precision W so that the series for the logarithm loses no
declared digits.  The logarithm is Iwasawa's: log extends to all nonzero
elements with log p = 0, via log(x) = log(u^N) / N for the unit
u = x/p^v and N = (q-1) p^m, where m is as large as the guard digits allow
so that the series for log(u^N) is short.

Everything is integers mod p^k; no floats anywhere.  Invalid arguments
raise ValueError and broken invariants ArithmeticError, under ``python -O``
as well.

No command loads this module: the sinnott and solomon checks decide their
claims in integers, and their p-adic oracles in the tests, the acceptance
gates and `grouprings` (in the functions that test for a `PadicElement`)
are what use it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .nt import (
    is_prime,
    kronecker,
    multiplicative_order,
    prime_factors,
    sqrt_mod,
    valuation,
)

_ROOT_SEARCH_BUDGET = 10**6


def _check_root_budget(q):
    """Raise ValueError when the residue field F_q is past the budget of
    `PadicRing.cyclotomic_root`."""
    if q > _ROOT_SEARCH_BUDGET:
        raise ValueError(
            "residue field too large to scan (q = %d > %d)" % (q, _ROOT_SEARCH_BUDGET)
        )


# ----------------------------------------------------------------------
# dense polynomial helpers (coefficients ascending, arithmetic mod M)


def _pmul(a, b):
    """Product of coefficient lists, accumulated in plain ints (unreduced)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pmod(a, h, M):
    """a mod h for monic h, coefficients mod M.

    The coefficients of a may be unreduced; each is reduced once, when it
    is eliminated or when it is returned.
    """
    a = list(a)
    dh = len(h) - 1
    for i in range(len(a) - 1, dh - 1, -1):
        c = a[i] % M
        if c:
            for j in range(dh):
                a[i - dh + j] -= c * h[j]
    out = [v % M for v in a[:dh]]
    out += [0] * (dh - len(out))
    return out


def _pmulmod(a, b, h, M):
    if len(h) == 2 and len(a) == len(b) == 1:
        # degree 1: the ring is Z/M
        return [a[0] * b[0] % M]
    return _pmod(_pmul(a, b), h, M)


def _ppowmod(a, e, h, M):
    base = _pmod(a, h, M)
    if len(h) == 2:
        return [pow(base[0], e, M)]
    out = [1] + [0] * (len(h) - 2)
    while e:
        if e & 1:
            out = _pmulmod(out, base, h, M)
        e >>= 1
        if e:
            base = _pmulmod(base, base, h, M)
    return out


def _teichmueller_lift(u, h, p, f, W):
    """The Teichmueller representative congruent to u mod p, mod p^W.

    u is a vector of Z/p^W[t]/(h), h monic of degree f and irreducible mod
    p.  If u is congruent mod p^k to the root of unity w (or to 0), then u^q
    is congruent to w mod p^(k + f), q = p^f; so ceil((W - 1)/f) q-th powers
    carry the one digit of the residue to all W digits.
    """
    q, M = p**f, p**W
    for _ in range(-(-(W - 1) // f)):
        u = _ppowmod(u, q, h, M)
    return u


def _pgcd_fp(a, b, p):
    """Monic gcd over F_p."""
    a = [v % p for v in a]
    b = [v % p for v in b]

    def deg(u):
        d = len(u) - 1
        while d >= 0 and u[d] == 0:
            d -= 1
        return d

    while deg(b) >= 0:
        da, db = deg(a), deg(b)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[deg(b)], -1, p)
        lead = a[deg(a)] * inv % p
        shift = da - db
        for j in range(db + 1):
            a[shift + j] = (a[shift + j] - lead * b[j]) % p
    d = deg(a)
    if d < 0:
        return [0]
    inv = pow(a[d], -1, p)
    return [v * inv % p for v in a[: d + 1]]


def _is_irreducible_fp(h, p):
    f = len(h) - 1
    x = [0, 1]
    xq = _ppowmod(x, p**f, h, p)
    if xq != _pmod(x, h, p):
        return False
    for ell in prime_factors(f):
        xe = _ppowmod(x, p ** (f // ell), h, p)
        diff = [(a - b) % p for a, b in zip(xe, _pmod(x, h, p))]
        g = _pgcd_fp(diff, h, p)
        if len(g) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def _min_irreducible(p, f):
    """Lexicographically smallest monic irreducible of degree f over F_p.

    Coefficient tuples (c_0, ..., c_{f-1}) are ordered by the integer
    sum c_i p^i, so the scan is deterministic.
    """
    if f == 1:
        return (0, 1)
    for code in range(p**f):
        h = _digits(code, p, f) + [1]
        if _is_irreducible_fp(h, p):
            return tuple(h)
    raise ArithmeticError("no irreducible of degree %d over F_%d" % (f, p))


def _digits(code, p, f):
    """The residue-field vector (c_0, ..., c_{f-1}) with code sum c_i p^i."""
    c = []
    for _ in range(f):
        code, r = divmod(code, p)
        c.append(r)
    return c


def _code(vec, p):
    """Inverse of `_digits`: the integer sum c_i p^i of a residue vector."""
    code = 0
    for c in reversed(vec):
        code = code * p + c
    return code


# ----------------------------------------------------------------------


class PadicElement:
    """An element of a PadicRing with a declared precision in digits."""

    __slots__ = ("ring", "vec", "prec")

    def __init__(self, ring, vec, prec=None):
        self.ring = ring
        self.vec = tuple(v % ring.workmod for v in vec)
        self.prec = ring.prec if prec is None else min(prec, ring.prec)

    @classmethod
    def _reduced(cls, ring, vec, prec):
        """An element from coordinates already reduced mod p^W, with
        prec <= ring.prec: skips the re-reduction of `__init__`."""
        x = object.__new__(cls)
        x.ring = ring
        x.vec = tuple(vec)
        x.prec = prec
        return x

    def _coerce(self, other):
        if isinstance(other, PadicElement):
            if other.ring is not self.ring:
                raise ValueError("mixed rings: %r and %r" % (self.ring, other.ring))
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        M = self.ring.workmod
        return PadicElement._reduced(
            self.ring,
            [(a + b) % M for a, b in zip(self.vec, other.vec)],
            min(self.prec, other.prec),
        )

    __radd__ = __add__

    def __neg__(self):
        M = self.ring.workmod
        return PadicElement._reduced(self.ring, [-a % M for a in self.vec], self.prec)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        M = self.ring.workmod
        return PadicElement._reduced(
            self.ring,
            [(a - b) % M for a, b in zip(self.vec, other.vec)],
            min(self.prec, other.prec),
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        R = self.ring
        if isinstance(other, (int, Fraction)):
            # a rational scalar scales the coordinates
            s, M = R._scalar(other), R.workmod
            return PadicElement._reduced(R, [a * s % M for a in self.vec], self.prec)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        vec = _pmulmod(self.vec, other.vec, R.H, R.workmod)
        return PadicElement._reduced(R, vec, min(self.prec, other.prec))

    __rmul__ = __mul__

    def __pow__(self, e):
        e = int(e)
        if e < 0:
            return self.inverse() ** (-e)
        R = self.ring
        return PadicElement._reduced(R, _ppowmod(self.vec, e, R.H, R.workmod), self.prec)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def inverse(self):
        """Inverse of a unit, by Hensel iteration from the residue field."""
        R = self.ring
        if self.valuation() != 0:
            raise ValueError("inverse of a non-unit")
        # invert mod p as x^(q - 2) in F_q = F_p[t]/(h), then double
        # precision with y(2 - xy)
        x = list(self.vec)
        y = _ppowmod(x, R.p**R.f - 2, R.h, R.p)
        k = 1
        while k < R.workprec:
            k *= 2
            M = R.p ** min(k, R.workprec)
            two = [2] + [0] * (R.f - 1)
            xy = _pmulmod(x, y, R.H, M)
            corr = [(a - b) % M for a, b in zip(two, xy)]
            y = _pmulmod(y, corr, R.H, M)
        return PadicElement._reduced(R, y, self.prec)

    def valuation(self):
        """min over coordinates of v_p; the ring is unramified so this is v_p."""
        v = None
        for a in self.vec:
            a %= self.ring.workmod
            if a:
                w = valuation(a, self.ring.p)
                v = w if v is None else min(v, w)
                if v == 0:
                    return 0
        return self.prec if v is None else min(v, self.prec)

    def divide_exact(self, pk):
        """Divide by p^k when every coordinate allows it; costs k digits."""
        k = valuation(pk, self.ring.p)
        if pk != self.ring.p**k:
            raise ValueError("%d is not a power of p = %d" % (pk, self.ring.p))
        if any(v % pk for v in self.vec):
            raise ValueError("not divisible by %d" % pk)
        return PadicElement(self.ring, [v // pk for v in self.vec], self.prec - k)

    def is_zero(self):
        m = self.ring.p**self.prec
        return all(v % m == 0 for v in self.vec)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self.ring.p ** min(self.prec, other.prec)
        return all((a - b) % m == 0 for a, b in zip(self.vec, other.vec))

    def __hash__(self):  # congruence classes at declared precision
        m = self.ring.p**self.prec
        return hash(tuple(v % m for v in self.vec))

    def residue(self):
        """Image in the residue field, as a coefficient tuple mod p."""
        return tuple(v % self.ring.p for v in self.vec)

    def lift_int(self):
        """Integer representative mod p^prec (degree-1 rings only)."""
        m = self.ring.p**self.prec
        if any(v % m for v in self.vec[1:]):
            raise ValueError("not rational")
        return self.vec[0] % m

    def __repr__(self):
        m = self.ring.p**self.prec
        return "PadicElement(%s mod %d^%d)" % (
            [v % m for v in self.vec],
            self.ring.p,
            self.prec,
        )


class PadicRing:
    """Unramified extension of Z_p of degree f at fixed precision."""

    def __init__(self, p, prec, f=1):
        if p == 2 or not is_prime(p):
            raise ValueError("p = %d: odd primes only" % p)
        if prec < 1 or f < 1:
            raise ValueError("precision %d and degree %d must be at least 1" % (prec, f))
        self.p = p
        self.prec = prec
        self.f = f
        self.q = p**f
        # guard digits: enough for every 1/k the log series divides by
        self.guard = max(4, _flog(p, prec + 6) + 1)
        self.workprec = prec + self.guard
        self.workmod = p**self.workprec
        self._log_plan = _log_plan(p, self.workprec, self.guard)
        self.h = _min_irreducible(p, f)
        self.H = self._teichmueller_modulus()
        # Frobenius must be literally t -> t^p
        tp = _ppowmod([0, 1], p, self.H, self.workmod)
        if self._eval_poly(self.H, tp) != [0] * f:
            raise ArithmeticError("modulus not Teichmueller")
        self._root_cache = {}

    # -- construction internals

    def _teichmueller_modulus(self):
        p, f, M = self.p, self.f, self.workmod
        hint = list(self.h)
        roots = [_teichmueller_lift([0, 1], hint, p, f, self.workprec)]
        for _ in range(f - 1):
            roots.append(_ppowmod(roots[-1], p, hint, M))
        # expand prod (X - root); coefficients live in Z[t]/(h) a priori
        coeffs = [[1] + [0] * (f - 1)]  # leading
        poly = [coeffs[0]]
        for r in roots:
            neg_r = [(-v) % M for v in r]
            new = [[0] * f for _ in range(len(poly) + 1)]
            for i, c in enumerate(poly):
                new[i + 1] = [(a + b) % M for a, b in zip(new[i + 1], c)]
                prod = _pmulmod(c, neg_r, hint, M)
                new[i] = [(a + b) % M for a, b in zip(new[i], prod)]
            poly = new
        # poly is ascending; each coefficient must be Frobenius-fixed, i.e. scalar
        H = []
        for c in poly:
            if any(v % M for v in c[1:]):
                raise ArithmeticError("non-scalar modulus coefficient")
            H.append(c[0] % M)
        if H[-1] != 1 or len(H) != f + 1:
            raise ArithmeticError("modulus is not monic of degree %d" % f)
        if any((a - b) % p for a, b in zip(H, self.h)):
            raise ArithmeticError("modulus does not reduce to h")
        return H

    def _eval_poly(self, coeffs, at_vec):
        """Evaluate an integer-coefficient polynomial at a ring vector."""
        acc = [0] * self.f
        for c in reversed(coeffs):
            acc = _pmulmod(acc, at_vec, self.H, self.workmod)
            acc[0] = (acc[0] + c) % self.workmod
        return acc

    # -- element constructors

    def element(self, vec, prec=None):
        return PadicElement(self, list(vec) + [0] * (self.f - len(list(vec))), prec)

    def zero(self):
        return self.element([0])

    def one(self):
        return self.element([1])

    def from_int(self, a):
        return self.element([a % self.workmod])

    def from_fraction(self, q):
        return PadicElement._reduced(
            self, [self._scalar(q)] + [0] * (self.f - 1), self.prec
        )

    def _scalar(self, q):
        """The int or Fraction q as an integer mod p^W."""
        if isinstance(q, int):
            return q % self.workmod
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise ValueError("denominator not a p-adic unit")
        return q.numerator * pow(q.denominator, -1, self.workmod) % self.workmod

    # -- structure maps

    def teichmueller(self, x):
        if isinstance(x, int):
            x = self.from_int(x)
        if x.valuation() != 0:
            raise ValueError("Teichmueller lift needs a unit")
        vec = _teichmueller_lift(list(x.vec), self.H, self.p, self.f, self.workprec)
        return PadicElement._reduced(self, vec, x.prec)

    def iwasawa_log(self, x):
        """log with the p-part killed: log(x) = log(u^N) / N, u = x/p^v.

        N = (q-1) p^m makes z = u^N - 1 divisible by p^(m+1), so the series
        log(1+z) = z - z^2/2 + z^3/3 - ... needs only about W/(m+1) terms.
        The terms are summed on integer coordinates with 1/k as a scalar,
        and the sum is divided by p^m and by q-1 (see `_log_plan`).
        A rational x loses its power of p exactly, before it is embedded, so
        p may divide its denominator.  An element of valuation v is taken as
        exact to W digits, so u is known to W - v and so is its log: past
        v = guard that caps the declared precision.
        """
        if isinstance(x, (int, Fraction)):
            if not x:
                raise ValueError("log of zero")
            x = Fraction(x)
            num, den = x.numerator, x.denominator
            x = self.from_fraction(
                Fraction(num // self.p ** valuation(num, self.p),
                         den // self.p ** valuation(den, self.p))
            )
        if x.is_zero():
            raise ValueError("log of zero")
        p, M, H = self.p, self.workmod, self.H
        v = x.valuation()
        vec = x.vec
        if v:
            pv = p**v
            vec = [c // pv for c in vec]
        m, K = self._log_plan
        z = _ppowmod(vec, (self.q - 1) * p**m, H, M)
        z[0] = (z[0] - 1) % M
        # on the raw coordinates: valuation() caps at the declared precision
        pm1 = p ** (m + 1)
        if any(c % pm1 for c in z):
            raise ArithmeticError("u^N - 1 is not divisible by p^(m+1)")
        acc = [0] * self.f
        term = z
        for k in range(1, K + 1):
            if k > 1:
                term = _pmulmod(term, z, H, M)
            kv = valuation(k, p)
            pkv = p**kv
            s = pow(k // pkv, -1, M)
            if not k % 2:
                s = -s
            for i, c in enumerate(term):
                acc[i] += c // pkv * s
        pm = p**m
        s = pow(self.q - 1, -1, M)
        out = [c % M // pm * s % M for c in acc]
        return PadicElement._reduced(self, out, min(x.prec, self.workprec - v))

    # -- canonical roots

    def cyclotomic_root(self, n):
        """The canonical primitive n-th root of unity: the Hensel lift of the
        lexicographically smallest root of Phi_n in the residue field.
        Only this method needs `cyclo`, so it imports it itself."""
        if n in self._root_cache:
            return self._root_cache[n]
        if (self.q - 1) % n:
            raise ValueError("residue field has no %d-th roots (q = %d)" % (n, self.q))
        _check_root_budget(self.q)
        from .cyclo import cyclotomic_polynomial

        phi_n = cyclotomic_polynomial(n)
        # the root of Phi_n over the seed is its Teichmueller lift, since p
        # does not divide n
        seed = self._residue_root(n)
        x = self.element(
            _teichmueller_lift(seed, self.H, self.p, self.f, self.workprec)
        )
        if not self.element(self._eval_poly(list(phi_n), list(x.vec))).is_zero():
            raise ArithmeticError("Hensel lift is not a root of Phi_%d" % n)
        # Teichmueller sanity: x^q = x gives x^(q^W) = x, a root of unity
        # of order prime to p
        if x**self.q != x:
            raise ArithmeticError("root of Phi_%d is not a Teichmueller lift" % n)
        self._root_cache[n] = x
        return x

    def _residue_root(self, n):
        """The root of Phi_n in F_q with the smallest code sum c_i p^i.

        The roots are the elements of order exactly n: the powers y^k,
        gcd(k, n) = 1, of any one of them.  y is x^((q-1)/n) for the first
        code x that gives order n.
        """
        p, f, h = self.p, self.f, self.h
        one = [1] + [0] * (f - 1)
        primes = prime_factors(n)
        for code in range(1, self.q):
            y = _ppowmod(_digits(code, p, f), (self.q - 1) // n, h, p)
            if all(_ppowmod(y, n // r, h, p) != one for r in primes):
                break
        codes = []
        power = y
        for k in range(1, n + 1):
            if math.gcd(k, n) == 1:
                codes.append(_code(power, p))
            power = _pmulmod(power, y, h, p)
        return _digits(min(codes), p, f)

    def sqrt_disc(self, D, style="gauss"):
        """Canonical image of sqrt(D), D a positive fundamental discriminant.

        "gauss": the quadratic Gauss sum evaluated at the canonical root of
        unity; matches the archimedean normalization zeta -> exp(2 pi i/n).
        It needs the D-th roots of unity, so a ring of degree ord_D(p).
        "hensel": Newton-lifts a residue root, with no scan of the residue
        field.  For split p (any degree) the root is the smaller mod-p
        square root of D (`nt.sqrt_mod`).  For inert p in degree 2, with
        h = t^2 + c_1 t + c_0 and Delta_h = c_1^2 - 4 c_0 (a non-square, as
        is D), (2t + c_1)^2 = Delta_h, so the roots are +-s (2t + c_1) with
        s = sqrt(D / Delta_h) mod p; the one with the smaller code is lifted.
        """
        m = abs(D)
        key = ("sqrt", D, style)
        if key in self._root_cache:
            return self._root_cache[key]
        if style == "gauss":
            rho = self.cyclotomic_root(m)
            g = self.zero()
            power = self.one()
            for a in range(1, m):
                power = power * rho
                chi = kronecker(D, a)
                if chi == 1:
                    g = g + power
                elif chi == -1:
                    g = g - power
        else:
            if style != "hensel":
                raise ValueError("unknown square-root style %r" % style)
            p, chi = self.p, kronecker(D, self.p)
            if chi == 1:
                x = self.from_int(sqrt_mod(D, p))
            elif chi == -1 and self.f == 2:
                c0, c1 = self.h[0], self.h[1]
                s = sqrt_mod(D * pow(c1 * c1 - 4 * c0, -1, p), p)
                x = self.element(
                    min(([s * c1 % p, 2 * s % p], [-s * c1 % p, -2 * s % p]),
                        key=lambda v: _code(v, p))
                )
            else:
                raise ValueError(
                    "the hensel style needs a split prime, or an inert one in degree 2"
                )
            for _ in range(self.workprec.bit_length() + 1):
                fx = x * x - self.from_int(D)
                x = x - fx * (2 * x).inverse()
            g = x
        if g * g != self.from_int(D):
            raise ArithmeticError("square root check")
        self._root_cache[key] = g
        return g

    def embed_cyc(self, z):
        """Image of a CycNumber under zeta_n -> canonical n-th root."""
        rho = self.cyclotomic_root(z.n)
        acc = self.zero()
        power = self.one()
        for i, c in enumerate(z.c):
            if c:
                acc = acc + power * c
            if i + 1 < len(z.c):
                power = power * rho
        return acc * self.from_fraction(Fraction(1, z.den))

    def embed_quadratic(self, x, y, sqrt_img):
        """x + y sqrt(D) for Fractions x, y and a chosen image of sqrt(D)."""
        return self.from_fraction(x) + self.from_fraction(y) * sqrt_img

    def __repr__(self):
        return "PadicRing(p=%d, prec=%d, f=%d)" % (self.p, self.prec, self.f)


def _flog(p, k):
    """floor(log_p(k))."""
    e = 0
    q = p
    while q <= k:
        q *= p
        e += 1
    return e


def _log_plan(p, W, guard):
    """(m, K) for `PadicRing.iwasawa_log` at working precision W.

    With z divisible by p^(m+1), the term z^k/k has valuation at least
    k(m+1) - floor(log_p k), so the K terms with that bound below W are all
    that is nonzero mod p^W.  Dividing by the p-parts of k and then by p^m
    costs floor(log_p K) + m digits; m is the largest value for which they
    fit in the guard digits, which keeps every declared digit exact.  m = 0
    always fits, since guard >= floor(log_p(prec + 6)) + 1.
    """
    plan = None
    for m in range(guard + 1):
        K = 1
        while (K + 1) * (m + 1) - _flog(p, K + 1) < W:
            K += 1
        if m + _flog(p, K) <= guard:
            plan = (m, K)
    return plan


def splitting_degree(p, n):
    """Residue degree of p in Q(zeta_n): the order of p mod n."""
    if math.gcd(p, n) != 1:
        raise ValueError("p = %d divides n = %d" % (p, n))
    return multiplicative_order(p, n)


def ring_for_conductor(p, m, prec, extra_order=1):
    """Smallest unramified ring containing the m-th roots of unity (and
    mu_extra_order), i.e. degree ord_{lcm(m, extra)}(p).  A ring whose
    residue field `cyclotomic_root` would refuse is refused before it is
    built."""
    n = math.lcm(m, extra_order)
    f = splitting_degree(p, n)
    _check_root_budget(p**f)
    return PadicRing(p, prec, f)
