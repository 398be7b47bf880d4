"""Exact p-adic arithmetic in unramified extensions of Z_p.

A PadicRing models O = Z_p[t]/(H) at a fixed working precision.  The
modulus H is pinned deterministically: h is the lexicographically smallest
monic irreducible of its degree over F_p (coefficient tuple read constant
term first), and H is the factor of X^(q-1) - 1 lifting h, so the roots of
H are Teichmueller representatives and the Frobenius of O is literally
t -> t^p.  Construction asserts both facts.

Elements carry a declared precision (in digits); arithmetic runs at a
guarded internal precision so that the series for the logarithm loses no
declared digits.  The logarithm is Iwasawa's: log extends to all nonzero
elements with log p = 0, via log(x) = log((x/p^v)^(q-1)) / (q-1).

Everything is integers mod p^k; no floats anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .nt import is_prime, kronecker, multiplicative_order, prime_factors, valuation
from .cyclo import cyclotomic_polynomial, units_mod

_ROOT_SEARCH_BUDGET = 10**6


# ----------------------------------------------------------------------
# dense polynomial helpers (coefficients ascending, arithmetic mod M)


def _pmul(a, b, M):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % M
    return out


def _pmod(a, h, M):
    """a mod h for monic h, coefficients mod M."""
    a = [v % M for v in a]
    dh = len(h) - 1
    for i in range(len(a) - 1, dh - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dh):
                a[i - dh + j] = (a[i - dh + j] - c * h[j]) % M
    out = a[:dh]
    out += [0] * (dh - len(out))
    return out


def _pmulmod(a, b, h, M):
    return _pmod(_pmul(a, b, M), h, M)


def _ppowmod(a, e, h, M):
    out = [1] + [0] * (len(h) - 2)
    base = _pmod(list(a), h, M)
    while e:
        if e & 1:
            out = _pmulmod(out, base, h, M)
        e >>= 1
        if e:
            base = _pmulmod(base, base, h, M)
    return out


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
        c = []
        x = code
        for _ in range(f):
            c.append(x % p)
            x //= p
        h = c + [1]
        if _is_irreducible_fp(h, p):
            return tuple(h)
    raise AssertionError("no irreducible found")  # unreachable


# ----------------------------------------------------------------------


class PadicElement:
    """An element of a PadicRing with a declared precision in digits."""

    __slots__ = ("ring", "vec", "prec")

    def __init__(self, ring, vec, prec=None):
        self.ring = ring
        self.vec = tuple(v % ring.workmod for v in vec)
        self.prec = ring.prec if prec is None else min(prec, ring.prec)

    def _coerce(self, other):
        if isinstance(other, PadicElement):
            assert other.ring is self.ring, "mixed rings"
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicElement(
            self.ring,
            [a + b for a, b in zip(self.vec, other.vec)],
            min(self.prec, other.prec),
        )

    __radd__ = __add__

    def __neg__(self):
        return PadicElement(self.ring, [-a for a in self.vec], self.prec)

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
        R = self.ring
        vec = _pmulmod(list(self.vec), list(other.vec), R.H, R.workmod)
        return PadicElement(R, vec, min(self.prec, other.prec))

    __rmul__ = __mul__

    def __pow__(self, e):
        e = int(e)
        if e < 0:
            return self.inverse() ** (-e)
        out = self.ring.one()
        out = PadicElement(self.ring, out.vec, self.prec)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def inverse(self):
        """Inverse of a unit, by Hensel iteration from the residue field."""
        R = self.ring
        assert self.valuation() == 0, "inverse of a non-unit"
        # invert mod p by field gcd, then double precision with y(2 - xy)
        x = list(self.vec)
        y = R._residue_inverse(x)
        k = 1
        while k < R.workprec:
            k *= 2
            M = R.p ** min(k, R.workprec)
            two = [2] + [0] * (R.f - 1)
            xy = _pmulmod(x, y, R.H, M)
            corr = [(a - b) % M for a, b in zip(two, xy)]
            y = _pmulmod(y, corr, R.H, M)
        return PadicElement(R, y, self.prec)

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
        assert pk == self.ring.p**k
        assert all(v % pk == 0 for v in self.vec), "not divisible"
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
        assert all(v % self.ring.p**self.prec == 0 for v in self.vec[1:]), "not rational"
        return self.vec[0] % self.ring.p**self.prec

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
        assert is_prime(p) and p % 2 == 1, "odd primes only"
        assert prec >= 1 and f >= 1
        self.p = p
        self.prec = prec
        self.f = f
        self.q = p**f
        # guard digits: enough for every 1/k the log series divides by
        self.guard = max(4, _flog(p, prec + 6) + 1)
        self.workprec = prec + self.guard
        self.workmod = p**self.workprec
        self.h = _min_irreducible(p, f)
        self.H = self._teichmueller_modulus()
        # Frobenius must be literally t -> t^p
        tp = _ppowmod([0, 1], p, self.H, self.workmod)
        assert self._eval_poly(self.H, tp) == [0] * f, "modulus not Teichmueller"
        self._root_cache = {}

    # -- construction internals

    def _teichmueller_modulus(self):
        p, f, M = self.p, self.f, self.workmod
        hint = list(self.h)
        u = [0, 1][: max(2, f)]
        u = _pmod(u, hint, M)
        for _ in range(self.workprec):
            u = _ppowmod(u, self.q, hint, M)
        roots = [u]
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
            assert all(v % M == 0 for v in c[1:]), "non-scalar modulus coefficient"
            H.append(c[0] % M)
        assert H[-1] == 1 and len(H) == f + 1
        assert all((a - b) % p == 0 for a, b in zip(H, self.h)), "wrong reduction"
        return H

    def _eval_poly(self, coeffs, at_vec):
        """Evaluate an integer-coefficient polynomial at a ring vector."""
        acc = [0] * self.f
        for c in reversed(coeffs):
            acc = _pmulmod(acc, at_vec, self.H, self.workmod)
            acc[0] = (acc[0] + c) % self.workmod
        return acc

    def _residue_inverse(self, vec):
        """Inverse mod p via extended Euclid in F_p[t]/(h)."""
        p = self.p
        a = [v % p for v in vec]
        # extended gcd of a and h over F_p
        r0, r1 = list(self.h), a + [0]
        s0, s1 = [0], [1]
        while True:
            d1 = len(r1) - 1
            while d1 >= 0 and r1[d1] % p == 0:
                d1 -= 1
            if d1 < 0:
                raise AssertionError("not a unit")
            if d1 == 0:
                inv = pow(r1[0], -1, p)
                return [v * inv % p for v in _pmod(s1 + [0], self.h, p)]
            d0 = len(r0) - 1
            while r0[d0] % p == 0:
                d0 -= 1
            if d0 < d1:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            c = r0[d0] * pow(r1[d1], -1, p) % p
            shift = d0 - d1
            r0 = [v % p for v in r0]
            for j in range(d1 + 1):
                r0[shift + j] = (r0[shift + j] - c * r1[j]) % p
            s1_shifted = [0] * shift + s1
            s0 = s0 + [0] * max(0, len(s1_shifted) - len(s0))
            s1_shifted = s1_shifted + [0] * max(0, len(s0) - len(s1_shifted))
            s0 = [(x - c * y) % p for x, y in zip(s0, s1_shifted)]
            r0, r1, s0, s1 = r1, r0, s1, s0

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
        q = Fraction(q)
        assert q.denominator % self.p != 0, "denominator not a p-adic unit"
        inv = pow(q.denominator, -1, self.workmod)
        return self.element([q.numerator * inv % self.workmod])

    # -- structure maps

    def teichmueller(self, x):
        if isinstance(x, int):
            x = self.from_int(x)
        assert x.valuation() == 0, "Teichmueller lift needs a unit"
        out = x
        for _ in range(self.workprec):
            out = out**self.q
        return PadicElement(self, out.vec, x.prec)

    def iwasawa_log(self, x):
        """log with the p-part killed: log(x) = log((x/p^v)^(q-1)) / (q-1)."""
        if isinstance(x, (int, Fraction)):
            x = self.from_fraction(x)
        v = x.valuation()
        assert not x.is_zero(), "log of zero"
        if v:
            pv = self.p**v
            unit = PadicElement(self, [c // pv for c in x.vec], x.prec - v)
        else:
            unit = x
        w = unit ** (self.q - 1)
        z = w - self.one()
        assert z.valuation() >= 1
        # log(1+z) = z - z^2/2 + z^3/3 - ...
        acc = self.zero()
        term = self.one()
        k = 0
        while True:
            k += 1
            if k - _flog(self.p, k) > self.workprec:
                break
            term = term * z
            kv = valuation(k, self.p)
            kunit = k // self.p**kv
            piece = term
            if kv:
                piece = PadicElement(
                    self, [c // self.p**kv for c in piece.vec], piece.prec
                )
            piece = piece * pow(kunit, -1, self.workmod)
            acc = acc + piece if k % 2 else acc - piece
        out = acc * pow(self.q - 1, -1, self.workmod)
        return PadicElement(self, out.vec, min(x.prec, self.prec))

    # -- canonical roots

    def cyclotomic_root(self, n):
        """The canonical primitive n-th root of unity: the Hensel lift of the
        lexicographically smallest root of Phi_n in the residue field."""
        if n in self._root_cache:
            return self._root_cache[n]
        if (self.q - 1) % n:
            raise ValueError("residue field has no %d-th roots (q = %d)" % (n, self.q))
        if self.q > _ROOT_SEARCH_BUDGET:
            raise ValueError(
                "residue field too large to scan (q = %d > %d)"
                % (self.q, _ROOT_SEARCH_BUDGET)
            )
        phi_n = cyclotomic_polynomial(n)
        p, f = self.p, self.f
        seed = None
        for code in range(self.q):
            c = []
            x = code
            for _ in range(f):
                c.append(x % p)
                x //= p
            val = [0] * f
            for coef in reversed(phi_n):
                val = _pmulmod(val, c, list(self.h), p)
                val[0] = (val[0] + coef) % p
            if all(v == 0 for v in val):
                seed = c
                break
        assert seed is not None, "no root in residue field"
        # Newton iteration; Phi_n'(seed) is a unit since p does not divide n
        dphi = [i * v for i, v in enumerate(phi_n)][1:]
        x = self.element(seed)
        for _ in range(self.workprec.bit_length() + 1):
            fx = self.element(self._eval_poly(list(phi_n), list(x.vec)))
            dfx = self.element(self._eval_poly([v % self.workmod for v in dphi], list(x.vec)))
            x = x - fx * dfx.inverse()
        assert self.element(self._eval_poly(list(phi_n), list(x.vec))).is_zero()
        # Teichmueller sanity: roots of unity of order prime to p
        assert self.teichmueller(x) == x
        self._root_cache[n] = x
        return x

    def sqrt_disc(self, D, style="gauss"):
        """Canonical image of sqrt(D), D a positive fundamental discriminant.

        "gauss": the quadratic Gauss sum evaluated at the canonical root of
        unity; matches the archimedean normalization zeta -> exp(2 pi i/n)
        and is the embedding every cross-identity in the engine shares.
        "hensel": for split p only; lifts the smaller mod-p square root.
        """
        m = abs(D)
        key = ("sqrt", D, style)
        if key in self._root_cache:
            return self._root_cache[key]
        if style == "gauss":
            rho = self.cyclotomic_root(m)
            acc = self.zero()
            pw = {a: rho**a for a in units_mod(m)}
            for a in units_mod(m):
                chi = kronecker(D, a)
                if chi == 1:
                    acc = acc + pw[a]
                elif chi == -1:
                    acc = acc - pw[a]
            g = acc
        else:
            assert style == "hensel"
            assert kronecker(D, self.p) == 1, "needs a split prime"
            r = None
            for r0 in range(self.p):
                if (r0 * r0 - D) % self.p == 0:
                    r = r0
                    break
            x = self.from_int(r)
            for _ in range(self.workprec.bit_length() + 1):
                fx = x * x - self.from_int(D)
                x = x - fx * (2 * x).inverse()
            g = x
        assert (g * g) == self.from_int(D), "square root check"
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


def splitting_degree(p, n):
    """Residue degree of p in Q(zeta_n): the order of p mod n."""
    assert math.gcd(p, n) == 1
    return multiplicative_order(p, n)


def ring_for_conductor(p, m, prec, extra_order=1):
    """Smallest unramified ring containing the m-th roots of unity (and
    mu_extra_order), i.e. degree ord_{lcm(m, extra)}(p)."""
    n = math.lcm(m, extra_order)
    return PadicRing(p, prec, splitting_degree(p, n))
