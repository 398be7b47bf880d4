"""Elementary number theory helpers shared across the package.

`radical`, `units_mod` and `subgroup_generated` live here, not in
`grouprings` and `cyclo` (which import them back), so that the special-unit
layers and a ``--field`` reach them without loading either layer.

Bad arguments raise ValueError; no check is an `assert`, so `python -O`
behaves the same.
"""

from __future__ import annotations

import math
from functools import lru_cache

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: 1287836182261 * 2575672364521, the least strong pseudoprime to every base
#: in `_MR_BASES`: below it `is_prime` is a proof
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin, a proof for n < `PRIME_LIMIT`; raises
    ValueError at and above that bound, where a composite can pass."""
    if n < 2:
        return False
    if n >= PRIME_LIMIT:
        raise ValueError(
            "is_prime(%d): at or above %d, Miller-Rabin on the bases up to 41 "
            "is no proof" % (n, PRIME_LIMIT)
        )
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def factorize(n):
    """Prime factorization as a tuple of (p, e) pairs, p ascending."""
    if n < 1:
        raise ValueError("factorize needs a positive integer, not %r" % (n,))
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def prime_factors(n):
    return [p for p, _ in factorize(n)]


def radical(n):
    """Product of the distinct primes dividing n (1 for n = 1)."""
    return math.prod(prime_factors(n))


def divisors(n):
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def euler_phi(n):
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


@lru_cache(maxsize=None)
def units_mod(n):
    """Sorted residues prime to n."""
    if n == 1:
        return (0,)
    return tuple(a for a in range(1, n) if math.gcd(a, n) == 1)


def subgroup_generated(m, gens, limit=None):
    """Subgroup of (Z/m)^* generated by gens, as a sorted tuple; None as
    soon as it has more than `limit` elements, if a limit is given."""
    if m == 1:
        return (0,)
    seen = {1}
    frontier = [1]
    gens = [g % m for g in gens]
    if any(math.gcd(g, m) != 1 for g in gens):
        raise ValueError("generators must be units mod %d" % m)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % m
            if y not in seen:
                seen.add(y)
                frontier.append(y)
        if limit is not None and len(seen) > limit:
            return None
    return tuple(sorted(seen))


def moebius(n):
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def valuation(n, p):
    """Largest e with p^e | n (n nonzero)."""
    if n == 0:
        raise ValueError("the valuation of 0 is infinite")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def squarefree_part(n):
    """The squarefree integer s with n = s * (square), sign preserved."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    sign = -1 if n < 0 else 1
    n = abs(n)
    s = 1
    for p, e in factorize(n):
        if e % 2:
            s *= p
    return sign * s


def multiplicative_order(a, n):
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError("order needs a unit: gcd(%d, %d) > 1" % (a, n))
    order = 1
    # order divides phi(n); strip primes of phi until minimal
    e = euler_phi(n)
    order = e
    for p, _ in factorize(e):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def primitive_root(p):
    """Smallest primitive root mod prime p."""
    if not is_prime(p):
        raise ValueError("primitive roots are taken mod a prime, not %r" % (p,))
    if p == 2:
        return 1
    phi = p - 1
    ps = prime_factors(phi)
    g = 2
    while True:
        if all(pow(g, phi // q, p) != 1 for q in ps):
            return g
        g += 1


def sqrt_mod(a, p):
    """The smaller square root r of a mod the odd prime p (r <= p - r).

    Tonelli-Shanks: at most O(log(p)^2) products mod p, with no scan.  The
    smaller root is the one a scan from 0 would find first.  Raises
    ValueError when a is not a square mod p.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError("%d is not a square mod %d" % (a, p))
    # p - 1 = q 2^s with q odd; z is any non-residue
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # least i with t^(2^i) = 1; then r^2 = a t keeps holding
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def crt(residues, moduli):
    """x mod lcm with x = r_i mod m_i; moduli need not be coprime."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        g = math.gcd(m, mi)
        if (r - x) % g:
            raise ValueError("incompatible congruences mod %d and %d" % (m, mi))
        lcm = m // g * mi
        # solve x + m*t = r (mod mi)
        t = ((r - x) // g) * pow(m // g, -1, mi // g) % (mi // g) if mi // g > 1 else 0
        x = (x + m * t) % lcm
        m = lcm
    return x


def kronecker(a, n):
    """Kronecker symbol (a/n), extending Jacobi to all integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        if e % 2 and a % 8 in (3, 5):
            k = -k
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def fundamental_discriminant(d):
    """Discriminant of Q(sqrt(d)) for squarefree d != 1."""
    d = squarefree_part(d)
    if d == 1:
        raise ValueError("a square has no quadratic field")
    return d if d % 4 == 1 else 4 * d


def disc_character(D):
    """The quadratic character attached to discriminant D, as a callable."""
    return lambda a: kronecker(D, a)
