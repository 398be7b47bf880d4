"""Cyclotomic numbers of real quadratic fields, in exact arithmetic.

The twist-d cyclotomic number of level n is the product over divisors t
of the radical of d of the norms of 1 - zeta_n^t, down to the real
quadratic field, to the powers mu(t) d / t (`cyclotomic_number`);
`generating_levels` lists levels whose numbers generate them all.  Each
norm is rational or a power of u_s = N(1 - zeta_s) or of its conjugate.
u_s, and the values F_t(zeta_ell^t) that `special.special_unit` needs,
are one product computed modulo primes and lifted exactly
(`orbit_product`).  ``verify h90`` loads this module and not `units`.
"""

import math

from .nt import crt, divisors, euler_phi, factorize, is_prime, kronecker, moebius, radical
from .nt import units_mod, valuation
from .quadratic import QuadElement

#: `orbit_product` works mod primes below 2^81, where `nt.is_prime` is a proof
_PRIME_TOP = 2**81

_norm_cache = {}
# (D, n) -> (the chi_D table if D | n, else None; [(q, zeta_n mod q)];
# {(t, ell): the coefficients of `orbit_product`})
_levels = {}


def _add_prime(n, primes):
    """Append the next prime q = 1 (mod n) below the last one (or below
    `_PRIME_TOP`) and z = a^((q - 1) / n) of exact order n, a > 1 least."""
    q = primes[-1][0] - n if primes else _PRIME_TOP - (_PRIME_TOP - 1) % n
    while not is_prime(q):
        q -= n
    a = 2
    while any(pow(a, (q - 1) // p, q) == 1 for p, _ in factorize(n)):
        a += 1
    primes.append((q, pow(a, (q - 1) // n, q)))


def _log2_bound(n, t, ell, cosets):
    """b with |P(w)| < 2^b for P = prod over h in C of (Y^t - zeta_n^(t h)),
    every C in `cosets` and w^ell = 1: a factor is 2 |sin(pi r / N)| <=
    2 (y - y^3 / 6 + y^5 / 120) at y = 355 r / (113 N), for N = ell n and
    0 <= r <= N / 2 (`orbit_product`).  With B = 113 N that bound is
    r (c4 - r^2 (c2 - c0 r^2)) / den, den = 60 B^5; on 64-bit mantissas the
    loops round the product of the numerators up and den^|C| down, so b may
    exceed the exact bound by 2 but never falls below it."""
    N = ell * n
    B = 113 * N
    c4, c2, c0, den = 355 * 120 * B**4, 355**3 * 20 * B**2, 355**5, 60 * B**5
    top = 0
    for C in cosets:
        for j in range(ell):
            m, e = 1, 0  # the product of the numerators is at most m 2^e
            for h in C:
                r = t * (j * n - h * ell) % N
                r = min(r, N - r)
                r2 = r * r
                m *= r * (c4 - r2 * (c2 - c0 * r2))
                if m >> 64:
                    s = m.bit_length() - 64
                    m, e = (m >> s) + 1, e + s
            top = max(top, e + m.bit_length())
    m, e = 1, 0  # den^|C| is at least m 2^e
    for _ in cosets[0]:
        m *= den
        if m >> 64:
            s = m.bit_length() - 64
            m, e = m >> s, e + s
    return top - e - m.bit_length() + 1


def orbit_product(field, n, t, ell):
    """The coefficients c_0, ..., c_(ell - 1) of prod over h in S of
    (Y^t - zeta_n^(t h)) mod Y^ell - 1, S = ker(chi_D) if D | n, else
    (Z/n)^*.  S fixes k in Q(zeta_n), so each c_j is a QuadElement of O_k.
    At ell = 1 this is the norm of 1 - zeta_n^t (u_s at (n, t) = (s, 1));
    `special.special_unit` reads F_t(zeta_ell^t) off it.  Needs zeta_n^t != 1.

    Mod q = 1 (mod n), with zeta_n -> z (`_add_prime`) and sqrt(D) -> the
    Gauss sum g = sum chi_D(a) z^(a n / D), the products P, P' over the two
    cosets of ker(chi_D) are the images of c_j = x + y sqrt(D) and of its
    conjugate: 2x = P + P', 2y = (P - P') / g (P' = P, y = 0 if D does not
    divide n).  They are lifted over primes with product M >= 2^(b + 2), on
    one CRT basis (from `crt`) shared by all 2 ell coordinates.
    In both embeddings of k, |c_j| < 2^b (`_log2_bound`), as c_j = (1/ell)
    sum over w^ell = 1 of P(w) w^(-j) and each |w^t - zeta_n^(t h)| =
    2 |sin(pi x)| <= 2 (y - y^3 / 6 + y^5 / 120) at y = 355 ||x|| / 113.
    For sin(u) <= u - u^3 / 6 + u^5 / 120 at u = pi ||x|| >= 0, the right
    side increases while u^2 < 6 - 2 sqrt(3), past 355 / 226 >= u, and
    pi < 355 / 113.  So |2x|, |2y| < M / 2, and the symmetric residues are
    exact.

    Each result is checked exactly: for ell > 1 the slot sum, the norm of
    1 - zeta_n^t, must equal `_norm_one_minus_power`, which checks that
    N(u_s) = Phi_s(1).  A mismatch raises ArithmeticError.  Each result
    is kept with its level in `_levels`, as the special-unit twists 2 and
    4 share their products, and every call returns a new list.
    """
    D = field.D
    if (D, n) not in _levels:
        _levels[D, n] = ([kronecker(D, a) for a in range(D)] if n % D == 0 else None, [], {})
    chi, primes, products = _levels[D, n]
    if (t, ell) in products:
        return list(products[t, ell])
    units = units_mod(n)
    cosets = [units] if chi is None else [[h for h in units if chi[h % D] == c] for c in (1, -1)]
    bits = max(_log2_bound(n, t, ell, cosets), 0) + 2
    r = t % ell
    moduli, xs, ys = [], [], []
    while bits > 0:
        if len(moduli) == len(primes):
            _add_prime(n, primes)
        q, z = primes[len(moduli)]
        bits -= q.bit_length() - 1
        powers = [1] * n
        for k in range(1, n):
            powers[k] = powers[k - 1] * z % q
        P = []
        for C in cosets:
            p = [1] + [0] * (ell - 1)
            for h in C:  # p = (Y^t - zeta_n^(t h)) p
                c = powers[t * h % n]
                p = [(a - c * b) % q for a, b in zip(p[-r:] + p[:-r], p)]
            P.append(p)
        ginv = 0
        if chi is not None:
            ginv = pow(sum(c * powers[a * n // D] for a, c in enumerate(chi)), -1, q)
        moduli.append(q)
        xs.append([(a + b) % q for a, b in zip(P[0], P[-1])])
        ys.append([(a - b) * ginv % q for a, b in zip(P[0], P[-1])])
    M = math.prod(moduli)
    # e_i = 1 mod q_i and 0 mod the other primes, once for all 2 ell lifts
    basis = [crt([int(q == qi) for q in moduli], moduli) for qi in moduli]
    out = []
    for x, y in zip(zip(*xs), zip(*ys)):
        x, y = (sum(a * e for a, e in zip(r, basis)) % M for r in (x, y))
        x, y = (v - M if 2 * v > M else v for v in (x, y))
        out.append(QuadElement(field, x - D % 2 * y, 2 * y, 2))  # sqrt(D) = 2 omega - D % 2
    if ell > 1 and sum(out, field.zero()) != _norm_one_minus_power(field, n, t):
        raise ArithmeticError(
            "the orbit product at (n, t, ell) = (%d, %d, %d) in Q(sqrt %d) does not "
            "sum to the norm of 1 - zeta_n^t" % (n, t, ell, D)
        )
    products[t, ell] = out
    return list(out)


def _norm_one_minus_power(field, n, t):
    """Exact norm, down to the field's part of Q(zeta_n), of 1 - zeta_n^t.

    Reduction mod s = n / gcd(n, t) maps the fixing subgroup S at level n
    onto S_s, |S| / |S_s| to one.  So the norm is Phi_s(1)^(|S| / |S_s|)
    when D does not divide s (S_s is all of (Z/s)^*), else u_s (`orbit_product`,
    checked by N(u_s) = Phi_s(1)) to the power phi(n) / phi(s), conjugated if
    chi_D(t / gcd(n, t)) = -1."""
    D = field.D
    key = (D, n, t % n)
    if key in _norm_cache:
        return _norm_cache[key]
    g = math.gcd(n, t)
    s = n // g
    if s == 1:
        raise ValueError("the root of unity degenerates to 1 (n=%d, t=%d)" % (n, t))
    fac = factorize(s)
    phi_s_at_1 = fac[0][0] if len(fac) == 1 else 1  # p for s a power of p, else 1
    if s % D:
        size = euler_phi(n) if n % D else euler_phi(n) // 2
        value = field.element(phi_s_at_1 ** (size // euler_phi(s)))
    elif key == (D, s, 1):  # u_s itself
        (value,) = orbit_product(field, s, 1, 1)
        if value._norm_numerator() != phi_s_at_1 * value.e**2:  # N(value) in integers
            raise ArithmeticError("N(u_%d) is not Phi_%d(1) in Q(sqrt %d)" % (s, s, D))
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
        out = out * _norm_one_minus_power(field, n, t) ** (moebius(t) * (d // t))
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
    the auxiliary inert prime, keeping their content up to a factor 2 in
    index, which no odd-part comparison sees.
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
