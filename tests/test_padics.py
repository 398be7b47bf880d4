import functools
import random
from fractions import Fraction

import pytest

from rayverify.cyclo import CycNumber, cyclotomic_polynomial, quad_gauss_sum
from rayverify.nt import divisors, is_prime, valuation
from rayverify.padics import (
    PadicElement,
    PadicRing,
    ring_for_conductor,
    splitting_degree,
)


def test_splitting_degree():
    assert splitting_degree(7, 5) == 4   # 7 = 2 mod 5, ord(2) = 4
    assert splitting_degree(3, 13) == 3  # 3^3 = 27 = 1 mod 13
    assert splitting_degree(3, 316) == 78


def test_plain_zp_arithmetic():
    R = PadicRing(5, 4)
    x = R.from_int(7)
    y = R.from_fraction(Fraction(1, 2))
    assert (y + y) == 1
    assert (x * x) == 49
    assert (x - 7).is_zero()
    assert x.inverse() * x == 1
    assert R.from_int(50).valuation() == 2
    assert R.from_int(50).divide_exact(25).lift_int() % 5**2 == 2


@pytest.mark.parametrize("p, f", [(3, 1), (3, 4), (5, 2), (7, 3), (11, 2), (13, 1)])
def test_inverse_of_random_units(p, f):
    # the definition: x * x^-1 = 1 at the element's precision; a residue
    # field inverse that is wrong mod p cannot survive the Hensel doubling
    R = PadicRing(p, 6, f)
    rng = random.Random(100 * p + f)
    for _ in range(80):
        vec = [rng.randrange(p**6) for _ in range(f)]
        x = R.element(vec)
        if all(v % p == 0 for v in vec):
            with pytest.raises(ValueError, match="non-unit"):
                x.inverse()
            continue
        y = x.inverse()
        assert x * y == 1 and y * x == 1
        assert y.prec == x.prec
    with pytest.raises(ValueError, match="non-unit"):
        R.element([p] + [0] * (f - 1)).inverse()


def test_teichmueller_oracle():
    # the Teichmueller lift of 2 in Z_5 is 7 mod 25 (7^4 = 1 mod 25, 7 = 2 mod 5)
    R = PadicRing(5, 2)
    w = R.teichmueller(2)
    assert w.lift_int() == 7
    assert (w**4) == 1


def test_iwasawa_log_series_oracle():
    # log(6) in Z_5 at 3 digits: 5 - 5^2/2 + 5^3/3 - ... = 55 mod 125
    R = PadicRing(5, 3)
    assert R.iwasawa_log(6).lift_int() == 55


def test_log_is_multiplicative_and_kills_teichmueller():
    R = PadicRing(5, 8)
    a, b = R.from_int(6), R.from_int(11)
    assert R.iwasawa_log(a * b) == R.iwasawa_log(a) + R.iwasawa_log(b)
    assert R.iwasawa_log(R.teichmueller(3)).is_zero()
    # log p = 0: log(50) = log(2) since 50 = 2 * 5^2
    assert R.iwasawa_log(50) == R.iwasawa_log(2)
    # a rational loses its p-part before it is embedded, denominator too
    assert R.iwasawa_log(Fraction(1, 5)).is_zero()
    assert R.iwasawa_log(Fraction(2, 125)) == R.iwasawa_log(2)


def test_log_of_a_high_valuation_declares_only_known_digits():
    # 7 * 5^6 is exact to W = 12 digits, so 7 to 6 of them: past the 4 guard
    # digits, its log declares only those
    R = PadicRing(5, 8)
    assert (R.guard, R.workprec) == (4, 12)
    assert R.iwasawa_log(R.from_int(7 * 5**4)).prec == 8
    x = R.from_int(7 * 5**6)
    assert R.iwasawa_log(x).prec == 6
    assert R.iwasawa_log(x) == R.iwasawa_log(7)


def test_log_valuation():
    R = PadicRing(3, 10)
    # log(4) = log(1+3) has valuation 1 for p = 3
    assert R.iwasawa_log(4).valuation() == 1


def test_unramified_extension_frobenius(frobenius):
    R = PadicRing(7, 6, f=4)
    rho = R.cyclotomic_root(5)
    assert (rho**5) == 1
    assert rho != 1
    # Frobenius is t -> t^7; on mu_5 that is rho -> rho^2
    assert frobenius(R, rho) == rho**2
    assert frobenius(R, R.from_int(12345)) == 12345
    # Frobenius has order f
    x = rho
    for _ in range(4):
        x = frobenius(R, x)
    assert x == rho


def test_cyclotomic_root_deterministic():
    R1 = PadicRing(7, 6, f=4)
    R2 = PadicRing(7, 6, f=4)
    assert R1.cyclotomic_root(5).vec == R2.cyclotomic_root(5).vec


def test_sqrt_disc_gauss_matches_embedded_gauss_sum():
    R = PadicRing(7, 6, f=4)
    g = R.sqrt_disc(5)
    assert g * g == 5
    # the same sum built from the exact cyclotomic side
    g2 = R.embed_cyc(quad_gauss_sum(5))
    assert g == g2


def test_sqrt_disc_hensel_split():
    R = PadicRing(3, 12)
    g = R.sqrt_disc(316, style="hensel")
    assert g * g == 316
    assert g.lift_int() % 3 == 1  # smaller seed chosen


_FUNDAMENTAL = (5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 40, 41, 44, 56, 57)


def test_sqrt_disc_hensel_split_lifts_the_first_root_a_scan_finds():
    for p in filter(is_prime, range(3, 200)):
        for D in _FUNDAMENTAL:
            if D % p == 0 or pow(D, (p - 1) // 2, p) != 1:
                continue
            g = PadicRing(p, 4).sqrt_disc(D, "hensel")
            first = next(r for r in range(p) if (r * r - D) % p == 0)
            assert g * g == D and g.lift_int() % p == first, (p, D)


def test_sqrt_disc_hensel_inert_lifts_the_root_of_smaller_code():
    # the residue root against a scan of F_{p^2} = F_p[t]/(h)
    for p in filter(is_prime, range(3, 50)):
        for D in _FUNDAMENTAL:
            if D % p == 0 or pow(D, (p - 1) // 2, p) == 1:
                continue
            R = PadicRing(p, 6, 2)
            g = R.sqrt_disc(D, "hensel")
            c0, c1 = R.h[0], R.h[1]
            roots = [
                (b * p + a, (a, b))
                for b in range(p)
                for a in range(p)
                # (a + b t)^2 with t^2 = -c1 t - c0
                if ((a * a - b * b * c0 - D) % p, (2 * a * b - b * b * c1) % p) == (0, 0)
            ]
            assert g * g == D and g.residue() == min(roots)[1], (p, D)
            assert g.residue()[1], "an inert square root is not in Z_p"
    with pytest.raises(ValueError, match="inert one in degree 2"):
        PadicRing(5, 4, 4).sqrt_disc(8, "hensel")


def test_embed_cyc_respects_arithmetic():
    R = PadicRing(7, 5, f=4)
    z = CycNumber.zeta(5)
    x = 1 - z
    im = R.embed_cyc(x)
    assert im * R.embed_cyc(x.inverse()) == 1
    assert R.embed_cyc(x * x) == im * im
    assert R.embed_cyc(CycNumber.rational(5, Fraction(3, 2))) == R.from_fraction(Fraction(3, 2))


def test_embedded_fundamental_unit_norm():
    # (1 + sqrt5)/2 times its conjugate is -1; their logs cancel
    R = PadicRing(7, 8, f=4)
    s = R.sqrt_disc(5)
    half = Fraction(1, 2)
    eps = R.embed_quadratic(half, half, s)
    eps_conj = R.embed_quadratic(half, -half, s)
    assert eps * eps_conj == -1
    assert (R.iwasawa_log(eps) + R.iwasawa_log(eps_conj)).is_zero()


def test_ring_for_conductor():
    R = ring_for_conductor(7, 5, 6, extra_order=2)
    assert R.f == 4
    R = ring_for_conductor(3, 13, 6)
    assert R.f == 3


def test_precision_tracking():
    R = PadicRing(5, 6)
    x = R.from_int(30)
    y = x.divide_exact(5)
    assert y.prec == 5
    assert (y * R.from_int(5)) == x  # compares at min precision


def test_contracts_raise():
    with pytest.raises(ValueError, match="odd primes"):
        PadicRing(2, 4)
    with pytest.raises(ValueError, match="odd primes"):
        PadicRing(9, 4)
    with pytest.raises(ValueError, match="at least 1"):
        PadicRing(5, 0)
    R = PadicRing(5, 4)
    with pytest.raises(ValueError, match="p-adic unit"):
        R.from_fraction(Fraction(1, 10))
    with pytest.raises(ValueError, match="p-adic unit"):
        R.from_fraction(Fraction(1, 5))
    with pytest.raises(ValueError, match="p-adic unit"):
        R.one() * Fraction(3, 5)
    with pytest.raises(ValueError, match="non-unit"):
        R.from_int(10).inverse()
    with pytest.raises(ValueError, match="log of zero"):
        R.iwasawa_log(0)
    with pytest.raises(ValueError, match="needs a unit"):
        R.teichmueller(5)
    with pytest.raises(ValueError, match="not divisible"):
        R.from_int(7).divide_exact(5)
    with pytest.raises(ValueError, match="mixed rings"):
        R.one() + PadicRing(5, 4).one()
    with pytest.raises(ValueError, match="split prime"):
        R.sqrt_disc(8, style="hensel")
    with pytest.raises(ValueError, match="divides"):
        splitting_degree(5, 10)


# ----------------------------------------------------------------------
# oracles: the arithmetic, series logarithm and residue-field scan that
# padics.py used before its short log series and scan-free roots


def _old_mulmod(a, b, h, M):
    """Polynomial product mod (h, M), reducing after every inner product."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % M
    dh = len(h) - 1
    for i in range(len(out) - 1, dh - 1, -1):
        c = out[i]
        out[i] = 0
        for j in range(dh):
            out[i - dh + j] = (out[i - dh + j] - c * h[j]) % M
    return (out[:dh] + [0] * dh)[:dh]


def _old_pow(R, vec, e):
    out = [1] + [0] * (R.f - 1)
    for _ in range(e):
        out = _old_mulmod(out, vec, R.H, R.workmod)
    return out


def _flog(p, k):
    e = 0
    while p ** (e + 1) <= k:
        e += 1
    return e


def _series_log(R, x):
    """log(u^(q-1)) / (q-1) with one series term per working digit."""
    p, M = R.p, R.workmod
    v = x.valuation()
    vec = [c // p**v for c in x.vec]
    w = [1] + [0] * (R.f - 1)
    base = vec
    e = R.q - 1
    while e:
        if e & 1:
            w = _old_mulmod(w, base, R.H, M)
        base = _old_mulmod(base, base, R.H, M)
        e >>= 1
    z = [(w[0] - 1) % M] + w[1:]
    assert all(c % p == 0 for c in z)
    acc = [0] * R.f
    term = [1] + [0] * (R.f - 1)
    k = 0
    while True:
        k += 1
        if k - _flog(p, k) > R.workprec:
            break
        term = _old_mulmod(term, z, R.H, M)
        kv = valuation(k, p)
        inv = pow(k // p**kv, -1, M)
        sign = 1 if k % 2 else -1
        acc = [(a + sign * (c // p**kv) * inv) % M for a, c in zip(acc, term)]
    inv = pow(R.q - 1, -1, M)
    return PadicElement(R, [a * inv for a in acc], x.prec)


@functools.lru_cache(maxsize=None)
def _scanned_seed(p, h, n):
    """The smallest-code root of Phi_n in F_p[t]/(h), by a scan."""
    f = len(h) - 1
    phi = cyclotomic_polynomial(n)
    for code in range(p**f):
        c = [(code // p**i) % p for i in range(f)]
        val = [0] * f
        for coef in reversed(phi):
            val = _old_mulmod(val, c, list(h), p)
            val[0] = (val[0] + coef) % p
        if not any(val):
            return c
    raise AssertionError("no root of Phi_%d in F_%d" % (n, p**f))


def _newton_root(R, n, seed):
    """The root of Phi_n over the residue root `seed`, by Newton's method."""
    phi = cyclotomic_polynomial(n)
    dphi = [i * v for i, v in enumerate(phi)][1:]
    x = R.element(seed)
    for _ in range(R.workprec.bit_length() + 1):
        fx = R.element(R._eval_poly(list(phi), list(x.vec)))
        dfx = R.element(R._eval_poly([v % R.workmod for v in dphi], list(x.vec)))
        x = x - fx * dfx.inverse()
    return x.vec


_GRID = [(p, f, prec) for p in (3, 5, 7) for f in (1, 2, 4, 6) for prec in (1, 3, 12, 48)]


@pytest.mark.parametrize("p, f, prec", _GRID)
def test_products_and_logs_match_oracles(p, f, prec):
    R = PadicRing(p, prec, f)
    rng = random.Random(p * 1000 + f * 100 + prec)
    M = R.workmod

    def draw(unit=True):
        while True:
            vec = [rng.randrange(M) for _ in range(f)]
            if not unit or any(c % p for c in vec):
                return vec

    for _ in range(4):
        a, b = draw(False), draw(False)
        x, y = R.element(a), R.element(b)
        assert (x * y).vec == tuple(_old_mulmod(a, b, R.H, M))
        assert (x**5).vec == tuple(_old_pow(R, a, 5))
        s = Fraction(rng.randrange(1, 50) * rng.choice((1, -1)), rng.choice((1, 2, 4, 8)))
        low = PadicElement(R, a, max(1, prec - 1))
        for scaled, full in ((x * s, x * R.from_fraction(s)), (low * s, low * R.from_fraction(s))):
            assert (scaled.vec, scaled.prec) == (full.vec, full.prec)
    xs = [R.element(draw()) for _ in range(3)]
    # non-units x p^v, nonzero at the declared precision
    xs += [R.element(draw()) * p**v for v in (1, 2) if v < prec]
    # declared precision below the ring's
    xs += [PadicElement(R, draw(), low) for low in {prec - 1, prec // 2} if low >= 1]
    for x in xs:
        got, want = R.iwasawa_log(x), _series_log(R, x)
        assert got.prec == want.prec == x.prec
        assert got == want, (x, got, want)


@pytest.mark.parametrize("p, f, prec", [g for g in _GRID if g[0] ** g[1] <= 7**4])
def test_cyclotomic_roots_match_scan(p, f, prec):
    R = PadicRing(p, prec, f)
    for n in divisors(R.q - 1):
        assert R.cyclotomic_root(n).vec == _newton_root(R, n, _scanned_seed(p, R.h, n)), n


# ----------------------------------------------------------------------
# oracles: the Teichmueller modulus by W q-th powers and the roots of Phi_n
# by Newton's method (`_newton_root` above), as padics.py computed them
# before one lift helper took ceil((W - 1)/f) q-th powers for both


def _old_modulus(p, f, W):
    """H as the product of the X - t^(p^i), t lifted by W q-th powers."""
    from rayverify.padics import _min_irreducible, _pmod, _pmulmod, _ppowmod

    M = p**W
    h = list(_min_irreducible(p, f))
    u = _pmod([0, 1][: max(2, f)], h, M)
    for _ in range(W):
        u = _ppowmod(u, p**f, h, M)
    roots = [u]
    for _ in range(f - 1):
        roots.append(_ppowmod(roots[-1], p, h, M))
    poly = [[1] + [0] * (f - 1)]
    for r in roots:
        neg_r = [(-v) % M for v in r]
        new = [[0] * f for _ in range(len(poly) + 1)]
        for i, c in enumerate(poly):
            new[i + 1] = [(a + b) % M for a, b in zip(new[i + 1], c)]
            prod = _pmulmod(c, neg_r, h, M)
            new[i] = [(a + b) % M for a, b in zip(new[i], prod)]
        poly = new
    assert all(not any(v % M for v in c[1:]) for c in poly)
    return [c[0] % M for c in poly]


def _lift(u, h, p, f, W, steps):
    from rayverify.padics import _ppowmod

    for _ in range(steps):
        u = _ppowmod(u, p**f, h, p**W)
    return tuple(u)


def _lift_orders(q):
    """Two orders n of roots of unity in F_q, as large as a cheap Phi_n allows."""
    return [n for n in divisors(q - 1) if 1 < n <= 60][-2:]


#: (p, f, prec) with p^f <= 10^6, the residue fields `cyclotomic_root` allows
_LIFT_GRID = [
    (p, f, prec)
    for p, f in ((3, 1), (3, 5), (3, 12), (5, 2), (5, 8), (7, 3), (7, 7), (11, 4), (13, 5))
    for prec in (1, 12, 40)
]


@pytest.mark.parametrize("p, f, prec", _LIFT_GRID)
def test_teichmueller_lifts_match_the_old_iterations(p, f, prec):
    R = PadicRing(p, prec, f)
    W = R.workprec
    assert R.H == _old_modulus(p, f, W)
    for n in _lift_orders(R.q):
        assert R.cyclotomic_root(n).vec == _newton_root(R, n, R._residue_root(n)), n
    rng = random.Random(p * 1000 + f * 100 + prec)
    x = R.element([rng.randrange(1, p)] + [rng.randrange(R.workmod) for _ in range(f - 1)])
    old = x
    for _ in range(W):
        old = old**R.q
    assert R.teichmueller(x).vec == old.vec


def test_one_lift_step_fewer_misses_the_grid():
    # ceil((W - 1)/f) q-th powers carry a residue root of unity to W digits;
    # one fewer leaves some root wrong at every grid point
    for p, f, prec in _LIFT_GRID:
        R = PadicRing(p, prec, f)
        W = R.workprec
        steps = -(-(W - 1) // f)
        missed = False
        for n in _lift_orders(R.q):
            seed = R._residue_root(n)
            root = R.cyclotomic_root(n).vec
            assert _lift(seed, R.H, p, f, W, steps) == root
            missed |= _lift(seed, R.H, p, f, W, steps - 1) != root
        assert missed, (p, f, prec)
