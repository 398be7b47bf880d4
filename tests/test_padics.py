from fractions import Fraction

from rayverify.cyclo import CycNumber, quad_gauss_sum
from rayverify.padics import PadicRing, ring_for_conductor, splitting_degree


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
