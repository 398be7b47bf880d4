import random
from fractions import Fraction

import pytest

from rayverify.cyclo import (
    CycNumber,
    FieldSpec,
    _poly_div_monic,
    cyclotomic_polynomial,
    is_subgroup,
    power_sums_to_elementary,
    quad_gauss_sum,
    subgroup_generated,
    subgroup_product_polynomial,
    subgroup_trace_of_power,
    to_quadratic,
    units_mod,
)
from rayverify.nt import divisors, euler_phi, kronecker, moebius


def _phi_at(n, x):
    """Independent oracle: Phi_n(x) = prod over d|n of (x^d - 1)^mu(n/d)."""
    val = Fraction(1)
    for d in divisors(n):
        mu = moebius(n // d)
        if mu == 1:
            val *= x**d - 1
        elif mu == -1:
            val /= x**d - 1
    return val


def test_cyclotomic_polynomial_oracle():
    for n in list(range(1, 41)) + [105]:
        coeffs = cyclotomic_polynomial(n)
        assert len(coeffs) - 1 == euler_phi(n)
        assert coeffs[-1] == 1
        got = sum(c * 2**i for i, c in enumerate(coeffs))
        assert got == _phi_at(n, 2)
        got3 = sum(c * 3**i for i, c in enumerate(coeffs))
        assert got3 == _phi_at(n, 3)
    # the classical first non-flat coefficient
    assert cyclotomic_polynomial(105)[7] == -2


def test_zeta_basics():
    z = CycNumber.zeta(5)
    assert z**5 == 1
    assert sum((z**k for k in range(1, 5)), CycNumber.one(5)) == 0
    i = CycNumber.zeta(4)
    assert i * i == -1
    assert CycNumber.zeta(2) == -1


def test_rational_embedding_and_division():
    x = CycNumber.rational(7, Fraction(3, 4))
    assert x.is_rational() and x.rational_value() == Fraction(3, 4)
    assert (x / 3).rational_value() == Fraction(1, 4)
    z = CycNumber.zeta(7)
    y = 1 + 2 * z + z**3
    assert y * y.inverse() == 1
    assert (y / y) == 1


def test_galois_action():
    z = CycNumber.zeta(5)
    assert (1 - z).galois(2) == 1 - z**2
    w = 1 + 3 * z**2
    assert w.galois(3).galois(2) == w.galois(6 % 5)


def test_norms():
    for p in (3, 5, 7, 11):
        assert (1 - CycNumber.zeta(p)).norm_to_q() == p
    for n in (9, 12, 15, 16):
        phi1 = sum(cyclotomic_polynomial(n))  # Phi_n(1)
        assert (1 - CycNumber.zeta(n)).norm_to_q() == phi1


def test_lift():
    z5 = CycNumber.zeta(5)
    assert z5.lift(15) == CycNumber.zeta(15) ** 3
    x = 1 - z5
    assert x.lift(15).galois(7).galois(13) == x.lift(15).galois(91 % 15)


def test_integrality_flag():
    z = CycNumber.zeta(5)
    assert (1 + z).is_integral()
    assert not ((1 + z) / 2).is_integral()
    # (zeta5 + zeta5^4) has denominator 1; halving it does not
    assert not ((z + z**4) / 3).is_integral()


def test_quad_gauss_sums():
    for D in (5, 8, 12, 13, 17, 316):
        g = quad_gauss_sum(D)
        assert (g * g).rational_value() == D
        x, y = to_quadratic(g, D)
        assert (x, y) == (0, 1)


def test_to_quadratic_golden_ratio_trace():
    z = CycNumber.zeta(5)
    x, y = to_quadratic(z + z**4, 5)
    assert x == Fraction(-1, 2) and y == Fraction(1, 2)


def test_to_quadratic_matches_gauss_sum_product():
    """The coefficient ratio agrees with the product oracle: w g = 2 y D."""
    rng = random.Random(61)
    for D, n in ((5, 5), (5, 15), (8, 24), (13, 13), (12, 12)):
        g = quad_gauss_sum(D, n)
        for _ in range(6):
            x = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            y = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            z = x + y * g
            assert to_quadratic(z, D) == (x, y)
            tau = next(a for a in units_mod(n) if kronecker(D, a % D) == -1)
            w = z - z.galois(tau)
            assert (w * g).rational_value() == 2 * y * D


def test_to_quadratic_rejects_elements_outside_the_field():
    for D, n, z in (
        (5, 5, CycNumber.zeta(5)),
        (5, 15, CycNumber.zeta(15)),
        # z + tau z is rational here (tau acts on zeta_3 as conjugation),
        # so only the proportionality of z - tau z to sqrt(5) catches it
        (5, 15, CycNumber.zeta(15, 5)),
        (13, 13, CycNumber.zeta(13) + CycNumber.zeta(13, 12)),
    ):
        assert z.n == n
        with pytest.raises(ValueError, match="not in the quadratic field"):
            to_quadratic(z, D)
    with pytest.raises(ValueError, match="does not see"):
        to_quadratic(CycNumber.zeta(7), 5)


def test_norm_over_subgroup_oracle():
    # (1 - zeta5)(1 - zeta5^4) = (5 - sqrt 5)/2, a root of x^2 - 5x + 5
    z = 1 - CycNumber.zeta(5)
    nrm = z.norm_over((1, 4))
    x, y = to_quadratic(nrm, 5)
    assert x == Fraction(5, 2) and y == Fraction(-1, 2)
    assert x * x - 5 * y * y == 5  # norm to Q
    assert 2 * x == 5  # trace


def test_field_spec_conductor_reduction():
    k = FieldSpec(20, (1, 9, 11, 19))
    assert k.m == 5 and k.H == (1, 4)
    assert k == FieldSpec.quadratic(5)
    assert k.degree() == 2


def test_field_spec_quadratic_79():
    k = FieldSpec.quadratic(316)
    assert k.m == 316
    assert len(k.H) == euler_phi(316) // 2
    assert k.degree() == 2
    assert 315 in k.H  # -1


def test_fixing_subgroup():
    k = FieldSpec.quadratic(5)
    assert k.fixing_subgroup_at(15) == (1, 4, 11, 14)
    assert k.fixing_subgroup_at(3) == (1, 2)  # intersection is Q
    assert k.fixing_subgroup_at(20) == (1, 9, 11, 19)
    assert k.fixing_subgroup_at(5) == (1, 4)


def test_cosets():
    assert FieldSpec.quadratic(5).cosets() == [(1, 4), (2, 3)]


def test_newton_rational():
    # roots 2 and 3: p1 = 5, p2 = 13 -> e1 = 5, e2 = 6
    es = power_sums_to_elementary([Fraction(5), Fraction(13)], Fraction(1))
    assert es == [Fraction(5), Fraction(6)]


def test_subgroup_product_polynomial():
    # F(X) = (X - zeta5)(X - zeta5^4) = X^2 - (zeta5 + zeta5^4) X + 1
    z = CycNumber.zeta(5)
    coeffs = subgroup_product_polynomial(5, (1, 4), 1)
    assert coeffs[2] == 1
    assert coeffs[1] == -(z + z**4)
    assert coeffs[0] == 1
    # evaluating at 1 reproduces the subgroup norm of (1 - zeta5)
    val = coeffs[0] + coeffs[1] + coeffs[2]
    assert val == (1 - z).norm_over((1, 4))


def test_subgroup_trace():
    z = CycNumber.zeta(5)
    assert subgroup_trace_of_power(5, (1, 4), 2) == z**2 + z**3


def test_evaluate_mod():
    # images of zeta5 in F_11 are the order-5 elements; the product of
    # (1 - x) over all of them is Phi_5(1) = 5
    order5 = [x for x in range(1, 11) if pow(x, 5, 11) == 1 and x != 1]
    assert len(order5) == 4
    z = 1 - CycNumber.zeta(5)
    prod = 1
    for im in order5:
        prod = prod * z.evaluate_mod(11, im) % 11
    assert prod == 5 % 11
    # zeta_11 -> 1 kills 1 - zeta_11
    assert (1 - CycNumber.zeta(11)).evaluate_mod(11, 1) == 0


def test_is_subgroup_matches_the_pairwise_definition():
    def pairwise(m, H):
        Hs = set(H)
        return 1 in Hs and all(a * b % m in Hs for a in Hs for b in Hs)

    rng = random.Random(17)
    verdicts = []
    for m in range(3, 60):
        U = units_mod(m)
        for _ in range(8):
            sub = set(subgroup_generated(m, rng.sample(U, rng.randint(1, 2))))
            extra = rng.choice(U)
            for H in (
                sub,
                sub | {extra},
                sub - {extra} if extra != 1 else sub - {m - 1},
                {1} | set(rng.sample(U, rng.randint(0, len(U)))),
                set(rng.sample(U, rng.randint(0, len(U)))) - {1},
            ):
                want = pairwise(m, H)
                assert is_subgroup(m, sorted(H)) == want, (m, sorted(H))
                verdicts.append(want)
    assert verdicts.count(True) > 500 and verdicts.count(False) > 500


def test_units_mod():
    assert units_mod(1) == (0,)
    assert units_mod(12) == (1, 5, 7, 11)


def test_subgroup_generated_stops_past_its_limit():
    # 2 generates (Z/11)^*; 4 the squares, of index 2
    assert subgroup_generated(11, [2], limit=10) == units_mod(11)
    assert subgroup_generated(11, [2], limit=5) is None
    assert subgroup_generated(11, [4], limit=5) == (1, 3, 4, 5, 9)


def test_contracts_raise():
    z5, z7 = CycNumber.zeta(5), CycNumber.zeta(7)
    with pytest.raises(ValueError, match="too long"):
        CycNumber(5, [1, 2, 3, 4, 5])
    with pytest.raises(ValueError, match="nonzero"):
        CycNumber(5, [1], 0)
    with pytest.raises(ValueError, match="mixed levels"):
        z5 + z7
    with pytest.raises(ValueError, match="not rational"):
        z5.rational_value()
    with pytest.raises(ValueError, match="division by zero"):
        z5 / (z5 - z5)
    with pytest.raises(ValueError, match="not a unit exponent"):
        z5.galois(5)
    with pytest.raises(ValueError, match="not a multiple"):
        z5.lift(7)
    with pytest.raises(ValueError, match="not invertible"):
        (z5 / 11).evaluate_mod(11, 3)
    with pytest.raises(ValueError, match="units mod"):
        subgroup_generated(10, [2])
    with pytest.raises(ValueError, match="too small"):
        FieldSpec(2, (1,))
    with pytest.raises(ValueError, match="units"):
        FieldSpec(10, (1, 5, 9))
    with pytest.raises(ValueError, match="subgroup"):
        FieldSpec(13, (1, 3, 12))
    with pytest.raises(ValueError, match="real"):
        FieldSpec(13, (1, 3, 9))
    with pytest.raises(ValueError, match="D > 0"):
        FieldSpec.quadratic(-4)
    # x^2 + 1 does not divide x^3 + 1
    with pytest.raises(ArithmeticError, match="remainder"):
        _poly_div_monic([1, 0, 0, 1], [1, 0, 1])
