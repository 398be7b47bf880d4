"""Tests for cyclotomic numbers and unit lattices of real quadratic fields."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

from rayverify.cyclo import (
    FieldSpec,
    power_sums_to_elementary,
    subgroup_product_polynomial,
    subgroup_trace_of_power,
    to_quadratic,
)
from rayverify import units
from rayverify.quadratic import QuadField
from rayverify.units import (
    _norm_one_minus_power,
    auxiliary_prime,
    circular_unit_lattice,
    congruence_circular_lattice,
    congruence_exponent,
    congruence_unit_lattice,
    cyclotomic_number,
    full_unit_lattice,
    generating_levels,
    lattice_index,
    orbit_polynomial,
    twist_power,
    unit_pair,
)

Q5 = QuadField(5)
Q13 = QuadField(13)
Q316 = QuadField(316)


def test_cyclotomic_number_base_levels():
    # level equal to the discriminant: (5 - sqrt5)/2
    assert cyclotomic_number(Q5, 5) == Q5.element(Fraction(5, 2), Fraction(-1, 2))
    # levels invisible to the field: rational norms from the cyclotomic side
    assert cyclotomic_number(Q5, 3) == Q5.element(3)
    assert cyclotomic_number(Q5, 4) == Q5.element(2)
    assert cyclotomic_number(Q5, 6) == Q5.element(1)
    assert cyclotomic_number(Q5, 12) == Q5.element(1)
    # norm 13 (ramified level) and quotient by the conjugate a unit square
    d13 = cyclotomic_number(Q13, 13)
    assert d13 == Q13.element(Fraction(13, 2), Fraction(-3, 2))
    assert d13.norm() == 13
    assert d13 / d13.conj() == Q13.fundamental_unit() ** -2


def test_cyclotomic_number_twists():
    eps = Q5.fundamental_unit()
    assert cyclotomic_number(Q5, 2, 5) == Q5.element(16)
    assert cyclotomic_number(Q5, 10, 5) == eps**-10 / 4
    assert cyclotomic_number(Q5, 5, 4) == Q5.element(45, -20)
    assert cyclotomic_number(Q5, 3, 2) == Q5.element(3)


def test_cyclotomic_number_rejects_degenerate_levels():
    with pytest.raises(ValueError, match="radical of the twist"):
        cyclotomic_number(Q5, 5, 5)  # level divides the radical of the twist
    with pytest.raises(ValueError, match="at least 2"):
        cyclotomic_number(Q5, 1, 3)  # level must exceed 1


def test_twist_distribution_relations():
    delta = cyclotomic_number(Q5, 5)
    # twist by 2: exponent (2 - sigma)
    assert cyclotomic_number(Q5, 5, 2) == twist_power(delta, 2, -1)
    # twist by 6: exponent (2 - sigma)(3 - sigma) = 7 - 5 sigma
    assert cyclotomic_number(Q5, 5, 6) == twist_power(delta, 7, -5)
    # prime-power twist: plain power of the radical twist
    d10 = cyclotomic_number(Q5, 10, 5)
    assert cyclotomic_number(Q5, 10, 25) == d10**5


def test_generating_levels():
    assert generating_levels(Q5, 1) == [5]
    assert generating_levels(Q5, 4) == [5]
    assert generating_levels(Q5, 5) == [2, 10]
    assert generating_levels(Q5, 6) == [5]
    assert generating_levels(Q5, 50) == [3, 15]
    assert generating_levels(Q13, 1) == [13]
    assert generating_levels(Q316, 1) == [4, 79, 316]
    assert auxiliary_prime(Q5, 5) == 2
    assert auxiliary_prime(Q5, 50) == 3  # 2 divides the radical of 50


def test_cyclotomic_numbers_79():
    assert cyclotomic_number(Q316, 4) == Q316.element(2)
    assert cyclotomic_number(Q316, 79) == Q316.element(79)
    z = cyclotomic_number(Q316, 316)
    k, s = unit_pair(Q316, z)
    assert abs(k) == 3  # unit whose power ties the class number into the index


def test_unit_pair_and_full_lattice():
    eps = Q5.fundamental_unit()
    assert unit_pair(Q5, -(eps**3)) == (3, 1)
    assert unit_pair(Q5, eps**-2) == (-2, 0)
    assert full_unit_lattice() == [[1, 0], [0, 1]]


def test_congruence_unit_lattices():
    assert congruence_unit_lattice(Q5, 1) == [[1, 0], [0, 1]]
    assert congruence_unit_lattice(Q5, 4) == [[6, 0], [0, 2]]
    assert congruence_unit_lattice(Q5, 9) == [[12, 1], [0, 2]]
    assert congruence_unit_lattice(Q5, 11) == [[10, 0], [0, 2]]
    assert congruence_unit_lattice(Q5, 25) == [[50, 1], [0, 2]]
    assert congruence_exponent(Q5, 4) == 6
    assert congruence_exponent(Q5, 35) == 80
    assert congruence_exponent(Q5, 45) == 120
    assert congruence_exponent(Q5, 50) == 150


def test_circular_unit_lattices_untwisted():
    assert circular_unit_lattice(Q5, 1) == [[2, 0], [0, 1]]
    assert circular_unit_lattice(Q316, 1) == [[3, 0], [0, 1]]
    # index in the full unit group: trivial for D=5, the class number for 79
    assert lattice_index(circular_unit_lattice(Q5, 1), full_unit_lattice()) == 2
    assert lattice_index(circular_unit_lattice(Q316, 1), full_unit_lattice()) == 3


def test_congruence_circular_indices():
    # twist 4: congruence units <eps^6>, circular part <eps^12>, index 2
    c4 = congruence_circular_lattice(Q5, 4)
    assert c4 == [[12, 0], [0, 2]]
    assert lattice_index(c4, congruence_unit_lattice(Q5, 4)) == 2
    # twist 11
    c11 = congruence_circular_lattice(Q5, 11)
    assert c11 == [[20, 0], [0, 2]]
    assert lattice_index(c11, congruence_unit_lattice(Q5, 11)) == 2
    # twist 25
    c25 = congruence_circular_lattice(Q5, 25)
    assert lattice_index(c25, congruence_unit_lattice(Q5, 25)) == 2
    # twist 34: index 6, whose 3-part is the interesting quantity
    c34 = congruence_circular_lattice(Q5, 34)
    assert c34[0][0] == 108
    assert lattice_index(c34, congruence_unit_lattice(Q5, 34)) == 6


def _norm_one_minus_power_per_j(field, n, t):
    """One Gauss-period trace per j = 1..|S|, as Newton's identities consume
    them: the reference for the orbit-shared computation."""
    S = FieldSpec.quadratic(field.D).fixing_subgroup_at(n)
    powers = [
        field.element(*to_quadratic(subgroup_trace_of_power(n, S, t * j), field.D))
        for j in range(1, len(S) + 1)
    ]
    value = field.one()
    for i, e in enumerate(power_sums_to_elementary(powers, field.one())):
        value = value - e if i % 2 == 0 else value + e
    return value


@pytest.mark.parametrize(
    "D, n, t",
    [(5, 5, 1), (5, 10, 1), (5, 15, 2), (5, 20, 3), (13, 13, 1), (13, 26, 2),
     (8, 8, 1), (8, 24, 5), (12, 12, 1), (12, 36, 4)],
)
def test_norm_one_minus_power_matches_per_j_traces(D, n, t):
    field = QuadField(D)
    expected = _norm_one_minus_power_per_j(field, n, t)
    assert _norm_one_minus_power(field, n, t) == expected


@pytest.mark.parametrize(
    "D, n, t",
    [(5, 5, 1), (5, 10, 3), (5, 15, 2), (5, 7, 1), (5, 12, 4), (13, 26, 2),
     (8, 24, 5), (12, 36, 4), (29, 58, 1)],
)
def test_orbit_polynomial_matches_the_cyclotomic_product(D, n, t):
    """F_t against prod (X - zeta_n^(t h)) expanded in Q(zeta_n) and pushed
    down coefficient by coefficient, the route `special_unit` once took."""
    field = QuadField(D)
    S = FieldSpec.quadratic(D).fixing_subgroup_at(n)
    expected = [
        field.element(*to_quadratic(c, D)) for c in subgroup_product_polynomial(n, S, t)
    ]
    assert list(orbit_polynomial(field, n, t)) == expected
    if n % D == 0 and n // math.gcd(n, t) > 1:
        assert _norm_one_minus_power(field, n, t) == sum(expected, field.zero())


def test_lattice_index_rejects_a_non_sublattice():
    with pytest.raises(ArithmeticError, match="not a sublattice"):
        lattice_index(full_unit_lattice(), [[2, 0], [0, 1]])
    with pytest.raises(ValueError, match="degenerates"):
        _norm_one_minus_power(Q5, 5, 10)


def test_units_module_has_no_assert():
    """Checks must survive python -O."""
    tree = ast.parse(Path(units.__file__).read_text())
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
