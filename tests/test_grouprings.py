from fractions import Fraction

import pytest

from rayverify.cyclo import FieldSpec
from rayverify.grouprings import (
    Character,
    GaloisGroup,
    GroupRingElement,
    basis_element,
    char_idempotent,
    characters,
    chi_component,
    embed_group_ring,
    euler_twist,
    frobenius_orbits,
    galois_log_quad,
    integer_coefficients,
    lseries_derivative,
    lseries_derivative_element,
    norm_log_factor,
    one_element,
    orbit_idempotent,
    radical,
    ramification,
    ray_annihilator,
    residue_euler_element,
    unit_log_factor,
)
from rayverify.padics import ring_for_conductor
from rayverify.quadratic import QuadField


def quad_group(D):
    return GaloisGroup(FieldSpec.quadratic(D))


def fr(*vals):
    return tuple(Fraction(v) for v in vals)


# ---------------------------------------------------------------- group


def test_quadratic_group_tables():
    G = quad_group(5)
    assert G.order == 2
    assert G.exponent == 2
    assert G.coset_of(1) == 0
    assert G.coset_of(4) == 0  # 4 is a square mod 5
    assert G.coset_of(2) == 1
    assert G.mult[1][1] == 0
    assert G.inv == [0, 1]


def test_degree_four_group():
    # the real field inside the 16th cyclotomic field: cyclic of order 4
    G = GaloisGroup(FieldSpec(16, (1, 15)))
    assert G.order == 4
    assert G.exponent == 4
    g = G.coset_of(3)
    assert G.element_order(g) == 4


def test_subfield_fixer():
    G = quad_group(5)
    assert G.subfield_fixer(1) == (0, 1)  # everything fixes the rationals
    assert G.subfield_fixer(5) == (0,)
    assert G.subfield_fixer(2) == (0, 1)  # level 2 only sees the rationals
    assert G.subfield_fixer(10) == (0,)


# ---------------------------------------------------------------- characters


def test_quadratic_characters():
    G = quad_group(5)
    chars = characters(G)
    assert len(chars) == 2
    triv, chi = chars
    assert triv.is_trivial and triv.conductor == 1
    assert chi.order == 2 and chi.conductor == 5
    assert chi.exps == (0, 1)
    assert chi.kernel() == (0,)


def test_degree_four_characters_and_conductors():
    G = GaloisGroup(FieldSpec(16, (1, 15)))
    chars = characters(G)
    assert len(chars) == 4
    assert chars[0].is_trivial
    # one trivial, one of conductor 8 (the order-2 character), two of conductor 16
    assert sorted(c.conductor for c in chars) == [1, 8, 16, 16]
    assert sorted(c.order for c in chars) == [1, 2, 4, 4]
    quad = next(c for c in chars if c.order == 2)
    # that character cuts out the field of discriminant 8: value at 3 is -1
    W = G.exponent
    assert quad.prim_exp(3) == W // 2
    assert quad.prim_exp(7) == 0
    assert quad.prim_exp(2) is None  # shares a factor with the conductor


def test_character_powers_and_conjugates():
    G = GaloisGroup(FieldSpec(16, (1, 15)))
    chars = characters(G)
    quartic = next(c for c in chars if c.order == 4)
    assert quartic.power(2).order == 2
    assert quartic.conjugate().conjugate() == quartic
    assert quartic.power(4).is_trivial


def test_prim_exp_lifts_through_composite_level():
    # character of conductor 5 living at level 15
    spec = FieldSpec(15, (1, 4, 11, 14))
    G = GaloisGroup(spec)
    assert G.order == 2
    chi = characters(G)[1]
    assert chi.conductor == 5
    # at the primitive level: 3 is a unit mod 5 although not mod 15
    assert chi.prim_exp(3) is not None
    # quadratic residues mod 5 get exponent 0
    assert chi.prim_exp(4) == 0
    assert chi.prim_exp(3) == 1  # 3 is not a square mod 5
    assert chi.prim_exp(5) is None


# ---------------------------------------------------------------- idempotents


def test_char_idempotents_orthogonal_partition():
    G = GaloisGroup(FieldSpec(16, (1, 15)))
    chars = characters(G)
    R = ring_for_conductor(5, 16, 8, extra_order=4)
    idems = [char_idempotent(c, R) for c in chars]
    total = None
    for i, e in enumerate(idems):
        assert e * e == e
        for j, f in enumerate(idems):
            if i != j:
                zero = e * f
                assert all(c.is_zero() for c in zero.coeffs)
        total = e if total is None else total + e
    assert total == one_element(G, R.one())


def test_orbit_idempotent_is_integral():
    # p = 3 pairs each order-4 character with its conjugate
    G = GaloisGroup(FieldSpec(16, (1, 15)))
    chars = characters(G)
    R = ring_for_conductor(3, 16, 8, extra_order=4)
    orbits = frobenius_orbits(chars, 3)
    assert sorted(len(o) for o in orbits) == [1, 2]
    for orbit in orbits:
        e = orbit_idempotent(orbit, R)
        assert e * e == e
        # coefficients are honest p-adic integers: |G| * coeff lifts to Z
        lifted = integer_coefficients(e * 4)
        assert all(isinstance(v, int) for v in lifted)


def test_frobenius_orbit_quadratic_singleton():
    G = quad_group(5)
    chars = characters(G)
    orbits = frobenius_orbits(chars, 7)
    assert len(orbits) == 1 and orbits[0] == (chars[1],)


# ---------------------------------------------------------------- group ring


def test_group_ring_convolution_and_scalars():
    G = quad_group(5)
    one = one_element(G)
    sigma = basis_element(G, 1)
    x = one + sigma * 2
    assert (x * x).coeffs == fr(5, 4)  # (1+2s)^2 = 1 + 4s + 4s^2
    assert (x * 3).coeffs == fr(3, 6)
    assert (3 * x).coeffs == fr(3, 6)
    assert (Fraction(1, 2) * x).coeffs == fr(Fraction(1, 2), 1)
    assert (x - x).coeffs == fr(0, 0)
    assert (x**2) == x * x
    assert x.apply(1).coeffs == fr(2, 1)


def test_chi_component_matches_idempotent_action():
    G = quad_group(5)
    chars = characters(G)
    R = ring_for_conductor(7, 5, 8, extra_order=2)
    theta = one_element(G) * 3 + basis_element(G, 1) * 5
    for chi in chars:
        lhs = char_idempotent(chi, R) * embed_group_ring(theta, R)
        rhs = char_idempotent(chi, R) * chi_component(theta, chi, R)
        assert lhs == rhs
    assert chi_component(theta, chars[0], R) == 8
    assert chi_component(theta, chars[1], R) == -2


# ---------------------------------------------------------------- ramification


def test_ramification_split_prime():
    G = quad_group(5)
    ram = ramification(G, 11)  # 11 = 1 mod 5: split, Frobenius trivial
    assert ram.inertia == (0,)
    assert ram.frobenius == 0
    assert ram.residue_degree_order() == 1


def test_ramification_inert_prime():
    G = quad_group(5)
    ram = ramification(G, 2)  # 2 is not a square mod 5: inert
    assert ram.inertia == (0,)
    assert ram.frobenius == 1
    assert ram.residue_degree_order() == 2
    assert ram.unit_adjusted().coeffs == fr(1, -1)


def test_ramification_ramified_prime():
    G = quad_group(5)
    ram = ramification(G, 5)
    assert ram.inertia == (0, 1)
    assert ram.frobenius == 0
    assert ram.average().coeffs == fr(Fraction(1, 2), Fraction(1, 2))
    # with full inertia the Frobenius-average kills the lift ambiguity
    assert ram.frob_average() == ram.average()
    assert ram.residue_degree_order() == 1


def test_frobenius_average_independent_of_lift():
    # at a ramified prime any coset representative gives the same averaged element
    G = GaloisGroup(FieldSpec(40, (1, 39)))  # degree 8: ramified at 2 and 5
    ram = ramification(G, 5)
    assert len(ram.inertia) > 1
    base = ram.frob_average()
    for i in ram.inertia:
        shifted = basis_element(G, G.mult[ram.frobenius][i]) * ram.average()
        assert shifted == base


def test_partial_ramification_degree_eight():
    G = GaloisGroup(FieldSpec(40, (1, 39)))
    ram2 = ramification(G, 2)
    ram5 = ramification(G, 5)
    assert len(ram2.inertia) == 4
    assert len(ram5.inertia) == 4
    assert 0 in ram2.inertia and 0 in ram5.inertia
    # inertia subgroups are closed under the group law
    for ram in (ram2, ram5):
        I = set(ram.inertia)
        for a in I:
            for b in I:
                assert G.mult[a][b] in I


# ---------------------------------------------------------------- L-values


def test_lseries_galois_symmetry_and_precision(frobenius):
    G = quad_group(5)
    chi = characters(G)[1]
    for p in (7, 13):
        R = ring_for_conductor(p, 5, 8, extra_order=2)
        L = lseries_derivative(chi, R)
        assert not L.is_zero()
        # Frobenius permutes the summands by a -> p a, so L maps to chi(p) L
        sign = -1 if chi.prim_exp(p) else 1
        assert frobenius(R, L) == L * sign
        assert frobenius(R, frobenius(R, L)) == L
        # recomputing with more digits agrees on the shared precision
        R2 = ring_for_conductor(p, 5, 12, extra_order=2)
        L2 = lseries_derivative(chi, R2)
        assert [v % p**8 for v in L2.vec] == [v % p**8 for v in L.vec]


def test_lseries_quadratic_fundamental_unit_oracle():
    # closed form at discriminant 5: the L-derivative equals -2 log(eps),
    # eps the fundamental unit, under the shared Gauss-sum embedding
    G = quad_group(5)
    chi = characters(G)[1]
    F = QuadField(5)
    eps = F.fundamental_unit()
    R = ring_for_conductor(7, 5, 10, extra_order=2)
    L = lseries_derivative(chi, R)
    s5 = R.sqrt_disc(5)
    logeps = R.iwasawa_log(R.embed_quadratic(eps.x, eps.y, s5))
    assert L == logeps * (-2)


def test_lseries_element_halves_the_difference():
    G = quad_group(5)
    chars = characters(G)
    R = ring_for_conductor(7, 5, 8, extra_order=2)
    omega = lseries_derivative_element(G, R, chars)
    L = lseries_derivative(chars[1], R)
    half = R.from_fraction(Fraction(1, 2))
    assert omega.coeffs[0] == L * half
    assert omega.coeffs[1] == L * half * (-1)
    # trivial component vanishes
    assert chi_component(omega, chars[0], R).is_zero()


# ---------------------------------------------------------------- coefficients


def test_norm_log_factor_base_level():
    G = quad_group(5)
    alpha = norm_log_factor(G, 5, 1)
    assert alpha.coeffs == fr(Fraction(1, 2), Fraction(-1, 2))


def test_norm_log_factor_augmented_level():
    G = quad_group(5)
    # level 10 = 2 * 5, proper divisor t = 5: the subfield collapse makes it vanish
    assert norm_log_factor(G, 10, 5).coeffs == fr(0, 0)
    assert norm_log_factor(G, 10, 1).coeffs == fr(1, -1)
    assert norm_log_factor(G, 2, 1).coeffs == fr(0, 0)


def test_euler_twist_oracles():
    G = quad_group(5)
    assert euler_twist(G, 1) == one_element(G)
    assert euler_twist(G, 2).coeffs == fr(2, -1)  # 2 - sigma, 2 inert
    assert euler_twist(G, 11).coeffs == fr(10, 0)  # 11 - 1, 11 split
    assert euler_twist(G, 5).coeffs == fr(Fraction(9, 2), Fraction(-1, 2))


def test_unit_log_factor_oracles():
    G = quad_group(5)
    # d = 1: no twist, plain base factor
    assert unit_log_factor(G, 5, 1) == norm_log_factor(G, 5, 1)
    # d = 2 at level 5: twist by (2 - sigma)
    assert unit_log_factor(G, 5, 2).coeffs == fr(Fraction(3, 2), Fraction(-3, 2))
    # d = 4 doubles that
    assert unit_log_factor(G, 5, 4).coeffs == fr(3, -3)
    # d = 5 at the augmented level 10
    assert unit_log_factor(G, 10, 5).coeffs == fr(5, -5)
    # d = 5 at level 2: total collapse
    assert unit_log_factor(G, 2, 5).coeffs == fr(0, 0)
    with pytest.raises(AssertionError):
        unit_log_factor(G, 5, 5)  # level divides the radical
    with pytest.raises(AssertionError):
        unit_log_factor(G, 1, 3)


def test_residue_euler_element_oracles():
    G = quad_group(5)
    chars = characters(G)
    R = ring_for_conductor(7, 5, 8, extra_order=2)
    # trivial modulus part: the projector away from the trivial character
    mu1 = residue_euler_element(G, R, 1, chars)
    assert mu1 == char_idempotent(chars[1], R)
    # modulus part 5: ramified, character value 0, factor (5 - 0) = 5
    mu5 = residue_euler_element(G, R, 5, chars)
    assert chi_component(mu5, chars[1], R) == 5
    assert chi_component(mu5, chars[0], R).is_zero()
    # modulus part 2: inert, chi(2) = -1, factor (2 - (-1)) = 3
    mu2 = residue_euler_element(G, R, 2, chars)
    assert chi_component(mu2, chars[1], R) == 3


# ---------------------------------------------------------------- log map


def test_galois_log_equivariance_and_additivity():
    G = quad_group(5)
    F = QuadField(5)
    R = ring_for_conductor(7, 5, 8, extra_order=2)
    eps = F.fundamental_unit()
    x = eps**3 * 7
    theta = galois_log_quad(G, R, x)
    # translating the argument right-translates the log element
    theta_conj = galois_log_quad(G, R, x.conj())
    assert theta_conj == theta.apply(1)
    # multiplicativity
    y = eps**2
    assert galois_log_quad(G, R, x * y) == theta + galois_log_quad(G, R, y)


def test_galois_log_fundamental_unit_component():
    G = quad_group(5)
    chars = characters(G)
    F = QuadField(5)
    R = ring_for_conductor(7, 5, 8, extra_order=2)
    rho = galois_log_quad(G, R, F.fundamental_unit())
    s5 = R.sqrt_disc(5)
    eps = F.fundamental_unit()
    logeps = R.iwasawa_log(R.embed_quadratic(eps.x, eps.y, s5))
    # conjugate of the unit is minus its inverse: log flips sign
    assert rho.coeffs[0] == logeps
    assert rho.coeffs[1] == logeps * (-1)
    assert chi_component(rho, chars[1], R) == logeps * 2
    assert chi_component(rho, chars[0], R).is_zero()


# ---------------------------------------------------------------- identities


def sinnott_sides(G, R, chars, z, n, d):
    """Both sides of the log identity for a level-n modified number z."""
    one = one_element(G, R.one())
    e1 = char_idempotent(chars[0], R)
    lhs = (one - e1) * galois_log_quad(G, R, z)
    omega = lseries_derivative_element(G, R, chars)
    rhs = omega * embed_group_ring(unit_log_factor(G, n, d), R)
    return lhs, rhs


def test_log_identity_base_case():
    # z = (5 - sqrt5)/2, the level-5 cyclotomic number of the discriminant-5 field
    G = quad_group(5)
    chars = characters(G)
    F = QuadField(5)
    z = F.element(Fraction(5, 2), Fraction(-1, 2))
    for p in (7, 13):
        R = ring_for_conductor(p, 5, 10, extra_order=2)
        lhs, rhs = sinnott_sides(G, R, chars, z, 5, 1)
        assert lhs == rhs


def test_log_identity_twisted_cases():
    G = quad_group(5)
    chars = characters(G)
    F = QuadField(5)
    eps = F.fundamental_unit()
    R = ring_for_conductor(7, 5, 12, extra_order=2)
    cases = [
        # (z, level, modulus): frozen closed forms of the modified numbers
        (F.element(Fraction(5, 2), Fraction(-1, 2)) ** 4 * (eps**-2 / 5), 5, 4),
        (eps**-10 / 4, 10, 5),
        (F.one() * 16, 2, 5),
    ]
    for z, n, d in cases:
        lhs, rhs = sinnott_sides(G, R, chars, z, n, d)
        assert lhs == rhs, (n, d)


def test_log_identity_level_five_modulus_four_closed_form():
    # the modified number at level 5, modulus 4 is 5 eps^{-6}
    F = QuadField(5)
    eps = F.fundamental_unit()
    z = F.element(Fraction(5, 2), Fraction(-1, 2)) ** 4 * (eps**-2 / 5)
    assert z == (eps**-6) * 5


# ---------------------------------------------------------------- annihilator


def test_ray_annihilator_trivial_modulus_is_minus_one():
    # at modulus 1 with unit index 1 the character component is
    # L'(chi)/(2 log eps) = -1 for discriminant 5
    G = quad_group(5)
    chars = characters(G)
    F = QuadField(5)
    for p in (7, 13):
        R = ring_for_conductor(p, 5, 10, extra_order=2)
        rho = galois_log_quad(G, R, F.fundamental_unit())
        theta = ray_annihilator(G, R, 1, rho, 1, chars)
        comp = chi_component(theta, chars[1], R)
        assert comp == R.from_int(-1)
        assert chi_component(theta, chars[0], R).is_zero()


def test_ray_annihilator_modulus_four_oracle():
    # modulus 4, unit index 6: component (-1) * (4/2) * (2 - (-1)) / 6 = -1
    G = quad_group(5)
    chars = characters(G)
    F = QuadField(5)
    R = ring_for_conductor(7, 5, 10, extra_order=2)
    rho = galois_log_quad(G, R, F.fundamental_unit())
    theta = ray_annihilator(G, R, 4, rho, 6, chars)
    assert chi_component(theta, chars[1], R) == R.from_int(-1)


def test_ray_annihilator_rejects_vanishing_divisor():
    G = quad_group(5)
    chars = characters(G)
    R = ring_for_conductor(7, 5, 10, extra_order=2)
    zero_rho = one_element(G, R.zero())
    with pytest.raises(ValueError):
        ray_annihilator(G, R, 1, zero_rho, 1, chars)


# ---------------------------------------------------------------- misc


def test_radical():
    assert radical(1) == 1
    assert radical(12) == 6
    assert radical(49) == 7
    assert radical(30) == 30
