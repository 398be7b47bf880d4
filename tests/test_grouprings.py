import ast
import functools
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from rayverify import grouprings
from rayverify.cyclo import FieldSpec, subgroup_generated, units_mod
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
    galois_log,
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
from rayverify.nt import (
    crt,
    divisors,
    euler_phi,
    factorize,
    fundamental_discriminant,
    moebius,
    prime_factors,
    primitive_root,
    squarefree_part,
    valuation,
)
from rayverify.padics import PadicRing, ring_for_conductor, splitting_degree
from rayverify.quadratic import QuadField
from rayverify.units import cyclotomic_number


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


def _unit_dlog_table(m):
    """Oracle: independent generators (residue, order) of (Z/m)^* and the
    table residue -> exponent tuple over them, by enumeration."""
    basis = []
    for q, e in factorize(m):
        qe = q**e
        if q == 2:
            local = [[], [(3, 2)], [(qe - 1, 2), (5, qe // 4)]][min(e, 3) - 1]
        else:
            g = primitive_root(q)
            if e > 1 and pow(g, q - 1, q * q) == 1:
                g += q
            local = [(g % qe, (q - 1) * qe // q)]
        for g, n in local:
            basis.append((crt([g, 1], [qe, m // qe]) % m, n))
    table = {}
    for combo in itertools.product(*(range(n) for _, n in basis)):
        r = 1 % m
        for (g, _), j in zip(basis, combo):
            r = r * pow(g, j, m) % m
        table[r] = combo
    assert len(table) == euler_phi(m)
    return basis, table


def _descended_character_exps(group):
    """Oracle: the exps of every character of (Z/m)^* that vanishes on H,
    read on the coset representatives, sorted."""
    m, W = group.m, group.exponent
    basis, table = _unit_dlog_table(m)

    def angle(a, combo):
        js = table[a % m]
        return sum(Fraction(e * j, n) for (_, n), e, j in zip(basis, combo, js)) % 1

    seen = set()
    for combo in itertools.product(*(range(n) for _, n in basis)):
        if any(angle(h, combo) for h in group.spec.H):
            continue
        exps = [angle(cs[0], combo) * W for cs in group.cosets]
        assert all(t.denominator == 1 for t in exps)
        seen.add(tuple(int(t) for t in exps))
    assert len(seen) == group.order
    return sorted(seen)


def _field_grid():
    """Seeded real abelian fields: random subgroups H containing -1 at
    conductors up to 64, plus fixed non-cyclic and degree-6 cases."""
    rng = random.Random(13)
    specs = {FieldSpec(40, (1, 39)), FieldSpec(13, (1, 12)), FieldSpec(16, (1, 15))}
    for m in range(3, 65):
        units = units_mod(m)
        for _ in range(3):
            gens = [m - 1] + rng.sample(units, rng.randint(0, min(2, len(units))))
            specs.add(FieldSpec(m, subgroup_generated(m, gens)))
    return sorted(specs, key=lambda s: (s.m, s.H))


def test_characters_match_the_unit_group_descent():
    groups = [GaloisGroup(spec) for spec in _field_grid()]
    degrees = {G.order for G in groups}
    assert {2, 3, 4, 6, 8} <= degrees
    assert any(G.exponent < G.order for G in groups if G.order == 8)
    for G in groups:
        exps = [chi.exps for chi in characters(G)]
        assert exps == _descended_character_exps(G), G.spec


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
    assert total == embed_group_ring(one_element(G), R)


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


def test_ramification_ramified_prime():
    G = quad_group(5)
    ram = ramification(G, 5)
    assert ram.inertia == (0, 1)
    assert ram.frobenius == 0
    assert ram.average().coeffs == fr(Fraction(1, 2), Fraction(1, 2))
    assert ram.residue_degree_order() == 1


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
    omega = lseries_derivative_element(G, R)
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
    with pytest.raises(ValueError, match="radical"):
        unit_log_factor(G, 5, 5)  # level divides the radical
    with pytest.raises(ValueError, match="level must exceed 1"):
        unit_log_factor(G, 1, 3)


# ---------------------------------------------------------------- oracles
# ramification data and log factors for a general group, as grouprings.py
# built them before it read them off chi_D: inertia and Frobenius from a
# CRT lift, and the factors as products in the group ring


def _old_subfield_fixer(G, n):
    L = math.lcm(G.m, n)
    return tuple(sorted({G.coset_of(a % G.m) for a in units_mod(L) if a % n == 1 % n}))


@functools.lru_cache(maxsize=None)
def _old_ramification(G, ell):
    """(frobenius, inertia, inertia average)."""
    m = G.m
    v = valuation(m, ell)
    if v == 0:
        frob, inertia = G.coset_of(ell), (0,)
    else:
        mprime = m // ell**v
        inertia = tuple(
            sorted({G.coset_of(a) for a in units_mod(m) if a % mprime == 1 % mprime})
        )
        frob = 0 if mprime == 1 else G.coset_of(crt([ell % mprime, 1], [mprime, ell**v]))
    return frob, inertia, G.subgroup_sum(inertia) * Fraction(1, len(inertia))


def _old_residue_degree_order(G, ell):
    frob, inertia, _ = _old_ramification(G, ell)
    k, g = 1, frob
    while g not in inertia:
        g, k = G.mult[g][frob], k + 1
    return k


def _old_frob_average(G, ell):
    frob, _, average = _old_ramification(G, ell)
    return basis_element(G, frob) * average


def _old_unit_adjusted(G, ell):
    frob, _, average = _old_ramification(G, ell)
    return one_element(G) - basis_element(G, G.inv[frob]) * average


@functools.lru_cache(maxsize=None)
def _old_norm_log_factor(G, n, t):
    level = n // t
    S = set(G.spec.fixing_subgroup_at(n))
    K = {a for a in units_mod(n) if a % level == 1 % level}
    acc = G.subgroup_sum(_old_subfield_fixer(G, level))
    for ell in prime_factors(level):
        acc = acc * _old_unit_adjusted(G, ell)
    return len(S & K) * acc


@functools.lru_cache(maxsize=None)
def _old_euler_twist(G, t):
    acc = one_element(G)
    for ell in prime_factors(t):
        acc = acc * (ell * one_element(G) - _old_frob_average(G, ell))
    return acc


def _old_unit_log_factor(G, n, d):
    dbar = radical(d)
    g = math.gcd(dbar, n)
    acc = None
    for t in divisors(g):
        term = Fraction(moebius(t) * g, t) * _old_norm_log_factor(G, n, t)
        acc = term if acc is None else acc + term
    return Fraction(d, dbar) * (_old_euler_twist(G, dbar // g) * acc)


def _fundamental_discriminants(bound):
    return [
        D for D in range(5, bound)
        if squarefree_part(D) != 1 and fundamental_discriminant(D) == D
    ]


def test_chi_values_match_the_general_group_ring_route():
    # every fundamental D < 60, n <= 2D, proper t | n, d <= 12, ell < 100
    for D in _fundamental_discriminants(60):
        G = quad_group(D)
        for ell in prime_factors(math.prod(range(2, 100))):
            ram = ramification(G, ell)
            assert ram.inertia == _old_ramification(G, ell)[1], (D, ell)
            assert basis_element(G, ram.frobenius) * ram.average() == (
                _old_frob_average(G, ell)
            ), (D, ell)
            assert ram.residue_degree_order() == _old_residue_degree_order(G, ell)
        for t in range(1, 13):
            assert euler_twist(G, t) == _old_euler_twist(G, t), (D, t)
        for n in range(2, 2 * D + 1):
            for t in divisors(n)[:-1]:
                assert norm_log_factor(G, n, t) == _old_norm_log_factor(G, n, t), (D, n, t)
            for d in range(1, 13):
                if radical(d) % n:
                    want = _old_unit_log_factor(G, n, d)
                    assert unit_log_factor(G, n, d) == want, (D, n, d)


def test_residue_euler_element_oracles():
    G = quad_group(5)
    chars = characters(G)
    R = ring_for_conductor(7, 5, 8, extra_order=2)
    # trivial modulus part: the projector away from the trivial character
    mu1 = residue_euler_element(G, R, 1)
    assert mu1 == char_idempotent(chars[1], R)
    # modulus part 5: ramified, character value 0, factor (5 - 0) = 5
    mu5 = residue_euler_element(G, R, 5)
    assert chi_component(mu5, chars[1], R) == 5
    assert chi_component(mu5, chars[0], R).is_zero()
    # modulus part 2: inert, chi(2) = -1, factor (2 - (-1)) = 3
    mu2 = residue_euler_element(G, R, 2)
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


# ---------------------------------------------------------------- oracles
# one log per unit a for the L-values and one full log per embedding for
# the quadratic log map, as grouprings.py computed them before it took one
# log per character value and log(sigma z) = log(N z) - log(z)


def _per_unit_lseries(chi, R):
    f, W = chi.conductor, chi.group.exponent
    rho = R.cyclotomic_root(f)
    acc = R.zero()
    for a in units_mod(f):
        term = R.iwasawa_log(R.one() - rho**a)
        e = chi.prim_exp(a)
        if e:
            term = term * R.cyclotomic_root(W) ** ((-e) % W)
        acc = acc + term
    return acc


@pytest.mark.parametrize(
    "spec, p, prec",
    [
        (FieldSpec.quadratic(5), 7, 12),
        (FieldSpec.quadratic(12), 5, 12),
        (FieldSpec.quadratic(56), 5, 40),
        (FieldSpec.quadratic(120), 7, 40),
        # Q(zeta_16)^+: characters of order 4, values +-1 and +-i
        (FieldSpec(16, (1, 15)), 17, 12),
        (FieldSpec(16, (1, 15)), 7, 20),
        # the real sextic field of conductor 13: characters of order 6
        (FieldSpec(13, (1, 12)), 5, 12),
    ],
)
def test_lseries_matches_the_per_unit_sum(spec, p, prec):
    G = GaloisGroup(spec)
    R = ring_for_conductor(p, spec.m, prec, extra_order=G.exponent)
    chars = [chi for chi in characters(G) if not chi.is_trivial]
    assert max(chi.order for chi in chars) == G.exponent
    for chi in chars:
        got, want = lseries_derivative(chi, R), _per_unit_lseries(chi, R)
        assert got.prec == want.prec == R.prec
        assert got == want, chi


def _old_galois_log_quad(G, R, z, s, pk):
    # p^k z has no p in its denominators and, as log p = 0, the logs of z
    x, y = z.x * pk, z.y * pk
    return galois_log(G, R, [R.embed_quadratic(x, y, s), R.embed_quadratic(x, -y, s)])


@pytest.mark.parametrize("D, p, style", [(5, 7, "gauss"), (5, 11, "hensel"),
                                         (12, 5, "gauss"), (56, 3, "gauss"),
                                         (13, 3, "hensel"), (8, 7, "hensel")])
def test_galois_log_quad_matches_two_full_logs(D, p, style):
    F, G = QuadField(D), quad_group(D)
    R = ring_for_conductor(p, D, 12) if style == "gauss" else PadicRing(p, 12)
    s = R.sqrt_disc(D, style)
    rng = random.Random(D * 100 + p)
    zs = [F.fundamental_unit(), F.fundamental_unit() ** 3 * p]
    # elements with p in their denominators
    for k in (0, 1, 2):
        for _ in range(6):
            a, b = rng.randrange(-40, 41), rng.randrange(1, 41)
            zs.append(F.from_omega_coords(a, b) / p**k)
    # for split p, elements divisible by one prime above p only
    for a in range(p):
        z = F.from_omega_coords(a, 1)
        if z.norm() % p == 0:
            zs += [z, z / p**2]
    for z in zs:
        pk = p ** max(valuation(z.x.denominator, p), valuation(z.y.denominator, p))
        got, want = galois_log_quad(G, R, z, s), _old_galois_log_quad(G, R, z, s, pk)
        assert got == want, z
    assert any(valuation(z.x.denominator, p) for z in zs)


# ---------------------------------------------------------------- identities


def sinnott_sides(G, R, chars, z, n, d):
    """Both sides of the log identity for a level-n modified number z."""
    one = embed_group_ring(one_element(G), R)
    e1 = char_idempotent(chars[0], R)
    lhs = (one - e1) * galois_log_quad(G, R, z)
    omega = lseries_derivative_element(G, R)
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


def _lseries_pairs():
    # ord_D(p) <= 6 keeps the ring of the D-th roots of unity small
    return [
        (D, p)
        for D in (5, 8, 12, 13, 56)
        for p in (3, 5, 7)
        if D % p and splitting_degree(p, D) <= 6
    ]


@pytest.mark.parametrize("D, p", _lseries_pairs())
def test_lseries_derivative_is_the_log_of_u_D_over_its_conjugate(D, p):
    # Leopoldt: sum over a of chi(a) log(1 - zeta_D^a) = log u_D - log sigma u_D,
    # u_D = prod over chi(a) = 1 of (1 - zeta_D^a), the level-D cyclotomic number
    G = quad_group(D)
    R = ring_for_conductor(p, D, 12)
    log_u = galois_log_quad(G, R, cyclotomic_number(QuadField(D), D)).coeffs
    assert lseries_derivative(characters(G)[1], R) == log_u[0] - log_u[1]


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
        theta = ray_annihilator(G, R, 1, rho, 1)
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
    theta = ray_annihilator(G, R, 4, rho, 6)
    assert chi_component(theta, chars[1], R) == R.from_int(-1)


def test_ray_annihilator_rejects_vanishing_divisor():
    G = quad_group(5)
    R = ring_for_conductor(7, 5, 10, extra_order=2)
    zero_rho = GroupRingElement(G, [R.zero()] * G.order)
    with pytest.raises(ValueError):
        ray_annihilator(G, R, 1, zero_rho, 1)


# ---------------------------------------------------------------- misc


def test_radical():
    assert radical(1) == 1
    assert radical(12) == 6
    assert radical(49) == 7
    assert radical(30) == 30


def test_contracts_raise():
    G5, G8 = quad_group(5), quad_group(8)
    ring = ring_for_conductor(7, 5, 6)
    with pytest.raises(ValueError, match="not a unit"):
        G5.coset_of(10)
    with pytest.raises(ValueError, match="one exponent"):
        Character(G5, (0, 1, 0))
    with pytest.raises(ValueError, match="one coefficient"):
        GroupRingElement(G5, (1, 2, 3))
    a, b = one_element(G5), one_element(G8)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(ValueError, match="different groups"):
            op()
    with pytest.raises(ValueError, match="nonnegative"):
        a ** -1
    with pytest.raises(ValueError, match="not integral"):
        integer_coefficients(GroupRingElement(G5, (Fraction(1, 2), 0)))
    with pytest.raises(ValueError, match="coprime to the character orders"):
        frobenius_orbits(characters(G5), 2)
    with pytest.raises(ValueError, match="one value"):
        galois_log(G5, ring, [ring.one()])
    with pytest.raises(ValueError, match="quadratic field"):
        galois_log_quad(G8, ring, QuadField(5).fundamental_unit())
    with pytest.raises(ValueError, match="trivial character"):
        lseries_derivative(characters(G5)[0], ring)
    with pytest.raises(ValueError, match="conductor"):
        lseries_derivative(characters(G5)[1], PadicRing(5, 6, 1))
    with pytest.raises(ValueError, match="degree"):
        lseries_derivative_element(GaloisGroup(FieldSpec(7, (1, 6))), PadicRing(3, 6, 1))
    with pytest.raises(ValueError, match="proper divisor"):
        norm_log_factor(G5, 5, 5)
    G7 = GaloisGroup(FieldSpec(7, (1, 6)))  # the real cubic field of conductor 7
    for call in (
        lambda: ramification(G7, 2),
        lambda: norm_log_factor(G7, 14, 2),
        lambda: euler_twist(G7, 3),
        lambda: unit_log_factor(G7, 14, 2),
    ):
        with pytest.raises(ValueError, match=r"\{1, sigma\}"):
            call()


def test_grouprings_module_has_no_assert():
    """Checks must survive python -O."""
    tree = ast.parse(Path(grouprings.__file__).read_text())
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
