"""Tests for finite Galois modules and ray class groups."""

import math
import random
from fractions import Fraction

import pytest

from rayverify.cyclo import FieldSpec
from rayverify.gmodules import (
    FiniteGModule,
    RayClassGroup,
    _prime_smooth_vector,
    isomorphism_certificate,
    lift_coefficients_mod,
    residue_galois_module,
    residue_structure_target,
)
from rayverify.grouprings import GaloisGroup, GroupRingElement
from rayverify.intmat import identity
from rayverify.nt import fundamental_discriminant, is_prime
from rayverify.quadratic import QuadField

G5 = GaloisGroup(FieldSpec.quadratic(5))
G13 = GaloisGroup(FieldSpec.quadratic(13))
G316 = GaloisGroup(FieldSpec.quadratic(316))


def trivial_action_module(group, diag):
    k = len(diag)
    rels = [[diag[i] if j == i else 0 for j in range(k)] for i in range(k)]
    return FiniteGModule(group, k, rels, [identity(k)] * group.order)


def swap_module(group, n):
    rels = [[n, 0], [0, n]]
    return FiniteGModule(group, 2, rels, [identity(2), [[0, 1], [1, 0]]])


def twisted(module):
    """The same abelian group with sigma acting as -sigma: a twist by the
    sign character, which swaps the + and - parts."""
    minus = [[-c for c in row] for row in module.action[1]]
    return FiniteGModule(
        module.group, module.ngens, module.relations, [module.action[0], minus]
    )


def generator_decision(left, right):
    """The cyclic-generator decision the eigenspace certificate replaced.

    Equal orders and invariants, then exhibited generators over Z[G] (an
    exhaustive search) whose annihilator lattices agree.  None when neither
    module is cyclic, where this route cannot decide.
    """
    if left.order() != right.order() or left.invariants() != right.invariants():
        return "not-isomorphic"
    if left.order() == 1:
        return "isomorphic"
    gl, gr = left.find_generator(), right.find_generator()
    if (gl is None) != (gr is None):
        return "not-isomorphic"
    if gl is None:
        return None
    same = left.annihilator_lattice(gl) == right.annihilator_lattice(gr)
    return "isomorphic" if same else "not-isomorphic"


def test_module_basics():
    M = trivial_action_module(G5, [6])
    assert M.order() == 6
    assert M.invariants() == [6]
    assert M.exponent() == 6
    g = M.gen(0)
    assert M.element_order(g) == 6
    assert M.is_zero(M.scale(6, g))
    assert M.add(g, M.neg(g)) == M.zero()
    assert M.act(0, g) == g
    assert len(M.elements()) == 6


def test_sylow_components():
    M = trivial_action_module(G5, [6])
    assert M.sylow(2).order() == 2
    assert M.sylow(3).order() == 3
    assert M.sylow(5).order() == 1
    assert M.sylow(2).invariants() == [2]


def test_swap_module_cyclic_and_annihilators():
    M = swap_module(G5, 5)
    assert M.order() == 25
    assert M.invariants() == [5, 5]
    v = M.find_generator()
    assert v is not None
    assert M.annihilator_lattice(v) == [[5, 0], [0, 5]]
    assert M.module_annihilator() == [[5, 0], [0, 5]]
    ok, witness = M.annihilated_by([5, 0])
    assert ok and witness is None
    ok, witness = M.annihilated_by([1, 1])
    assert not ok and witness is not None


def test_trivial_action_square_not_cyclic():
    M = trivial_action_module(G5, [5, 5])
    assert M.find_generator() is None
    cert = isomorphism_certificate(swap_module(G5, 5), M)
    assert cert["status"] == "not-isomorphic"
    assert cert["reason"] == "eigenspace invariants differ"
    assert cert["eigenspace_invariants"] == [
        {"+": [5], "-": [5]},
        {"+": [5, 5], "-": []},
    ]


def test_submodule_and_quotient():
    M = swap_module(G5, 5)
    sub, _ = M.submodule([(1, 1)])
    assert sub.order() == 5
    assert sub.invariants() == [5]
    quo = M.quotient([(1, 1)])
    assert quo.order() == 5
    assert sub.order() * quo.order() == M.order()
    assert M.contains((2, 2), [(1, 1)])
    assert not M.contains((1, 0), [(1, 1)])


def test_certificate_trivial_and_inconclusive():
    T = trivial_action_module(G5, [1])
    cert = isomorphism_certificate(T, trivial_action_module(G5, [1]))
    assert cert["status"] == "isomorphic" and cert["order"] == 1
    A = trivial_action_module(G5, [3, 3])
    # neither side is cyclic over Z[G], which the eigenspaces decide anyway
    cert = isomorphism_certificate(A, trivial_action_module(G5, [3, 3]))
    assert cert["status"] == "isomorphic"
    assert cert["eigenspace_invariants"] == {"+": [3, 3], "-": []}
    cert = isomorphism_certificate(A, trivial_action_module(G5, [9]))
    assert cert["status"] == "not-isomorphic"
    cert = isomorphism_certificate(A, trivial_action_module(G5, [3]))
    assert cert["status"] == "not-isomorphic"


def test_certificate_isomorphic_cyclic_pair():
    A = swap_module(G5, 5)
    B = FiniteGModule(G5, 2, [[5, 0], [0, 5]], [identity(2), [[0, 1], [1, 0]]])
    cert = isomorphism_certificate(A, B)
    assert cert["status"] == "isomorphic"
    assert cert["order"] == 25
    assert cert["invariants"] == [5, 5]
    assert cert["eigenspace_invariants"] == {"+": [5], "-": [5]}
    assert "generators" not in cert and "annihilator_hnf" not in cert


def test_residue_module_split_eleven():
    module, res = residue_galois_module(QuadField(5), G5, 11)
    assert module.order() == 100
    assert module.invariants() == [10, 10]
    syl = module.sylow(5)
    assert syl.order() == 25
    target = residue_structure_target(G5, 11, 5)
    assert target.order() == 25
    cert = isomorphism_certificate(syl, target)
    assert cert["status"] == "isomorphic"
    assert cert["order"] == 25


def test_residue_module_inert_two():
    module, res = residue_galois_module(QuadField(5), G5, 2)
    assert module.order() == 3
    # conjugation acts as the nontrivial Frobenius of the 4-element field
    assert any(module.act(1, module.gen(i)) != module.gen(i)
               for i in range(module.ngens))
    target = residue_structure_target(G5, 2, 3)
    assert target.order() == 3
    cert = isomorphism_certificate(module.sylow(3), target)
    assert cert["status"] == "isomorphic"


def test_residue_module_at_p_split():
    module, _ = residue_galois_module(QuadField(13), G13, 3)
    target = residue_structure_target(G13, 3, 3, e=1)
    cert = isomorphism_certificate(module.sylow(3), target)
    assert cert["status"] == "isomorphic"
    assert cert["order"] == 1

    module9, _ = residue_galois_module(QuadField(13), G13, 9)
    assert module9.order() == 36
    syl = module9.sylow(3)
    assert syl.invariants() == [3, 3]
    target9 = residue_structure_target(G13, 3, 3, e=2)
    assert target9.order() == 9
    cert = isomorphism_certificate(syl, target9)
    assert cert["status"] == "isomorphic"


def test_residue_target_trivial_cases():
    # split prime whose p-part of ell^f - 1 vanishes
    assert residue_structure_target(G5, 19, 7).order() == 1
    # ramified prime, p-part trivial
    module, _ = residue_galois_module(QuadField(5), G5, 5)
    target = residue_structure_target(G5, 5, 3)
    cert = isomorphism_certificate(module.sylow(3), target)
    assert cert["status"] == "isomorphic"
    assert cert["order"] == 1


def test_residue_module_mismatch_detected():
    module, _ = residue_galois_module(QuadField(5), G5, 11)
    syl = module.sylow(5)
    wrong = trivial_action_module(G5, [5, 5])
    cert = isomorphism_certificate(syl, wrong)
    assert cert["status"] == "not-isomorphic"


def test_certificate_contract():
    A = swap_module(G5, 5)
    with pytest.raises(ValueError, match="one group"):
        isomorphism_certificate(A, swap_module(G13, 5))
    with pytest.raises(ValueError, match="odd-order"):
        isomorphism_certificate(trivial_action_module(G5, [2]), A)
    with pytest.raises(ValueError, match="odd-order"):
        isomorphism_certificate(A, trivial_action_module(G5, [5, 10]))
    G7 = GaloisGroup(FieldSpec(7, (1, 6)))
    assert G7.order == 3
    C = trivial_action_module(G7, [3])
    with pytest.raises(ValueError, match="order 2"):
        isomorphism_certificate(C, C)
    # sigma = 2 on Z/5 is no involution: both quotients vanish
    bad = FiniteGModule(G5, 1, [[5]], [identity(1), [[2]]])
    with pytest.raises(ArithmeticError, match="eigenspace orders"):
        isomorphism_certificate(bad, trivial_action_module(G5, [5]))


def test_certificate_twist_swaps_eigenspaces():
    A = FiniteGModule(G5, 1, [[9]], [identity(1), [[-1]]])
    cert = isomorphism_certificate(A, twisted(A))
    assert cert["status"] == "not-isomorphic"
    assert cert["eigenspace_invariants"] == [{"+": [], "-": [9]}, {"+": [9], "-": []}]
    free = swap_module(G5, 9)
    assert isomorphism_certificate(free, twisted(free))["status"] == "isomorphic"


def _grid_points(seed):
    """Seeded (D, ell, p, e) draws: e = 1 with ell < 330, and prime powers
    ell^e <= 10^4 with ell <= 13."""
    rng = random.Random(seed)
    discs = [fundamental_discriminant(r) for r in (2, 3, 5, 6, 7, 13, 17, 21, 79)]
    primes = [q for q in range(2, 330) if is_prime(q)]
    e1 = [(D, ell, p, 1) for D in discs for ell in primes for p in (3, 5, 7)]
    powers = [
        (D, ell, p, e)
        for D in discs
        for ell in (2, 3, 5, 7, 11, 13)
        for p in (3, 5, 7)
        for e in range(2, 14)
        if ell**e <= 10**4
    ]
    return rng.sample(e1, 400) + rng.sample(powers, 150)


def test_certificate_matches_generator_decision_on_residue_grid():
    """The eigenspace verdict equals the cyclic-generator verdict on every
    Sylow part the exhaustive search can reach, against the predicted
    structure and against its twist by the sign character."""
    verdicts = {}
    for D, ell, p, e in _grid_points(2024):
        group = GaloisGroup(FieldSpec.quadratic(D))
        if ell == p and D % p == 0:
            continue  # the predicted structure needs ell = p unramified
        target = residue_structure_target(group, ell, p, e)
        syl = residue_galois_module(QuadField(D), group, ell**e)[0].sylow(p)
        if syl.order() > 20_000:
            continue  # keeps the oracle's exhaustive search short
        for right in (target, twisted(target)):
            got = isomorphism_certificate(syl, right)["status"]
            assert got == generator_decision(syl, right), (D, ell, p, e)
            verdicts[got] = verdicts.get(got, 0) + 1
    assert verdicts["isomorphic"] > 800 and verdicts["not-isomorphic"] > 100, verdicts


def test_lift_coefficients_mod():
    theta = GroupRingElement(G5, [Fraction(1, 2), Fraction(-1, 2)])
    assert lift_coefficients_mod(theta, 3) == [2, 1]
    assert lift_coefficients_mod(theta, 27) == [14, 13]
    with pytest.raises(ValueError):
        lift_coefficients_mod(theta, 4)


def test_ray_class_trivial_modulus():
    ray = RayClassGroup(QuadField(5), G5, 1)
    assert ray.module.order() == 1


def test_ray_class_five_mod_eleven():
    ray = RayClassGroup(QuadField(5), G5, 11)
    assert ray.module.order() == 5
    assert ray.module.invariants() == [5]
    for i in range(ray.module.ngens):
        g = ray.module.gen(i)
        assert ray.module.act(1, g) == g  # conjugation acts trivially


def test_ray_class_79():
    field = QuadField(316)
    ray1 = RayClassGroup(field, G316, 1)
    assert ray1.module.order() == 3
    g = ray1.module.find_generator()
    assert g is not None
    assert ray1.module.act(1, g) == ray1.module.neg(g)  # inversion
    ray4 = RayClassGroup(field, G316, 4)
    assert ray4.module.order() == 6


def test_artin_consistency_79_trivial_modulus():
    field = QuadField(316)
    ray = RayClassGroup(field, G316, 1)
    for a, b in [(3, 1), (5, 1), (2, 1), (10, 1), (6, 1)]:
        z = field.from_omega_coords(a, b)
        got = ray.prime_class_of_norm_factorization(z)
        assert got == ray.principal_vector(z) == ray.module.zero()


def test_artin_consistency_79_mod_four():
    field = QuadField(316)
    ray = RayClassGroup(field, G316, 4)
    for a, b in [(2, 1), (6, 1), (10, 1), (4, 3)]:
        z = field.from_omega_coords(a, b)
        nrm = abs(int(z.norm()))
        assert nrm % 2 == 1
        assert ray.prime_class_of_norm_factorization(z) == ray.principal_vector(z)


def test_artin_consistency_5_mod_eleven():
    field = QuadField(5)
    ray = RayClassGroup(field, G5, 11)
    # e > 1: (z) has negative valuations at the primes over 2, 3 and 19
    for a, b, e in [
        (4, 1, 1), (5, 1, 1), (1, 3, 1), (7, 0, 1), (2, 3, 1), (4, 1, 6), (2, 3, 19)
    ]:
        z = field.from_omega_coords(a, b) / e
        if z.norm().numerator % 11 == 0:
            continue
        assert ray.prime_class_of_norm_factorization(z) == ray.principal_vector(z)


def test_connecting_is_homomorphic():
    field = QuadField(5)
    ray = RayClassGroup(field, G5, 11)
    res = ray.residue
    units = sorted(res.structure()[2])[:8]
    for u in units:
        for v in units[:3]:
            assert ray.connecting(res.mul(u, v)) == ray.module.add(
                ray.connecting(u), ray.connecting(v)
            )


def test_rho_component_lift_independence():
    ray = RayClassGroup(QuadField(316), G316, 1)
    syl = ray.module.sylow(3)
    rho = GroupRingElement(G316, [Fraction(1, 2), Fraction(-1, 2)])
    orders = []
    for modulus in (3, 27, 3**5):
        sub, _ = syl.rho_component(lift_coefficients_mod(rho, modulus))
        orders.append(sub.order())
    assert orders == [3, 3, 3]


def test_rho_plus_trivial_reconstruction():
    cases = [
        (QuadField(5), G5, 11, 5),
        (QuadField(316), G316, 1, 3),
        (QuadField(316), G316, 4, 3),
    ]
    for field, group, modulus, p in cases:
        ray = RayClassGroup(field, group, modulus)
        syl = ray.module.sylow(p)
        e1 = GroupRingElement(group, [Fraction(1, 2), Fraction(1, 2)])
        rho = GroupRingElement(group, [Fraction(1, 2), Fraction(-1, 2)])
        k = 3 * syl.exponent()
        sub1, _ = syl.rho_component(lift_coefficients_mod(e1, p * k))
        subr, _ = syl.rho_component(lift_coefficients_mod(rho, p * k))
        assert sub1.order() * subr.order() == syl.order()


def _projector_image(syl):
    """e_rho Syl as the image of (1 - sigma)/2 lifted modulo the exponent:
    the route the sign-part quotient replaced, kept as its oracle."""
    rho = GroupRingElement(syl.group, [Fraction(1, 2), Fraction(-1, 2)])
    return syl.rho_component(lift_coefficients_mod(rho, syl.exponent()))[0]


def test_sign_part_matches_the_projector_image_on_a_grid():
    """M / (1 + sigma)M of a Sylow part is its rho-part: same order,
    invariants and exponent as the projector image, and the same
    annihilation verdicts, on ray class and unit quotient modules."""
    from rayverify.checks import unit_quotient_module
    from rayverify.units import congruence_circular_lattice, congruence_unit_lattice

    rng = random.Random(2025)
    verdicts = {True: 0, False: 0}
    nontrivial = 0
    for D in (5, 12, 229, 316, 328):
        field, group = QuadField(D), GaloisGroup(FieldSpec.quadratic(D))
        for d in sorted(rng.sample(range(1, 31), 10)):
            unit = unit_quotient_module(
                field, group,
                congruence_unit_lattice(field, d),
                congruence_circular_lattice(field, d),
            )
            for module in (RayClassGroup(field, group, d).module, unit):
                for p in (3, 5, 7):
                    syl = module.sylow(p)
                    if syl.order() == 1:
                        continue
                    got, want = syl.sign_part(-1), _projector_image(syl)
                    assert got.order() == want.order(), (D, d, p)
                    assert got.invariants() == want.invariants(), (D, d, p)
                    assert got.exponent() == want.exponent(), (D, d, p)
                    if got.order() == 1:
                        continue
                    nontrivial += 1
                    e = got.exponent()
                    pairs = [[1, 1], [1, -1]] + [
                        [rng.randrange(e), rng.randrange(e)] for _ in range(4)
                    ]
                    for coeffs in pairs:
                        verdict = got.annihilated_by(coeffs)[0]
                        assert verdict == want.annihilated_by(coeffs)[0], (D, d, p)
                        verdicts[verdict] += 1
    assert nontrivial >= 20 and min(verdicts.values()) >= 20, (nontrivial, verdicts)


def test_sign_part_needs_a_group_of_order_two():
    G7 = GaloisGroup(FieldSpec(7, (1, 6)))  # the real cubic field of conductor 7
    with pytest.raises(ValueError, match="order 2"):
        trivial_action_module(G7, [3]).sign_part(-1)
    plus = swap_module(G5, 5).sign_part(1)
    assert plus.invariants() == [5] and plus.annihilated_by([1, -1])[0]


@pytest.mark.parametrize("D", [5, 8, 40, 65, 85, 257, 316, 328, 377])
def test_prime_witness_identity(D):
    """(z) = P * prod(base^vec) for every split or ramified P over q < 300,
    checked by the norm and by the valuations at P, its conjugate and the
    base primes; base generators give z = 1 and vec = -e_P."""
    field = QuadField(D)
    gens = field.class_group().gens
    for q in filter(is_prime, range(2, 300)):
        roots = field.prime_roots(q) if field.chi(q) != -1 else []
        for r in roots:
            vec, z = _prime_smooth_vector(field, q, r)
            if (q, r) in gens:
                assert z == 1 and vec == [-int(g == (q, r)) for g in gens]
                continue
            assert z.is_integral() and min(vec, default=0) >= 0
            norm = q * math.prod(p**k for (p, _), k in zip(gens, vec))
            assert abs(z.norm()) == norm
            assert [field.prime_valuation(z, p, rp) for p, rp in gens] == vec
            assert field.prime_valuation(z, q, r) == 1
            for other in roots:
                if other != r:
                    assert field.prime_valuation(z, q, other) == 0


@pytest.mark.parametrize("D", [40, 65])
def test_artin_consistency_mod_seven(D):
    field = QuadField(D)
    ray = RayClassGroup(field, GaloisGroup(FieldSpec.quadratic(D)), 7)
    checked = 0
    for b in range(1, 5):
        for a in range(-6, 7):
            z = field.from_omega_coords(a, b)
            if int(z.norm()) % 7:
                got = ray.prime_class_of_norm_factorization(z)
                assert got == ray.principal_vector(z), (a, b)
                checked += 1
    assert checked >= 30


def test_class_relations_at_most_one_per_class_prime():
    for D, modulus in [(40, 1), (40, 7), (65, 3), (316, 4), (328, 5), (1272, 1)]:
        field = QuadField(D)
        ray = RayClassGroup(field, GaloisGroup(FieldSpec.quadratic(D)), modulus)
        assert len(ray.class_relations) <= len(ray.class_primes)
        assert field.class_group().order == 1 or ray.class_primes


def test_trivial_modulus_builds_no_generator(monkeypatch):
    """At M = 1, O/(M) has no unit generators, so the digits of a relation's
    generator are [] and the generator itself is never built."""
    from rayverify.quadratic import ClassGroup

    field = QuadField(3084)
    cl = field.class_group()

    def refuse(self, vec):
        raise AssertionError("principalize called at M = 1")

    monkeypatch.setattr(ClassGroup, "principalize", refuse)
    ray = RayClassGroup(field, GaloisGroup(FieldSpec.quadratic(3084)), 1)
    assert ray.res_gens == [] and ray.class_relations
    assert ray.module.order() == cl.order
    assert sorted(ray.module.invariants()) == sorted(cl.invariants)
    q, r = ray.class_primes[0][:2]
    assert ray.prime_class(q, r) == ray.module.gen(0)


def test_kept_class_primes_match_a_fresh_choice(monkeypatch):
    """The class primes a modulus reuses from an earlier modulus of the same
    field are the ones it would choose itself, witnesses included."""
    from rayverify import gmodules

    kept = {}
    walks = 0
    for D in (65, 316, 328, 145, 1272):
        field = QuadField(D)
        group = GaloisGroup(FieldSpec.quadratic(D))
        # downwards, so that choices which skipped a class prime come first
        for modulus in range(30, 0, -1):
            monkeypatch.setattr(gmodules, "_class_prime_choices", kept)
            got = RayClassGroup(field, group, modulus).class_primes
            monkeypatch.setattr(gmodules, "_class_prime_choices", {})
            fresh = RayClassGroup(field, group, modulus).class_primes
            assert [(q, r, v, z.a, z.b, z.e) for q, r, v, z in got] == [
                (q, r, v, z.a, z.b, z.e) for q, r, v, z in fresh
            ], (D, modulus)
        walks += len(kept[D])
    assert set(kept) == {65, 316, 328, 145, 1272}
    # one walk per set of skipped class primes: 150 moduli, 12 walks
    assert walks == 3 + 3 + 2 + 3 + 1, walks


def test_mod_is_the_quotient_by_multiples():
    M = trivial_action_module(G5, [4, 6])
    assert M.mod(2).invariants() == [2, 2]
    assert M.mod(3).invariants() == [3]
    assert M.mod(1).order() == 1
    assert M.sylow(2)._hnf == M.mod(4)._hnf
