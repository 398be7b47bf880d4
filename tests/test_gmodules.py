"""Tests for finite Galois modules and ray class groups."""

import ast
import math
from fractions import Fraction
from pathlib import Path

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
from rayverify.nt import is_prime
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
    assert "cyclic" in cert["reason"]


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
    cert = isomorphism_certificate(A, trivial_action_module(G5, [3, 3]))
    assert cert["status"] == "inconclusive"
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
    assert cert["annihilator_hnf"] == [[5, 0], [0, 5]]


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
    for a, b in [(4, 1), (5, 1), (1, 3), (7, 0), (2, 3)]:
        z = field.from_omega_coords(a, b)
        nrm = abs(int(z.norm()))
        if nrm % 11 == 0:
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


def test_mod_is_the_quotient_by_multiples():
    M = trivial_action_module(G5, [4, 6])
    assert M.mod(2).invariants() == [2, 2]
    assert M.mod(3).invariants() == [3]
    assert M.mod(1).order() == 1
    assert M.sylow(2).relations == M.mod(4).relations


def test_gmodules_module_has_no_assert():
    """Checks must survive python -O."""
    import rayverify.gmodules as mod

    tree = ast.parse(Path(mod.__file__).read_text())
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
