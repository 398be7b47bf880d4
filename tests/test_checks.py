import ast
import json
from pathlib import Path

import pytest

from rayverify import checks
from rayverify.checks import (
    CheckResult,
    check_cyclic,
    check_gras,
    check_gras_scan,
    check_rays,
    check_sinnott,
    check_solomon,
    explore_conjecture,
    ray_power_subgroup_orders,
    thaine_admissible_primes,
    unit_quotient_module,
    _rho_part,
)
from rayverify.cyclo import FieldSpec
from rayverify.gmodules import RayClassGroup, residue_galois_module
from rayverify.grouprings import GaloisGroup
from rayverify.nt import fundamental_discriminant, squarefree_part
from rayverify.quadratic import QuadField
from rayverify.units import congruence_circular_lattice, congruence_unit_lattice

K5 = QuadField(5)
G5 = GaloisGroup(FieldSpec.quadratic(5))
K316 = QuadField(316)
G316 = GaloisGroup(FieldSpec.quadratic(316))


def test_unit_quotient_module_negative_norm_unit():
    # units congruent to 1 mod 4 over the circular ones, fundamental unit of
    # norm -1: index two, trivial conjugation on the quotient
    U = unit_quotient_module(
        K5, G5, congruence_unit_lattice(K5, 4), congruence_circular_lattice(K5, 4)
    )
    assert U.order() == 2
    assert U.invariants() == [2]
    g = U.reduce(U.gen(0))
    assert U.act(1, g) == g


def test_unit_quotient_module_positive_norm_unit():
    # full units over circular units for discriminant 316: the quotient has
    # order h = 3 and conjugation inverts it
    U = unit_quotient_module(
        K316,
        G316,
        congruence_unit_lattice(K316, 1),
        congruence_circular_lattice(K316, 1),
    )
    assert U.order() == 3
    g = U.reduce(U.gen(0))
    assert not U.is_zero(g)
    assert U.is_zero(U.add(U.act(1, g), g))
    assert _rho_part(U, 3)[0] == 3


def test_rho_part_of_swap_module():
    # (O/11)^* for discriminant 5: Sylow-5 is two swapped copies of Z/5, so
    # the non-trivial-character component has order 5
    module, _ = residue_galois_module(K5, G5, 11)
    order, syl, rho = _rho_part(module, 5)
    assert syl.order() == 25
    assert order == 5
    assert rho.exponent() == 5


def test_rho_part_trivial_sylow():
    module, _ = residue_galois_module(K5, G5, 4)
    order, syl, rho = _rho_part(module, 5)
    assert order == 1
    assert syl.order() == 1
    assert rho is None


def test_thaine_admissible_prime_scan():
    assert thaine_admissible_primes(K316, 3, [4, 79, 316], 1, 3) == [7, 13, 43]


def test_ray_power_subgroup_grows_to_sylow():
    rcg = RayClassGroup(K316, G316, 1)
    orders = ray_power_subgroup_orders(rcg, 3, 1, 10)
    assert len(orders) == 10
    assert orders == sorted(orders)
    assert orders[-1] == 3


def test_explore_trivial_rho_side():
    # modulus 19 for discriminant 5: Sylow-3 of the ray class group has
    # order 9 but lives entirely in the trivial character component
    r = explore_conjecture(5, 3, 19)[0]
    assert r.status == "pass"
    assert r.witness["ray_sylow_order"] == 9
    assert r.witness["ray_rho_exponent"] == 1
    assert r.witness["unit_rho_order"] == 1


def test_check_result_round_trips_to_json():
    r = check_cyclic(5, 7)[0]
    d = r.to_dict()
    assert set(d) == {"name", "anchor", "status", "witness", "elapsed"}
    assert d["anchor"] == "residue-ring-cyclicity"
    assert json.loads(json.dumps(d)) == json.loads(json.dumps(d))


def test_rays_status_classification(monkeypatch):
    monkeypatch.setattr(
        checks, "isomorphism_certificate", lambda a, b: {"status": "not-isomorphic"}
    )
    assert check_rays(5, 2, 3)[0].status == "falsifies-paper"
    monkeypatch.setattr(
        checks, "isomorphism_certificate", lambda a, b: {"status": "inconclusive"}
    )
    assert check_rays(5, 2, 3)[0].status == "inconclusive"


def test_gras_point_witness_shape():
    r = check_gras(316, 3, 1)[0]
    assert r.status == "pass"
    w = r.witness
    assert w["unit_rho_order"] == w["ray_rho_order"] == 3
    assert w["unit_index"] == 3
    assert not w["trivial_character_only"]


def test_solomon_reports_hensel_embedding():
    r = check_solomon(316, 3, prec=8, moduli=(1,))[0]
    assert r.status == "pass"
    assert r.witness["embedding"] == "hensel"
    assert min(r.witness["coefficient_valuations"]) >= 1


def test_gras_field_sweep():
    """Every real quadratic field of radicand below 200 runs the gras point."""
    discs = [fundamental_discriminant(r) for r in range(2, 200) if squarefree_part(r) == r]
    assert len(discs) == 121
    for D in discs:
        assert [r.status for r in check_gras(D, 3, 1)] == ["pass"], D


def test_check_arguments_raise_value_error():
    for call in (
        lambda: check_gras(5, 2, 1),
        lambda: check_gras_scan(5, (3, 4), 2),
        lambda: check_cyclic(5, 2),
        lambda: check_cyclic(5, 5),
        lambda: check_sinnott(5, 4),
        lambda: explore_conjecture(5, 2, 3),
        lambda: checks._rho_projector_coeffs(G5, 4),
        lambda: checks._rho_projector_coeffs(G5, 0),
    ):
        with pytest.raises(ValueError):
            call()


def test_unit_quotient_module_invariants_raise_arithmetic_error():
    with pytest.raises(ArithmeticError, match="not a sublattice"):
        unit_quotient_module(K5, G5, [[2, 0], [0, 1]], [[1, 0], [0, 1]])
    # conjugation sends eps to -1/eps on Q(sqrt 5): (1, 0) -> (-1, 1)
    with pytest.raises(ArithmeticError, match="stable under conjugation"):
        unit_quotient_module(K5, G5, [[1, 0], [0, 2]], [[2, 0], [0, 2]])


def test_checks_module_has_no_assert():
    """Checks must survive python -O."""
    tree = ast.parse(Path(checks.__file__).read_text())
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
