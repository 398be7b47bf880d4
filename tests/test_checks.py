import json
import math
import random
import time

import pytest

from rayverify import checks, gmodules, grouprings, padics
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
from rayverify.grouprings import GaloisGroup, GroupRingElement, one_element, unit_log_factor
from rayverify.harness import resolve_discriminant, run_rays
from rayverify.nt import fundamental_discriminant, is_prime, squarefree_part
from rayverify.quadratic import QuadField
from rayverify.padics import splitting_degree
from rayverify.units import (
    congruence_circular_lattice,
    congruence_unit_lattice,
    cyclotomic_number,
)

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


def _admissible_by_odd_scan(field, n_exp, levels, modulus, count):
    # the route thaine_admissible_primes once took: every odd q
    out, q = [], 3
    while len(out) < count:
        if (
            is_prime(q)
            and field.chi(q) == 1
            and (q - 1) % n_exp == 0
            and modulus % q != 0
            and all(lvl % q != 0 for lvl in levels)
        ):
            out.append(q)
        q += 2
    return out


@pytest.mark.parametrize("n_exp", [1, 2, 3, 5, 7, 101])
def test_thaine_admissible_primes_match_the_odd_scan(n_exp):
    for field, levels, modulus in [
        (K5, [5], 1), (K316, [4, 79, 316], 1), (K316, [316], 13), (QuadField(13), [13], 7),
    ]:
        expected = _admissible_by_odd_scan(field, n_exp, levels, modulus, 5)
        assert thaine_admissible_primes(field, n_exp, levels, modulus, 5) == expected


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
        gmodules, "isomorphism_certificate", lambda a, b: {"status": "not-isomorphic"}
    )
    assert check_rays(5, 2, 3)[0].status == "falsifies-paper"
    # a status the certificate never gives must not turn into a verdict
    monkeypatch.setattr(
        gmodules, "isomorphism_certificate", lambda a, b: {"status": "inconclusive"}
    )
    with pytest.raises(ArithmeticError):
        check_rays(5, 2, 3)


@pytest.mark.parametrize(
    "quad, ell, p, modulus, order",
    [(12, 7, 7, 2401, 7**6), (5, 3, 3, 6561, 3**14)],
)
def test_rays_decides_large_prime_power_sylow_parts(quad, ell, p, modulus, order):
    """Sylow parts of order 7^6 and 3^14, far beyond an exhaustive search
    over elements, are decided on the eigenspaces in under a second."""
    t0 = time.perf_counter()
    report = run_rays(resolve_discriminant(quad, None), ell=ell, p=p, modulus=modulus)
    elapsed = time.perf_counter() - t0
    (check,) = report["checks"]
    assert check["status"] == "pass"
    cert = check["witness"]["certificate"]
    assert cert["status"] == "isomorphic" and cert["order"] == order
    plus, minus = cert["eigenspace_invariants"]["+"], cert["eigenspace_invariants"]["-"]
    assert math.prod(plus) * math.prod(minus) == order
    assert elapsed < 1.0


def test_gras_scan_builds_the_unit_side_once_per_modulus(monkeypatch):
    from rayverify import units

    moduli = []
    lattice = units.congruence_unit_lattice

    def counted(field, d):
        moduli.append(d)
        return lattice(field, d)

    monkeypatch.setattr(units, "congruence_unit_lattice", counted)
    results = check_gras_scan(316, (3, 5, 7), 12)
    assert moduli == list(range(1, 13))
    assert results and all(r.status == "pass" for r in results)


def test_gras_elapsed_covers_the_ray_class_group_build(monkeypatch):
    build = gmodules.RayClassGroup

    def slow(*args):
        time.sleep(0.05)
        return build(*args)

    monkeypatch.setattr(gmodules, "RayClassGroup", slow)
    (record,) = check_gras(5, 3, 1)
    assert record.status == "pass" and record.elapsed >= 0.05


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


# ---------------------------------------------------------------- sinnott in k_p


def _sinnott_sweep():
    """(D, p): fundamental D of radicand below 120, p in {3, 5} prime to D."""
    discs = sorted(
        {fundamental_discriminant(r) for r in range(2, 120) if squarefree_part(r) == r}
    )
    return [(D, p) for D in discs for p in (3, 5) if D % p]


def _record_ring_degrees(monkeypatch):
    degrees = []
    init = padics.PadicRing.__init__

    def recording(self, p, prec, f=1):
        degrees.append(f)
        init(self, p, prec, f)

    monkeypatch.setattr(padics.PadicRing, "__init__", recording)
    return degrees


def test_sinnott_sweep_slice_passes(monkeypatch):
    sweep = _sinnott_sweep()
    assert len(sweep) == 116
    pairs = [(17, 5)] + random.Random(1802).sample(sweep, 12)
    # f = ord_D(p) > 6: these stopped with "residue field too large to scan"
    assert sum(splitting_degree(p, D) > 6 for D, p in pairs) >= 6
    degrees = _record_ring_degrees(monkeypatch)
    for D, p in pairs:
        t0 = time.perf_counter()
        results = check_sinnott(D, p, prec=8, d_max=3)
        assert results and all(r.status == "pass" for r in results), (D, p)
        assert time.perf_counter() - t0 < 5, (D, p)
    assert degrees and max(degrees) <= 2


@pytest.mark.parametrize("D, p", [(5, 7), (12, 5), (56, 5), (73, 5), (120, 7)])
def test_sinnott_builds_no_ring_of_degree_above_two(D, p, monkeypatch):
    degrees = _record_ring_degrees(monkeypatch)
    results = check_sinnott(D, p, prec=12, d_max=6)
    assert degrees == [1 if QuadField(D).chi(p) == 1 else 2]
    assert {r.witness["embedding"] for r in results} == {
        "hensel" if degrees == [1] else "hensel-inert"
    }


def test_sinnott_runs_no_group_ring_product(monkeypatch):
    # the log factors are built from their trivial and chi_D values alone
    def product(*args):
        raise AssertionError("group-ring product")

    monkeypatch.setattr(GroupRingElement, "__mul__", product)
    monkeypatch.setattr(GroupRingElement, "__rmul__", product)
    results = check_sinnott(120, 7, 40, 12)
    assert len(results) == 141 and all(r.status == "pass" for r in results)


@pytest.mark.parametrize("D, p", [(5, 7), (12, 5), (13, 3), (56, 5), (120, 7)])
def test_sinnott_fails_every_record_with_content_when_r_is_off_by_one(D, p, monkeypatch):
    base = check_sinnott(D, p, prec=12, d_max=6)
    content = [r.name for r in base if r.witness["content"]]
    assert content

    def shifted(group, n, d):  # c_1 + 1, so r + 1
        return unit_log_factor(group, n, d) + one_element(group)

    monkeypatch.setattr(grouprings, "unit_log_factor", shifted)
    status = {r.name: r.status for r in check_sinnott(D, p, prec=12, d_max=6)}
    assert all(status[name] == "fail" for name in content)


@pytest.mark.parametrize("D, p", [(5, 7), (12, 5), (56, 5)])
def test_sinnott_valuations_do_not_depend_on_the_embedding(D, p, monkeypatch):
    # sqrt(D) -> -sqrt(D) flips the sign of both sides
    base = check_sinnott(D, p, prec=12, d_max=6)
    sqrt_disc = padics.PadicRing.sqrt_disc
    monkeypatch.setattr(
        padics.PadicRing, "sqrt_disc", lambda ring, D, style: -sqrt_disc(ring, D, style)
    )
    flipped = check_sinnott(D, p, prec=12, d_max=6)
    assert [r.witness["difference_valuations"] for r in flipped] == [
        r.witness["difference_valuations"] for r in base
    ]


@pytest.mark.parametrize(
    "D, p, d_max, empty, total", [(5, 7, 6, 1, 7), (56, 5, 12, 55, 67), (120, 7, 12, 129, 141)]
)
def test_sinnott_marks_records_without_content(D, p, d_max, empty, total):
    field, group = QuadField(D), GaloisGroup(FieldSpec.quadratic(D))
    results = check_sinnott(D, p, prec=12, d_max=d_max)
    assert len(results) == total
    assert sum(not r.witness["content"] for r in results) == empty
    for r in results:
        n, d = r.witness["level"], r.witness["twist"]
        c = unit_log_factor(group, n, d).coeffs
        delta = cyclotomic_number(field, n, d)
        both_zero = c[0] == c[1] and (delta.x == 0 or delta.y == 0)
        assert r.witness["content"] == (not both_zero) == (n % D == 0)
        assert r.status == "pass"


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
        lambda: check_rays(5, 11, 5, 0),
        # even p raises whether the 2-part is nontrivial or trivial
        lambda: _rho_part(RayClassGroup(K316, G316, 3).module, 2),
        lambda: _rho_part(RayClassGroup(K5, G5, 1).module, 2),
    ):
        with pytest.raises(ValueError):
            call()


def test_unit_quotient_module_invariants_raise_arithmetic_error():
    with pytest.raises(ArithmeticError, match="not a sublattice"):
        unit_quotient_module(K5, G5, [[2, 0], [0, 1]], [[1, 0], [0, 1]])
    # conjugation sends eps to -1/eps on Q(sqrt 5): (1, 0) -> (-1, 1)
    with pytest.raises(ArithmeticError, match="stable under conjugation"):
        unit_quotient_module(K5, G5, [[1, 0], [0, 2]], [[2, 0], [0, 2]])
