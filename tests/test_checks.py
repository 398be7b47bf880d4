import importlib.util
import json
import math
import random
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from rayverify import checks, checks_annihilators, checks_sinnott, circular, gmodules, padics
from rayverify import rayclass, units
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
from rayverify.gmodules import residue_galois_module
from rayverify.grouprings import GaloisGroup, GroupRingElement, galois_log_quad, unit_log_factor
from rayverify.harness import resolve_discriminant, run_rays
from rayverify.nt import fundamental_discriminant, is_prime, squarefree_part, valuation
from rayverify.quadratic import QuadField, QuadGaloisGroup
from rayverify.padics import splitting_degree
from rayverify.rayclass import RayClassGroup
from rayverify.circular import cyclotomic_number, generating_levels
from rayverify.units import (
    circular_unit_lattice,
    congruence_circular_lattice,
    congruence_unit_lattice,
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
    build = rayclass.RayClassGroup

    def slow(*args):
        time.sleep(0.05)
        return build(*args)

    monkeypatch.setattr(rayclass, "RayClassGroup", slow)
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


# ---------------------------------------------------------------- solomon in integers


def _padic_solomon(D, p, prec=12, moduli=(1, 4), headroom=checks.PRECISION_HEADROOM):
    """The oracle of `check_solomon`: its records from p-adic logs.

    In Q_p at prec + headroom digits, with sqrt(D) Newton-lifted from the
    smaller residue root, theta = log delta + log(sigma delta) sigma for the
    circular unit delta = +-eps^k of each modulus (`galois_log_quad`); its
    coefficients are divided by p and read mod the exponent of the
    rho-part.  One (name, status, witness) per record, in the check's order.
    """
    field = QuadField(D)
    group = QuadGaloisGroup(field)
    ring = padics.PadicRing(p, prec + headroom)
    sqrt_img = ring.sqrt_disc(D, "hensel")
    out = []
    for modulus in moduli:
        lat = circular_unit_lattice(field, modulus)
        k, s = int(lat[0][0]), int(lat[0][1])
        delta = field.fundamental_unit() ** k
        if s % 2:
            delta = -delta
        theta = galois_log_quad(group, ring, delta, sqrt_img)
        vals = [c.valuation() for c in theta.coeffs]
        witness = {
            "discriminant": D, "p": p, "modulus": modulus, "unit_exponent": k,
            "unit_sign": s, "coefficient_valuations": vals, "embedding": "hensel",
        }
        ok = all(v >= 1 for v in vals)
        if ok:
            r_order, r_syl, rho = _rho_part(
                RayClassGroup(field, group, modulus).module, p
            )
            witness["ray_sylow_order"] = r_syl.order()
            witness["ray_rho_order"] = r_order
            if rho is not None:
                e = rho.exponent()
                coeffs = [c.divide_exact(p).lift_int() % e for c in theta.coeffs]
                ok, bad = rho.annihilated_by(coeffs)
                witness["scaled_coefficients_mod_exponent"] = coeffs
            witness["annihilates"] = ok
            if not ok:
                witness["counterexample"] = bad
        out.append((
            "scaled-log-annihilator D=%d p=%d mod=%d" % (D, p, modulus),
            "pass" if ok else "fail",
            witness,
        ))
    return out


def _as_solomon_rows(results):
    return [(r.name, r.status, r.witness) for r in results]


def _solomon_grid():
    """(D, p): fundamental D of radicand below 120, p in {3, 5, 7, 11, 13}
    split in the field."""
    discs = sorted(
        {fundamental_discriminant(r) for r in range(2, 120) if squarefree_part(r) == r}
    )
    return [(D, p) for D in discs for p in (3, 5, 7, 11, 13) if QuadField(D).chi(p) == 1]


def test_solomon_matches_the_padic_oracle_on_a_grid_slice(monkeypatch):
    grid = _solomon_grid()
    assert len(grid) == 154
    # Q(sqrt 79), of the README command, lies outside the grid
    pairs = [(316, 3), (316, 5)] + random.Random(3018).sample(grid, 24)
    cases = [(D, p, prec, moduli) for D, p in pairs for prec in (6, 12)
             for moduli in ((1, 4), (9,))]
    oracle = [_padic_solomon(*case) for case in cases]
    _forbid_padic_rings(monkeypatch)
    digits = []
    for case, rows in zip(cases, oracle):
        assert _as_solomon_rows(check_solomon(*case)) == rows, case
        digits += [w["scaled_coefficients_mod_exponent"] for _, _, w in rows
                   if "scaled_coefficients_mod_exponent" in w]
    # a record that passes has theta / p = 0 on the rho-part, so its
    # digits are 0 whatever the root and sign: the tests below pin those
    assert len(digits) >= 10
    assert all(a == b == 0 for a, b in digits)


@pytest.mark.parametrize(
    "D, p, K",
    [(5, 11, 9), (316, 3, 20), (85, 3, 9), (13, 17, 48), (316, 999953, 14),
     (8, 1000033, 48), (13, 10**12 + 39, 14)],
)
def test_unit_log_is_the_padic_log_at_the_hensel_root(D, p, K):
    # the valuation the solomon and sinnott checks share is that of log_p eps
    # at the Hensel root, and at the other root, where the log is -log eps
    field = QuadField(D)
    ring = padics.PadicRing(p, K)
    eps = field.fundamental_unit()
    root = ring.sqrt_disc(D, "hensel")
    logs = [ring.iwasawa_log(ring.embed_quadratic(eps.x, eps.y, r)).lift_int()
            for r in (root, -root)]
    assert (logs[0] + logs[1]) % p**K == 0
    w = units.log_eps_valuation(field, p, K)
    assert [valuation(x, p) if x else K for x in logs] == [w, w]


@pytest.mark.parametrize("w, status", [(0, "fail"), (1, "pass")])
def test_solomon_decides_at_the_boundary_of_the_inequality(w, status, monkeypatch):
    # Q(sqrt 79) at modulus 1: k = 3 and a rho-part of order 3, so a = 1 and
    # v = 1 + w; a forced w = 0 gives v - 1 = a - 1, and w = 1 gives v - 1 = a
    monkeypatch.setattr(units, "log_eps_valuation", lambda field, p, K: w)
    (r,) = check_solomon(316, 3, 12, (1,))
    wit = r.witness
    assert (wit["unit_exponent"], wit["ray_rho_order"]) == (3, 3)
    assert wit["coefficient_valuations"] == [1 + w, 1 + w]
    assert r.status == status and wit["annihilates"] == (status == "pass")
    if status == "pass":
        assert wit["scaled_coefficients_mod_exponent"] == [0, 0]
        assert "scaled_valuation" not in wit and "rho_exponent" not in wit
    else:
        assert (wit["scaled_valuation"], wit["rho_exponent"]) == (0, 3)
        assert "scaled_coefficients_mod_exponent" not in wit
    assert "counterexample" not in wit


@pytest.mark.parametrize("D, p", [(5, 1000039), (8, 1000033), (13, 999983), (316, 999953)])
@pytest.mark.parametrize("prec", (6, 40))
def test_solomon_matches_the_padic_oracle_near_a_million(D, p, prec, monkeypatch):
    assert is_prime(p) and QuadField(D).chi(p) == 1
    oracle = _padic_solomon(D, p, prec, (1, 4))
    _forbid_padic_rings(monkeypatch)
    assert _as_solomon_rows(check_solomon(D, p, prec, (1, 4))) == oracle


@pytest.mark.parametrize("D, p, modulus", [(988, 3, 9), (988, 3, 27), (109, 3, 81), (316, 3, 27)])
def test_solomon_caps_valuations_at_the_digits_it_carries(D, p, modulus, monkeypatch):
    # v_p(k log eps) is 5 or 6 on these records: with no headroom and
    # prec 3, k log eps = 0 mod p^K for K = 3, and the valuations are K.
    # log eps = 0 mod 3^3 on Q(sqrt 247) but not on Q(sqrt 79), Q(sqrt 109)
    oracle = _padic_solomon(D, p, 3, (modulus,), headroom=0)
    monkeypatch.setattr(checks_annihilators, "PRECISION_HEADROOM", 0)
    rows = _as_solomon_rows(check_solomon(D, p, 3, (modulus,)))
    assert rows == oracle
    assert rows[0][2]["coefficient_valuations"] == [3, 3]


def test_solomon_decides_with_the_exact_valuation_past_its_cap(monkeypatch):
    # at one digit (K = 1) v = 1 + w = 3 on Q(sqrt 79) is reported as 1, and
    # the capped value would give v - 1 = 0 < a = 1; the p-adic oracle at one
    # digit reads theta / p = 0 and passes too
    monkeypatch.setattr(checks_annihilators, "PRECISION_HEADROOM", 0)
    rows = _as_solomon_rows(check_solomon(316, 3, 1, (1, 4)))
    assert rows == _padic_solomon(316, 3, 1, (1, 4), headroom=0)
    assert [w["coefficient_valuations"] for _, _, w in rows] == [[1, 1]] * 2
    assert all(status == "pass" for _, status, _ in rows)


@pytest.mark.parametrize("true_w, status", [(9, "pass"), (5, "pass"), (4, "fail")])
def test_solomon_reads_w_to_the_digits_the_rho_exponent_needs(true_w, status, monkeypatch):
    # a rho-part of exponent 3^5 on Q(sqrt 79) at K = 1 (v_3(k) = 1): w read
    # at K + 1 = 2 digits gives v - 1 = 2, which cannot decide v - 1 >= 5,
    # so w is read again at 7 digits
    reads = []

    def capped(field, p, digits):
        reads.append(digits)
        return min(true_w, digits)

    def wide(module, p):
        order, syl, rho = _rho_part(module, p)
        return order, syl, SimpleNamespace(exponent=lambda: 3**5)

    monkeypatch.setattr(checks_annihilators, "PRECISION_HEADROOM", 0)
    monkeypatch.setattr(checks_annihilators, "_rho_part", wide)
    monkeypatch.setattr(units, "log_eps_valuation", capped)
    (r,) = check_solomon(316, 3, 1, (1,))
    assert reads == [2, 7]
    assert r.status == status and r.witness["coefficient_valuations"] == [1, 1]
    if status == "fail":
        assert (r.witness["scaled_valuation"], r.witness["rho_exponent"]) == (4, 243)


def test_solomon_refuses_p_that_is_not_an_odd_prime():
    # 2 and 9 both split in their fields: chi(2) = 1 for D = 17 and
    # chi(9) = 1 for D = 316, so only the primality check refuses them
    for D, p in ((17, 2), (316, 9)):
        assert QuadField(D).chi(p) == 1
        with pytest.raises(ValueError, match="odd primes only"):
            check_solomon(D, p)
    with pytest.raises(ValueError, match="must split"):
        check_solomon(316, 11)


# ---------------------------------------------------------------- sinnott in k_p


def _sinnott_sweep():
    """(D, p): fundamental D of radicand below 120, p in {3, 5} prime to D."""
    discs = sorted(
        {fundamental_discriminant(r) for r in range(2, 120) if squarefree_part(r) == r}
    )
    return [(D, p) for D in discs for p in (3, 5) if D % p]


def _padic_sinnott(D, p, prec=12, d_max=6, shift=0):
    """The oracle of `check_sinnott`: its identity measured by p-adic logs.

    In k_p (Q_p for split p, Q_{p^2} for inert p) at prec + 8 digits, with
    sqrt(D) lifted from a residue root, x = (log delta - log sigma delta)
    - (r + shift) L' for L' = log u_D - log sigma u_D and r the chi_D value
    of `unit_log_factor`.  One (name, status, difference_valuations,
    embedding) per record, in the check's order.
    """
    field = QuadField(D)
    group = QuadGaloisGroup(field)
    split = field.chi(p) == 1
    ring = padics.PadicRing(p, prec + checks.PRECISION_HEADROOM, 1 if split else 2)
    sqrt_img = ring.sqrt_disc(D, "hensel")
    log_u = galois_log_quad(group, ring, cyclotomic_number(field, D), sqrt_img).coeffs
    lvalue = log_u[0] - log_u[1]
    out = []
    for d in range(1, d_max + 1):
        for n in generating_levels(field, d):
            delta = cyclotomic_number(field, n, d)
            log_delta = galois_log_quad(group, ring, delta, sqrt_img).coeffs
            c = unit_log_factor(group, n, d).coeffs
            v = (log_delta[0] - log_delta[1] - lvalue * (c[0] - c[1] + shift)).valuation()
            out.append((
                "twisted-log-identity D=%d p=%d n=%d d=%d" % (D, p, n, d),
                "pass" if v >= prec else "fail",
                [v, v],
                "hensel" if split else "hensel-inert",
            ))
    return out


def _as_oracle_rows(results):
    return [
        (r.name, r.status, r.witness["difference_valuations"], r.witness["embedding"])
        for r in results
    ]


def _record_ring_degrees(monkeypatch):
    degrees = []
    init = padics.PadicRing.__init__

    def recording(self, p, prec, f=1):
        degrees.append(f)
        init(self, p, prec, f)

    monkeypatch.setattr(padics.PadicRing, "__init__", recording)
    return degrees


def _forbid_padic_rings(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("verify sinnott built a PadicRing")

    monkeypatch.setattr(padics.PadicRing, "__init__", refuse)


def test_sinnott_sweep_slice_passes(monkeypatch):
    sweep = _sinnott_sweep()
    assert len(sweep) == 116
    pairs = [(17, 5)] + random.Random(1802).sample(sweep, 12)
    # f = ord_D(p) > 6: these stopped with "residue field too large to scan"
    assert sum(splitting_degree(p, D) > 6 for D, p in pairs) >= 6
    degrees = _record_ring_degrees(monkeypatch)
    oracle = {(D, p): _padic_sinnott(D, p, prec=8, d_max=3) for D, p in pairs}
    assert degrees and max(degrees) <= 2
    _forbid_padic_rings(monkeypatch)
    for D, p in pairs:
        t0 = time.perf_counter()
        results = check_sinnott(D, p, prec=8, d_max=3)
        assert results and all(r.status == "pass" for r in results), (D, p)
        assert time.perf_counter() - t0 < 5, (D, p)
        assert _as_oracle_rows(results) == oracle[D, p], (D, p)


def _sinnott_pool():
    """The (D, p) pool of the padic-sinnott benchmark workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SINNOTT_POOL


_SINNOTT_POOL = _sinnott_pool()


@pytest.mark.parametrize(
    "D, p, prec, d_max",
    [(D, p, 12, 6) for D, p in _SINNOTT_POOL]
    + [(D, p, 40, 12) for D, p in _SINNOTT_POOL]
    + [(12, 5, 12, 6), (56, 3, 12, 6), (9001, 3, 12, 1)],
)
def test_sinnott_matches_the_padic_oracle(D, p, prec, d_max, monkeypatch):
    assert len(_SINNOTT_POOL) == 15
    oracle = _padic_sinnott(D, p, prec, d_max)
    _forbid_padic_rings(monkeypatch)
    assert _as_oracle_rows(check_sinnott(D, p, prec, d_max)) == oracle


@pytest.mark.parametrize("D, p", [(5, 7), (12, 5), (56, 5), (73, 5), (120, 7)])
def test_sinnott_builds_no_padic_ring(D, p, monkeypatch):
    degrees = _record_ring_degrees(monkeypatch)
    oracle = _padic_sinnott(D, p, prec=12, d_max=6)
    assert degrees == [1 if QuadField(D).chi(p) == 1 else 2]
    _forbid_padic_rings(monkeypatch)
    results = check_sinnott(D, p, prec=12, d_max=6)
    assert {r.witness["embedding"] for r in results} == {
        "hensel" if degrees == [1] else "hensel-inert"
    }
    assert _as_oracle_rows(results) == oracle


def test_sinnott_runs_no_group_ring_product(monkeypatch):
    # the log factors are built from their trivial and chi_D values alone
    def product(*args):
        raise AssertionError("group-ring product")

    monkeypatch.setattr(GroupRingElement, "__mul__", product)
    monkeypatch.setattr(GroupRingElement, "__rmul__", product)
    results = check_sinnott(120, 7, 40, 12)
    assert len(results) == 141 and all(r.status == "pass" for r in results)


#: v_p(log_p eps) is 3 at (29, 3), p inert, and 2 at (8, 31), p split
@pytest.mark.parametrize("D, p", [(5, 7), (12, 5), (13, 3), (56, 5), (120, 7), (29, 3), (8, 31)])
def test_sinnott_fails_every_record_with_content_when_r_is_off_by_one(D, p, monkeypatch):
    base = check_sinnott(D, p, prec=12, d_max=6)
    content = [r.name for r in base if r.witness["content"]]
    assert content
    oracle = _padic_sinnott(D, p, prec=12, d_max=6, shift=1)
    unit_log_value = units.unit_log_value
    monkeypatch.setattr(
        units, "unit_log_value", lambda D, n, d: unit_log_value(D, n, d) + 1
    )
    shifted = check_sinnott(D, p, prec=12, d_max=6)
    status = {r.name: r.status for r in shifted}
    assert all(status[name] == "fail" for name in content)
    # the valuations below the cap are v_p(a - r k_D) + v_p(log_p eps)
    assert _as_oracle_rows(shifted) == oracle


@pytest.mark.parametrize("D, p", [(5, 7), (12, 5), (13, 3), (56, 5), (120, 7)])
def test_sinnott_fails_every_record_with_r_nonzero_when_k_D_is_off_by_one(D, p, monkeypatch):
    base = check_sinnott(D, p, prec=12, d_max=6)
    r = {x.name: units.unit_log_value(D, x.witness["level"], x.witness["twist"]) for x in base}
    assert any(r.values())
    dirichlet_exponent = checks_sinnott.dirichlet_exponent

    def shifted(field):
        sign, k = dirichlet_exponent(field)
        return sign, k + 1

    monkeypatch.setattr(checks_sinnott, "dirichlet_exponent", shifted)
    for before, after in zip(base, check_sinnott(D, p, prec=12, d_max=6)):
        assert after.status == ("fail" if r[before.name] else before.status), before.name


@pytest.mark.parametrize("D, p", [(5, 7), (12, 5), (56, 5)])
def test_sinnott_fails_a_record_whose_quotient_is_not_a_unit(D, p, monkeypatch):
    field = QuadField(D)
    base = check_sinnott(D, p, prec=12, d_max=6)
    target = next(r for r in base if r.witness["twist"] > 1)
    level, twist = target.witness["level"], target.witness["twist"]
    # z with z / sigma z not integral: z and sigma z generate different ideals
    z = next(
        field.from_omega_coords(a, 1) for a in range(1, 100)
        if not (field.from_omega_coords(a, 1) / field.from_omega_coords(a, 1).conj()).is_unit()
    )
    number = circular.cyclotomic_number

    def forced(field, n, d=1):
        delta = number(field, n, d)
        return delta * z if (n, d) == (level, twist) else delta

    monkeypatch.setattr(circular, "cyclotomic_number", forced)
    for before, after in zip(base, check_sinnott(D, p, prec=12, d_max=6)):
        if before.name == target.name:
            assert after.status == "fail"
            assert after.witness["difference_valuations"] == [None, None]
        else:
            assert after.status == before.status == "pass", before.name


@pytest.mark.parametrize("D, p", [(5, 7), (12, 5), (56, 5)])
def test_sinnott_valuations_do_not_depend_on_the_embedding(D, p, monkeypatch):
    # sqrt(D) -> -sqrt(D) flips the sign of both sides of the p-adic oracle
    base = _padic_sinnott(D, p, prec=12, d_max=6)
    sqrt_disc = padics.PadicRing.sqrt_disc
    monkeypatch.setattr(
        padics.PadicRing, "sqrt_disc", lambda ring, D, style: -sqrt_disc(ring, D, style)
    )
    flipped = _padic_sinnott(D, p, prec=12, d_max=6)
    assert [row[2] for row in flipped] == [row[2] for row in base]
    exact = check_sinnott(D, p, prec=12, d_max=6)
    assert [r.witness["difference_valuations"] for r in exact] == [row[2] for row in base]


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
