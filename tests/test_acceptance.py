"""Acceptance gate: every primary criterion at its stated tolerance and budget.

Each test covers one criterion, enforces its wall-clock budget, and prints a
single PASS/FAIL line so the suite output doubles as a checklist.  The
property suites at the bottom run with a fixed seed.
"""

import random
import time
from fractions import Fraction

from rayverify.checks import (
    check_cyclic,
    check_gras,
    check_gras_scan,
    check_h90,
    check_rays,
    check_sinnott,
    check_solomon,
    check_special_units,
    check_thaine,
)
from rayverify.cyclo import FieldSpec
from rayverify.grouprings import GaloisGroup, characters, galois_log_quad
from rayverify.intmat import det, hnf, mat_mul, snf, solve, transpose
from rayverify.padics import PadicRing, ring_for_conductor
from rayverify.quadratic import QuadField

RNG_SEED = 20260817


def _line(name, ok):
    print("ACCEPTANCE %-38s %s" % (name, "PASS" if ok else "FAIL"))


def _all_pass(results):
    bad = [(r.name, r.status) for r in results if r.status != "pass"]
    assert not bad, "non-passing checks: %s" % bad


# --------------------------------------------------------------------------
# 1. twisted logarithm identities, D = 5, p in {7, 13}, 12 digits, < 2 s;
#    D = 120, p = 7 and D = 56, p = 5 at 40 digits and d <= 12, < 0.25 s each


def test_acceptance_twisted_log_identities():
    ok = False
    try:
        t0 = time.perf_counter()
        expected_grid = {(5, 1), (5, 2), (5, 3), (5, 4), (2, 5), (10, 5), (5, 6)}
        for p in (7, 13):
            results = check_sinnott(5, p, prec=12, d_max=6)
            _all_pass(results)
            grid = {(r.witness["level"], r.witness["twist"]) for r in results}
            assert grid == expected_grid
            for r in results:
                assert min(r.witness["difference_valuations"]) >= 12
        elapsed = time.perf_counter() - t0
        assert elapsed < 2, "budget exceeded: %.1fs" % elapsed
        for D, p in ((120, 7), (56, 5)):
            t0 = time.perf_counter()
            _all_pass(check_sinnott(D, p, prec=40, d_max=12))
            elapsed = time.perf_counter() - t0
            assert elapsed < 0.25, "budget exceeded at D=%d p=%d: %.2fs" % (D, p, elapsed)
        ok = True
    finally:
        _line("twisted-log-identities", ok)


# --------------------------------------------------------------------------
# 2. residue-ring Galois structure, three configurations < 2 s each, and
#    the unit group of O/(997) over Q(sqrt 2) and the field of D = 9001
#    (|ker chi_D| = 4500) < 1 s each


def test_acceptance_ray_residue_structures():
    ok = False
    try:
        configs = ((5, 11, 5, 2), (5, 2, 3, 2), (13, 3, 3, 2), (8, 997, 3, 1),
                   (9001, 11, 5, 1))
        for D, ell, p, budget in configs:
            t0 = time.perf_counter()
            r = check_rays(D, ell, p)[0]
            elapsed = time.perf_counter() - t0
            assert r.status == "pass", r.name
            assert elapsed < budget, "budget exceeded: %.1fs" % elapsed
            if (D, ell, p) == (5, 11, 5):
                assert r.witness["target_order"] == 25
                assert r.witness["sylow_invariants"] == [5, 5]
        ok = True
    finally:
        _line("ray-residue-structures", ok)


# --------------------------------------------------------------------------
# 3. index equality: one certified point and a full scan, < 5 min


def test_acceptance_index_equality():
    ok = False
    try:
        t0 = time.perf_counter()
        r = check_gras(79 * 4, 3, 1)[0]
        assert r.status == "pass"
        assert r.witness["unit_rho_order"] == 3
        assert r.witness["ray_rho_order"] == 3
        # a modulus past the old M^2 <= 10^6 enumeration budget
        assert check_gras(5, 3, 1001)[0].status == "pass"

        results = check_gras_scan(5, (3, 5, 7), 50)
        _all_pass(results)
        hits = {(r.witness["modulus"], r.witness["p"]) for r in results}
        assert (11, 5) in hits
        assert any(
            not r.witness["trivial_character_only"] for r in results
        ), "scan found no genuine non-trivial-character torsion"
        elapsed = time.perf_counter() - t0
        assert elapsed < 300, "budget exceeded: %.1fs" % elapsed
        ok = True
    finally:
        _line("index-equality", ok)


# --------------------------------------------------------------------------
# 4. explicit norm-one cocycle witnesses, < 5 s each


def test_acceptance_norm_one_cocycles():
    ok = False
    try:
        for D, ell in ((5, 11), (13, 53)):
            t0 = time.perf_counter()
            r = check_h90(D, ell)[0]
            elapsed = time.perf_counter() - t0
            assert r.status == "pass", r.name
            assert r.witness["nonzero"]
            assert r.witness["cocycle_identity"]
            assert r.witness["ideal_stable"]
            assert elapsed < 5, "budget exceeded: %.1fs" % elapsed
        ok = True
    finally:
        _line("norm-one-cocycles", ok)


# --------------------------------------------------------------------------
# 5. special-unit certificates, D in {5, 13}, d in {2, 3, 4}, < 15 s


def test_acceptance_special_unit_certificates():
    ok = False
    try:
        t0 = time.perf_counter()
        for D in (5, 13):
            results = check_special_units(D, twists=(2, 3, 4), count=3)
            assert len(results) == 9
            _all_pass(results)
            for r in results:
                w = r.witness
                assert w["is_unit"] and w["norm_one"]
                assert w["congruent_one_mod_d"] and w["sign"] in (1, -1)
                assert w["matches_cyclotomic_residues"]
        elapsed = time.perf_counter() - t0
        assert elapsed < 15, "budget exceeded: %.1fs" % elapsed
        ok = True
    finally:
        _line("special-unit-certificates", ok)


# --------------------------------------------------------------------------
# 6. discrete-log annihilation of ray classes, D = 79 field, < 2 min


def test_acceptance_dlog_annihilation():
    ok = False
    try:
        t0 = time.perf_counter()
        results = check_thaine(79 * 4, n_exp=3, modulus=1, count=3)
        assert [r.witness["ell"] for r in results] == [7, 13, 43]
        _all_pass(results)
        assert any(r.witness["class_order_mod_n"] > 1 for r in results)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120, "budget exceeded: %.1fs" % elapsed
        ok = True
    finally:
        _line("dlog-annihilation", ok)


# --------------------------------------------------------------------------
# 7. scaled log annihilators, D = 79 field, p = 3, 12 digits, < 60 s


def test_acceptance_scaled_log_annihilators():
    ok = False
    try:
        t0 = time.perf_counter()
        results = check_solomon(79 * 4, p=3, prec=12, moduli=(1, 4))
        _all_pass(results)
        for r in results:
            w = r.witness
            assert w["embedding"] == "hensel"
            assert min(w["coefficient_valuations"]) >= 1
            assert w["ray_rho_order"] == 3
            assert w["annihilates"]
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, "budget exceeded: %.1fs" % elapsed
        ok = True
    finally:
        _line("scaled-log-annihilators", ok)


# --------------------------------------------------------------------------
# 8. residue-ring cyclicity with explicit generators, < 10 s


def test_acceptance_residue_cyclicity():
    ok = False
    try:
        t0 = time.perf_counter()
        for D in (5, 13, 79 * 4):
            for p in (3, 7):
                r = check_cyclic(D, p)[0]
                assert r.status == "pass", r.name
                w = r.witness
                if D % 2:
                    assert w["generator"] == "omega"
                    assert w["det_mod_p"] == (-1) % p
                else:
                    assert w["generator"] == "1+omega"
                    assert w["det_mod_p"] == (-2) % p
        elapsed = time.perf_counter() - t0
        assert elapsed < 10, "budget exceeded: %.1fs" % elapsed
        ok = True
    finally:
        _line("residue-cyclicity", ok)


# --------------------------------------------------------------------------
# 9. property suites, fixed seed, < 60 s each


def test_acceptance_property_normal_forms():
    ok = False
    try:
        t0 = time.perf_counter()
        rng = random.Random(RNG_SEED)
        for _ in range(1000):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            U, S, V = snf(A)
            assert mat_mul(mat_mul(U, A), V) == S
            assert abs(det(U)) == 1
            assert abs(det(V)) == 1
            diag = [S[i][i] for i in range(min(m, n))]
            assert all(
                S[i][j] == 0 for i in range(m) for j in range(n) if i != j
            )
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0 if a else b == 0
            H = hnf(A)
            if not H:
                assert all(x == 0 for row in A for x in row)
            else:
                for row in A:
                    assert solve(transpose(H), list(row)) is not None
                for row in H:
                    assert solve(transpose(A), list(row)) is not None
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, "budget exceeded: %.1fs" % elapsed
        ok = True
    finally:
        _line("property-normal-forms", ok)


def test_acceptance_property_character_orthogonality():
    ok = False
    try:
        t0 = time.perf_counter()
        cases = [
            (GaloisGroup(FieldSpec(13, (1, 12))), PadicRing(5, 12, 2)),
            (GaloisGroup(FieldSpec.quadratic(5)), PadicRing(7, 12)),
        ]
        for group, ring in cases:
            chars = characters(group)
            assert len(chars) == group.order
            for i, chi in enumerate(chars):
                for j, psi in enumerate(chars):
                    acc = ring.zero()
                    for g in range(group.order):
                        acc = acc + chi.value(ring, g) * psi.conj_value(ring, g)
                    expected = ring.from_int(group.order if i == j else 0)
                    assert (acc - expected).is_zero()
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, "budget exceeded: %.1fs" % elapsed
        ok = True
    finally:
        _line("property-character-orthogonality", ok)


def test_acceptance_property_log_multiplicativity():
    ok = False
    try:
        t0 = time.perf_counter()
        rng = random.Random(RNG_SEED)
        base = PadicRing(7, 14)
        ext = PadicRing(7, 14, 4)
        zeta = ext.cyclotomic_root(5)

        def random_unit(ring):
            while True:
                num = rng.randint(1, 10**6)
                den = rng.randint(1, 10**4)
                if num % 7 and den % 7:
                    return ring.from_fraction(Fraction(num, den))

        def random_ext_unit():
            while True:
                z = ext.zero()
                for _ in range(3):
                    z = z + ext.from_int(rng.randint(-50, 50)) * zeta ** rng.randint(
                        0, 4
                    )
                if not z.is_zero() and z.valuation() == 0:
                    return z

        # exact multiplicativity on units, in the base ring and an extension
        for _ in range(100):
            x, y = random_unit(base), random_unit(base)
            d = base.iwasawa_log(x * y) - (base.iwasawa_log(x) + base.iwasawa_log(y))
            assert d.is_zero()
        for _ in range(100):
            x, y = random_ext_unit(), random_ext_unit()
            d = ext.iwasawa_log(x * y) - (ext.iwasawa_log(x) + ext.iwasawa_log(y))
            assert d.is_zero()
        assert ext.iwasawa_log(zeta ** rng.randint(1, 4)).is_zero()
        # p-power parts are discarded; products of non-units keep prec - v digits
        for _ in range(20):
            u, v = random_unit(base), random_unit(base)
            a = rng.randint(1, 3)
            b = rng.randint(1, 3)
            x = u * base.from_int(7**a)
            y = v * base.from_int(7**b)
            assert (base.iwasawa_log(x) - base.iwasawa_log(u)).is_zero()
            d = base.iwasawa_log(x * y) - (base.iwasawa_log(u) + base.iwasawa_log(v))
            assert d.valuation() >= 14 - a - b
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, "budget exceeded: %.1fs" % elapsed
        ok = True
    finally:
        _line("property-log-multiplicativity", ok)


def test_acceptance_property_log_equivariance():
    ok = False
    try:
        t0 = time.perf_counter()
        rng = random.Random(RNG_SEED)
        field = QuadField(5)
        group = GaloisGroup(FieldSpec.quadratic(5))
        ring = ring_for_conductor(7, 5, 14)

        def random_element():
            while True:
                z = field.element(rng.randint(-20, 20), rng.randint(-20, 20))
                if z != field.zero():
                    return z

        sigma = 1 - group.coset_of(1)
        for _ in range(200):
            z, w = random_element(), random_element()
            tz = galois_log_quad(group, ring, z)
            conj = galois_log_quad(group, ring, z.conj())
            translated = tz.apply(sigma)
            assert all(
                (a - b).is_zero() for a, b in zip(conj.coeffs, translated.coeffs)
            )
            both = galois_log_quad(group, ring, z * w)
            tw = galois_log_quad(group, ring, w)
            s = tz + tw
            assert all((a - b).is_zero() for a, b in zip(both.coeffs, s.coeffs))
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, "budget exceeded: %.1fs" % elapsed
        ok = True
    finally:
        _line("property-log-equivariance", ok)
