"""Composite-field arithmetic, norm-one unit certificates, and dlog vectors."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rayverify import circular, cyclo, special
from rayverify.checks import check_gras, check_h90, check_sinnott, check_special_units
from rayverify.cyclo import CycNumber, FieldSpec
from rayverify.grouprings import GaloisGroup
from rayverify.nt import is_prime, primitive_root
from rayverify.quadratic import QuadElement, QuadField
from rayverify.checks_annihilators import (
    dlog_annihilator_coefficients,
    residue_dlogs,
    special_prime_candidates,
    special_unit_certificate,
)
from rayverify.circular import cyclotomic_number
from rayverify.special import CycQuadElement, hilbert90_witness, quad_residue, special_unit

K5 = QuadField(5)
K13 = QuadField(13)
K316 = QuadField(316)


def zeta(field, ell, j=1):
    return CycQuadElement.one(field, ell).shift(j)


def test_power_basis_arithmetic():
    ell = 7
    total = CycQuadElement.zero(K5, ell)
    for j in range(ell):
        total = total + zeta(K5, ell, j)
    assert total.is_zero()
    assert zeta(K5, ell, 3) * zeta(K5, ell, 5) == zeta(K5, ell, 1)
    z = zeta(K5, ell)
    x = 1 - z + K5.omega() * z**2
    assert x.galois_zeta(2).galois_zeta(3) == x.galois_zeta(6)
    assert x * x.inverse() == CycQuadElement.one(K5, ell)


def test_norm_of_one_minus_zeta():
    ell = 7
    x = 1 - zeta(K5, ell)
    assert x.norm_to_quad() == K5.element(ell)
    assert x.absolute_norm() == Fraction(ell * ell)


def test_quad_residue_maps_omega_to_root():
    for ell in (11, 19):
        for r in K5.prime_roots(ell):
            w = K5.omega()
            assert quad_residue(w, ell, r) == r % ell
            # the two coordinates reduce consistently: check norm relation
            assert (quad_residue(w * w.conj(), ell, r) - w.norm()) % ell == 0


def test_special_prime_candidates_are_computed():
    assert special_prime_candidates(K5, 5, 2, 3) == [11, 19, 29]
    assert special_prime_candidates(K13, 13, 2, 3) == [3, 17, 23]
    assert special_prime_candidates(K13, 13, 3, 3) == [17, 23, 29]
    assert special_prime_candidates(K316, 316, 1, 3) == [3, 5, 7]


def test_special_unit_certificate_small():
    cert = special_unit_certificate(K13, 13, 2, 3)
    assert cert["is_unit"]
    assert cert["norm_one"]
    assert cert["congruent_one_mod_d"]
    assert cert["matches_cyclotomic_residues"]
    assert abs(cert["absolute_norm"]) == 1


def test_a_non_unit_refutes_with_its_exact_absolute_norm(monkeypatch):
    # eps / 2 in k(zeta_11), of degree 20 over Q, has norm 2^-20 there
    unit = special.special_unit
    half = QuadElement(K5, 1, 0, 2)
    monkeypatch.setattr(special, "special_unit", lambda *args: unit(*args) * half)
    first = check_special_units(5)[0]
    assert first.status == "falsifies-paper"
    assert first.witness["aux_prime"] == 11 and not first.witness["is_unit"]
    assert first.witness["absolute_norm"] == "1/1048576"
    # (6 + omega) / 41 has norm 41 / 41^2: the norm is written in lowest terms
    z = QuadElement(K5, 6, 1, 41)
    monkeypatch.setattr(special, "special_unit", lambda *args: unit(*args) * z)
    first = check_special_units(5)[0]
    assert first.status == "falsifies-paper"
    assert first.witness["absolute_norm"] == "1/%d" % 41**10


def test_special_records_add_up_to_the_call_read_and_write_included(
    tmp_path, monkeypatch
):
    # a clock that ticks once per reading; a read or a write of the cache
    # takes 1000 ticks
    from types import SimpleNamespace

    from rayverify import checks_annihilators
    from rayverify.cache import Cache

    clock = [0]

    def tick(n=1):
        clock[0] += n
        return clock[0]

    class SlowCache(Cache):
        def get(self, key):
            tick(1000)
            return super().get(key)

        def put(self, key, value):
            tick(1000)
            super().put(key, value)

    monkeypatch.setattr(checks_annihilators, "time", SimpleNamespace(perf_counter=tick))
    cache = SlowCache(tmp_path)
    for run in ("cold", "warm"):
        clock[0] = 0
        elapsed = [r.elapsed for r in check_special_units(5, cache=cache)]
        assert len(elapsed) == 9
        # the first reading starts the call and the last one ends it
        assert sum(elapsed) == pytest.approx(clock[0] - 1), run
        if run == "cold":  # the read counts to the first record, the write to the last
            assert elapsed[0] > 1000 and elapsed[-1] > 1000
            assert max(elapsed[1:-1]) < 1000
    # a served call counts wholly to its last record
    assert elapsed[:-1] == [0] * 8 and elapsed[-1] > 1000
    # an empty list of certificates, built and then served, has no record
    for run in ("cold", "warm"):
        assert check_special_units(5, count=0, cache=cache) == [], run


def test_special_unit_certificate_quadratic_level():
    cert = special_unit_certificate(K5, 5, 2, 11)
    assert cert["is_unit"]
    assert cert["norm_one"]
    assert cert["congruent_one_mod_d"]
    assert cert["matches_cyclotomic_residues"]
    # residues at the two primes over 11 agree with the cyclotomic number,
    # as [r, a, b] triples sorted by the root r
    delta = cyclotomic_number(K5, 5, 2)
    assert [r for r, _, _ in cert["residues"]] == K5.prime_roots(11)
    for r, e_res, d_res in cert["residues"]:
        assert e_res == d_res == quad_residue(delta, 11, r)


def test_special_unit_rational_level():
    # level coprime to the discriminant: the unit lives in Q(zeta_ell)
    eps = special_unit(K5, 3, 4, 11)
    assert all(c.is_rational() for c in eps.coeffs)
    cert = special_unit_certificate(K5, 3, 4, 11)
    assert cert["is_unit"] and cert["norm_one"]
    assert cert["congruent_one_mod_d"]
    assert cert["matches_cyclotomic_residues"]
    # the cyclotomic number at level (3, 4) is the rational number 9
    assert cyclotomic_number(K5, 3, 4) == K5.element(9)


def test_hilbert90_witness_trivial_unit():
    eps = CycQuadElement.one(K5, 11)
    out = hilbert90_witness(eps)
    assert out["alpha"] == CycQuadElement.one(K5, 11)
    assert out["root_exponent"] == 1
    assert out["cocycle_identity"] and out["ideal_stable"]


def test_hilbert90_witness_refuses_a_norm_other_than_one():
    # norms down to k: ell, eps_5^10 and 1 / 2^10
    for x in (1 - zeta(K5, 11), K5.fundamental_unit(), QuadElement(K5, 1, 0, 2)):
        if not isinstance(x, CycQuadElement):
            x = CycQuadElement.from_quad(K5, 11, x)
        with pytest.raises(ValueError, match="relative norm one"):
            hilbert90_witness(x)


def test_hilbert90_witness_special_unit():
    eps = special_unit(K5, 3, 4, 11)
    out = hilbert90_witness(eps)
    alpha = out["alpha"]
    assert not alpha.is_zero()
    assert out["cocycle_identity"]
    assert out["ideal_stable"]
    s = out["primitive_root"]
    assert alpha == eps * alpha.galois_zeta(s)


def test_residue_dlogs_norm_relation():
    # product of the two residues is the norm, so the dlogs sum to
    # dlog(norm) modulo ell - 1
    eps = K5.fundamental_unit()
    s, dlogs = residue_dlogs(K5, eps, 19)
    table = {pow(s, e, 19): e for e in range(18)}
    n_res = int(eps.norm()) % 19
    assert sum(dlogs.values()) % 18 == table[n_res % 19] % 18


def _residue_by_sqrt_image(z, ell, root):
    # the route quad_residue once took: z = x + y sqrt(D), sqrt(D) -> 2 root - D mod 2
    t = (2 * root - z.field.D % 2) % ell
    x = z.x.numerator * pow(z.x.denominator, -1, ell)
    y = z.y.numerator * pow(z.y.denominator, -1, ell)
    return (x + t * y) % ell


def _dlogs_by_table(field, z, ell):
    # the route residue_dlogs once took: a table of all of F_ell^*
    s = primitive_root(ell)
    table = {pow(s, e, ell): e for e in range(ell - 1)}
    T, Nm = field.omega_trace, field.omega_norm
    roots = [r for r in range(ell) if (r * r - T * r + Nm) % ell == 0]
    return s, {r: table[_residue_by_sqrt_image(z, ell, r)] for r in roots}


def _residue_grid():
    """Seeded (field, split ell < 500, z) with z a unit at both primes over ell."""
    rng = random.Random(20)
    for D in (5, 8, 12, 13, 21, 316):
        field = QuadField(D)
        ells = [q for q in range(3, 500, 2) if is_prime(q) and field.chi(q) == 1]
        for ell in rng.sample(ells, 5):
            for _ in range(4):
                e = rng.choice([q for q in range(1, 60) if q % ell])
                z = QuadElement(field, rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6), e)
                if all(_residue_by_sqrt_image(z, ell, r) for r in field.prime_roots(ell)):
                    yield field, ell, z


def test_quad_residue_and_residue_dlogs_match_the_old_routes():
    count = 0
    for field, ell, z in _residue_grid():
        for r in field.prime_roots(ell):
            assert quad_residue(z, ell, r) == _residue_by_sqrt_image(z, ell, r)
        assert residue_dlogs(field, z, ell) == _dlogs_by_table(field, z, ell)
        count += 1
    assert count > 100


def test_residue_dlogs_errors():
    with pytest.raises(ValueError, match="not a unit at 11"):
        residue_dlogs(K5, K5.element(22), 11)
    r = K5.prime_roots(11)[1]
    with pytest.raises(ValueError, match="not a unit at 11"):
        residue_dlogs(K5, K5.omega() - r, 11)
    with pytest.raises(ValueError, match="not prime to 11"):
        residue_dlogs(K5, K5.element(Fraction(3, 11), 1), 11)
    with pytest.raises(ValueError, match="does not define a prime over 11"):
        quad_residue(K5.omega(), 11, r + 1)
    with pytest.raises(ValueError, match="must split"):
        residue_dlogs(K5, K5.one(), 7)


def test_checks_use_neither_newtons_identities_nor_q_zeta_n(monkeypatch):
    # norms and orbit products are products modulo primes
    def refuse(*args):
        raise AssertionError("Newton's identities or arithmetic in Q(zeta_n)")

    newton = cyclo.power_sums_to_elementary
    for mod in [m for name, m in sys.modules.items() if name.startswith("rayverify")]:
        for attr, value in list(vars(mod).items()):
            if value is newton:
                monkeypatch.setattr(mod, attr, refuse)
    monkeypatch.setattr(CycNumber, "__mul__", refuse)
    monkeypatch.setattr(CycNumber, "__rmul__", refuse)
    monkeypatch.setattr(cyclo, "to_quadratic", refuse)
    monkeypatch.setattr(circular, "_levels", {})
    monkeypatch.setattr(circular, "_norm_cache", {})
    assert [r.status for r in check_h90(13, 53)] == ["pass"]
    results = check_special_units(29)
    assert len(results) == 9 and all(r.status == "pass" for r in results)
    assert [r.status for r in check_gras(316, 3, 1)] == ["pass"]
    results = check_sinnott(5, 7)
    assert results and all(r.status == "pass" for r in results)


def test_each_distinct_orbit_product_is_computed_once(monkeypatch):
    # the twists 2 and 4 share their (n, t, ell); `_log2_bound` runs once
    # per product computed
    monkeypatch.setattr(circular, "_levels", {})
    monkeypatch.setattr(circular, "_norm_cache", {})
    calls, computed = [], []
    orbit_product, log2_bound = circular.orbit_product, circular._log2_bound

    def spy(field, n, t, ell):
        calls.append((n, t, ell))
        return orbit_product(field, n, t, ell)

    def count(n, t, ell, cosets):
        computed.append((n, t, ell))
        return log2_bound(n, t, ell, cosets)

    monkeypatch.setattr(special, "orbit_product", spy)
    monkeypatch.setattr(circular, "_log2_bound", count)
    results = check_special_units(29)
    assert len(results) == 9 and all(r.status == "pass" for r in results)
    assert len(calls) == 18 and len(set(calls)) < len(calls)
    assert set(calls) < set(computed) and len(computed) == len(set(computed))
    # a caller that changes its list changes no other caller's
    field = QuadField(29)
    out = orbit_product(field, *calls[0])
    out[0] = None
    assert None not in orbit_product(field, *calls[0])
    assert len(computed) == len(set(computed))


def test_dlog_annihilator_rational_number():
    group = GaloisGroup(FieldSpec.quadratic(316))
    two = K316.element(2)
    out = dlog_annihilator_coefficients(K316, group, two, 7, 3)
    a, b = out["coefficients"]
    assert a == b  # rational numbers reduce identically at both primes
    assert out["coefficients_mod_n"] == [a % 3, a % 3]


def test_dlog_annihilator_fundamental_level():
    group = GaloisGroup(FieldSpec.quadratic(316))
    delta = cyclotomic_number(K316, 316, 1)
    out = dlog_annihilator_coefficients(K316, group, delta, 7, 3)
    a, b = out["coefficients"]
    # norm one: the dlogs at the two primes negate each other
    assert (a + b) % 6 == 0
    # the two coefficients agree mod 3: the annihilation statement for a
    # class group of order 3 with inverting involution
    assert (a - b) % 3 == 0


# ----------------------------------------------------------------------
# the integer-coordinate arithmetic against a schoolbook oracle: elements
# as lists of ell - 1 QuadElement coefficients of 1, zeta, ..., zeta^(ell-2)


def _reduce(full):
    top = full[-1]
    return [c - top for c in full[:-1]]


def _school_mul(field, ell, x, y):
    full = [field.zero()] * ell
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            full[(i + j) % ell] = full[(i + j) % ell] + a * b
    return _reduce(full)


def _school_galois(field, ell, x, s):
    full = [field.zero()] * ell
    for j, a in enumerate(x):
        full[j * s % ell] = a
    return _reduce(full)


def _school_conjugate_product(field, ell, x):
    """The product of the conjugates of x under zeta -> zeta^s, 2 <= s < ell."""
    co = _school_galois(field, ell, x, 2)
    for s in range(3, ell):
        co = _school_mul(field, ell, co, _school_galois(field, ell, x, s))
    return co


def _random_coeffs(rng, field, ell):
    if rng.random() < 0.15:
        return [field.zero()] * (ell - 1)

    def rat():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 6, 35)))

    return [field.element(rat(), rat()) for _ in range(ell - 1)]


def _element(field, ell, coeffs):
    return CycQuadElement.from_full(field, ell, coeffs + [field.zero()])


ORACLE_FIELDS = (K5, QuadField(8), K13, K316)


@pytest.mark.parametrize("ell", (3, 5, 7, 11, 53))
def test_product_and_galois_match_schoolbook(ell):
    rng = random.Random(1000 + ell)
    for field in ORACLE_FIELDS:
        if field.D % ell == 0:
            continue
        for _ in range(3 if ell == 53 else 8):
            x = _random_coeffs(rng, field, ell)
            y = _random_coeffs(rng, field, ell)
            X, Y = _element(field, ell, x), _element(field, ell, y)
            assert list(X.coeffs) == x
            assert list((X * Y).coeffs) == _school_mul(field, ell, x, y)
            assert list((X * X).coeffs) == _school_mul(field, ell, x, x)
            assert list((X + Y).coeffs) == [a + b for a, b in zip(x, y)]
            s = rng.randrange(1, ell)
            assert list(X.galois_zeta(s).coeffs) == _school_galois(field, ell, x, s)
            z = field.element(Fraction(-3, 4), Fraction(5, 6))
            assert list((X * z).coeffs) == [a * z for a in x]
            assert X.is_integral() == all(a.is_integral() for a in x)


# ell - 2 = 11 and 27 take three and four set bits in the doubling; the
# schoolbook norm at ell = 53 takes about 1.5 s a sample, so 53 is left to
# the sequential product below
@pytest.mark.parametrize("ell", (3, 5, 7, 11, 13, 29))
def test_norm_and_inverse_match_schoolbook(ell):
    rng = random.Random(2000 + ell)
    for field in ORACLE_FIELDS:
        if field.D % ell == 0:
            continue
        for _ in range(4):
            x = _random_coeffs(rng, field, ell)
            X = _element(field, ell, x)
            co = _school_conjugate_product(field, ell, x)
            nrm = _school_mul(field, ell, x, co)
            assert all(c == 0 for c in nrm[1:])
            if X.is_zero():
                assert X.norm_to_quad() == field.zero()
                with pytest.raises(ZeroDivisionError):
                    X.inverse()
                continue
            assert X.norm_to_quad() == nrm[0]
            inv = nrm[0].inverse()
            assert list(X.inverse().coeffs) == [c * inv for c in co]
            assert X * X.inverse() == 1


@pytest.mark.parametrize("ell", (31, 53, 61))
def test_norm_by_doubling_is_the_sequential_product(ell):
    # the ell - 2 conjugates zeta -> zeta^s, 2 <= s < ell, one after another
    rng = random.Random(3000 + ell)
    for field in (K5, K316):
        x = _random_coeffs(rng, field, 10) + [field.zero()] * (ell - 10)
        X = _element(field, ell, x)
        if X.is_zero():
            continue
        co = X.galois_zeta(2)
        for s in range(3, ell):
            co = co * X.galois_zeta(s)
        assert X._conjugates() == co
        assert X.norm_to_quad() == (X * co)._base_part("not in k")
        assert X * X.inverse() == 1


def _tall(rng, field, ell, bits):
    """ell - 1 integral coefficients whose coordinates have at most `bits`
    bits, with both extremes +-(2^bits - 1) among them."""
    top = (1 << bits) - 1
    coords = [rng.randint(-top, top) for _ in range(2 * (ell - 1))]
    coords[rng.randrange(len(coords))] = top
    coords[rng.randrange(len(coords))] = -top
    return [QuadElement(field, a, b) for a, b in zip(coords[::2], coords[1::2])]


def test_products_across_the_lane_boundary_match_schoolbook(monkeypatch):
    # at ell = 11 over Q(sqrt 5) a product needs hx + hy + 7 bits of slot
    # and two spare, so k = (hx + hy + 16) // 8 bytes: 7, 8, 9 and 10 below.
    # Slots of at most 8 bytes take one 64-bit lane, wider ones bytes.
    widths = []
    pack = special._pack

    def spy(vec, k):
        widths.append(k)
        return pack(vec, k)

    monkeypatch.setattr(special, "_pack", spy)
    rng = random.Random(4000)
    ell = 11
    raw = []
    for hx, hy in ((20, 20), (20, 27), (24, 26), (20, 40), (30, 30), (33, 35), (50, 20), (70, 1)):
        raw.append((hx + hy + 16) // 8)
        for _ in range(2):
            x, y = _tall(rng, K5, ell, hx), _tall(rng, K5, ell, hy)
            X, Y = _element(K5, ell, x), _element(K5, ell, y)
            assert list((X * Y).coeffs) == _school_mul(K5, ell, x, y)
            assert list((Y * X).coeffs) == _school_mul(K5, ell, y, x)
        assert list((X * X).coeffs) == _school_mul(K5, ell, x, x)
    assert set(raw) == {7, 8, 9, 10}
    assert min(widths) == 8 and {9, 10} <= set(widths)


@pytest.mark.parametrize("k", (8, 9, 10))
def test_pack_and_unpack_hold_digits_up_to_the_slot_bound(k):
    # _unpack_cyclic reads digits |f| < 2^(8k-1) - 1 of a value folded
    # modulo 2^(8k ell) - 1, which is zeta^ell - 1 at zeta = 2^(8k)
    top = (1 << (8 * k - 1)) - 2
    rng = random.Random(5000 + k)
    ell = 7
    for vec in (
        [top] * ell,
        [-top] * ell,
        [top, -top, 0, 1, -1, top - 1, -top + 1],
        [rng.randint(-top, top) for _ in range(ell)],
    ):
        packed = special._pack(vec, k)
        assert packed == sum(v << (8 * k * j) for j, v in enumerate(vec))
        assert special._unpack_cyclic(packed, ell, k) == vec
        # a vector twice as long folds onto ell slots
        half = [v // 2 for v in vec]
        longer = special._pack(half + half[::-1], k)
        folded = [a + b for a, b in zip(half, half[::-1])]
        assert special._unpack_cyclic(longer, ell, k) == folded


def test_mixed_fields_are_rejected():
    with pytest.raises(ValueError):
        CycQuadElement.one(K5, 7) + CycQuadElement.one(K13, 7)
    with pytest.raises(ValueError):
        CycQuadElement.one(K5, 5)  # 5 ramifies in Q(sqrt 5)


@pytest.mark.parametrize(
    "D, ell, pinned",
    [(5, 11, ("740", 2, 1)), (13, 17, ("1680", 3, 1)), (13, 53, ("86685420", 2, 1))],
)
def test_h90_witnesses_are_pinned(D, ell, pinned):
    r = check_h90(D, ell)[0]
    assert r.status == "pass"
    w = r.witness
    assert (w["coefficient_height"], w["primitive_root"], w["root_exponent"]) == pinned


@pytest.mark.parametrize("D", [5, 8, 12, 13, 24, 29])
def test_h90_height_is_that_of_the_rational_coordinates(D):
    # the height is read off integer coordinates; the oracle is the largest
    # numerator of the Fractions x, y of each coefficient x + y sqrt(D)
    field = QuadField(D)
    ell = special_prime_candidates(field, 3, 4, 1)[0]
    (record,) = check_h90(D, ell)
    alpha = hilbert90_witness(special_unit(field, 3, 4, ell))["alpha"]
    oracle = max(max(abs(c.x.numerator), abs(c.y.numerator)) for c in alpha.coeffs)
    assert record.witness["coefficient_height"] == str(oracle)


@pytest.mark.parametrize(
    "D, ell, level, twist",
    [(5, 11, 5, 2), (13, 17, 13, 2), (21, 5, 21, 3), (29, 7, 29, 2), (8, 7, 8, 4), (12, 11, 12, 3)],
)
def test_h90_height_counts_the_omega_part(D, ell, level, twist):
    # at the field's own level alpha is not rational: its coefficients have
    # an omega part, which at odd D also enters x = (2a + b) / 2e
    field = QuadField(D)
    (record,) = check_h90(D, ell, level, twist)
    alpha = hilbert90_witness(special_unit(field, level, twist, ell))["alpha"]
    assert any(alpha.B)
    oracle = max(max(abs(c.x.numerator), abs(c.y.numerator)) for c in alpha.coeffs)
    assert record.witness["coefficient_height"] == str(oracle)


# ----------------------------------------------------------------------
# input contracts hold with and without -O


@pytest.mark.parametrize("optimize", ([], ["-O"]))
@pytest.mark.parametrize(
    "quad, ell, reason",
    [("13", "19", "inert"), ("5", "5", "ramified"), ("5", "9", "odd prime")],
)
def test_invalid_aux_prime_exits_2_with_message(optimize, quad, ell, reason):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "rayverify.cli", "verify", "h90",
         "--quad", quad, "--ell", ell],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stdout
    assert "[pass]" not in proc.stdout
    message = proc.stderr.strip().partition("error:")[2].strip()
    assert reason in message
