"""Composite-field arithmetic, norm-one unit certificates, and dlog vectors."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rayverify.checks import check_h90
from rayverify.cyclo import FieldSpec
from rayverify.grouprings import GaloisGroup
from rayverify.quadratic import QuadField
from rayverify.special import (
    CycQuadElement,
    dlog_annihilator_coefficients,
    hilbert90_witness,
    quad_residue,
    residue_dlogs,
    special_prime_candidates,
    special_unit,
    special_unit_certificate,
)
from rayverify.units import cyclotomic_number

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


def test_special_unit_certificate_quadratic_level():
    cert = special_unit_certificate(K5, 5, 2, 11)
    assert cert["is_unit"]
    assert cert["norm_one"]
    assert cert["congruent_one_mod_d"]
    assert cert["matches_cyclotomic_residues"]
    # residues at the two primes over 11 agree with the cyclotomic number
    delta = cyclotomic_number(K5, 5, 2)
    for r, (e_res, d_res) in cert["residues"].items():
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


@pytest.mark.parametrize("ell", (3, 5, 7, 11))
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
