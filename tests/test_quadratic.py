import math
import random
from fractions import Fraction

import pytest

from rayverify import circular, units
from rayverify.cyclo import FieldSpec
from rayverify.grouprings import GaloisGroup
from rayverify.intmat import Lattice
from rayverify.nt import (
    factorize,
    fundamental_discriminant,
    is_prime,
    kronecker,
    squarefree_part,
    valuation,
)
from rayverify.quadratic import (
    QuadElement,
    QuadField,
    QuadGaloisGroup,
    ResidueRing,
    _is_fundamental,
)
from rayverify.residues import MODULUS_LIMIT
from rayverify.units import analytic_class_number, unit_exponent


def test_field_construction():
    k = QuadField(5)
    assert k.omega() == k.element(Fraction(1, 2), Fraction(1, 2))
    assert k.omega().norm() == -1
    k2 = QuadField(316)
    assert k2.omega().norm() == -79
    assert QuadField(5) is QuadField(5)  # interned


def test_element_arithmetic():
    k = QuadField(5)
    s = k.sqrt_disc()
    assert s * s == 5
    w = k.omega()
    assert w * w == w + 1  # golden ratio
    z = k.element(3, Fraction(1, 2))
    assert z * z.inverse() == 1
    assert (z**3) * (z**-3) == 1
    a, b = z.omega_coords()
    assert a + b * w == z


def test_sign_exact():
    k = QuadField(5)
    w = k.omega()  # 1.618...
    assert w.sign() == 1
    assert w > 1
    assert w.conj().sign() == -1  # -0.618...
    assert w.conj() > -1
    assert (w - 2).sign() == -1
    assert k.element(-9, 4).sign() == -1   # 4 sqrt5 = 8.94 < 9
    assert k.element(-8, 4).sign() == 1


def test_fundamental_units():
    golden = QuadField(5).fundamental_unit()
    assert golden == QuadField(5).element(Fraction(1, 2), Fraction(1, 2))
    assert golden.norm() == -1
    u8 = QuadField(8).fundamental_unit()  # 1 + sqrt2
    assert (u8.x, u8.y) == (1, Fraction(1, 2))
    assert u8.norm() == -1
    u12 = QuadField(12).fundamental_unit()  # 2 + sqrt3
    assert (u12.x, u12.y) == (2, Fraction(1, 2))
    assert u12.norm() == 1
    u13 = QuadField(13).fundamental_unit()
    assert (u13.x, u13.y) == (Fraction(3, 2), Fraction(1, 2))
    assert u13.norm() == -1
    u316 = QuadField(316).fundamental_unit()  # 80 + 9 sqrt79
    assert (u316.x, u316.y) == (80, Fraction(9, 2))
    assert u316.norm() == 1


def _pell(n):
    """(x, y): the least x + y sqrt(n) > 1 with x^2 - n y^2 = +-1, by the
    continued fraction of sqrt(n)."""
    s = math.isqrt(n)
    P, Q, a = 0, 1, s
    h_prev, h_cur = 1, s
    k_prev, k_cur = 0, 1
    while True:
        P = a * Q - P
        Q = (n - P * P) // Q
        a = (s + P) // Q
        if Q == 1:
            return h_cur, k_cur
        h_prev, h_cur = h_cur, a * h_cur + h_prev
        k_prev, k_cur = k_cur, a * k_cur + k_prev


def _pell_then_scan(k):
    """The unit of the former two-stage route, kept as an oracle: the Pell
    solution of Z[sqrt(d0)], then for odd D a scan over b for a
    half-integral (a + b sqrt D)/2 whose cube is it up to sign."""
    x, y = _pell(k.d0)
    D = k.D
    if D % 2 == 0:
        return k.element(x, Fraction(y, 2))
    eps0 = k.element(x, y)
    cbrt = int(round((2 * x + 2) ** (1.0 / 3))) + 1
    while cbrt**3 > 2 * x + 2:
        cbrt -= 1
    for b in range(1, cbrt // math.isqrt(D) + 3):
        for t in (D * b * b - 4, D * b * b + 4):
            a = math.isqrt(t) if t > 0 else 0
            if a * a == t and (a - b) % 2 == 0:
                hit = k.element(Fraction(a, 2), Fraction(b, 2))
                if hit == eps0 or hit**3 in (eps0, -eps0):
                    return hit
                break
    return eps0


def test_fundamental_unit_matches_the_pell_route_below_1000():
    radicands = [d for d in range(2, 1000) if squarefree_part(d) == d]
    assert len(radicands) == 607
    for d in radicands:
        k = QuadField(fundamental_discriminant(d))
        assert k.fundamental_unit() == _pell_then_scan(k), d


#: eps = a + b omega above radicand 1000.  The former route's scan took
#: 1.9 s at 1021 and did not end at 1549 or 9001; 9619 has the largest eps
#: of any radicand below 10^4, with 104 digits.
_PINNED_UNITS = {
    1021: (41531201, 2683493),
    1549: (329861957297, 17199418961),
    9001: (
        29074744649911025336437556221643997837568940484182708501465934667111,
        619444542710689401770870837185671455795021959410761534752110687898,
    ),
    9619: (
        81119022011248860398808533302046327529711431084023770643844658590226657549824152958804663041513822014290,
        827099472230816363716635228974328535731023047629801451791438952247858704503541263833471709896096965161,
    ),
}


@pytest.mark.parametrize("d", sorted(_PINNED_UNITS))
def test_fundamental_unit_pinned_at_large_radicands(d):
    k = QuadField(fundamental_discriminant(d))
    eps = k.fundamental_unit()
    assert (eps.a, eps.b) == _PINNED_UNITS[d]
    assert eps.is_unit() and eps > 1
    x, y = _pell(k.d0)
    pell = k.element(x, Fraction(y, math.isqrt(k.D // k.d0)))  # x + y sqrt(d0)
    assert pell in (eps, eps**3)
    # the analytic class number divides by log eps: eps^3 would fail it
    assert k.class_group().order == 1


def test_unit_exponent_descent():
    k = QuadField(5)
    eps = k.fundamental_unit()
    assert unit_exponent(k, eps**5) == (1, 5)
    assert unit_exponent(k, -(eps**-3)) == (-1, -3)
    assert unit_exponent(k, k.one()) == (1, 0)
    k79 = QuadField(316)
    assert unit_exponent(k79, k79.fundamental_unit() ** 2) == (1, 2)


def test_prime_splitting():
    k = QuadField(5)
    assert k.split_type(11) == "split"
    assert k.split_type(2) == "inert"
    assert k.split_type(3) == "inert"
    assert k.split_type(5) == "ramified"
    k79 = QuadField(316)
    assert k79.split_type(2) == "ramified"
    assert k79.split_type(3) == "split"
    assert k79.split_type(13) == "split"


def test_prime_valuation():
    k = QuadField(5)
    # 3 + omega has norm 11; it lies in exactly one prime over 11
    z = k.from_omega_coords(3, 1)
    assert z.norm() == 11
    roots = k.prime_roots(11)
    assert roots == [4, 8]
    vals = [k.prime_valuation(z, 11, r) for r in roots]
    assert sorted(vals) == [0, 1]
    # sqrt5 at the ramified prime
    assert k.prime_valuation(k.sqrt_disc(), 5, k.prime_roots(5)[0]) == 1
    # a rational prime splits as both primes to the first power
    z11 = k.element(11)
    assert [k.prime_valuation(z11, 11, r) for r in roots] == [1, 1]


def _primes_over_by_chi(field, p):
    # the three-way split by chi_D(p) that callers once wrote out
    ch = field.chi(p)
    if ch == 1:
        r1, r2 = field.prime_roots(p)
        return [(p, r1), (p, r2)]
    if ch == 0:
        return [(p, field.prime_roots(p)[0])]
    return [(p, None)]


#: split, inert and ramified 2 among them
_SOME_D = [5, 8, 12, 13, 17, 21, 24, 28, 40, 41, 316, 9001]


def test_primes_over_matches_the_split_by_chi():
    for D in _SOME_D:
        field = QuadField(D)
        for p in filter(is_prime, range(2, 200)):
            assert field.primes_over(p) == _primes_over_by_chi(field, p), (D, p)


def test_prime_valuations_sum_to_the_norm_valuation():
    """sum of f_P v_P(z) over `primes_over(p)` is v_p(N z), with f_P = 2 at
    an inert p, for z = (a + b omega) / e on a seeded grid whose a, b and e
    share powers of p."""
    rng = random.Random(22)
    for D in _SOME_D:
        field = QuadField(D)
        for p in (2, 3, 5, 7, 11, 13):
            for _ in range(30):
                a = rng.randint(-30, 30) * p ** rng.randint(0, 3)
                b = rng.randint(-30, 30) * p ** rng.randint(0, 3)
                e = rng.choice((1, 2, 3, 5, 6, 7)) * p ** rng.randint(0, 3)
                if not (a or b):
                    continue
                z = QuadElement(field, a, b, e)
                nrm = z.norm()
                want = valuation(nrm.numerator, p) - valuation(nrm.denominator, p)
                got = sum(
                    (2 if r is None else 1) * field.prime_valuation(z, p, r)
                    for _, r in field.primes_over(p)
                )
                assert got == want, (D, p, z)


def test_prime_valuation_rejects_zero_and_misnamed_primes():
    k = QuadField(5)  # 2 is inert, 5 ramifies, 11 splits with roots 4 and 8
    with pytest.raises(ValueError, match="valuation of zero"):
        k.prime_valuation(k.zero(), 11, 4)
    for p, r in [(2, 0), (2, 1), (5, None), (11, None), (11, 5)]:
        with pytest.raises(ValueError, match="names no prime over"):
            k.prime_valuation(k.element(110), p, r)


def _prime_roots_by_scan(field, p):
    # the route prime_roots once took: every residue r < p
    T, Nm = field.omega_trace, field.omega_norm
    return sorted(r for r in range(p) if (r * r - T * r + Nm) % p == 0)


@pytest.mark.parametrize("D", [5, 8, 12, 13, 21, 24, 316, 9001])
def test_prime_roots_match_the_scan(D):
    """(T +- sqrt(D)) / 2 mod p against the scan, at every prime p < 2000."""
    field = QuadField(D)
    for p in range(2, 2000):
        if is_prime(p):
            assert field.prime_roots(p) == _prime_roots_by_scan(field, p), p


def test_galois_group_matches_the_coset_construction():
    """{1, sigma} read off chi_D agrees with the group built on the cosets
    of ker(chi_D) in (Z/D)^*, at every residue mod D."""
    for D in filter(_is_fundamental, range(5, 300)):
        new = QuadGaloisGroup(QuadField(D))
        old = GaloisGroup(FieldSpec.quadratic(D))
        assert (new.order, new.m, new.exponent) == (old.order, old.m, old.exponent)
        assert [list(row) for row in new.mult] == old.mult
        assert list(new.inv) == old.inv
        for a in range(-D, 2 * D):
            if math.gcd(a, D) == 1:
                assert new.coset_of(a) == old.coset_of(a), (D, a)
            else:
                for group in (new, old):
                    with pytest.raises(ValueError, match="not a unit at level %d" % D):
                        group.coset_of(a)


def test_galois_groups_are_equal_when_their_discriminants_are():
    G5, H5, G13 = (QuadGaloisGroup(QuadField(D)) for D in (5, 5, 13))
    assert G5 == H5 and hash(G5) == hash(H5) and G5 is not H5
    assert G5 != G13 and G5 != GaloisGroup(FieldSpec.quadratic(5))
    assert repr(G13) == "QuadGaloisGroup(D=13)"


def _float_class_number(D):
    """Dirichlet's formula for h(D) in floating point, the oracle of the
    exact route: -sum chi_D(a) log(2 sin(pi a / D)) / (2 log eps), with
    log eps = log x + log(1 + y sqrt(D) / x) for eps = x + y sqrt(D)."""
    eps = QuadField(D).fundamental_unit()
    x, y = eps.x, eps.y
    ratio = float(y / x) * math.sqrt(D)
    reg = math.log(x.numerator) - math.log(x.denominator) + math.log1p(ratio)
    total = 0.0
    for a in range(1, D):
        chi = kronecker(D, a)
        if chi:
            total -= chi * math.log(2 * math.sin(math.pi * a / D))
    return total / (2 * reg)


def test_analytic_class_number_oracle():
    for D, h in [(5, 1), (316, 3), (40, 2)]:
        assert analytic_class_number(D) == h
        assert abs(_float_class_number(D) - h) < 1e-6


def test_analytic_class_number_matches_the_float_formula_on_small_discriminants():
    for D in filter(_is_fundamental, range(5, 2000)):
        approx = _float_class_number(D)
        assert abs(approx - round(approx)) < 0.05, D
        assert analytic_class_number(D) == round(approx), D


def test_a_wrong_u_D_raises_and_never_gives_a_wrong_h(monkeypatch):
    field = QuadField(316)
    exact = circular.cyclotomic_number

    def times_eps(f, n, d=1):
        return f.fundamental_unit() * exact(f, n, d)

    # u_D / sigma(u_D) gains eps^2, so the formula claims h = 2
    monkeypatch.setattr(circular, "cyclotomic_number", times_eps)
    monkeypatch.setattr(field, "_classgroup", None)
    assert analytic_class_number(316) == 2
    with pytest.raises(ArithmeticError, match="index 3 is not a multiple of h = 2"):
        field.class_group()
    monkeypatch.setattr(circular, "cyclotomic_number", exact)
    for k in (5, -3, 0):
        monkeypatch.setattr(units, "unit_exponent", lambda f, u, k=k: (1, k))
        with pytest.raises(ArithmeticError, match="eps\\^%d in Q\\(sqrt 316\\)" % k):
            field.class_group()
    assert field._classgroup is None


def test_class_groups_small():
    assert QuadField(5).class_group().order == 1
    assert QuadField(13).class_group().order == 1
    cg = QuadField(40).class_group()
    assert cg.order == 2 and cg.invariants == [2]


def test_class_group_stops_at_the_analytic_class_number():
    # the harvest once settled on two equal but too large indices here
    for D, h in [(1272, 2), (1448, 2), (1592, 1)]:
        cg = QuadField(D).class_group()
        assert cg.order == h
        assert abs(_float_class_number(D) - h) < 0.05


def test_class_group_79():
    cg = QuadField(316).class_group()
    assert cg.order == 3
    assert cg.invariants == [3]
    # the prime over 3 generates the class group
    i3 = [p for p, _ in cg.gens].index(3)
    v3 = [1 if i == i3 else 0 for i in range(len(cg.gens))]
    assert cg.principalize(v3) is None
    assert cg.class_order_of(v3) == 3
    # the ramified prime over 2 is principal: (9 + sqrt79) has norm 2
    i2 = [i for i, (p, _) in enumerate(cg.gens) if p == 2]
    assert len(i2) == 1
    v2 = [0] * len(cg.gens)
    v2[i2[0]] = 1
    gen = cg.principalize(v2)
    assert gen is not None
    assert abs(gen.norm()) == 2


def test_class_group_witnesses():
    cg = QuadField(316).class_group()
    field = cg.field
    for row, w in zip(cg.relations, cg.witnesses):
        nrm = abs(int(w.norm()))
        prod = 1
        for (p, _), e in zip(cg.gens, row):
            prod *= p**e
        assert prod == nrm  # witness generates exactly that ideal product
        for (p, r), e in zip(cg.gens, row):
            assert field.prime_valuation(w, p, r) == e


def test_residue_ring_split():
    R = ResidueRing(QuadField(5), 11)
    assert R.unit_count() == 100  # F_11 x F_11 units
    gens, rels, dlog = R.structure()
    # triangular relation matrix with positive pivots
    for i, row in enumerate(rels):
        assert row[i] > 0
        for j in range(i):
            assert row[j] == 0
    # dlog reconstructs elements
    for u, vec in list(dlog.items())[:20]:
        acc = R.one()
        for g, e in zip(gens, vec):
            acc = R.mul(acc, R.pow(g, e))
        assert acc == u


def test_residue_ring_inert():
    R2 = ResidueRing(QuadField(5), 2)
    assert R2.unit_count() == 3  # F_4 units
    R9 = ResidueRing(QuadField(5), 9)
    assert R9.unit_count() == 72  # |(O/9)*| = 81 * (8/9)
    R1 = ResidueRing(QuadField(5), 1)
    assert R1.unit_count() == 1


def _enumerated_units(R):
    """Oracle: the units of O/(M), in lexicographic order, by enumerating
    all M^2 residues."""
    return [(a, b) for a in range(R.M) for b in range(R.M) if R.is_unit((a, b))]


def _check_presentation(R, units, samples, pairs):
    """(gens, rels, dlog) is a presentation of (O/M)^* whose digits are a
    coordinate system: checked on every enumerated unit in `samples`, and
    on `pairs` for the homomorphism property."""
    gens, rels, dlog = R.structure()
    k = len(gens)
    assert len(rels) == k and all(len(row) == k for row in rels)
    # every relation row evaluates to 1
    for row in rels:
        acc = R.one()
        for g, c in zip(gens, row):
            acc = R.mul(acc, R.pow(g, c))
        assert acc == R.one(), (R.M, row)
    box = [row[i] for i, row in enumerate(rels)]
    assert all(d > 1 for d in box)
    assert math.prod(box) == len(dlog) == len(units) == R.unit_count()
    # dlog lands in the digit box, injectively, and prod gens^dlog(u) = u
    powers = [[R.pow(g, j) for j in range(d)] for g, d in zip(gens, box)]
    seen = set()
    for u in samples:
        digits = dlog[u]
        assert len(digits) == k and all(0 <= c < d for c, d in zip(digits, box)), u
        acc = R.one()
        for table, c in zip(powers, digits):
            acc = R.mul(acc, table[c])
        assert acc == u, (R.M, u, digits)
        seen.add(digits)
    assert len(seen) == len(samples)
    # dlog(uv) - dlog(u) - dlog(v) lies in the row lattice
    lattice = Lattice(rels)
    for u, v in pairs:
        w = R.mul(u, v)
        diff = [c - a - b for c, a, b in zip(dlog[w], dlog[u], dlog[v])]
        assert lattice.contains(diff), (R.M, u, v)


def _unit_count(field, M):
    """|(O/M)^*| from the splitting of each prime power ell^e || M."""
    count = 1
    for ell, e in factorize(M):
        local = {1: (ell - 1) ** 2, -1: ell * ell - 1, 0: ell * (ell - 1)}
        count *= local[field.chi(ell)] * ell ** (2 * (e - 1))
    return count


_ORACLE_MODULI = (
    1, 2, 4, 8, 16, 64, 3, 9, 27, 81, 5, 25, 125, 7, 49, 11, 121, 12, 60, 210, 420, 840
)

#: A ring with more units than this (M = 840 on every field of the grid,
#: and M = 420 on four of them) has its digits checked on a seeded sample
#: of 20000 units, not on all of them: at one discrete log per local factor
#: and unit, every unit of O/(840) takes 3-15 s per field.
_FULL_CHECK = 50_000


# 2 is inert for D = 5, split for D = 17 and ramified for D = 8 and 12
@pytest.mark.parametrize("D", (5, 8, 12, 13, 17, 40, 316))
def test_residue_structure_matches_enumeration(D):
    field = QuadField(D)
    rng = random.Random(D)
    for M in _ORACLE_MODULI:
        R = ResidueRing(field, M)
        units = _enumerated_units(R)
        assert len(units) == _unit_count(field, M), M
        pairs = [(rng.choice(units), rng.choice(units)) for _ in range(100)]
        samples = units if len(units) <= _FULL_CHECK else rng.sample(units, 20000)
        _check_presentation(R, units, samples, pairs)
        dlog = R.structure()[2]
        assert list(dlog) == units  # lexicographic iteration
        if M > 1:
            for bad in ((0, 0), (M, 0), (1, -1), [1, 0]):
                with pytest.raises(KeyError):
                    dlog[bad]
            assert (0, 0) not in dlog and R.one() in dlog


# 311 splits in Q(sqrt 5) and 307 is inert: F_307^2 needs a baby-step
# giant-step over the prime 17 of 307^2 - 1
@pytest.mark.parametrize(
    "D, M", [(5, 311), (5, 307), (8, 343), (13, 512), (17, 330), (40, 462)]
)
def test_residue_structure_matches_enumeration_on_samples(D, M):
    field = QuadField(D)
    R = ResidueRing(field, M)
    units = _enumerated_units(R)
    assert len(units) == _unit_count(field, M)
    rng = random.Random(M)
    samples = rng.sample(units, 300)
    pairs = [(rng.choice(units), rng.choice(units)) for _ in range(300)]
    _check_presentation(R, units, samples, pairs)


def test_residue_ring_ops():
    k = QuadField(5)
    R = ResidueRing(k, 9)
    eps = R.reduce(k.fundamental_unit())
    assert eps == (0, 1)
    assert R.mul(eps, R.inverse(eps)) == R.one()
    assert R.conj(R.conj(eps)) == eps
    # conjugation matches field conjugation
    z = k.from_omega_coords(2, 5)
    assert R.reduce(z.conj()) == R.conj(R.reduce(z))
    # fundamental unit of Q(sqrt5) has order 24 mod 9, and eps^12 = -1
    assert R.pow(eps, 12) == ((8, 0))
    assert R.pow(eps, 24) == R.one()
    orders = [e for e in range(1, 25) if R.pow(eps, e) == R.one()]
    assert orders == [24]


# ----------------------------------------------------------------------
# QuadElement against an x + y sqrt(D) Fraction-pair reference


class _Ref:
    """x + y sqrt(D) with Fraction coordinates: the schoolbook oracle."""

    def __init__(self, D, x, y):
        self.D, self.x, self.y = D, Fraction(x), Fraction(y)

    def __add__(self, o):
        return _Ref(self.D, self.x + o.x, self.y + o.y)

    def __sub__(self, o):
        return _Ref(self.D, self.x - o.x, self.y - o.y)

    def __mul__(self, o):
        D = self.D
        return _Ref(D, self.x * o.x + D * self.y * o.y, self.x * o.y + self.y * o.x)

    def norm(self):
        return self.x * self.x - self.D * self.y * self.y

    def conj(self):
        return _Ref(self.D, self.x, -self.y)

    def inverse(self):
        n = self.norm()
        return _Ref(self.D, self.x / n, -self.y / n)

    def sign(self):
        x, y, D = self.x, self.y, self.D
        if x == 0 and y == 0:
            return 0
        if x >= 0 and y >= 0:
            return 1
        if x <= 0 and y <= 0:
            return -1
        big_x = x * x > D * y * y
        return (1 if big_x else -1) if x > 0 else (-1 if big_x else 1)


def _random_fraction(rng):
    return Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 4, 6, -1, -2, -5, -12]))


def _same(z, ref):
    return (z.x, z.y) == (ref.x, ref.y)


@pytest.mark.parametrize("D", [5, 8, 13, 316])
def test_quad_element_matches_fraction_reference(D):
    rng = random.Random(D)
    k = QuadField(D)
    for _ in range(150):
        xs = [_random_fraction(rng) for _ in range(4)]
        if rng.random() < 0.15:
            xs[1] = Fraction(0)  # rational elements
        r, s = _Ref(D, *xs[:2]), _Ref(D, *xs[2:])
        z, w = k.element(*xs[:2]), k.element(*xs[2:])
        assert _same(z, r) and _same(w, s)
        assert _same(z + w, r + s)
        assert _same(z - w, r - s)
        assert _same(z * w, r * s)
        assert _same(-z, _Ref(D, -r.x, -r.y))
        assert _same(z.conj(), r.conj())
        assert z.norm() == r.norm()
        assert z.sign() == r.sign()
        diff = (r - s).sign()
        assert (z > w, z < w, z == w) == (diff > 0, diff < 0, diff == 0)
        if r.norm():
            assert _same(z.inverse(), r.inverse())
            assert _same(w / z, s * r.inverse())
        else:
            with pytest.raises(ZeroDivisionError):
                z.inverse()
        a, b = z.omega_coords()
        assert _same(a + b * k.omega(), r)
        assert z.is_integral() == (a.denominator == 1 and b.denominator == 1)
        # equality and hashing with ints and Fractions
        q = xs[0]
        assert (k.element(q) == q) and (k.element(q) == Fraction(q))
        assert (z == q) == (r.y == 0 and r.x == q)
        if q.denominator == 1:
            assert k.element(q) == int(q)
        assert hash(z) == hash(k.element(z.x, z.y))


def test_quad_element_integer_form():
    k = QuadField(13)  # omega^2 = omega + 3
    z = QuadElement(k, 6, -4, -8)  # (6 - 4 omega) / -8 = (-3 + 2 omega) / 4
    assert (z.a, z.b, z.e) == (-3, 2, 4)
    assert z == k.from_omega_coords(Fraction(-3, 4), Fraction(1, 2))
    assert (z.x, z.y) == (Fraction(-1, 2), Fraction(1, 4))
    assert QuadElement(k, 0, 0, -7) == 0 and QuadElement(k, 0, 0, -7).e == 1
    w = k.omega()
    assert (w * w).a == 3 and (w * w).b == 1  # omega + 3
    assert k.element(4, 2).is_integral() and not k.element(Fraction(1, 2)).is_integral()
    with pytest.raises(ZeroDivisionError):
        QuadElement(k, 1, 1, 0)
    with pytest.raises(ValueError, match="mixed"):
        k.one() + QuadField(5).one()


@pytest.mark.parametrize("D", [5, 8, 12, 13, 316])
def test_unit_exponent_binary_descent(D):
    k = QuadField(D)
    eps = k.fundamental_unit()
    norms = {5: -1, 8: -1, 12: 1, 13: -1, 316: 1}
    assert eps.norm() == norms[D]
    rng = random.Random(D)
    exponents = [0, 1, -1, 2, -2, 3, 255, 256, -257, 3000, -3000]
    exponents += [rng.randint(-3000, 3000) for _ in range(4)]
    for e in exponents:
        u = eps**e
        assert unit_exponent(k, u) == (1, e)
        assert unit_exponent(k, -u) == (-1, e)
    with pytest.raises(ValueError, match="not a unit"):
        unit_exponent(k, k.element(2))
    with pytest.raises(ValueError, match="not a unit"):
        unit_exponent(k, eps / 2)


def test_residue_ring_contracts_and_reuse():
    k = QuadField(5)
    with pytest.raises(ValueError, match="too large"):
        ResidueRing(k, MODULUS_LIMIT + 1)
    assert ResidueRing(k, MODULUS_LIMIT).unit_count() == _unit_count(k, MODULUS_LIMIT)
    with pytest.raises(ValueError, match="positive"):
        ResidueRing(k, 0)
    R = k.residue_ring(9)
    assert k.residue_ring(9) is R  # the last ring asked for is kept
    R2 = k.residue_ring(11)
    assert R2 is not R and R2.M == 11 and k.residue_ring(11) is R2
    assert k.residue_ring(9).M == 9
    with pytest.raises(ValueError, match="not integral"):
        R.reduce(k.element(Fraction(1, 2)))
    with pytest.raises(ValueError, match="fundamental discriminant"):
        QuadField(20)
