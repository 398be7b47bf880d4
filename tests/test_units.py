"""Tests for cyclotomic numbers and unit lattices of real quadratic fields."""

import math
import random
from fractions import Fraction

import pytest

from rayverify import cyclo, units
from rayverify.cyclo import (
    FieldSpec,
    power_sums_to_elementary,
    subgroup_product_polynomial,
    subgroup_trace_of_power,
    to_quadratic,
    units_mod,
)
from rayverify.intmat import hnf, kernel, transpose
from rayverify.nt import divisors, factorize, kronecker, moebius, valuation
from rayverify.quadratic import QuadElement, QuadField, _is_fundamental
from rayverify.units import (
    _norm_one_minus_power,
    auxiliary_prime,
    circular_unit_lattice,
    congruence_circular_lattice,
    congruence_exponent,
    congruence_unit_lattice,
    cyclotomic_number,
    full_unit_lattice,
    generating_levels,
    lattice_index,
    orbit_product,
    twist_power,
    unit_pair,
)

Q5 = QuadField(5)
Q13 = QuadField(13)
Q316 = QuadField(316)


def test_cyclotomic_number_base_levels():
    # level equal to the discriminant: (5 - sqrt5)/2
    assert cyclotomic_number(Q5, 5) == Q5.element(Fraction(5, 2), Fraction(-1, 2))
    # levels invisible to the field: rational norms from the cyclotomic side
    assert cyclotomic_number(Q5, 3) == Q5.element(3)
    assert cyclotomic_number(Q5, 4) == Q5.element(2)
    assert cyclotomic_number(Q5, 6) == Q5.element(1)
    assert cyclotomic_number(Q5, 12) == Q5.element(1)
    # norm 13 (ramified level) and quotient by the conjugate a unit square
    d13 = cyclotomic_number(Q13, 13)
    assert d13 == Q13.element(Fraction(13, 2), Fraction(-3, 2))
    assert d13.norm() == 13
    assert d13 / d13.conj() == Q13.fundamental_unit() ** -2


def test_cyclotomic_number_twists():
    eps = Q5.fundamental_unit()
    assert cyclotomic_number(Q5, 2, 5) == Q5.element(16)
    assert cyclotomic_number(Q5, 10, 5) == eps**-10 / 4
    assert cyclotomic_number(Q5, 5, 4) == Q5.element(45, -20)
    assert cyclotomic_number(Q5, 3, 2) == Q5.element(3)


def test_cyclotomic_number_rejects_degenerate_levels():
    with pytest.raises(ValueError, match="radical of the twist"):
        cyclotomic_number(Q5, 5, 5)  # level divides the radical of the twist
    with pytest.raises(ValueError, match="at least 2"):
        cyclotomic_number(Q5, 1, 3)  # level must exceed 1


def test_twist_distribution_relations():
    delta = cyclotomic_number(Q5, 5)
    # twist by 2: exponent (2 - sigma)
    assert cyclotomic_number(Q5, 5, 2) == twist_power(delta, 2, -1)
    # twist by 6: exponent (2 - sigma)(3 - sigma) = 7 - 5 sigma
    assert cyclotomic_number(Q5, 5, 6) == twist_power(delta, 7, -5)
    # prime-power twist: plain power of the radical twist
    d10 = cyclotomic_number(Q5, 10, 5)
    assert cyclotomic_number(Q5, 10, 25) == d10**5


def test_generating_levels():
    assert generating_levels(Q5, 1) == [5]
    assert generating_levels(Q5, 4) == [5]
    assert generating_levels(Q5, 5) == [2, 10]
    assert generating_levels(Q5, 6) == [5]
    assert generating_levels(Q5, 50) == [3, 15]
    assert generating_levels(Q13, 1) == [13]
    assert generating_levels(Q316, 1) == [4, 79, 316]
    assert auxiliary_prime(Q5, 5) == 2
    assert auxiliary_prime(Q5, 50) == 3  # 2 divides the radical of 50


def test_cyclotomic_numbers_79():
    assert cyclotomic_number(Q316, 4) == Q316.element(2)
    assert cyclotomic_number(Q316, 79) == Q316.element(79)
    z = cyclotomic_number(Q316, 316)
    k, s = unit_pair(Q316, z)
    assert abs(k) == 3  # unit whose power ties the class number into the index


def test_unit_pair_and_full_lattice():
    eps = Q5.fundamental_unit()
    assert unit_pair(Q5, -(eps**3)) == (3, 1)
    assert unit_pair(Q5, eps**-2) == (-2, 0)
    assert full_unit_lattice() == [[1, 0], [0, 1]]


def test_congruence_unit_lattices():
    assert congruence_unit_lattice(Q5, 1) == [[1, 0], [0, 1]]
    assert congruence_unit_lattice(Q5, 4) == [[6, 0], [0, 2]]
    assert congruence_unit_lattice(Q5, 9) == [[12, 1], [0, 2]]
    assert congruence_unit_lattice(Q5, 11) == [[10, 0], [0, 2]]
    assert congruence_unit_lattice(Q5, 25) == [[50, 1], [0, 2]]
    assert congruence_exponent(Q5, 4) == 6
    assert congruence_exponent(Q5, 35) == 80
    assert congruence_exponent(Q5, 45) == 120
    assert congruence_exponent(Q5, 50) == 150


def test_circular_unit_lattices_untwisted():
    assert circular_unit_lattice(Q5, 1) == [[2, 0], [0, 1]]
    assert circular_unit_lattice(Q316, 1) == [[3, 0], [0, 1]]
    # index in the full unit group: trivial for D=5, the class number for 79
    assert lattice_index(circular_unit_lattice(Q5, 1), full_unit_lattice()) == 2
    assert lattice_index(circular_unit_lattice(Q316, 1), full_unit_lattice()) == 3


def _support_columns(field, values):
    # the valuation columns circular_unit_lattice once listed by chi_D(p)
    primes = set()
    for z in values:
        nm = z.norm()
        for p, _ in factorize(abs(nm.numerator) * nm.denominator):
            primes.add(p)
    cols = []
    for p in sorted(primes):
        ch = field.chi(p)
        if ch == 1:
            r1, r2 = field.prime_roots(p)
            cols.append((p, r1, "split"))
            cols.append((p, r2, "split"))
        elif ch == 0:
            cols.append((p, field.prime_roots(p)[0], "ramified"))
        else:
            cols.append((p, None, "inert"))
    return cols


def _valuation_row(field, z, cols):
    # ... and valued z at them, one kind at a time
    den = z.e
    zi = QuadElement(field, z.a, z.b)
    row = []
    for p, r, kind in cols:
        if kind == "inert":
            v = valuation(abs(int(zi.norm())), p) // 2 - valuation(den, p)
        elif kind == "ramified":
            v = field.prime_valuation(zi, p, r) - 2 * valuation(den, p)
        else:
            v = field.prime_valuation(zi, p, r) - valuation(den, p)
        row.append(v)
    return row


def test_circular_unit_lattice_matches_the_valuations_split_by_kind():
    """On the generators of every circular_unit_lattice(field, d) with D < 200
    and d <= 6: the columns are `primes_over` the support, prime_valuation
    gives the rows of the split/inert/ramified oracle, and the oracle's
    kernel spans the same lattice."""
    for D in filter(_is_fundamental, range(5, 200)):
        field = QuadField(D)
        for d in range(1, 7):
            gens = []
            for n in generating_levels(field, d):
                z = cyclotomic_number(field, n, d)
                gens += [z, z.conj()]
            cols = _support_columns(field, gens)
            support = sorted({p for p, _, _ in cols})
            assert [(p, r) for p, r, _ in cols] == [
                P for p in support for P in field.primes_over(p)
            ]
            V = [_valuation_row(field, z, cols) for z in gens]
            assert V == [[field.prime_valuation(z, p, r) for p, r, _ in cols] for z in gens]
            rows = [[0, 1]]
            for combo in kernel(transpose(V)):
                u = math.prod((z**e for z, e in zip(gens, combo)), start=field.one())
                rows.append(list(unit_pair(field, u)))
            assert circular_unit_lattice(field, d) == hnf(rows), (D, d)


def test_congruence_circular_indices():
    # twist 4: congruence units <eps^6>, circular part <eps^12>, index 2
    c4 = congruence_circular_lattice(Q5, 4)
    assert c4 == [[12, 0], [0, 2]]
    assert lattice_index(c4, congruence_unit_lattice(Q5, 4)) == 2
    # twist 11
    c11 = congruence_circular_lattice(Q5, 11)
    assert c11 == [[20, 0], [0, 2]]
    assert lattice_index(c11, congruence_unit_lattice(Q5, 11)) == 2
    # twist 25
    c25 = congruence_circular_lattice(Q5, 25)
    assert lattice_index(c25, congruence_unit_lattice(Q5, 25)) == 2
    # twist 34: index 6, whose 3-part is the interesting quantity
    c34 = congruence_circular_lattice(Q5, 34)
    assert c34[0][0] == 108
    assert lattice_index(c34, congruence_unit_lattice(Q5, 34)) == 6


def _orbit_polynomial_per_j(field, n, t):
    """F_t = prod over h in S of (X - zeta_n^(t h)), ascending, from one
    Gauss-period trace per j = 1..|S| through Newton's identities in k."""
    S = FieldSpec.quadratic(field.D).fixing_subgroup_at(n)
    powers = [
        field.element(*to_quadratic(subgroup_trace_of_power(n, S, t * j), field.D))
        for j in range(1, len(S) + 1)
    ]
    coeffs = [field.one()]
    for i, e in enumerate(power_sums_to_elementary(powers, field.one()), start=1):
        coeffs.append(-e if i % 2 else e)
    return coeffs[::-1]


def _norm_one_minus_power_per_j(field, n, t):
    """F_t(1), the norm of 1 - zeta_n^t: the reference for the norms."""
    return sum(_orbit_polynomial_per_j(field, n, t), field.zero())


def _fold(coeffs, t, ell, zero):
    """F(Y^t) mod (Y^ell - 1) from the ascending coefficients of F."""
    full = [zero] * ell
    for i, c in enumerate(coeffs):
        full[t * i % ell] += c
    return full


@pytest.mark.parametrize(
    "D, n, t",
    [(5, 5, 1), (5, 10, 1), (5, 15, 2), (5, 20, 3), (13, 13, 1), (13, 26, 2),
     (8, 8, 1), (8, 24, 5), (12, 12, 1), (12, 36, 4)],
)
def test_norm_one_minus_power_matches_per_j_traces(D, n, t):
    field = QuadField(D)
    expected = _norm_one_minus_power_per_j(field, n, t)
    assert _norm_one_minus_power(field, n, t) == expected


def _oracle_grid(seed=1411, size=72):
    """A seeded sample of (D, n, t) with n a multiple of D up to 120, or a
    small level the field does not see, plus D = 316 at n = 316."""
    pool = [
        (D, n, t)
        for D in (5, 8, 12, 13, 21, 24, 29, 40)
        for n in sorted({D * r for r in range(1, 121 // D + 1)} | {3, 7, 9, 16})
        for t in range(1, n)
    ]
    grid = random.Random(seed).sample(pool, size)
    return grid + [(316, 316, 1), (316, 316, 3), (316, 316, 2), (316, 316, 7)]


def _norm_route_cases(D, n, t):
    """The cases `_norm_one_minus_power` splits on that (D, n, t) falls in."""
    g = math.gcd(n, t)
    s = n // g
    cases = set()
    if s < n:
        cases.add("s < n")
    if n % D == 0 and s % D:
        cases.add("D | n, D does not divide s")
    if s % D == 0:
        if math.gcd(s // D, D) > 1:
            cases.add("vanishing Gauss sum")
        if QuadField(D).chi(t // g) == -1:
            cases.add("chi(t') = -1")
    if (D, n) == (316, 316):
        cases.add("D = 316")
    return cases


def test_norm_one_minus_power_matches_newton_on_a_seeded_grid():
    grid = _oracle_grid()
    covered = set().union(*(_norm_route_cases(*point) for point in grid))
    assert covered == {
        "s < n", "D | n, D does not divide s", "vanishing Gauss sum",
        "chi(t') = -1", "D = 316",
    }
    assert {D for D, _, _ in grid} >= {8, 12, 24, 40}
    for D, n, t in grid:
        field = QuadField(D)
        expected = _norm_one_minus_power_per_j(field, n, t)
        assert _norm_one_minus_power(field, n, t) == expected, (D, n, t)


def test_orbit_product_matches_the_folded_newton_oracle_on_the_seeded_grid():
    for D, n, t in _oracle_grid():
        field = QuadField(D)
        coeffs = _orbit_polynomial_per_j(field, n, t)
        for ell in (1, 11, 13, 29):
            expected = _fold(coeffs, t, ell, field.zero())
            assert orbit_product(field, n, t, ell) == expected, (D, n, t, ell)


@pytest.mark.parametrize(
    "D, n, t",
    [(5, 5, 1), (5, 10, 3), (5, 15, 2), (5, 7, 1), (5, 12, 4), (13, 26, 2),
     (8, 24, 5), (12, 36, 4), (29, 58, 1),
     # gcd(n / D, D) > 1: the Gauss sum of chi_D induced to modulus 25 is 0
     (5, 25, 1)],
)
def test_orbit_product_matches_the_folded_cyclotomic_product(D, n, t):
    """F_t(Y^t) mod (Y^ell - 1) against prod (X - zeta_n^(t h)) expanded in
    Q(zeta_n), pushed down coefficient by coefficient and folded."""
    field = QuadField(D)
    S = FieldSpec.quadratic(D).fixing_subgroup_at(n)
    coeffs = [
        field.element(*to_quadratic(c, D)) for c in subgroup_product_polynomial(n, S, t)
    ]
    for ell in (1, 11, 13, 29):
        assert orbit_product(field, n, t, ell) == _fold(coeffs, t, ell, field.zero()), ell
    assert _norm_one_minus_power(field, n, t) == sum(coeffs, field.zero())


def _period(D, m, sign):
    """Twice the Gauss period of one orbit of ker(chi_D) on (Z/m)^*: the
    Ramanujan sum mu(m) when D does not divide m (`sign` 0), else the coset
    where chi_D is `sign`, with period (mu(m) + sign mu(r) chi(r) sqrt(D)) / 2
    for m = D r."""
    if not sign:
        return 2 * moebius(m), 0
    return moebius(m), sign * moebius(m // D) * kronecker(D, m // D)


def _level_norm(field, s):
    """u_s as one product of the 1 - x^h over ker(chi_D) in Z[x]/(x^s - 1),
    summed against the periods of its orbits: O(s^2), the route `units`
    took before `orbit_product`."""
    D = field.D
    chi = [kronecker(D, a) for a in range(D)]
    P = [1] + [0] * (s - 1)
    for h in units_mod(s):
        if chi[h % D] == 1:
            P = [a - b for a, b in zip(P, P[-h:] + P[:-h])]
    x2 = y2 = 0
    for m in divisors(s):
        orbits = {}  # chi(j) when D | m, else 0 -> the coefficient on the orbit
        for j in units_mod(m):
            orbits[chi[j % D] if m % D == 0 else 0] = P[s // m * j]
        for sign, c in orbits.items():
            px, py = _period(D, m, sign)
            x2 += c * px
            y2 += c * py
    return field.element(Fraction(x2, 2), Fraction(y2, 2))


def _fundamental_discriminants(lo, hi):
    return [D for D in range(max(lo, 5), hi) if _is_fundamental(D)]


def _u_D_sample(seed=2113, size=6):
    """Every fundamental D below 500, then a seeded sample up to 3000."""
    rest = random.Random(seed).sample(_fundamental_discriminants(500, 3000), size)
    return _fundamental_discriminants(5, 500) + sorted(rest)


def test_u_D_matches_the_level_product():
    sample = _u_D_sample()
    assert len(sample) > 150 and max(sample) > 1500
    for D in sample:
        field = QuadField(D)
        assert orbit_product(field, D, 1, 1) == [_level_norm(field, D)], D


def test_norms_of_the_deep_op_skip_newtons_identities(monkeypatch):
    """The twists of `gras --quad 79 --mode scan --d 12` at level 316."""
    twists = (1, 2, 3, 5, 6, 7, 10, 11)
    expected = [_norm_one_minus_power_per_j(Q316, 316, t) for t in twists]

    def refuse(*args):
        raise AssertionError("the norm took Newton's identities")

    monkeypatch.setattr(units, "_norm_cache", {})
    monkeypatch.setattr(units, "_levels", {})
    monkeypatch.setattr(cyclo, "power_sums_to_elementary", refuse)
    assert [_norm_one_minus_power(Q316, 316, t) for t in twists] == expected


def _log2_bound_by_exact_power(n, t, ell, cosets):
    """`units._log2_bound` with the exact bit length of (60 B^5)^|C|."""
    N = ell * n
    B = 113 * N
    c4, c2, c0 = 355 * 120 * B**4, 355**3 * 20 * B**2, 355**5
    top = 0
    for C in cosets:
        for j in range(ell):
            m, e = 1, 0
            for h in C:
                r = t * (j * n - h * ell) % N
                r = min(r, N - r)
                r2 = r * r
                m *= r * (c4 - r2 * (c2 - c0 * r2))
                if m >> 64:
                    s = m.bit_length() - 64
                    m, e = (m >> s) + 1, e + s
            top = max(top, e + m.bit_length())
    return top - pow(60 * B**5, len(cosets[0])).bit_length() + 1


@pytest.mark.parametrize(
    "D, n, t, ell",
    [(5, 5, 1, 1), (316, 316, 1, 1), (3084, 3084, 1, 1), (9001, 9001, 1, 1)]
    + [(5, 5, t, 29) for t in (1, 2, 3)],
)
def test_log2_bound_is_within_two_bits_above_the_exact_power(D, n, t, ell):
    # the cosets of ker(chi_D) in (Z/n)^*, as `orbit_product` builds them
    cosets = [[h for h in units_mod(n) if kronecker(D, h) == c] for c in (1, -1)]
    exact = _log2_bound_by_exact_power(n, t, ell, cosets)
    assert exact <= units._log2_bound(n, t, ell, cosets) <= exact + 2


def test_orbit_product_rejects_too_few_primes(monkeypatch):
    # u_D for D = 1801 has a coordinate of 105 bits: one prime below 2^81
    # lifts it wrongly
    field = QuadField(1801)
    monkeypatch.setattr(units, "_levels", {})
    monkeypatch.setattr(units, "_norm_cache", {})
    u = _norm_one_minus_power(field, 1801, 1)
    assert max(abs(u.a), abs(u.b)).bit_length() == 105
    assert len(units._levels[1801, 1801][1]) > 1
    monkeypatch.setattr(units, "_log2_bound", lambda *args: 0)
    # F_1(Y) mod (Y^11 - 1), against the cached norm
    with pytest.raises(ArithmeticError, match="does not sum to the norm"):
        orbit_product(field, 1801, 1, 11)
    monkeypatch.setattr(units, "_norm_cache", {})
    monkeypatch.setattr(units, "_levels", {})  # and the u_1801 lifted above
    with pytest.raises(ArithmeticError, match="N\\(u_1801\\) is not Phi_1801\\(1\\)"):
        _norm_one_minus_power(field, 1801, 1)


def test_orbit_product_rejects_a_symbol_that_is_not_a_character(monkeypatch):
    # its cosets are not those of a subgroup, so the product is not in k
    monkeypatch.setattr(units, "_levels", {})
    monkeypatch.setattr(units, "_norm_cache", {})
    monkeypatch.setattr(units, "kronecker", lambda D, a: 1 if a % D in (1, 2) else -1)
    with pytest.raises(ArithmeticError, match="is not Phi_5"):
        _norm_one_minus_power(Q5, 5, 1)


def test_lattice_index_rejects_a_non_sublattice():
    with pytest.raises(ArithmeticError, match="not a sublattice"):
        lattice_index(full_unit_lattice(), [[2, 0], [0, 1]])
    with pytest.raises(ValueError, match="degenerates"):
        _norm_one_minus_power(Q5, 5, 10)
