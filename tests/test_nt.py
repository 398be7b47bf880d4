import math

import pytest

from rayverify import cyclo, grouprings, nt
from rayverify.nt import (
    crt,
    divisors,
    euler_phi,
    factorize,
    fundamental_discriminant,
    is_prime,
    kronecker,
    moebius,
    multiplicative_order,
    primitive_root,
    squarefree_part,
    sqrt_mod,
    valuation,
)


def test_cyclo_and_grouprings_use_the_helpers_of_nt():
    # one object each, so that a wrapper installed by name reaches every caller
    assert grouprings.radical is nt.radical
    assert cyclo.units_mod is nt.units_mod
    assert nt.units_mod(12) is nt.units_mod(12)  # memoized


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_is_prime_is_a_proof_below_its_bound():
    # the least strong pseudoprime to the 12 prime bases up to 37, far
    # below the 3.3e24 of the docstring: base 41 exposes it
    assert not is_prime(399165290221 * 798330580441)


def test_is_prime_raises_where_it_is_no_proof():
    n = 1287836182261 * 2575672364521
    assert n == nt.PRIME_LIMIT
    # n is a strong probable prime to every base that is_prime tries
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        assert x == 1 or any(pow(x, 2**i, n) == n - 1 for i in range(s)), a
    for m in (n, n + 2, 2 * n):
        with pytest.raises(ValueError, match=str(n)):
            is_prime(m)


def test_factorize_oracles():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(316) == ((2, 2), (79, 1))
    assert factorize(97) == ((97, 1),)
    for n in range(1, 200):
        prod = 1
        for p, e in factorize(n):
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_divisors_and_phi():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    for n in range(1, 120):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_moebius():
    table = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 10: 1, 12: 0, 30: -1, 36: 0}
    for n, mu in table.items():
        assert moebius(n) == mu


def test_valuation_and_squarefree():
    assert valuation(48, 2) == 4
    assert valuation(45, 3) == 2
    assert squarefree_part(48) == 3
    assert squarefree_part(-18) == -2
    assert squarefree_part(316) == 79


def test_multiplicative_order_brute():
    for n in (5, 9, 11, 16, 21):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            k = 1
            x = a % n
            while x != 1:
                x = x * a % n
                k += 1
            assert multiplicative_order(a, n) == k


def test_primitive_root():
    assert primitive_root(7) == 3
    assert primitive_root(11) == 2
    assert primitive_root(13) == 2
    assert primitive_root(79) == 3


def test_crt():
    x = crt([2, 3], [3, 5])
    assert x % 3 == 2 and x % 5 == 3
    x = crt([1, 3], [4, 6])  # non-coprime, compatible
    assert x % 4 == 1 and x % 6 == 3


def test_kronecker_vs_euler_criterion():
    for D in (5, 8, 12, 13, 316):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 79):
            if D % p == 0:
                assert kronecker(D, p) == 0
                continue
            euler = pow(D % p, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            if p == 2:
                continue
            assert kronecker(D, p) == expected


def test_kronecker_at_two_and_negatives():
    assert kronecker(5, 2) == -1   # 5 = -3 mod 8
    assert kronecker(17, 2) == 1
    assert kronecker(316, 2) == 0
    assert kronecker(-4, 3) == -1  # chi_{-4}(3) = -1
    assert kronecker(-4, 5) == 1


def test_fundamental_discriminant():
    assert fundamental_discriminant(5) == 5
    assert fundamental_discriminant(2) == 8
    assert fundamental_discriminant(3) == 12
    assert fundamental_discriminant(79) == 316
    assert fundamental_discriminant(13) == 13


def test_contracts_raise():
    with pytest.raises(ValueError, match="positive integer"):
        factorize(0)
    with pytest.raises(ValueError, match="valuation of 0"):
        valuation(0, 3)
    with pytest.raises(ValueError, match="squarefree part"):
        squarefree_part(0)
    with pytest.raises(ValueError, match="order needs a unit"):
        multiplicative_order(6, 9)
    with pytest.raises(ValueError, match="mod a prime"):
        primitive_root(9)
    with pytest.raises(ValueError, match="incompatible congruences"):
        crt([1, 2], [4, 6])
    with pytest.raises(ValueError, match="square"):
        fundamental_discriminant(9)


def test_sqrt_mod_is_the_first_root_a_scan_finds():
    for p in (q for q in range(3, 200) if is_prime(q)):
        for a in range(p):
            roots = [r for r in range(p) if (r * r - a) % p == 0]
            if roots:
                assert sqrt_mod(a, p) == roots[0], (a, p)
            else:
                with pytest.raises(ValueError, match="not a square"):
                    sqrt_mod(a, p)
    # p - 1 = 3 * 2^30: thirty rounds of Tonelli-Shanks, no scan
    p = 3 * 2**30 + 1
    r = sqrt_mod(2, p)
    assert r * r % p == 2 and r <= p - r
