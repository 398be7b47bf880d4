import ast
import math
import random
from pathlib import Path

import pytest

import rayverify.intmat as intmat
from rayverify.intmat import (
    Lattice,
    det,
    hnf,
    identity,
    kernel,
    mat_mul,
    mat_vec,
    smith_diagonal,
    snf,
    solve,
    transpose,
)


def test_snf_identity():
    U, S, V = snf(identity(2))
    assert S == [[1, 0], [0, 1]]


def test_snf_small_oracle():
    # invariant factors of [[2,4],[6,8]]: gcd of entries is 2 and
    # |det| = 8, so the chain is 2, 4
    A = [[2, 4], [6, 8]]
    U, S, V = snf(A)
    assert S == [[2, 0], [0, 4]]
    assert mat_mul(mat_mul(U, A), V) == S


def test_snf_zero_matrix():
    U, S, V = snf([[0]])
    assert S == [[0]]
    assert U == [[1]] and V == [[1]]


def test_snf_rectangular():
    A = [[6, 10, 15]]
    U, S, V = snf(A)
    assert S[0][0] == 1  # gcd(6,10,15)
    assert mat_mul(mat_mul(U, A), V) == S


def test_kernel_oracle():
    assert kernel([[2, -2]]) == [[1, 1]]


def test_kernel_saturated():
    # row space of [[2,0],[0,2]] has full rank: kernel empty
    assert kernel([[2, 0], [0, 2]]) == []
    # [[1,2,3]] has a rank-2 kernel; vectors must actually annihilate
    K = kernel([[1, 2, 3]])
    assert len(K) == 2
    for v in K:
        assert mat_vec([[1, 2, 3]], v) == [0]


def test_hnf_oracle():
    assert hnf([[2, 4], [6, 8]]) == [[2, 0], [0, 4]]


def test_hnf_idempotent_and_lattice_equality():
    A = [[3, 1, 2], [1, 4, 1], [4, 5, 3]]
    H = hnf(A)
    assert hnf(H) == H
    # appending an integer combination of rows must not change the lattice
    extra = [a + 2 * b for a, b in zip(A[0], A[2])]
    assert hnf(A + [extra]) == H


def test_solve_oracles():
    A = [[2, 4], [6, 8]]
    x = solve(A, [2, 6])
    assert x is not None and mat_vec(A, x) == [2, 6]
    assert solve(A, [1, 0]) is None  # parity obstruction
    assert solve([[2]], [3]) is None


def test_det_oracles():
    assert det([[2, 4], [6, 8]]) == -8
    assert det(identity(3)) == 1
    assert det([[7]]) == 7
    assert det([[1, 2], [2, 4]]) == 0


def test_smith_diagonal():
    assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert smith_diagonal([[0, 0]]) == []


def _random_matrix(rng, m, n, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def test_snf_properties_random():
    rng = random.Random(17)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = _random_matrix(rng, m, n)
        U, S, V = snf(A)
        assert mat_mul(mat_mul(U, A), V) == S
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        diag = [S[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert S[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        if m == n:
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(det(A))


def test_kernel_properties_random():
    rng = random.Random(23)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        A = _random_matrix(rng, m, n, bound=6)
        K = kernel(A)
        for v in K:
            assert mat_vec(A, v) == [0] * m
        U, S, V = snf(A)
        rank = sum(1 for i in range(min(m, n)) if S[i][i] != 0)
        assert len(K) == n - rank


def test_solve_properties_random():
    rng = random.Random(31)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = _random_matrix(rng, m, n, bound=6)
        x = [rng.randint(-5, 5) for _ in range(n)]
        b = mat_vec(A, x)
        got = solve(A, b)
        assert got is not None
        assert mat_vec(A, got) == b


def test_hnf_row_space_random():
    rng = random.Random(41)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = _random_matrix(rng, m, n, bound=6)
        H = hnf(A)
        assert hnf(H) == H
        # every original row solves over the hnf basis and conversely
        for row in A:
            assert solve(transpose(H), row) is not None if H else all(v == 0 for v in row)
        for row in H:
            assert solve(transpose(A), row) is not None


def test_preimage_lattice():
    from rayverify.intmat import preimage_lattice

    # images of two generators in Z/6 x Z/4 given by rows of V
    V = [[1, 0], [0, 1]]
    L = [[6, 0], [0, 4]]
    assert hnf(preimage_lattice(V, L)) == [[6, 0], [0, 4]]
    # single generator mapping diagonally
    K = preimage_lattice([[2, 2]], [[4, 0], [0, 6]])
    assert hnf(K) == [[6]]  # 2k = 0 mod 4 and 2k = 0 mod 6 iff 6 | k
    assert preimage_lattice([], [[1]]) == []
    # a trivial target group: every combination lands in it
    assert preimage_lattice([[], []], []) == [[1, 0], [0, 1]]


def test_intersection_lattice():
    from rayverify.intmat import intersection_lattice

    A = [[2, 0], [0, 3]]
    B = [[3, 0], [0, 2]]
    assert intersection_lattice(A, B) == [[6, 0], [0, 6]]
    # intersection with a sublattice is the sublattice
    C = [[4, 2], [0, 10]]
    full = [[1, 0], [0, 1]]
    assert intersection_lattice(C, full) == hnf(C)
    assert intersection_lattice([], A) == []


# ----------------------------------------------------------------------
# Lattice: one Smith form, every question; oracles from hnf and addition


def _hnf_member(rows, v):
    H = hnf(rows)
    return hnf(H + [list(v)]) == H


def _order_by_addition(rows, v, limit):
    """Least n >= 1 with n v in the lattice, by repeated addition; 0 (infinite
    order) past limit, the order of the torsion of Z^n / lattice."""
    n, cur = 1, list(v)
    while not _hnf_member(rows, cur):
        if n == limit:
            return 0
        cur = [a + b for a, b in zip(cur, v)]
        n += 1
    return n


def _lattice_cases(rng):
    """(rows, n): random, rank-deficient, 1x1 and empty generator sets."""
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        yield _random_matrix(rng, m, n, bound=6), n
    for _ in range(30):
        n = rng.randint(2, 4)
        base = _random_matrix(rng, rng.randint(1, n - 1), n, bound=5)
        combos = _random_matrix(rng, rng.randint(1, 4), len(base), bound=3)
        yield mat_mul(combos, base), n
    for d in (0, 1, 2, 7, -4):
        yield [[d]], 1
    for n in (1, 3):
        yield [], n


def test_lattice_oracles_random():
    rng = random.Random(53)
    for rows, n in _lattice_cases(rng):
        lat = Lattice(rows)
        assert lat.invariants() == smith_diagonal(rows)
        torsion = math.prod(smith_diagonal(rows))
        probes = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(6)]
        probes += [[0] * n]
        if rows:
            x = [rng.randint(-3, 3) for _ in rows]
            probes.append(mat_vec(transpose(rows), x))
        for v in probes:
            member = _hnf_member(rows, v)
            assert lat.contains(v) == member
            x = lat.coords(v)
            assert (x is not None) == member
            if x is not None:
                assert mat_vec(transpose(rows), x) == v if rows else not any(v)
            assert lat.order(v) == _order_by_addition(rows, v, torsion)


def test_lattice_infinite_order_is_zero():
    rows = [[2, 0, 0], [0, 3, 0]]  # rank 2 in Z^3
    lat = Lattice(rows)
    assert lat.invariants() == [1, 6]
    assert lat.order([1, 0, 0]) == 2
    assert lat.order([1, 1, 0]) == 6
    assert lat.order([0, 0, 1]) == 0
    assert lat.order([0, 0, 0]) == 1
    assert mat_vec(transpose(rows), lat.coords([4, -3, 0])) == [4, -3, 0]
    assert lat.coords([0, 0, 1]) is None
    empty = Lattice([])
    assert empty.contains([0, 0]) and not empty.contains([0, 1])
    assert empty.order([0, 0]) == 1 and empty.order([5, 0]) == 0
    assert empty.invariants() == []


def test_lattice_factors_once(monkeypatch):
    from rayverify import intmat

    calls = []
    real = intmat.snf
    monkeypatch.setattr(intmat, "snf", lambda A: calls.append(1) or real(A))
    lat = Lattice([[4, 2], [0, 6]])
    assert calls == []  # nothing is factored before the first question
    assert lat.contains([4, 8])
    assert lat.order([1, 0]) == 12  # n (1, 0) = a (4, 2) + b (0, 6) forces 12 | n
    assert lat.coords([4, 8]) is not None
    assert lat.invariants() == [2, 12]
    assert len(calls) == 1



def test_lattice_coords_match_full_v_product():
    """coords multiplies only the first Smith-rank columns of V; the answer
    is the one the whole of V gives, y being zero past the rank."""
    rng = random.Random(97)
    for rows, n in _lattice_cases(rng):
        if not rows:
            continue
        U, S, V = snf(transpose(rows))
        diag = [S[i][i] for i in range(min(n, len(rows)))]
        lat = Lattice(rows)
        x = [rng.randint(-4, 4) for _ in rows]
        for v in (mat_vec(transpose(rows), x), [0] * n):
            c = mat_vec(U, v)
            y = [ci // d if d else 0 for ci, d in zip(c, diag)]
            y += [0] * (len(rows) - len(y))
            assert lat.coords(v) == mat_vec(V, y)


def test_contracts_raise():
    with pytest.raises(ValueError, match="inner dimensions"):
        mat_mul([[1, 2]], [[1, 2]])
    with pytest.raises(ValueError, match="square"):
        det([[1, 2]])


def test_intmat_module_has_no_assert():
    """Checks must survive python -O."""
    tree = ast.parse(Path(intmat.__file__).read_text())
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
