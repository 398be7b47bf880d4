"""Exact integer linear algebra: Smith and Hermite normal forms, lattices.

Matrices are dense: a list of rows, each row a list of Python ints.
The normal-form routines are deterministic; pivot selection always takes
the nonzero entry of smallest absolute value, scanning row-major with the
first hit winning ties.  Structure computations downstream (orders of
finite modules, Sylow decompositions, lattice indices) rely on this
determinism to produce reproducible witnesses.

`Lattice(rows)` is the row lattice L spanned by integer generators in Z^n.
It takes the Smith form U A V = S of A = transpose(rows) once, on the first
question asked, and answers every membership, solve and order question in
Z^n / L from it: with c = U v, v lies in L exactly when each diagonal entry
d_i divides c_i (c_i = 0 where d_i = 0), the solution is V (c_i / d_i), and
the order of v is lcm(d_i / gcd(d_i, c_i)).  `solve` is a one-question
lattice; callers that ask many questions of one matrix keep its lattice.

Matrices of the wrong shape raise ValueError; no check is an `assert`, so
`python -O` behaves the same.
"""

from __future__ import annotations

import math


def _copy_rows(A):
    return [list(map(int, row)) for row in A]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def transpose(A):
    if not A:
        return []
    return [list(col) for col in zip(*A)]


def mat_mul(A, B):
    if not A or not B:
        return [[] for _ in A]
    n = len(B)
    if any(len(row) != n for row in A):
        raise ValueError("inner dimensions disagree")
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def mat_vec(A, v):
    return [sum(a * b for a, b in zip(row, v)) for row in A]


def det(A):
    """Determinant of a square integer matrix, Bareiss fraction-free scheme."""
    M = _copy_rows(A)
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("det needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact by the Bareiss identity
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def snf(A):
    """Smith normal form with transforms.

    Returns (U, S, V) with U*A*V == S, U and V unimodular, S diagonal and
    each diagonal entry nonnegative and dividing the next.  Diagonal of S
    is the invariant-factor chain of the cokernel Z^m / (row space of A^T),
    equivalently of Z^n / (column relations); callers treating rows of A as
    relations among n generators read the group structure off the diagonal.
    """
    S = _copy_rows(A)
    m = len(S)
    n = len(S[0]) if m else 0
    U = identity(m)
    V = identity(n)
    t = 0
    while t < min(m, n):
        # deterministic pivot: min |entry| over S[t:, t:], row-major scan
        pi = pj = -1
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                v = S[i][j]
                if v != 0 and (best == 0 or abs(v) < best):
                    best = abs(v)
                    pi, pj = i, j
        if best == 0:
            break
        if pi != t:
            S[t], S[pi] = S[pi], S[t]
            U[t], U[pi] = U[pi], U[t]
        if pj != t:
            for row in S:
                row[t], row[pj] = row[pj], row[t]
            for row in V:
                row[t], row[pj] = row[pj], row[t]
        if S[t][t] < 0:
            S[t] = [-x for x in S[t]]
            U[t] = [-x for x in U[t]]
        p = S[t][t]
        dirty = False
        for i in range(t + 1, m):
            if S[i][t] != 0:
                q = S[i][t] // p
                if q:
                    S[i] = [a - q * b for a, b in zip(S[i], S[t])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[t])]
                if S[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if S[t][j] != 0:
                q = S[t][j] // p
                if q:
                    for row in S:
                        row[j] -= q * row[t]
                    for row in V:
                        row[j] -= q * row[t]
                if S[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # leftover remainders are smaller than p; rescan
        # divisibility: pivot must divide the remaining block
        fixed = True
        for i in range(t + 1, m):
            bad = next((j for j in range(t + 1, n) if S[i][j] % p != 0), None)
            if bad is not None:
                S[t] = [a + b for a, b in zip(S[t], S[i])]
                U[t] = [a + b for a, b in zip(U[t], U[i])]
                fixed = False
                break
        if fixed:
            t += 1
    return U, S, V


def smith_diagonal(A):
    """Invariant factors of A (nonzero diagonal of its Smith form)."""
    _, S, _ = snf(A)
    return [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0)) if S[i][i] != 0]


def hnf(A):
    """Row Hermite normal form with zero rows dropped.

    Pivots are positive, entries above a pivot lie in [0, pivot), and the
    row space equals that of A.  hnf is idempotent, so two integer row
    lattices are equal iff their hnf matrices are equal.
    """
    H = _copy_rows(A)
    m = len(H)
    n = len(H[0]) if m else 0
    r = 0
    for j in range(n):
        while True:
            piv = -1
            best = 0
            for i in range(r, m):
                v = H[i][j]
                if v != 0 and (best == 0 or abs(v) < best):
                    best = abs(v)
                    piv = i
            if piv < 0:
                break
            if piv != r:
                H[r], H[piv] = H[piv], H[r]
            clean = True
            for i in range(r + 1, m):
                if H[i][j] != 0:
                    q = H[i][j] // H[r][j]
                    if q:
                        H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    if H[i][j] != 0:
                        clean = False
            if clean:
                break
        if piv >= 0:
            if H[r][j] < 0:
                H[r] = [-x for x in H[r]]
            for i in range(r):
                q = H[i][j] // H[r][j]
                if q:
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
            r += 1
    return [row for row in H[:r]]


def kernel(A):
    """Basis of the integer kernel {x : A x = 0}, one vector per row.

    The basis is saturated: it spans ker(A) over Q intersected with Z^n,
    so quotients by the kernel lattice are torsion-free.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return identity(n)
    _, S, V = snf(A)
    rank = sum(1 for i in range(min(m, n)) if S[i][i] != 0)
    return [[V[i][j] for i in range(n)] for j in range(rank, n)]


def solve(A, b):
    """One integer solution x of A x = b, or None when none exists."""
    return Lattice(transpose(A)).coords(b)


def preimage_lattice(V, L):
    """Basis rows of {r : r . V lies in the row lattice of L}.

    V is a list of s vectors (the images of s abstract generators); L spans
    the target relation lattice.  When the quotient of the target by L is
    finite the result has full rank s; a zero-width target gives Z^s.
    """
    s = len(V)
    if s == 0:
        return []
    if not V[0]:
        return identity(s)
    stacked = [list(v) for v in V] + [list(row) for row in L]
    ker = kernel(transpose(stacked))
    return [row[:s] for row in ker]


def intersection_lattice(A, B):
    """Hermite basis of the intersection of two row lattices in Z^n.

    Uses the block trick: the Hermite form of rows [a | a] and [b | 0] has
    its (0 | x) rows spanning exactly the intersection.
    """
    if not A or not B:
        return []
    n = len(A[0])
    rows = [list(a) + list(a) for a in A] + [list(b) + [0] * n for b in B]
    H = hnf(rows)
    out = [r[n:] for r in H if all(x == 0 for x in r[:n])]
    return hnf(out)


class Lattice:
    """The row lattice L spanned by integer generators in Z^n.

    The Smith form of transpose(rows) is taken on the first question and
    kept: `coords`, `contains`, `order` and `invariants` all read it.  An
    empty generator list spans {0}.
    """

    def __init__(self, rows):
        self.rows = _copy_rows(rows)
        self._usv = None

    def _smith(self):
        """(U, diagonal of S, the first r columns of V), computed once.

        r is the Smith rank: the diagonal is nonzero exactly at 0..r-1, so
        a solution V y has y_i = 0 past r and only those columns matter.
        """
        if self._usv is None:
            A = transpose(self.rows)
            U, S, V = snf(A) if A else ([], [], [])
            diag = [S[i][i] for i in range(min(len(A), len(self.rows)))]
            r = sum(1 for d in diag if d)
            self._usv = (U, diag, [row[:r] for row in V])
        return self._usv

    def _pairs(self, v):
        """(d_i, c_i) for c = U v, with d_i = 0 past the Smith diagonal."""
        U, diag, _ = self._smith()
        c = mat_vec(U, v) if U else [int(x) for x in v]
        return [(diag[i] if i < len(diag) else 0, ci) for i, ci in enumerate(c)]

    def coords(self, v):
        """Integer x with x . rows == v, or None when v is not in L."""
        pairs = self._pairs(v)
        if not all(c % d == 0 if d else c == 0 for d, c in pairs):
            return None
        Vr = self._smith()[2]
        return mat_vec(Vr, [c // d for d, c in pairs if d])

    def contains(self, v):
        return self.coords(v) is not None

    def order(self, v):
        """Order of v in Z^n / L; 0 when v has infinite order."""
        return math.lcm(
            *(d // math.gcd(d, c) if d else int(c == 0) for d, c in self._pairs(v))
        )

    def invariants(self):
        """Invariant factors of L (the nonzero Smith diagonal), as
        `smith_diagonal(rows)` gives them."""
        return [d for d in self._smith()[1] if d]
