"""Finite modules over a Galois group, and the residue-ring certificates.

A `FiniteGModule` is a finite abelian group with an action of a Galois
group (any object with `order`, `m` and `mult`; the checks pass the
`quadratic.QuadGaloisGroup` {1, sigma}), presented by integer data: k
abstract generators, a full-rank integer relation lattice (rows), and one
k-by-k integer matrix per group element giving the action on generators.
Everything downstream is exact integer linear algebra: orders come from
the diagonal of the Hermite form of the relation lattice, which also gives
canonical element forms, and invariants from one Smith form.  Sylow parts
M/p^v M and quotients stack rows onto that Hermite basis.  Over the Galois
group {1, sigma} of order 2, the eigenspaces e M with e = (1 +- sigma)/2
of a module of odd order are the quotients M/(1 -+ sigma)M
(`FiniteGModule.sign_part`), so the rho-parts of the checks and the
eigenspace invariants of `isomorphism_certificate` are quotients too; no
kernel or solve is needed.

On top of that sit the residue-ring constructions of ``verify rays``:
`residue_galois_module` presents the unit group of O/(M) for a real
quadratic field with its conjugation action, and
`residue_structure_target` builds the predicted Sylow-p structure of such
a module from Frobenius/inertia data alone.  `isomorphism_certificate`
decides whether two odd-order modules over the Galois group of order 2
are isomorphic: Z_p[G] splits along the idempotents (1 +- sigma)/2 for
p odd, so it compares the abelian invariants of the + and - parts,
M / (1 - sigma)M and M / (1 + sigma)M, each one Smith form.

The ray class group is `rayclass.RayClassGroup`, which alone needs
`units`; `__getattr__` resolves it here too (`_MOVED`).  No function here
reads a group ring: `residue_structure_target` takes its relations from
chi_D(ell), so this module does not import `grouprings`.
"""

import math

from . import _lazy_getattr
from .intmat import Lattice, hnf, identity, preimage_lattice, smith_diagonal
from .nt import kronecker, valuation

__all__ = [
    "FiniteGModule",
    "isomorphism_certificate",
    "residue_galois_module",
    "residue_structure_target",
    "lift_coefficients_mod",
]

_ENUM_BUDGET = 200_000


class FiniteGModule:
    """A finite abelian group with Galois action, presented by integers.

    `relations` rows span the full relation lattice of the `ngens`
    generators (the quotient Z^k / lattice is the underlying group, so the
    lattice must have full rank k).  `action[g]` is a k-by-k matrix whose
    row i expresses g . gen_i in the generators.  Elements are integer
    vectors of length k; `reduce` puts them in the canonical box cut out by
    the Hermite form of the relation lattice; orders and invariants are read
    off the Smith form of `lattice`, taken once.
    """

    def __init__(self, group, ngens, relations, action):
        self.group = group
        self.ngens = ngens
        self.relations = [list(map(int, row)) for row in relations]
        if any(len(row) != ngens for row in self.relations):
            raise ValueError("every relation must have %d entries" % ngens)
        self.action = action
        if len(action) != group.order:
            raise ValueError("one action matrix per group element is required")
        self._hnf = hnf(self.relations) if ngens else []
        if len(self._hnf) != ngens:
            raise ValueError("relation lattice must have full rank")
        for i in range(ngens):
            if self._hnf[i][i] <= 0 or any(self._hnf[i][j] for j in range(i)):
                raise ArithmeticError("unexpected Hermite shape")
        self.diagonal = [self._hnf[i][i] for i in range(ngens)]
        self.lattice = Lattice(self.relations)

    # ----- underlying group

    def order(self):
        return math.prod(self.diagonal)

    def invariants(self):
        """Elementary divisors > 1, in the divisibility chain order."""
        return [d for d in self.lattice.invariants() if d > 1]

    def exponent(self):
        inv = self.invariants()
        return inv[-1] if inv else 1

    # ----- elements

    def zero(self):
        return (0,) * self.ngens

    def gen(self, i):
        return self.reduce([1 if j == i else 0 for j in range(self.ngens)])

    def reduce(self, v):
        v = list(map(int, v))
        if len(v) != self.ngens:
            raise ValueError("a module element has %d entries" % self.ngens)
        for i in range(self.ngens):
            q = v[i] // self._hnf[i][i]
            if q:
                v = [a - q * b for a, b in zip(v, self._hnf[i])]
        return tuple(v)

    def add(self, u, v):
        return self.reduce([a + b for a, b in zip(u, v)])

    def neg(self, v):
        return self.reduce([-a for a in v])

    def scale(self, c, v):
        return self.reduce([c * a for a in v])

    def is_zero(self, v):
        return all(a == 0 for a in self.reduce(v))

    def elements(self, budget=_ENUM_BUDGET):
        """All elements in canonical form, deterministic order."""
        if self.order() > budget:
            raise ValueError("module too large to enumerate")
        out = [()]
        for d in self.diagonal:
            out = [t + (a,) for t in out for a in range(d)]
        return out

    def element_order(self, v):
        return self.lattice.order(v)

    # ----- Galois action

    def act(self, g, v):
        mat = self.action[g]
        out = [0] * self.ngens
        for c, row in zip(v, mat):
            if c:
                out = [a + c * b for a, b in zip(out, row)]
        return self.reduce(out)

    def apply_coeffs(self, coeffs, v):
        """Apply an integer group-ring element given as a coefficient list."""
        if len(coeffs) != self.group.order:
            raise ValueError("one coefficient per group element is required")
        out = self.zero()
        for g, c in enumerate(coeffs):
            if c:
                out = self.add(out, self.scale(c, self.act(g, v)))
        return out

    def annihilated_by(self, coeffs):
        """(True, None) or (False, witness dict) for a coefficient list."""
        for i in range(self.ngens):
            img = self.apply_coeffs(coeffs, self.gen(i))
            if not self.is_zero(img):
                return False, {"generator": i, "image": list(img)}
        return True, None

    # ----- structural constructions

    def mod(self, n):
        """M / nM, on the same generators."""
        k = self.ngens
        rows = self._hnf + [[n * int(j == i) for j in range(k)] for i in range(k)]
        return FiniteGModule(self.group, k, rows, self.action)

    def sylow(self, p):
        """The p-primary component, on the same generators.

        M / p^v M for v = v_p(|M|), which the Hermite diagonal gives: any
        v >= v_p(exponent) gives the same lattice, so no Smith form.
        """
        return self.mod(p ** valuation(self.order(), p))

    def submodule(self, vectors):
        """The G-submodule generated by the vectors (must be G-stable).

        Returns (module, V): the rows of V are the vectors, reused as the
        new module's generators.
        """
        V = [list(map(int, v)) for v in vectors]
        s = len(V)
        rel = preimage_lattice(V, self.relations)
        lattice = Lattice(V + self.relations)
        action = []
        for g in range(self.group.order):
            mat = []
            for v in V:
                x = lattice.coords(self.act(g, v))
                if x is None:
                    raise ValueError("submodule is not Galois stable")
                mat.append(x[:s])
            action.append(mat)
        return FiniteGModule(self.group, s, rel, action), V

    def quotient(self, vectors):
        """Quotient by the G-submodule generated by the vectors."""
        rows = [row[:] for row in self._hnf]
        for g in range(self.group.order):
            for v in vectors:
                rows.append(list(self.act(g, v)))
        return FiniteGModule(self.group, self.ngens, rows, self.action)

    def sign_part(self, sign):
        """M / (1 - sign * sigma)M on the same generators, for G = {1, sigma}.

        For M of odd order this is the eigenspace (1 + sign * sigma)/2 M:
        sign +1 gives the part sigma fixes, sign -1 the part it negates.
        """
        if self.group.order != 2:
            raise ValueError("sign parts need a group of order 2")
        vectors = [
            [int(i == j) - sign * c for j, c in enumerate(row)]
            for i, row in enumerate(self.action[1])
        ]
        return self.quotient(vectors)

    def contains(self, v, vectors):
        """Is v in the subgroup generated by the vectors (no G-closure)?"""
        return Lattice(list(vectors) + self.relations).contains(v)

    def rho_component(self, proj_coeffs):
        """Image of an integer-lifted idempotent projector, as a submodule."""
        vectors = [
            self.apply_coeffs(proj_coeffs, self.gen(i)) for i in range(self.ngens)
        ]
        return self.submodule(vectors)

    # ----- annihilators and cyclicity

    def annihilator_lattice(self, v):
        """Canonical (Hermite) basis of {c in Z^|G| : sum_g c_g g.v = 0}."""
        rows = [list(self.act(g, v)) for g in range(self.group.order)]
        return hnf(preimage_lattice(rows, self.relations))

    def module_annihilator(self):
        """Canonical basis of the annihilator of the whole module."""
        n = self.group.order
        k = self.ngens
        if k == 0:
            return hnf(identity(n))
        big = []
        for g in range(n):
            row = []
            for i in range(k):
                row.extend(self.act(g, self.gen(i)))
            big.append(row)
        relblock = []
        for i in range(k):
            for r in self.relations:
                row = [0] * (k * k)
                row[i * k : (i + 1) * k] = list(r)
                relblock.append(row)
        return hnf(preimage_lattice(big, relblock))

    def find_generator(self, budget=_ENUM_BUDGET):
        """A cyclic generator in canonical form, or None if none exists.

        Exhaustive over all elements (so a None answer proves the module is
        not cyclic over the group ring); raises ValueError when the order
        exceeds the budget.
        """
        if self.order() == 1:
            return self.zero()
        for v in self.elements(budget):
            rows = [list(self.act(g, v)) for g in range(self.group.order)]
            if math.prod(smith_diagonal(rows + self.relations)) == 1:
                return v
        return None

    def __repr__(self):
        return "FiniteGModule(order=%d, invariants=%s)" % (
            self.order(),
            self.invariants(),
        )


def lift_coefficients_mod(theta, modulus):
    """Integer lift of a rational-coefficient group-ring element, mod modulus.

    Denominators must be invertible modulo `modulus`.
    """
    from fractions import Fraction

    out = []
    for c in theta.coeffs:
        fr = Fraction(c)
        out.append(fr.numerator * pow(fr.denominator, -1, modulus) % modulus)
    return out


def _eigenspace_invariants(module):
    """Invariants of M+ = M / (1 - sigma)M and M- = M / (1 + sigma)M."""
    parts = {"+": [], "-": []}
    if module.order() == 1:
        return parts
    for name, sign in (("+", 1), ("-", -1)):
        parts[name] = module.sign_part(sign).invariants()
    if math.prod(parts["+"]) * math.prod(parts["-"]) != module.order():
        raise ArithmeticError("the eigenspace orders do not multiply to the order")
    return parts


def isomorphism_certificate(left, right):
    """Decide whether two odd-order modules over G = {1, sigma} are isomorphic.

    For p odd, Z_p[G] = Z_p x Z_p along the idempotents (1 +- sigma)/2, so
    two such modules are isomorphic exactly when their + parts have equal
    abelian invariants and so do their - parts.  Returns a dict with status
    "isomorphic" or "not-isomorphic" plus the invariants behind it.
    """
    if left.group != right.group:
        raise ValueError("the modules must be over one group")
    lo, ro = left.order(), right.order()
    if left.group.order != 2 or lo % 2 == 0 or ro % 2 == 0:
        raise ValueError("needs odd-order modules over a group of order 2")
    if lo != ro:
        return {
            "status": "not-isomorphic",
            "reason": "orders differ",
            "orders": [lo, ro],
        }
    li, ri = left.invariants(), right.invariants()
    if li != ri:
        return {
            "status": "not-isomorphic",
            "reason": "abelian invariants differ",
            "invariants": [li, ri],
        }
    el, er = _eigenspace_invariants(left), _eigenspace_invariants(right)
    if el != er:
        return {
            "status": "not-isomorphic",
            "reason": "eigenspace invariants differ",
            "eigenspace_invariants": [el, er],
        }
    return {
        "status": "isomorphic",
        "reason": "equal invariants on both eigenspaces",
        "order": lo,
        "invariants": li,
        "eigenspace_invariants": el,
    }


# --------------------------------------------------------------------------
# residue modules and their predicted structure


def residue_galois_module(field, group, M):
    """(module, ring): the units of O/(M) with the conjugation action."""
    if group.order != 2:
        raise ValueError("residue Galois modules are built for quadratic fields")
    res = field.residue_ring(M)
    gens, rels, _ = res.structure()
    k = len(gens)
    conj_rows = [res.dlog(res.conj(g)) for g in gens]
    module = FiniteGModule(group, k, [list(r) for r in rels], [identity(k), conj_rows])
    return module, res


def residue_structure_target(group, ell, p, e=1):
    """Predicted Sylow-p structure of the units of O/(ell^e), as a module.

    Presented as the free rank-one module over Z[G], G = {1, sigma}, with
    sigma swapping the two coordinates, modulo the structural relation
    ideal at ell: for ell != p the ideal generated by p^v,
    (ell - Frobenius) and (1 - inertia average), where p^v is the p-part
    of ell^f - 1 and f the residue degree; for ell = p (which must be
    unramified here) the ideal generated by p^(e-1).

    All of it is read off chi_D(ell), D = `group.m`: Frobenius is sigma
    exactly when chi_D(ell) = -1 (then f = 2), and inertia is all of G
    exactly when chi_D(ell) = 0, when its average is (1 + sigma)/2.  An
    element a + b sigma contributes the rows [a, b] and [b, a] (itself and
    its product with sigma), reduced mod p^v.
    """
    if group.order % p == 0:
        raise ValueError("p=%d must not divide the degree %d" % (p, group.order))
    if group.order != 2:
        raise ValueError(
            "only the group {1, sigma} of a real quadratic field is supported, "
            "not one of order %d" % group.order
        )
    chi = kronecker(group.m, ell)
    if ell != p:
        v = valuation(ell ** (2 if chi == -1 else 1) - 1, p)
        pv = p**v
        rows = [[pv, 0], [0, pv]]
        if v > 0:
            half = pow(2, -1, pv)
            for a, b in (
                (ell, -1) if chi == -1 else (ell - 1, 0),  # ell - Frobenius
                (half, -half) if chi == 0 else (0, 0),  # 1 - inertia average
            ):
                rows += [[a % pv, b % pv], [b % pv, a % pv]]
    else:
        if chi == 0:
            raise ValueError("the residue prime must be unramified")
        if e < 1:
            raise ValueError("the exponent e must be at least 1")
        pe = p ** (e - 1)
        rows = [[pe, 0], [0, pe]]
    return FiniteGModule(group, 2, rows, [identity(2), [[0, 1], [1, 0]]])


#: the name that moved to `rayclass`, resolved on first access for the
#: `TARGETS` of perfbench/tracer.py
_MOVED = {"RayClassGroup": "rayclass"}

__getattr__ = _lazy_getattr(globals(), _MOVED)
