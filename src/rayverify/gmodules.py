"""Finite modules over a Galois group, and the ray class groups built on them.

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

On top of that sit the two concrete constructions the verification engine
compares:

* `residue_galois_module` presents the unit group of O/(M) for a real
  quadratic field with its conjugation action, and
  `residue_structure_target` builds the predicted Sylow-p structure of such
  a module from Frobenius/inertia data alone.  `isomorphism_certificate`
  decides whether two odd-order modules over the Galois group of order 2
  are isomorphic: Z_p[G] splits along the idempotents (1 +- sigma)/2 for
  p odd, so it compares the abelian invariants of the + and - parts,
  M / (1 - sigma)M and M / (1 + sigma)M, each one Smith form.
* `RayClassGroup` presents the ray class group of a real quadratic field
  modulo a positive integer, as an extension of the ideal class group by
  the residue units modulo global units, with exact principalization
  witnesses for every relation, the connecting map from residue units, and
  the class-of-a-prime section used by the annihilation checks.

Only `RayClassGroup` needs `units`, in `_recount` and in its class group
(h is read off u_D); both import it, so the residue-ring certificate of
``verify rays`` does not load that layer.  No
function here reads a group ring: `residue_structure_target` takes its
relations from chi_D(ell), so this module does not import `grouprings`.
"""

import math

from .intmat import Lattice, hnf, identity, preimage_lattice, smith_diagonal
from .nt import factorize, is_prime, kronecker, valuation

__all__ = [
    "FiniteGModule",
    "isomorphism_certificate",
    "residue_galois_module",
    "residue_structure_target",
    "lift_coefficients_mod",
    "RayClassGroup",
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


# --------------------------------------------------------------------------
# ray class groups of real quadratic fields


def _prime_smooth_vector(field, q, r):
    """(vec, z): a field element z whose ideal (z) equals P * prod(base^vec)
    over the class-group base generators, for the prime P = (q, omega - r).

    A base generator P gives z = 1 and vec = -e_P.  Every other split or
    ramified prime has q > isqrt(D) // 2, and z is the first nonzero
    a q + b (omega - r) (b >= 0, and a > 0 when b = 0) in the region
    |z| + |z'| <= t with t^2 = 2 q sqrt(D) whose norm over q is a product
    of base primes.  The region has area 4 covol(P), so Minkowski's theorem
    puts a nonzero point of P in it, and such a point has
    |N(z)| <= q sqrt(D) / 2 < q^2: (z) / P has norm below q, so it is a
    product of base primes and inert primes p, and then z / p lies in the
    region too.  The search therefore ends, and v_P(z) = 1 while the
    conjugate of a split P does not divide (z).
    """
    cl = field.class_group()
    if (q, r) in cl.gens:
        i = cl.gens.index((q, r))
        return [-int(j == i) for j in range(len(cl.gens))], field.one()
    D, T = field.D, field.omega_trace
    # |b| sqrt(D) <= t and |Tr(z)| <= t, as b^4 D <= 4 q^2 and Tr^4 <= 4 q^2 D
    tr_max = math.isqrt(math.isqrt(4 * q * q * D))
    for b in range(math.isqrt(math.isqrt(4 * q * q // D)) + 1):
        c = b * (T - 2 * r)  # Tr(z) = 2 a q + c
        for a in range(max(-((tr_max + c) // (2 * q)), int(b == 0)),
                       (tr_max - c) // (2 * q) + 1):
            z = field.from_omega_coords(a * q - b * r, b)
            vec = cl._factor_vector(z, cofactor=q)
            if vec is not None:
                return vec, z
    raise ArithmeticError(
        "no point of (%d, w - %d) in its Minkowski region is smooth" % (q, r)
    )


def _residue_of_fraction(res, z):
    """Image in O/(M) of a field element whose ideal is coprime to M."""
    den = z.e
    if math.gcd(den, res.M) != 1:
        raise ValueError("denominator shares a factor with the modulus")
    num = (z.a % res.M, z.b % res.M)
    return res.mul(num, res.inverse((den % res.M, 0)))


#: per discriminant, (skipped split primes, chosen class primes, their lattice)
#: of every class-prime choice made so far
_class_prime_choices = {}


class RayClassGroup:
    """The ray class group of a real quadratic field modulo a positive integer.

    Generators of the underlying module: first the images of the residue
    unit generators under the connecting map u -> class of (alpha_u), then
    the classes of chosen coprime prime ideals generating the ideal class
    group.  All relations carry exact principalization witnesses; the
    constructor recounts the order against
    h * |(O/M)^*| / |image of the global units| and raises ArithmeticError
    when they disagree.  The recount's lattice of units congruent to 1
    modulo M is kept as `unit_lattice`.
    """

    def __init__(self, field, group, modulus):
        if group.order != 2 or group.m != field.D:
            raise ValueError("group must be built on the field discriminant")
        if modulus < 1:
            raise ValueError("modulus %d: must be a positive integer" % modulus)
        self.field = field
        self.group = group
        self.modulus = modulus
        self.cl = field.class_group()
        self.residue = field.residue_ring(modulus)
        self.res_gens, res_rels, _ = self.residue.structure()
        t = len(self.res_gens)

        self.class_primes, self._prime_lattice = self._choose_class_primes()
        s = len(self.class_primes)
        self._vec_rows = [list(vec) for (_, _, vec, _) in self.class_primes]

        rows = [list(r) + [0] * s for r in res_rels]
        for u in (field.element(-1), field.fundamental_unit()):
            rows.append(self._residue_dlog(u) + [0] * s)

        # relations among the chosen prime classes, with exact witnesses
        self.class_relations = []
        for r in hnf(preimage_lattice(self._vec_rows, self.cl.relations)):
            digits = self._generator_digits(field.one(), [0] * len(self.cl.gens), r)
            self.class_relations.append(list(r))
            rows.append([-c for c in digits] + list(r))

        action = [identity(t + s), self._conj_action(t, s)]
        self.module = FiniteGModule(group, t + s, rows, action)
        self._recount()

    # ----- construction helpers

    def _choose_class_primes(self):
        """Split primes coprime to the modulus whose classes generate Cl,
        and the lattice their vectors span with the class relations.

        The primes are taken greedily in increasing order, and every choice
        is kept per field with the split primes it skipped.  A later modulus
        divisible by all of those and by none of the chosen primes makes the
        same choice, since any other prime it skips was not chosen and
        leaves the lattice unchanged, so it reuses the kept one."""
        if self.cl.order == 1:
            return [], None
        field = self.field
        kept = _class_prime_choices.setdefault(field.D, [])
        for skipped, chosen, lattice in kept:
            if all(self.modulus % q == 0 for q in skipped) and all(
                self.modulus % q for q, _, _, _ in chosen
            ):
                return chosen, lattice
        chosen = []
        vecs = []
        lattice = self.cl.lattice
        skipped = []
        for q in range(2, 1000):
            if not is_prime(q) or field.chi(q) != 1:
                continue
            if self.modulus % q == 0:
                skipped.append(q)
                continue
            r = field.prime_roots(q)[0]
            vec, z = _prime_smooth_vector(field, q, r)
            if not lattice.contains(vec):
                chosen.append((q, r, vec, z))
                vecs.append(list(vec))
                lattice = Lattice(vecs + self.cl.relations)
                if math.prod(lattice.invariants()) == 1:
                    kept.append((skipped, chosen, lattice))
                    return chosen, lattice
        raise ArithmeticError("could not generate the class group with coprime primes")

    def _generator_digits(self, z, vec, x):
        """Residue digits of an exact generator of (z) * prod(base^-vec) *
        prod(P_j^x_j) over the chosen class primes P_j; the ideal must be
        principal.  When (O/M)^* has no generators the digits are [], and
        no generator is built."""
        if not self.res_gens:
            return []
        mu = [-a for a in vec]
        w = z
        for xj, (_, _, vj, zj) in zip(x, self.class_primes):
            if xj:
                # P_j = (z_j) * prod(base^-v_j)
                w = w * zj**xj
                mu = [a - xj * b for a, b in zip(mu, vj)]
        head = self.cl.principalize(mu)
        if head is None:
            raise ArithmeticError("the ideal to generate is not principal")
        return self._residue_dlog(w * head)

    def _residue_dlog(self, z):
        return list(self.residue.dlog(_residue_of_fraction(self.residue, z)))

    def _conj_action(self, t, s):
        res = self.residue
        rows = []
        for g in self.res_gens:
            rows.append(list(res.dlog(res.conj(g))) + [0] * s)
        for j, (q, root, vec, z) in enumerate(self.class_primes):
            row = self._residue_dlog(self.field.element(q)) + [0] * s
            row[t + j] -= 1
            rows.append(row)
        return rows

    def _recount(self):
        """Check the module order against h * |(O/M)^*| / [E : E_M]."""
        from .units import congruence_unit_lattice

        K = self.unit_lattice = congruence_unit_lattice(self.field, self.modulus)
        if len(K) != 2:
            raise ArithmeticError("the congruence units do not have full rank")
        unit_image = K[0][0] * K[1][1]
        count = self.residue.unit_count()
        if count % unit_image:
            raise ArithmeticError("the unit image does not divide |(O/M)^*|")
        expected = self.cl.order * count // unit_image
        got = self.module.order()
        if got != expected:
            raise ArithmeticError(
                "ray class order recount failed: module says %d, counting says %d"
                % (got, expected)
            )

    # ----- maps in and out

    def connecting(self, u):
        """Module vector of the class of (alpha) for alpha with residue u."""
        s = len(self.class_primes)
        return self.module.reduce(list(self.residue.dlog(u)) + [0] * s)

    def principal_vector(self, z):
        """Module vector of the class of the principal ideal (z)."""
        return self.connecting(_residue_of_fraction(self.residue, z))

    def prime_class(self, q, r=None):
        """Module vector of the class of a prime over q (coprime to the modulus).

        For split or ramified q, r names the prime (q, omega - r); for
        inert q, r is ignored and the class is that of (q).
        """
        field = self.field
        if math.gcd(q, self.modulus) != 1:
            raise ValueError("prime %d must be coprime to the modulus" % q)
        if field.chi(q) == -1:
            return self.principal_vector(field.element(q))
        if r is None:
            raise ValueError("a root selecting the prime over %d is required" % q)
        vec, z = _prime_smooth_vector(field, q, r)
        s = len(self.class_primes)
        x = self._prime_lattice.coords(vec) if s else []
        if x is None:
            raise ArithmeticError("the class primes do not generate the class group")
        x = x[:s]
        # P = (w) * prod(P_j^x_j)
        return self.module.reduce(self._generator_digits(z, vec, [-a for a in x]) + x)

    def prime_class_of_norm_factorization(self, z):
        """Sum of prime-class vectors over the factorization of (z).

        For nonzero z of k with (z) coprime to the modulus; must agree with
        `principal_vector(z)` (used as a consistency check on the section).
        """
        field = self.field
        total = self.module.zero()
        nrm = z._norm_numerator()
        if nrm == 0:
            raise ValueError("zero has no factorization")
        for p, _ in factorize(abs(nrm) * z.e):
            if math.gcd(p, self.modulus) != 1:
                raise ValueError("element must be coprime to the modulus")
            for _, r in field.primes_over(p):
                v = field.prime_valuation(z, p, r)
                if v:
                    total = self.module.add(total, self.module.scale(v, self.prime_class(p, r)))
        return total

    def __repr__(self):
        return "RayClassGroup(D=%d, modulus=%d, order=%d)" % (
            self.field.D,
            self.modulus,
            self.module.order(),
        )
