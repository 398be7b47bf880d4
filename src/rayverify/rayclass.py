"""Ray class groups of real quadratic fields (`RayClassGroup`).

A ray class group modulo a positive integer is a `gmodules.FiniteGModule`:
the ideal class group extended by the residue units modulo global units,
with exact principalization witnesses for every relation, the connecting
map from residue units, and the class-of-a-prime section of the
annihilation checks.  Only this layer of the ray class commands needs
`units`, in `_recount` and in its class group (h is read off u_D).
"""

import math

from .gmodules import FiniteGModule
from .intmat import Lattice, hnf, identity, preimage_lattice
from .nt import factorize, is_prime


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
