"""The ideal class group of a real quadratic field (`ClassGroup`).

The class group is computed from scratch: relations among the primes
below the Minkowski bound are harvested from elements of smooth norm in a
growing search box until the index of their lattice is the class number,
which Dirichlet's formula gives exactly as u_D / sigma(u_D) = +-eps^(+-2h)
(`units.dirichlet_exponent`, `units.analytic_class_number`; found
relations can only over-count h).  Every relation row keeps the element
that witnessed it, so principality questions reduce to exact integer
linear algebra plus an explicit generator.  `QuadField.class_group`
builds one per field and loads this module (with `intmat`) only then:
``verify h90``, ``verify rays`` and ``verify sinnott`` never do.
"""

import math

from .intmat import Lattice
from .nt import is_prime
from .units import analytic_class_number


class ClassGroup:
    """Ideal class group presented on the primes below the Minkowski bound.

    gens: the (p, r) of `QuadField.primes_over` for the split and ramified
    p below the bound (ramified primes appear once, split primes twice).
    relations: integer rows in those generators; witnesses[i] is an
    explicit field element generating the ideal prod gens^relations[i].
    With no such p every class is principal (Minkowski), so h = 1 is not
    computed; otherwise `_harvest` reaches h = `analytic_class_number(D)`.
    """

    def __init__(self, field):
        self.field = field
        D = field.D
        mink = math.isqrt(D) // 2
        # the split and ramified primes; an inert (p) is principal
        primes = [p for p in range(2, mink + 1) if is_prime(p)]
        self.gens = [(p, r) for p in primes for r in field.prime_roots(p)]
        self.relations = []
        self.witnesses = []
        self.lattice = Lattice([])
        self.invariants = []
        self.order = 1
        if self.gens:
            self._harvest(analytic_class_number(D))

    def _factor_vector(self, z, cofactor=1):
        """Exponent vector of (z) over the base, or None unless |N(z)| is
        `cofactor` times a product of base primes."""
        if z.e != 1:
            raise ValueError("factoring a non-integral element")
        nrm = abs(z._norm_numerator())
        if not nrm:
            raise ValueError("factoring zero")
        rem, left = divmod(nrm, cofactor)
        if left:
            return None
        for p in {p for p, _ in self.gens}:
            while rem % p == 0:
                rem //= p
        if rem != 1:
            return None
        vec = [0] * len(self.gens)
        for i, (p, r) in enumerate(self.gens):
            if nrm % p == 0:
                vec[i] = self.field.prime_valuation(z, p, r)
        return vec

    def _harvest(self, h):
        """Relations from the rational primes of the base and from the
        smooth a + b omega with |a|, b <= bound, doubling the bound until
        the index of the relation lattice is the class number h.  Found
        relations span a sublattice of the full relation lattice, so their
        index is a multiple of h: reaching h pins the lattice, and a full
        rank index that h does not divide refutes h (ArithmeticError).
        """
        field = self.field
        bound = 8
        for _ in range(10):
            rows, wits = [], []
            # rational relations: (p) as a product of the primes above p
            for p in sorted({p for p, _ in self.gens}):
                z = field.element(p)
                vec = self._factor_vector(z)
                if vec is None:
                    raise ArithmeticError("base prime %d is not smooth" % p)
                rows.append(vec)
                wits.append(z)
            for b in range(1, bound + 1):
                for a in range(-bound, bound + 1):
                    z = field.from_omega_coords(a, b)
                    if not z._norm_numerator():
                        continue
                    vec = self._factor_vector(z)
                    if vec is not None:
                        rows.append(vec)
                        wits.append(z)
            lattice = Lattice(rows)
            diag = lattice.invariants()
            index = math.prod(diag) if len(diag) == len(self.gens) else 0
            if index == h:
                self.relations = rows
                self.lattice = lattice
                self.witnesses = wits
                self.invariants = [d for d in diag if d != 1]
                self.order = h
                return
            if index % h:
                raise ArithmeticError("relation index %d is not a multiple of h = %d" % (index, h))
            bound *= 2
        raise ArithmeticError("class group relations did not reach h = %d" % h)

    def principalize(self, vec):
        """A field element generating prod gens^vec, or None if non-principal."""
        if not self.gens:
            return self.field.one()
        x = self.lattice.coords(vec)
        if x is None:
            return None
        z = self.field.one()
        for c, w in zip(x, self.witnesses):
            if c:
                z = z * w**c
        return z

    def class_order_of(self, vec):
        """Order of the ideal class of prod gens^vec."""
        return self.lattice.order(vec)
