"""Residue rings O/(M) of a real quadratic field and their unit groups.

O/(M) for an integer modulus M presents its unit group on the CRT lifts
of explicit local generators (a primitive-root lift and the 1-units of
the filtration at each prime over ell^e || M), with triangular relation
rows and discrete logs computed on demand, which is what the ray class
layer consumes; nothing enumerates or scans the ring.
`QuadField.residue_ring` keeps the last one built, and the field keeps the
local factors of each prime power (`_local_factors`), whose residue-field
logs `checks_annihilators.residue_dlogs` reads too.  Products are the
`_pair_*` helpers of `quadratic`.  Bad arguments raise ValueError and broken
invariants ArithmeticError, so `python -O` behaves the same.
"""

import math
from collections.abc import Mapping

from .nt import factorize, primitive_root
from .quadratic import _pair_inverse, _pair_mul, _pair_pow


#: Largest modulus M of a residue ring O/(M).  Its cost is small at any M
#: up to the limit: factoring q - 1 for the residue fields F_q (q = ell or
#: ell^2, ell | M) by trial division and the baby-step giant-step over its
#: largest prime take about sqrt(M) steps, and a unit's digits one discrete
#: log per local factor.  Built cold, a presentation took at most 5 ms for
#: every M in [9000, 10^4] on D = 5, 8, 12, 13, 17, 40 and 9240 (Python
#: 3.11 on a 2-vCPU VM).  So the limit is an input bound of the commands
#: (they exit 2 past it), not a cost bound.
MODULUS_LIMIT = 10**4


class _LocalUnits:
    """The units of one local factor A of O/(M), as an explicit product of
    cyclic groups.

    A is O/(ell^e) when ell is inert or ramified, and Z/ell^e at one of the
    two primes over a split ell, the prime named (ell, r) as by
    `QuadField.primes_over`.  Elements are pairs (x, y) meaning
    x + y theta mod ell^e with theta = omega - r; in the split case omega
    maps to the root r and y stays 0.  P is the maximal ideal of A: (ell)
    unless ell ramifies, where P = (theta) (theta^2 = ell * unit, as O =
    Z[omega] is maximal at ell).  F_q = A/P has q = ell^2 when ell is inert
    and q = ell otherwise.

    A^* is generated by a lift g of a primitive root of F_q (left out when
    q = 2) and by one 1-unit 1 + ell^j theta^c per F_ell-dimension of each
    step (1 + P^i)/(1 + P^(i+1)) = A/P of the filtration.  `_log` writes a
    unit in them: the exponent of g is a discrete log in F_q^*
    (Pohlig-Hellman, with a baby-step giant-step per prime of q - 1), and
    the 1-unit exponents in [0, ell) come off one filtration step at a time
    (Cohen, Advanced Topics in Computational Number Theory, ch. 4).  Row i
    of `rels` is the order of generator i modulo the deeper steps minus the
    log of that power, so the rows are triangular (zero before column i)
    and span every relation: their diagonal product is |A^*|, and `_log`
    is the digit vector of a unit in the box prod [0, rels[i][i]).

    `gens` are the generators as elements a + b omega of O/(ell^e); at a
    split ell each is 1 at the other prime over ell, so that `digits` of a
    unit of O/(M) is `_log` of its image in A.
    """

    def __init__(self, field, ell, e, r):
        T, Nm = field.omega_trace, field.omega_norm
        n = ell**e
        split = field.chi(ell) == 1
        self.inert = inert = r is None
        # a split root is lifted to ell^e; the inert root is 0
        r = field.prime_root_lifted(ell, r, e) if split else r or 0
        self.ell, self.n, self.r = ell, n, r
        self.has_theta = 0 if split else 1
        # theta = omega - r satisfies theta^2 = -s theta - t
        self.s = s = (2 * r - T) % n
        self.t = t = (r * r - T * r + Nm) % n
        self.q = ell * ell if inert else ell
        if split or inert:
            steps = [(c, ell**j) for j in range(1, e) for c in range(1 + inert)]
        else:
            steps = [(i % 2, ell ** (i // 2)) for i in range(1, 2 * e)]
        gens = [(1 + pw, 0) if c == 0 else (1, pw) for c, pw in steps]
        # (coordinate, ell^j, inverse of the generator 1 + ell^j theta^c)
        self.steps = [(c, pw, _pair_inverse(g, n, s, t)) for (c, pw), g in zip(steps, gens)]
        orders = [ell] * len(gens)
        if self.q > 2:
            self._setup_residue_field()
            gens.insert(0, self.g)
            orders.insert(0, self.q - 1)
        self.rels = []
        for i, (g, o) in enumerate(zip(gens, orders)):
            row = [-c for c in self._log(_pair_pow(g, o, n, s, t))]
            row[i] += o
            self.rels.append(row)
        self.count = (self.q - 1) * ell ** len(steps)
        triangular = not any(any(row[:i]) for i, row in enumerate(self.rels))
        diagonal = math.prod(row[i] for i, row in enumerate(self.rels))
        if not triangular or diagonal != self.count:
            raise ArithmeticError("the unit relations of O/(%d) are incomplete" % n)
        # x + y theta = (x - y r) + y omega; at a split ell, b (r - r') = x - 1
        # makes a + b omega equal x at omega = r and 1 at the other root r'
        inv = pow(2 * r - T, -1, n) if split else 0
        self.gens = []
        for x, y in gens:
            if split:
                y = (x - 1) * inv % n
            self.gens.append(((x - y * r) % n, y))

    def _setup_residue_field(self):
        """g, and Pohlig-Hellman tables for F_q^*.  F_ell is plain integers
        mod ell; F_ell^2 (ell inert) is pairs mod ell."""
        ell, N = self.ell, self.q - 1
        factors = dict(factorize(ell - 1))
        if self.inert:
            s, t = self.s % ell, self.t % ell
            self._fmul = lambda u, v: _pair_mul(u, v, ell, s, t)
            self._fpow = lambda u, k: _pair_pow(u, k, ell, s, t)
            one = (1, 0)
            for p, k in factorize(ell + 1):
                factors[p] = factors.get(p, 0) + k
            # the first a + omega, then a + 2 omega, ... of order q - 1
            candidates = ((a, b) for b in range(1, ell) for a in range(ell))
            g = next(
                x for x in candidates if all(self._fpow(x, N // p) != one for p in factors)
            )
            self.g = g
        else:
            self._fmul = lambda u, v: u * v % ell
            self._fpow = lambda u, k: pow(u, k, ell)
            one = 1
            g = primitive_root(ell)
            self.g = (g, 0)
        if self.steps:
            self._g_inv = _pair_inverse(self.g, self.n, self.s, self.t)
        # per prime power p^k || q - 1: g^(N / p^k), its inverse, and baby
        # steps of gamma = g^(N / p), which has order p
        self._ph = []
        for p, k in sorted(factors.items()):
            gp = self._fpow(g, N // p**k)
            gamma = self._fpow(g, N // p)
            m = math.isqrt(p) + 1
            baby = {}
            cur = one
            for j in range(m):
                baby.setdefault(cur, j)
                cur = self._fmul(cur, gamma)
            giant = self._fpow(gamma, p - m % p)  # gamma^-m
            self._ph.append((p, k, gp, self._fpow(gp, p**k - 1), baby, m, giant))

    def _residue_log(self, h):
        """k in [0, q - 1) with g^k = h in F_q^*, by Pohlig-Hellman."""
        N = self.q - 1
        x, mod = 0, 1
        for p, k, gp, gp_inv, baby, m, giant in self._ph:
            pk = p**k
            hp = self._fpow(h, N // pk)
            xp = 0
            for i in range(k):
                # (hp / gp^xp)^(p^(k-1-i)) = gamma^(digit i of xp)
                y = self._fmul(hp, self._fpow(gp_inv, xp)) if xp else hp
                y = self._fpow(y, p ** (k - 1 - i))
                for step in range(m):
                    if y in baby:
                        break
                    y = self._fmul(y, giant)
                else:
                    raise ArithmeticError("discrete log in F_%d failed" % self.q)
                xp += (step * m + baby[y]) % p * p**i
            x += mod * ((xp - x) * pow(mod, -1, pk) % pk)
            mod *= pk
        return x

    # -- the unit group

    def _log(self, u):
        """Exponents of the unit u (in A's coordinates) in the generators."""
        ell, n, s, t = self.ell, self.n, self.s, self.t
        out = []
        if self.q > 2:
            h = (u[0] % ell, u[1] % ell) if self.inert else u[0] % ell
            k = self._residue_log(h)
            out.append(k)
            if not self.steps:
                return out  # A = F_q
            u = _pair_mul(u, _pair_pow(self._g_inv, k, n, s, t), n, s, t)
        for c, pw, inv in self.steps:
            # u lies in the filtration step of this generator
            d = (u[c] - (c == 0)) // pw % ell
            if d:
                u = _pair_mul(u, _pair_pow(inv, d, n, s, t), n, s, t)
            out.append(d)
        if u != (1 % n, 0):
            raise ArithmeticError("unit filtration of O/(%d) did not end at 1" % n)
        return out

    def digits(self, u):
        """The digits of the unit u of O/(M): `_log` of its image in A."""
        a, b = u
        return self._log(((a + b * self.r) % self.n, b * self.has_theta % self.n))


def _local_factors(field, ell, e):
    """The `_LocalUnits` of O/(ell^e): one per prime over ell.  They are
    kept on the field, as a scan over moduli meets the same prime powers
    again and again."""
    if (ell, e) not in field._local_units:
        field._local_units[ell, e] = tuple(
            _LocalUnits(field, ell, e, r) for _, r in field.primes_over(ell)
        )
    return field._local_units[ell, e]


class _UnitDigits(Mapping):
    """The digits of every unit of a ResidueRing, computed on demand.

    A read-only mapping from the units (a, b) of O/(M) to their digit
    tuples: `len` is |(O/M)^*|, a lookup of anything else raises KeyError,
    and iteration runs over the units in lexicographic order.
    """

    def __init__(self, ring):
        self._ring = ring

    def __getitem__(self, u):
        ring = self._ring
        pair = isinstance(u, tuple) and len(u) == 2
        if not (pair and all(isinstance(x, int) and 0 <= x < ring.M for x in u)):
            raise KeyError(u)
        if not ring.is_unit(u):
            raise KeyError(u)
        return ring._digits(u)

    def __len__(self):
        return self._ring.unit_count()

    def __iter__(self):
        ring = self._ring
        for a in range(ring.M):
            for b in range(ring.M):
                if ring.is_unit((a, b)):
                    yield (a, b)


class ResidueRing:
    """O/(M) for a positive integer modulus M, with unit-group structure.

    Elements are pairs (a, b) meaning a + b omega mod M.  By CRT, O/(M) is
    the product of the local factors at the primes over each ell^e || M,
    and (O/M)^* is presented on their generators: each `_LocalUnits`
    generator lifted to 1 at every other factor, with the factors'
    triangular relation rows placed block-diagonally.  The digits of a unit
    are its local `_log`s, concatenated; digit i lies in [0, rels[i][i]).
    Nothing enumerates or scans the ring.  M may be at most MODULUS_LIMIT.
    """

    def __init__(self, field, M):
        if M < 1:
            raise ValueError("modulus %d: must be a positive integer" % M)
        if M > MODULUS_LIMIT:
            raise ValueError(
                "residue ring O/(%d) too large (modulus above %d)" % (M, MODULUS_LIMIT)
            )
        self.field = field
        self.M = M
        self._locals = [
            loc for ell, e in factorize(M) for loc in _local_factors(field, ell, e)
        ]
        self._structure = None

    def one(self):
        return (1 % self.M, 0)

    def mul(self, u, v):
        # omega^2 = T omega - Nm
        return _pair_mul(u, v, self.M, -self.field.omega_trace, self.field.omega_norm)

    def pow(self, u, e):
        e = int(e)
        if e < 0:
            return self.pow(self.inverse(u), -e)
        return _pair_pow(u, e, self.M, -self.field.omega_trace, self.field.omega_norm)

    def norm_lift(self, u):
        a, b = u
        T, Nm = self.field.omega_trace, self.field.omega_norm
        return a * a + a * b * T + b * b * Nm

    def is_unit(self, u):
        return math.gcd(self.norm_lift(u) % self.M, self.M) == 1

    def inverse(self, u):
        return _pair_inverse(u, self.M, -self.field.omega_trace, self.field.omega_norm)

    def conj(self, u):
        a, b = u
        T = self.field.omega_trace
        return ((a + b * T) % self.M, (-b) % self.M)

    def reduce(self, z):
        """Image of an integral QuadElement."""
        if z.e != 1:
            raise ValueError("not integral")
        return (z.a % self.M, z.b % self.M)

    def structure(self):
        """(gens, relations, dlog): a presentation of (O/M)^*.

        The generators are those of each local factor, lifted by CRT to 1
        at every other factor, and the relations are the factors' own
        triangular rows, placed block-diagonally.  Two checks guard the
        result: each row evaluates to 1 in O/(M), and the product of the
        diagonal is |(O/M)^*|.  `dlog` is a `_UnitDigits`
        mapping; the benchmark tracer (`perfbench/tracer.py`) reads its
        `len` as the unit count.
        """
        if self._structure is not None:
            return self._structure
        M = self.M
        gens, rels = [], []
        for loc in self._locals:
            rest = M // loc.n
            # 0 mod ell^e and 1 mod the rest of M
            idem = loc.n * pow(loc.n, -1, rest) % M
            rels += [[0] * len(gens) + row for row in loc.rels]
            gens += [((a + idem * (1 - a)) % M, b * (1 - idem) % M) for a, b in loc.gens]
        width = len(gens)
        rels = [row + [0] * (width - len(row)) for row in rels]
        for row in rels:
            acc = self.one()
            for g, c in zip(gens, row):
                if c:
                    acc = self.mul(acc, self.pow(g, c))
            if acc != self.one():
                raise ArithmeticError("a unit relation of O/(%d) does not hold" % M)
        if math.prod(row[i] for i, row in enumerate(rels)) != self.unit_count():
            raise ArithmeticError("the relations of (O/%d)^* miss its order" % M)
        self._structure = (gens, rels, _UnitDigits(self))
        return self._structure

    def _digits(self, u):
        return tuple(c for loc in self._locals for c in loc.digits(u))

    def unit_count(self):
        """|(O/M)^*|, the product of the local unit counts."""
        return math.prod(loc.count for loc in self._locals)

    def dlog(self, u):
        _, _, dl = self.structure()
        return list(dl[u])
