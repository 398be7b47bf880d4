"""Galois groups of real abelian fields, their characters, and group-ring
elements with rational or p-adic coefficients.

This module supplies the algebra every verification routine combines:

* `GaloisGroup` presents Gal(k/Q) on cosets of the defining subgroup,
  with multiplication/inversion tables and subgroup utilities.
* `characters` reads the character group off the multiplication table,
  extending the characters of a subgroup one cyclic step at a time; each
  `Character` carries its conductor and kernel.
* `GroupRingElement` is a dense group-ring element whose coefficients may be
  ints, Fractions, or `PadicElement`s from one ring (duck-typed; all
  arithmetic is coefficientwise plus convolution).
* `ramification` packages the Frobenius and inertia at a rational prime,
  read off chi_D for the group {1, sigma} of a real quadratic field.
* `galois_log` is the logarithm map x -> sum_g log_p(x^g) g^{-1}; the
  quadratic-field version fixes the embedding of sqrt(D) and takes one full
  log per element, log(sigma z) being log(N z) - log(z).
* `lseries_derivative` evaluates the derivative at zero of the p-adic
  L-series of a nontrivial even character by its finite cyclotomic sum,
  with one log per value of the character, and
  `lseries_derivative_element` assembles the group-ring element carrying one
  such value on each nontrivial character component.
* `norm_log_factor` / `euler_twist` / `unit_log_factor` build the rational
  group-ring coefficients that express logarithms of the modified cyclotomic
  numbers at composite levels through the L-value element.  Over
  G = {1, sigma} an element a + b sigma is fixed by its trivial value
  a + b and its chi_D value a - b; each of these is built once from those
  two integers, with no group-ring product.
* `residue_euler_element` carries the Euler-type factors (ell - chi(ell))
  of the residue modules, and `ray_annihilator` combines everything into the
  paper's annihilator element.

No check calls `lseries_derivative`, `lseries_derivative_element`,
`residue_euler_element`, `embed_group_ring` or `ray_annihilator`; tests use
them as oracles.  The character sums need the ring of the conductor's roots
of unity, while for a quadratic field the sinnott check reads L' off the
level-D cyclotomic number, in a ring of degree at most 2.

Conventions: group element 0 is the identity; a character's value at a prime
is zero unless inertia lies in its kernel; scalars multiply group-ring
elements from either side, but p-adic scalars must be written on the right
(``x * scalar``) because `PadicElement` does not defer to unknown operands.
`ramification` and the three coefficient builders raise ValueError on a
group of any order but 2.  Bad arguments raise ValueError and a broken
internal invariant raises ArithmeticError; no check is an `assert`, so
`python -O` behaves the same.
Only the four functions that test for a `PadicElement` import `padics`, so
the rational group-ring algebra of the ray-class checks does not load it.
"""

import math
from fractions import Fraction

from .cyclo import units_mod
from .nt import (
    crt,
    disc_character,
    divisors,
    euler_phi,
    factorize,
    moebius,
    prime_factors,
    valuation,
)

__all__ = [
    "GaloisGroup",
    "Character",
    "characters",
    "GroupRingElement",
    "one_element",
    "basis_element",
    "embed_group_ring",
    "integer_coefficients",
    "char_idempotent",
    "frobenius_orbits",
    "orbit_idempotent",
    "RamificationData",
    "ramification",
    "galois_log",
    "galois_log_quad",
    "lseries_derivative",
    "lseries_derivative_element",
    "norm_log_factor",
    "euler_twist",
    "unit_log_factor",
    "residue_euler_element",
    "chi_component",
    "ray_annihilator",
    "radical",
]


def radical(n):
    """Product of the distinct primes dividing n (1 for n = 1)."""
    return math.prod(prime_factors(n))


class GaloisGroup:
    """Gal(k/Q) for the real abelian field cut out by a `FieldSpec`.

    Elements are indexed 0..order-1; index i is the coset ``self.cosets[i]``
    of H in (Z/m)^*, and index 0 is the identity.  `mult` and `inv` are the
    multiplication and inversion tables on indices.
    """

    __slots__ = ("spec", "m", "cosets", "order", "exponent", "mult", "inv", "_index")

    def __init__(self, spec):
        self.spec = spec
        self.m = spec.m
        self.cosets = spec.cosets()
        self.order = len(self.cosets)
        self._index = {}
        for i, cs in enumerate(self.cosets):
            for a in cs:
                self._index[a] = i
        if self._index[1 % self.m] != 0:
            raise ArithmeticError("identity coset must come first")
        self.mult = [
            [self._index[(ci[0] * cj[0]) % self.m] for cj in self.cosets]
            for ci in self.cosets
        ]
        self.inv = [row.index(0) for row in self.mult]
        exponent = 1
        for i in range(self.order):
            exponent = math.lcm(exponent, self.element_order(i))
        self.exponent = exponent

    def coset_of(self, a):
        """Index of the element that the unit a mod m restricts to."""
        a %= self.m
        if math.gcd(a, self.m) != 1:
            raise ValueError("%d is not a unit at level %d" % (a, self.m))
        return self._index[a]

    def element_order(self, i):
        j = i
        k = 1
        while j != 0:
            j = self.mult[j][i]
            k += 1
        return k

    def subgroup_sum(self, indices):
        """Group-ring sum of the given element indices (with multiplicity 1)."""
        coeffs = [Fraction(0)] * self.order
        for i in indices:
            coeffs[i] += 1
        return GroupRingElement(self, coeffs)

    def __repr__(self):
        return "GaloisGroup(%r, order=%d)" % (self.spec, self.order)

    def __eq__(self, other):
        return isinstance(other, GaloisGroup) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)


class Character:
    """A character of a `GaloisGroup`, valued in roots of unity.

    `exps[g]` is the exponent e with chi(g) = zeta_W^e, W = group.exponent.
    `conductor` is the smallest level f | m through which chi factors; the
    primitive-level value at an integer a (``prim_exp``) is None exactly when
    gcd(a, f) > 1, which downstream sums treat as the value zero.
    """

    __slots__ = ("group", "exps", "order", "conductor")

    def __init__(self, group, exps):
        W = group.exponent
        self.group = group
        self.exps = tuple(e % W for e in exps)
        if len(self.exps) != group.order:
            raise ValueError("one exponent per group element is required")
        order = 1
        for e in self.exps:
            if e:
                order = math.lcm(order, W // math.gcd(W, e))
        self.order = order
        self.conductor = self._conductor()

    def _conductor(self):
        m = self.group.m
        for f in divisors(m):
            if all(
                self.exps[self.group.coset_of(a)] == 0
                for a in units_mod(m)
                if a % f == 1 % f
            ):
                return f
        raise ArithmeticError("no level divides m at which the character factors")

    @property
    def is_trivial(self):
        return self.order == 1

    def kernel(self):
        """Element indices on which the character is 1."""
        return tuple(i for i, e in enumerate(self.exps) if e == 0)

    def value(self, ring, g):
        """chi(g) as an element of the p-adic ring."""
        e = self.exps[g]
        if e == 0:
            return ring.one()
        return ring.cyclotomic_root(self.group.exponent) ** e

    def conj_value(self, ring, g):
        return self.value(ring, self.group.inv[g])

    def prim_exp(self, a):
        """Exponent of the primitive-level value at the integer a, or None.

        None signals gcd(a, conductor) > 1, where the value is zero by
        convention.  Otherwise the value is zeta_W^(returned exponent).
        """
        f = self.conductor
        if f == 1:
            return 0
        if math.gcd(a % f, f) != 1:
            return None
        residues = []
        moduli = []
        for q, e in factorize(self.group.m):
            qe = q**e
            residues.append(a if f % q == 0 else 1)
            moduli.append(qe)
        b = crt(residues, moduli)
        return self.exps[self.group.coset_of(b)]

    def prime_value(self, ring, ram):
        """Value at a prime: chi(Frobenius) if inertia is in the kernel, else 0."""
        if any(self.exps[i] for i in ram.inertia):
            return ring.zero()
        return self.value(ring, ram.frobenius)

    def power(self, k):
        return Character(self.group, tuple(k * e for e in self.exps))

    def conjugate(self):
        return self.power(-1)

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.group.spec == other.group.spec
            and self.exps == other.exps
        )

    def __hash__(self):
        return hash((self.group.spec, self.exps))

    def __repr__(self):
        return "Character(order=%d, conductor=%d, exps=%s)" % (
            self.order,
            self.conductor,
            list(self.exps),
        )


def characters(group):
    """All characters of the group, trivial first, in a deterministic order.

    Read off the multiplication table alone.  Grow a subgroup K from {1},
    one element g at a time: if g^r is the first power of g inside K, each
    character chi of K extends to <K, g> in exactly r ways, chi(k g^i) =
    chi(k) + i e with r e = chi(g^r) mod W.  Such an e exists because r
    divides ord(g), which divides W.
    """
    W = group.exponent
    mult = group.mult
    K = [0]
    chars = [[0]]  # chars[j][i]: exponent of the j-th character at K[i]
    pos = {0: 0}
    for g in range(1, group.order):
        if g in pos:
            continue
        powers = [0]
        h = g
        while h not in pos:
            powers.append(h)
            h = mult[h][g]
        r = len(powers)
        extended = []
        for chi in chars:
            c = chi[pos[h]]
            if c % r:
                raise ArithmeticError("character value at g^r has no r-th root")
            for t in range(r):
                e = c // r + t * (W // r)
                extended.append([(x + i * e) % W for i in range(r) for x in chi])
        K = [mult[k][gi] for gi in powers for k in K]
        pos = {k: i for i, k in enumerate(K)}
        chars = extended
    exps = sorted(tuple(chi[pos[x]] for x in range(group.order)) for chi in chars)
    return [Character(group, e) for e in exps]


class GroupRingElement:
    """Dense group-ring element: coefficient tuple indexed by group element.

    Coefficients may be ints, Fractions, or `PadicElement`s of one ring;
    arithmetic only requires them to support +, -, * among themselves.
    Multiplying two elements convolves along the group's multiplication
    table; multiplying by anything that is not a `GroupRingElement` scales
    every coefficient.
    """

    __slots__ = ("group", "coeffs")

    def __init__(self, group, coeffs):
        self.group = group
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != group.order:
            raise ValueError("one coefficient per group element is required")

    def __add__(self, other):
        if self.group != other.group:
            raise ValueError("elements over different groups")
        return GroupRingElement(
            self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        if self.group != other.group:
            raise ValueError("elements over different groups")
        return GroupRingElement(
            self.group, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return GroupRingElement(self.group, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, GroupRingElement):
            if self.group != other.group:
                raise ValueError("elements over different groups")
            mult = self.group.mult
            zero = self.coeffs[0] * 0
            out = [zero] * self.group.order
            for i, a in enumerate(self.coeffs):
                row = mult[i]
                for j, b in enumerate(other.coeffs):
                    out[row[j]] = out[row[j]] + a * b
            return GroupRingElement(self.group, out)
        return GroupRingElement(self.group, tuple(a * other for a in self.coeffs))

    def __rmul__(self, other):
        # only reached for int/Fraction scalars (they defer to us)
        return GroupRingElement(self.group, tuple(other * a for a in self.coeffs))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("exponent %d must be nonnegative" % k)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        if result is None:
            raise ValueError("use one_element for the empty power")
        return result

    def apply(self, g):
        """Right-translate by group element g: x -> x * g."""
        out = [None] * self.group.order
        for i, a in enumerate(self.coeffs):
            out[self.group.mult[i][g]] = a
        return GroupRingElement(self.group, out)

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __repr__(self):
        return "GroupRingElement(%s)" % (list(self.coeffs),)


def one_element(group):
    """The identity of the group ring, with Fraction coefficients."""
    return basis_element(group, 0)


def basis_element(group, g):
    """The group element g as a group-ring element, with Fraction coefficients."""
    return group.subgroup_sum((g,))


def embed_group_ring(x, ring):
    """Map int/Fraction coefficients into the p-adic ring, coefficientwise."""
    from .padics import PadicElement

    coeffs = []
    for c in x.coeffs:
        if isinstance(c, PadicElement):
            coeffs.append(c)
        else:
            coeffs.append(ring.from_fraction(Fraction(c)))
    return GroupRingElement(x.group, coeffs)


def integer_coefficients(theta):
    """Integer lifts of all coefficients (exact ints for rational input)."""
    from .padics import PadicElement

    out = []
    for c in theta.coeffs:
        if isinstance(c, PadicElement):
            out.append(c.lift_int())
        else:
            fr = Fraction(c)
            if fr.denominator != 1:
                raise ValueError("coefficient %s is not integral" % fr)
            out.append(int(fr))
    return out


def char_idempotent(chi, ring):
    """e_chi = (1/|G|) sum_g chi(g) g^{-1}, with p-adic coefficients."""
    group = chi.group
    inv_order = ring.from_fraction(Fraction(1, group.order))
    coeffs = [chi.conj_value(ring, g) * inv_order for g in range(group.order)]
    return GroupRingElement(group, coeffs)


def frobenius_orbits(chars, p):
    """Orbits of the nontrivial characters under chi -> chi^p.

    Deterministic: orbits appear in the order their first member appears in
    `chars`, and each orbit is listed starting from that member.
    """
    group = chars[0].group
    W = group.exponent
    if math.gcd(p, W) != 1:
        raise ValueError("p must be coprime to the character orders")
    by_exps = {c.exps: c for c in chars}
    seen = set()
    orbits = []
    for c in chars:
        if c.is_trivial or c.exps in seen:
            continue
        orbit = []
        cur = c
        while cur.exps not in seen:
            seen.add(cur.exps)
            orbit.append(cur)
            cur = by_exps[tuple(p * e % W for e in cur.exps)]
        orbits.append(tuple(orbit))
    return orbits


def orbit_idempotent(orbit, ring):
    """Sum of the character idempotents over one Frobenius orbit.

    The result has coefficients fixed by the ring's Frobenius (they are
    integral over Z_p), which is what makes the orbit projector compatible
    with modules that only carry Z_p structure.
    """
    acc = None
    for chi in orbit:
        e = char_idempotent(chi, ring)
        acc = e if acc is None else acc + e
    return acc


class RamificationData:
    """Frobenius and inertia at a rational prime ell, for G = {1, sigma}.

    `frobenius` is one valid element index (well-defined modulo inertia);
    `inertia` is the sorted tuple of inertia element indices.
    """

    __slots__ = ("group", "ell", "frobenius", "inertia")

    def __init__(self, group, ell, frobenius, inertia):
        self.group = group
        self.ell = ell
        self.frobenius = frobenius
        self.inertia = inertia

    def inertia_sum(self):
        """Sum of the inertia elements, with Fraction coefficients."""
        return self.group.subgroup_sum(self.inertia)

    def average(self):
        """The idempotent (1/|I|) sum_{tau in I} tau."""
        return self.inertia_sum() * Fraction(1, len(self.inertia))

    def residue_degree_order(self):
        """Order of Frobenius modulo inertia: the residue degree over ell."""
        return 2 if self.frobenius else 1

    def __repr__(self):
        return "RamificationData(ell=%d, frobenius=%d, inertia=%s)" % (
            self.ell,
            self.frobenius,
            list(self.inertia),
        )


def _quadratic_character(group):
    """chi_D as a callable, for the group {1, sigma} of Q(sqrt D), D = m."""
    if group.order != 2:
        raise ValueError(
            "only the group {1, sigma} of a real quadratic field is supported, "
            "not one of order %d" % group.order
        )
    return disc_character(group.m)


def _from_values(group, s, r):
    """a + b sigma from its trivial value s = a + b and chi_D value r = a - b."""
    return GroupRingElement(group, (Fraction(s + r, 2), Fraction(s - r, 2)))


def ramification(group, ell):
    """Frobenius and inertia data at the rational prime ell, off chi_D(ell).

    Inertia is all of G where chi_D(ell) = 0, and Frobenius is sigma
    exactly where chi_D(ell) = -1.
    """
    chi = _quadratic_character(group)(ell)
    return RamificationData(group, ell, int(chi == -1), (0,) if chi else (0, 1))


def galois_log(group, ring, values):
    """The log map: sum_g log_p(values[g]) g^{-1}.

    `values[g]` must be the image of x under group element g, already
    embedded into the ring (any nonzero element; p-power parts and roots of
    unity are discarded by the ring's logarithm).
    """
    if len(values) != group.order:
        raise ValueError("one value per group element is required")
    coeffs = [None] * group.order
    for g in range(group.order):
        coeffs[group.inv[g]] = ring.iwasawa_log(values[g])
    return GroupRingElement(group, coeffs)


def galois_log_quad(group, ring, z, sqrt_img=None):
    """The log map for an element of a real quadratic field.

    The embedding sends sqrt(D) to `sqrt_img` (default: the ring's canonical
    Gauss-sum image, the one shared with the cyclotomic L-value sums).  p
    may divide the denominators of z.
    """
    D = z.field.D
    if group.order != 2 or group.m != D:
        raise ValueError("group must match the quadratic field")
    if sqrt_img is None:
        sqrt_img = ring.sqrt_disc(D)
    # log p = 0, so p^k z, with no p in its denominators, has the log of z
    x, y = z.x, z.y
    pk = ring.p ** max(valuation(x.denominator, ring.p), valuation(y.denominator, ring.p))
    log_z = ring.iwasawa_log(ring.embed_quadratic(x * pk, y * pk, sqrt_img))
    # log(sigma z) = log(N z) - log(z), and the rational N z is cheap to log
    return GroupRingElement(group, [log_z, ring.iwasawa_log(z.norm()) - log_z])


def lseries_derivative(chi, ring):
    """Derivative at zero of the p-adic L-series of a nontrivial character.

    Evaluates the finite sum of log_p(1 - zeta_f^a) against the conjugate
    character over primitive-level units a, f the conductor.  Requires p
    not dividing f (all summands are then logs of units).
    """
    if chi.is_trivial:
        raise ValueError("the trivial character has no such value")
    f = chi.conductor
    if f % ring.p == 0:
        raise ValueError("p must not divide the conductor")
    rho = ring.cyclotomic_root(f)
    W = chi.group.exponent
    one = ring.one()
    # log is a homomorphism: one log per value of chi, of the product of
    # the factors 1 - rho^a that share it
    products = {}
    power = one
    for a in range(1, f):
        power = power * rho
        if math.gcd(a, f) != 1:
            continue
        e = chi.prim_exp(a)
        if e is None:
            raise ArithmeticError("character has no value at the unit %d" % a)
        factor = one - power
        products[e] = products[e] * factor if e in products else factor
    acc = ring.zero()
    for e, product in products.items():
        term = ring.iwasawa_log(product)
        if e:
            zeta = ring.cyclotomic_root(W)
            term = term * zeta ** ((-e) % W)
        acc = acc + term
    return acc


def _character_sum(group, ring, component):
    """sum over nontrivial chi of component(chi) e_chi."""
    acc = None
    for chi in characters(group):
        if chi.is_trivial:
            continue
        term = char_idempotent(chi, ring) * component(chi)
        acc = term if acc is None else acc + term
    return acc


def lseries_derivative_element(group, ring):
    """sum over nontrivial chi of L'-value(chi) e_chi, as a group-ring element."""
    if group.order % ring.p == 0:
        raise ValueError("p must not divide the degree")
    if group.m % ring.p == 0:
        raise ValueError("p must not divide the conductor")
    return _character_sum(group, ring, lambda chi: lseries_derivative(chi, ring))


def _norm_log_value(group, chi, n, level):
    """chi_D value of `norm_log_factor` at t = n/level; the trivial value is 0."""
    if level % group.m:
        return 0
    factor = math.prod(1 - chi(ell) for ell in prime_factors(level))
    return euler_phi(n) // euler_phi(level) * factor


def norm_log_factor(group, n, t):
    """Rational group-ring factor for the log of a level-(n/t) norm product.

    For t a proper divisor of n this is the degree [Q(zeta_n) : k^n
    Q(zeta_{n/t})] times the sum over the subgroup fixing k intersect
    Q(zeta_{n/t}), times the product over primes ell | n/t of
    (1 - Frobenius^{-1} inertia-average).  Its trivial value is 0, and its
    chi_D value is phi(n)/phi(n/t) prod_{ell | n/t} (1 - chi_D(ell)) when D
    divides n/t, else 0.
    """
    if not (t >= 1 and n % t == 0 and t < n):
        raise ValueError("t must be a proper divisor of n")
    chi = _quadratic_character(group)
    return _from_values(group, 0, _norm_log_value(group, chi, n, n // t))


def euler_twist(group, t):
    """Product over primes ell | t of (ell - Frobenius * inertia-average).

    Its trivial value is prod (ell - 1) and its chi_D value
    prod (ell - chi_D(ell)).
    """
    chi = _quadratic_character(group)
    ells = prime_factors(t)
    return _from_values(
        group, math.prod(ell - 1 for ell in ells), math.prod(ell - chi(ell) for ell in ells)
    )


def unit_log_factor(group, n, d):
    """Rational coefficient element for the level-n modified cyclotomic number.

    Defined for n > 1 not dividing the radical of d; combines the Moebius
    sum of `norm_log_factor` over common divisors with the Euler twist at
    the primes of the radical away from n and the scalar d/radical(d).  Its
    trivial value is 0, and its chi_D value is computed in integers.
    """
    if n <= 1:
        raise ValueError("level must exceed 1")
    dbar = radical(d)
    if dbar % n == 0:
        raise ValueError("levels dividing the radical are excluded")
    chi = _quadratic_character(group)
    g = math.gcd(dbar, n)
    r = sum(
        moebius(t) * (g // t) * _norm_log_value(group, chi, n, n // t) for t in divisors(g)
    )
    r *= d // dbar * math.prod(ell - chi(ell) for ell in prime_factors(dbar // g))
    return _from_values(group, 0, r)


def _euler_factor(chi, ring, rams):
    """prod over the given primes ell of (ell - chi(ell))."""
    val = ring.one()
    for ram in rams:
        val = val * (ring.from_int(ram.ell) - chi.prime_value(ring, ram))
    return val


def residue_euler_element(group, ring, dprime):
    """sum over nontrivial chi of prod_{ell | dprime} (ell - chi(ell)) e_chi.

    For dprime = 1 this is 1 - e_1, the projector away from the trivial
    character.
    """
    rams = [ramification(group, ell) for ell in prime_factors(dprime)]
    return _character_sum(group, ring, lambda chi: _euler_factor(chi, ring, rams))


def chi_component(theta, chi, ring):
    """sum_g coeff(g) chi(g): the scalar by which theta acts on the chi-part."""
    from .padics import PadicElement

    acc = ring.zero()
    for g, c in enumerate(theta.coeffs):
        if not isinstance(c, PadicElement):
            c = ring.from_fraction(Fraction(c))
        acc = acc + c * chi.value(ring, g)
    return acc


def _exact_divide(num, den, ring):
    """num / den in the ring, requiring the quotient to be integral."""
    v = den.valuation()
    if den.is_zero() or v >= den.prec:
        raise ValueError(
            "division by a group-ring component that vanishes at this precision; "
            "increase the precision"
        )
    if v > 0:
        if num.valuation() < v:
            raise ValueError("quotient is not integral at this precision")
        num = num.divide_exact(ring.p**v)
        den = den.divide_exact(ring.p**v)
    return num * den.inverse()


def ray_annihilator(group, ring, d, rho, upsilon):
    """The annihilator element for the ray modulus d.

    Per nontrivial character the component is
        upsilon_chi^{-1} rho_chi^{-1} L'-value(chi) (d/radical(d))
        prod_{ell | radical(d)} (ell - chi(ell)),
    assembled over the character idempotents (the trivial component is 0).

    `rho` is the `galois_log` of the chosen fundamental unit; `upsilon` is
    either a single scalar (int or PadicElement) or a dict keyed by
    character, giving the relative index of the congruence-unit generator.
    Raises ValueError when a divisor vanishes at the working precision.
    """
    from .padics import PadicElement

    dbar = radical(d)
    scalar = ring.from_fraction(Fraction(d, dbar))
    rams = [ramification(group, ell) for ell in prime_factors(dbar)]

    def component(chi):
        num = lseries_derivative(chi, ring) * scalar * _euler_factor(chi, ring, rams)
        comp = _exact_divide(num, chi_component(rho, chi, ring), ring)
        u = upsilon[chi] if isinstance(upsilon, dict) else upsilon
        if not isinstance(u, PadicElement):
            u = ring.from_int(int(u))
        return _exact_divide(comp, u, ring)

    return _character_sum(group, ring, component)
