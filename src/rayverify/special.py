"""Explicit constructions in k(zeta_ell) over a real quadratic field k.

Four tools live here, all exact:

* arithmetic in the composite field k(zeta_ell) for an odd prime ell that
  does not ramify in k, held in integers (see `CycQuadElement`);
* norm-one units attached to a cyclotomic level (n, d), produced by pushing
  the two-variable product over (zeta_ell^t - zeta_n^t) down to the
  subfield cut out by the quadratic field, together with a fully exact
  certificate: integrality, unit norm, relative norm one, congruence to 1
  modulo d, and residue agreement with the cyclotomic number of the same
  level at every prime over ell;
* a constructive Hilbert-90 witness: for a unit eps of relative norm one,
  an explicit nonzero alpha with alpha = eps * tau(alpha), where tau
  generates the Galois group of k(zeta_ell)/k;
* discrete-logarithm vectors of a quadratic-field number at the primes over
  a split rational prime, packaged as group-ring annihilator coefficients.

Bad arguments raise ValueError and a broken internal invariant raises
ArithmeticError; no check is an `assert`, so `python -O` behaves the same.
"""

import math
from fractions import Fraction

from .grouprings import radical
from .nt import divisors, is_prime, moebius, primitive_root
from .quadratic import QuadElement
from .units import cyclotomic_number, orbit_polynomial


def _check_modulus(field, ell):
    """Raise ValueError unless ell is an odd prime unramified in the field."""
    if not (ell % 2 == 1 and is_prime(ell)):
        raise ValueError("ell=%d must be an odd prime" % ell)
    if field.D % ell == 0:
        raise ValueError(
            "ell=%d is ramified in Q(sqrt(%d)); k(zeta_ell) needs it unramified"
            % (ell, field.D)
        )


def _check_split(field, ell):
    """Raise ValueError unless ell is an odd prime split in the field."""
    _check_modulus(field, ell)
    if field.chi(ell) != 1:
        raise ValueError(
            "ell=%d is %s in Q(sqrt(%d)); it must split"
            % (ell, field.split_type(ell), field.D)
        )


def _omega_ints(field, z):
    """Integers (a, b, e), e > 0, with z = (a + b omega) / e."""
    if not isinstance(z, QuadElement):
        z = field.element(z)
    elif z.field.D != field.D:
        raise ValueError("mixed quadratic fields")
    return z.a, z.b, z.e


# -- Kronecker substitution: a vector v of ints is the int sum v[j] 2^(w j)
# for a slot width w = 8k bits, with signed digits |v[j]| < 2^(w-1).


def _bias(count, k):
    """The digit offset 2^(w-1) in each of `count` slots of k bytes."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * count, "little")


def _pack(vec, k):
    half = 1 << (8 * k - 1)
    raw = b"".join((v + half).to_bytes(k, "little") for v in vec)
    return int.from_bytes(raw, "little") - _bias(len(vec), k)


def _unpack_cyclic(value, ell, k):
    """The signed digits f_0..f_(ell-1) of value modulo 2^(w ell) - 1.

    That modulus is zeta^ell - 1 at zeta = 2^w, so a packed product folds
    into ell slots.  Requires |f_j| < 2^(w-1) - 1: the biased residue then
    has the digits f_j + 2^(w-1) with no carries.
    """
    half = 1 << (8 * k - 1)
    size = k * ell
    raw = ((value + _bias(ell, k)) % ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    return [int.from_bytes(raw[i : i + k], "little") - half for i in range(0, size, k)]


def _height(x):
    """Bit length of the largest integer coordinate of x."""
    return max(map(abs, x.A + x.B)).bit_length()


class CycQuadElement:
    """Element (sum_j (A[j] + B[j] omega) zeta^j) / den of k(zeta_ell).

    j runs over 0..ell-2: the power basis is reduced by the relation
    1 + zeta + ... + zeta^(ell-1) = 0, and omega generates O_k = Z[omega].
    A and B are tuples of ints and den is a positive int with
    gcd(den, A, B) = 1, so the representation is unique: equality,
    integrality (den == 1, since ell is unramified in k and O_k[zeta] is
    the ring of integers) and divisibility are integer tests.

    A product packs each coordinate vector into one int (Kronecker
    substitution), takes the three big-integer products AC, BD and
    (A + B)(C + D), rewrites omega^2 = T omega - N with T, N the trace and
    norm of omega, and folds the packed results modulo zeta^ell - 1.

    The public constructors check that ell is an odd prime unramified in
    k; arithmetic on elements that passed that check does not repeat it.
    """

    __slots__ = ("field", "ell", "A", "B", "den")

    def __init__(self, field, ell, A, B, den=1):
        if len(A) != ell - 1 or len(B) != ell - 1:
            raise ValueError("need ell - 1 coordinates on 1 and on omega")
        if den <= 0:
            raise ValueError("the denominator must be positive")
        g = math.gcd(den, *A, *B)
        if g > 1:
            den //= g
            A = [a // g for a in A]
            B = [b // g for b in B]
        self.field = field
        self.ell = ell
        self.A = tuple(A)
        self.B = tuple(B)
        self.den = den

    # -- constructors

    @classmethod
    def _from_cyclic(cls, field, ell, X, Y, den):
        """From length-ell coordinates on 1, zeta, ..., zeta^(ell-1)."""
        tx, ty = X[-1], Y[-1]
        return cls(field, ell, [x - tx for x in X[:-1]], [y - ty for y in Y[:-1]], den)

    @classmethod
    def _embed(cls, field, ell, z):
        """The quadratic-field number z, for a checked modulus ell."""
        a, b, e = _omega_ints(field, z)
        zeros = [0] * (ell - 2)
        return cls(field, ell, [a] + zeros, [b] + zeros, e)

    @classmethod
    def from_quad(cls, field, ell, z):
        _check_modulus(field, ell)
        return cls._embed(field, ell, z)

    @classmethod
    def zero(cls, field, ell):
        return cls.from_quad(field, ell, 0)

    @classmethod
    def one(cls, field, ell):
        return cls.from_quad(field, ell, 1)

    @classmethod
    def from_full(cls, field, ell, full):
        """Build from a length-ell list of coefficients of 1, ..., zeta^(ell-1)."""
        _check_modulus(field, ell)
        if len(full) != ell:
            raise ValueError("need ell coefficients")
        coords = [_omega_ints(field, z) for z in full]
        den = math.lcm(*(e for _, _, e in coords))
        X = [a * (den // e) for a, _, e in coords]
        Y = [b * (den // e) for _, b, e in coords]
        return cls._from_cyclic(field, ell, X, Y, den)

    # -- ring operations

    def _coerce(self, other):
        if isinstance(other, CycQuadElement):
            if other.field.D != self.field.D or other.ell != self.ell:
                raise ValueError("elements of different fields k(zeta_ell)")
            return other
        if isinstance(other, (int, Fraction, QuadElement)):
            return CycQuadElement._embed(self.field, self.ell, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            A = [a + c for a, c in zip(self.A, other.A)]
            B = [b + c for b, c in zip(self.B, other.B)]
        else:
            A = [a * d2 + c * d1 for a, c in zip(self.A, other.A)]
            B = [b * d2 + c * d1 for b, c in zip(self.B, other.B)]
            d1 *= d2
        return CycQuadElement(self.field, self.ell, A, B, d1)

    __radd__ = __add__

    def __neg__(self):
        return CycQuadElement(
            self.field, self.ell, [-a for a in self.A], [-b for b in self.B], self.den
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadElement)):
            return self._scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field, ell = self.field, self.ell
        T, N = field.omega_trace, field.omega_norm
        # every folded coefficient of the two results below is at most
        # (ell - 1) * 2^(hx + hy) * (|N| + 6) in absolute value; the slot
        # width w = 8k leaves two bits above that bound
        bits = (
            _height(self)
            + _height(other)
            + (ell - 1).bit_length()
            + (abs(N) + 6).bit_length()
        )
        k = (bits + 9) // 8
        pa, pb = _pack(self.A, k), _pack(self.B, k)
        if other is self:
            pc, pd = pa, pb
        else:
            pc, pd = _pack(other.A, k), _pack(other.B, k)
        ac, bd = pa * pc, pb * pd
        sx = pa + pb
        sy = sx if other is self else pc + pd
        # (A + B omega)(C + D omega) = AC - N BD + (AD + BC + T BD) omega
        # with AD + BC = (A + B)(C + D) - AC - BD
        X = _unpack_cyclic(ac - N * bd, ell, k)
        Y = _unpack_cyclic(sx * sy - ac + (T - 1) * bd, ell, k)
        return CycQuadElement._from_cyclic(field, ell, X, Y, self.den * other.den)

    __rmul__ = __mul__

    def _scale(self, z):
        """Multiplication by an element of the quadratic field."""
        p, q, e = _omega_ints(self.field, z)
        T, N = self.field.omega_trace, self.field.omega_norm
        # (a + b omega)(p + q omega) = a p - N b q + (a q + b p + T b q) omega
        A = [a * p - N * b * q for a, b in zip(self.A, self.B)]
        B = [a * q + b * (p + T * q) for a, b in zip(self.A, self.B)]
        return CycQuadElement(self.field, self.ell, A, B, self.den * e)

    def __pow__(self, e):
        e = int(e)
        if e < 0:
            return self.inverse() ** (-e)
        out = CycQuadElement._embed(self.field, self.ell, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.A == other.A and self.B == other.B

    def __repr__(self):
        return "CycQuadElement(ell=%d, D=%d)" % (self.ell, self.field.D)

    def is_zero(self):
        return not any(self.A) and not any(self.B)

    @property
    def coeffs(self):
        """The coefficients of 1, zeta, ..., zeta^(ell-2) as QuadElements."""
        field, den = self.field, self.den
        return tuple(QuadElement(field, a, b, den) for a, b in zip(self.A, self.B))

    # -- Galois actions

    def galois_zeta(self, s):
        """The automorphism zeta -> zeta^s, trivial on the quadratic field."""
        ell = self.ell
        if s % ell == 0:
            raise ValueError("zeta -> zeta^%d is not an automorphism" % s)
        X, Y = [0] * ell, [0] * ell
        for j, (a, b) in enumerate(zip(self.A, self.B)):
            X[j * s % ell] = a
            Y[j * s % ell] = b
        return CycQuadElement._from_cyclic(self.field, ell, X, Y, self.den)

    def shift(self, e):
        """Multiplication by zeta^e."""
        ell = self.ell
        X, Y = [0] * ell, [0] * ell
        for j, (a, b) in enumerate(zip(self.A, self.B)):
            X[(j + e) % ell] = a
            Y[(j + e) % ell] = b
        return CycQuadElement._from_cyclic(self.field, ell, X, Y, self.den)

    # -- norms, integrality, residues

    def _conjugates(self):
        """The product of the ell - 2 conjugates zeta -> zeta^s, 2 <= s < ell."""
        co = self.galois_zeta(2)
        for s in range(3, self.ell):
            co = co * self.galois_zeta(s)
        return co

    def _base_part(self, what):
        """The QuadElement self, which must have no zeta^j terms for j > 0."""
        if any(self.A[1:]) or any(self.B[1:]):
            raise ArithmeticError(what)
        return QuadElement(self.field, self.A[0], self.B[0], self.den)

    def norm_to_quad(self):
        """Norm down to the quadratic field: the product of all zeta -> zeta^s."""
        nrm = self * self._conjugates()
        return nrm._base_part("norm failed to land in the base field")

    def inverse(self):
        co = self._conjugates()
        scalar = (self * co)._base_part("inverse of a non-invertible element")
        if scalar == 0:
            raise ZeroDivisionError("inverse of zero")
        return co * scalar.inverse()

    def absolute_norm(self):
        """Norm down to Q, a Fraction."""
        return self.norm_to_quad().norm()

    def is_integral(self):
        return self.den == 1

    def divisible_by_int(self, d):
        """True when every coefficient lies in d * (ring of integers)."""
        m = d * self.den
        return all(a % m == 0 for a in self.A) and all(b % m == 0 for b in self.B)

    def residue_at(self, root):
        """Image in F_ell under zeta -> 1 and omega -> root."""
        total = QuadElement(self.field, sum(self.A), sum(self.B), self.den)
        return quad_residue(total, self.ell, root)


def quad_residue(z, ell, root):
    """Image of a quadratic-field number in F_ell, sending omega -> root.

    `root` must satisfy root^2 - tr(omega) root + norm(omega) = 0 mod ell;
    the denominators of z must be prime to ell.
    """
    D = z.field.D
    t = (2 * root - (D % 2)) % ell  # image of sqrt(D)
    if (t * t - D) % ell != 0:
        raise ValueError("root %d does not define a prime over %d" % (root, ell))
    if z.x.denominator % ell == 0 or z.y.denominator % ell == 0:
        raise ValueError("denominator of %r is not prime to %d" % (z, ell))
    xr = z.x.numerator * pow(z.x.denominator, -1, ell)
    yr = z.y.numerator * pow(z.y.denominator, -1, ell)
    return (xr + t * yr) % ell


# ----------------------------------------------------------------------
# Norm-one units at a cyclotomic level


def special_prime_candidates(field, n, d, count=3):
    """The first `count` odd primes, split in the field, coprime to n*d."""
    out = []
    q = 2
    while len(out) < count:
        q += 1
        if not is_prime(q):
            continue
        if field.chi(q) == 1 and (n * d) % q != 0:
            out.append(q)
    return out


def validate_aux_prime(field, n, d, ell):
    """Raise ValueError unless (n, d, ell) are valid special-unit data.

    The level n must exceed 1 and not divide rad(d); the auxiliary prime
    ell must be an odd prime, split in the field and prime to n*d.
    """
    if n <= 1 or radical(d) % n == 0:
        raise ValueError(
            "level n=%d must exceed 1 and not divide rad(%d)=%d" % (n, d, radical(d))
        )
    _check_split(field, ell)
    if (n * d) % ell == 0:
        raise ValueError(
            "auxiliary prime ell=%d must be prime to level*twist=%d" % (ell, n * d)
        )


def special_unit(field, n, d, ell):
    """The level-(n, d) norm-one element of k^n(zeta_ell).

    Built as the product over squarefree t | rad(d) of F_t(zeta_ell^t) to
    the power mu(t) d/t, where F_t (`units.orbit_polynomial`) is the monic
    polynomial whose roots are the orbit of zeta_n^t under the subgroup
    fixing k^n.  Requires n > 1, n not dividing rad(d), and an odd prime
    ell, split in the field and coprime to n*d (see `validate_aux_prime`).
    """
    validate_aux_prime(field, n, d, ell)
    dbar = radical(d)
    num = CycQuadElement._embed(field, ell, 1)
    den = CycQuadElement._embed(field, ell, 1)
    for t in divisors(dbar):
        mu = moebius(t)
        if mu == 0:
            continue
        full = [field.zero()] * ell
        for i, c in enumerate(orbit_polynomial(field, n, t)):
            k = (t * i) % ell
            full[k] = full[k] + c
        value = CycQuadElement.from_full(field, ell, full)
        e = mu * (d // t)
        if e > 0:
            num = num * value**e
        else:
            den = den * value ** (-e)
    return num * den.inverse()


def special_unit_certificate(field, n, d, ell):
    """Exact certificate for the level-(n, d) unit at the auxiliary prime ell.

    Verifies, with no rounding anywhere:
      * integrality and absolute norm +-1 (the element is a unit),
      * relative norm down to the quadratic field exactly 1,
      * a sign choice making the element congruent to 1 modulo d,
      * at every prime over ell the element reduces (zeta -> 1) to the
        cyclotomic number of the same level.
    """
    eps = special_unit(field, n, d, ell)
    delta = cyclotomic_number(field, n, d)
    nrm = eps.norm_to_quad()
    abs_norm = nrm.norm()
    is_unit = eps.is_integral() and abs(abs_norm) == 1
    norm_one = nrm == field.one()

    if (eps - 1).divisible_by_int(d):
        sign = 1
    elif (eps + 1).divisible_by_int(d):
        sign = -1
    else:
        sign = 0
    congruent = sign != 0

    roots = field.prime_roots(ell)
    residues = {}
    matches = True
    for r in roots:
        e_res = eps.residue_at(r)
        d_res = quad_residue(delta, ell, r)
        residues[r] = (e_res, d_res)
        if e_res != d_res:
            matches = False

    return {
        "discriminant": field.D,
        "level": n,
        "twist": d,
        "aux_prime": ell,
        "is_unit": is_unit,
        "norm_one": norm_one,
        "congruent_one_mod_d": congruent,
        "sign": sign,
        "matches_cyclotomic_residues": matches,
        "residues": residues,
        "absolute_norm": abs_norm,
    }


# ----------------------------------------------------------------------
# Constructive Hilbert 90


def hilbert90_witness(eps):
    """A nonzero alpha with alpha = eps * tau(alpha), built explicitly.

    tau is the generator zeta -> zeta^s of Gal(k(zeta_ell)/k), s the
    smallest primitive root mod ell.  alpha is the alternating-free sum
    -sum_i zeta^(g s^i) eps^(1 + tau + ... + tau^(i-1)); the exponent g
    walks 1, 2, ... until alpha is nonzero (guaranteed within ell - 1).

    Requires eps integral with norm one down to the quadratic field.
    Returns a dict with alpha, the chosen g, s, and the exact flags.
    """
    field, ell = eps.field, eps.ell
    s = primitive_root(ell)
    nrm = eps.norm_to_quad()
    if nrm != field.one():
        raise ValueError("witness requires relative norm one")

    partial = [CycQuadElement._embed(field, ell, 1)]
    for i in range(1, ell - 1):
        conj = eps.galois_zeta(pow(s, i - 1, ell))
        partial.append(partial[-1] * conj)

    alpha = None
    g_used = None
    for g in range(1, ell):
        acc = CycQuadElement._embed(field, ell, 0)
        for i in range(ell - 1):
            acc = acc + partial[i].shift((g * pow(s, i, ell)) % ell)
        acc = -acc
        if not acc.is_zero():
            alpha = acc
            g_used = g
            break
    if alpha is None:
        raise ArithmeticError("no nonzero witness among all root choices")

    identity = alpha == eps * alpha.galois_zeta(s)
    stable = identity and alpha.is_integral() and eps.is_integral()
    return {
        "alpha": alpha,
        "root_exponent": g_used,
        "primitive_root": s,
        "nonzero": True,
        "cocycle_identity": identity,
        "ideal_stable": stable,
    }


# ----------------------------------------------------------------------
# Discrete-log annihilator coefficients


def residue_dlogs(field, z, ell):
    """Discrete logs of z at the two primes over a split odd prime ell.

    Returns (s, {root: dlog}) where s is the chosen primitive root mod ell
    and z = s^dlog at each reduction omega -> root.
    """
    _check_split(field, ell)
    s = primitive_root(ell)
    table = {}
    acc = 1
    for e in range(ell - 1):
        table[acc] = e
        acc = (acc * s) % ell
    out = {}
    for r in field.prime_roots(ell):
        v = quad_residue(z, ell, r)
        if v == 0:
            raise ValueError("number is not a unit at %d" % ell)
        out[r] = table[v]
    return s, out


def dlog_annihilator_coefficients(field, group, z, ell, n_exp):
    """Group-ring coefficients sum_sigma a_sigma sigma^(-1) from residues of z.

    a_sigma is minus the discrete log of z at the prime indexed by sigma
    (identity: the first root in sorted order; the nontrivial element: the
    second), reduced modulo ell - 1.  Requires ell odd, split, and
    ell = 1 mod n_exp so the reduction mod n_exp is meaningful.
    """
    if (ell - 1) % n_exp:
        raise ValueError("ell=%d must be 1 mod %d" % (ell, n_exp))
    s, dlogs = residue_dlogs(field, z, ell)
    roots = field.prime_roots(ell)
    ident = group.coset_of(1)
    other = 1 - ident  # two-element group
    coeffs = [0, 0]
    coeffs[ident] = (-dlogs[roots[0]]) % (ell - 1)
    coeffs[other] = (-dlogs[roots[1]]) % (ell - 1)
    return {
        "primitive_root": s,
        "coefficients": coeffs,
        "coefficients_mod_n": [c % n_exp for c in coeffs],
        "dlogs": dlogs,
        "roots": roots,
    }
