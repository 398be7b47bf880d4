"""Explicit constructions in k(zeta_ell) over a real quadratic field k.

Three tools live here, all exact:

* arithmetic in the composite field k(zeta_ell) for an odd prime ell that
  does not ramify in k, held in integers (see `CycQuadElement`).  Norms
  and inverses double over the cyclic group (Z/ell)^* = <g>, so a norm
  takes about 2 log2(ell) products, not ell - 2;
* norm-one units attached to a cyclotomic level (n, d), produced by pushing
  the two-variable product over (zeta_ell^t - zeta_n^t) down to the
  subfield cut out by the quadratic field (`special_unit`);
* a constructive Hilbert-90 witness: for a unit eps of relative norm one,
  an explicit nonzero alpha with alpha = eps * tau(alpha), where tau
  generates the Galois group of k(zeta_ell)/k.

The certificate of a special unit and the discrete logs of the thaine
annihilator live in `checks_annihilators`, next to the checks that call
them, so ``verify h90`` compiles neither; `__getattr__` resolves them
here too (`_MOVED`).  This module loads `circular`, not `units`.

`fractions` is imported only where a Fraction can appear: a scalar that is
neither an int nor a `QuadElement`, and `absolute_norm`.

Bad arguments raise ValueError and a broken internal invariant raises
ArithmeticError; no check is an `assert`, so `python -O` behaves the same.
"""

import math
import sys
from array import array

from . import _lazy_getattr
from .circular import orbit_product
from .nt import divisors, is_prime, moebius, primitive_root, radical
from .quadratic import QuadElement


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


def _is_scalar(x):
    """Whether x is an int, a Fraction or a `QuadElement`: a number of k."""
    if isinstance(x, (int, QuadElement)):
        return True
    from fractions import Fraction

    return isinstance(x, Fraction)


def _omega_ints(field, z):
    """Integers (a, b, e), e > 0, with z = (a + b omega) / e."""
    if not isinstance(z, QuadElement):
        z = field.element(z)
    elif z.field.D != field.D:
        raise ValueError("mixed quadratic fields")
    return z.a, z.b, z.e


# -- Kronecker substitution: a vector v of ints is the int sum v[j] 2^(w j)
# for a slot width w = 8k bits, with signed digits |v[j]| < 2^(w-1).  A
# slot of k = 8 bytes is one signed 64-bit lane of an `array('q')`, which
# packs and unpacks a whole vector in C; wider slots go through bytes.

_LANE = 8
_BIG_ENDIAN = sys.byteorder == "big"


def _bias(count, k):
    """The digit offset 2^(w-1) in each of `count` slots of k bytes."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * count, "little")


def _pack(vec, k):
    if k == _LANE:
        lanes = array("q", vec)
        if _BIG_ENDIAN:
            lanes.byteswap()
        # flipping the top bit of each two's-complement lane adds the bias
        bias = _bias(len(vec), k)
        return (int.from_bytes(lanes.tobytes(), "little") ^ bias) - bias
    half = 1 << (8 * k - 1)
    raw = b"".join((v + half).to_bytes(k, "little") for v in vec)
    return int.from_bytes(raw, "little") - _bias(len(vec), k)


def _unpack_cyclic(value, ell, k):
    """The signed digits f_0..f_(ell-1) of value modulo 2^(w ell) - 1.

    That modulus is zeta^ell - 1 at zeta = 2^w, so a packed product folds
    into ell slots.  Requires |f_j| < 2^(w-1) - 1: the biased residue then
    has the digits f_j + 2^(w-1) with no carries.
    """
    size = k * ell
    bias = _bias(ell, k)
    biased = (value + bias) % ((1 << (8 * size)) - 1)
    if k == _LANE:
        # removing the bias bit by bit leaves each digit in two's complement
        lanes = array("q", (biased ^ bias).to_bytes(size, "little"))
        if _BIG_ENDIAN:
            lanes.byteswap()
        return lanes.tolist()
    half = 1 << (8 * k - 1)
    raw = biased.to_bytes(size, "little")
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
    norm of omega, and folds the packed results modulo zeta^ell - 1.  A
    slot of at most 8 bytes is widened to one signed 64-bit lane, which
    `array('q')` packs and unpacks for the whole vector at once; wider
    slots are packed byte by byte.

    The norm to k and the inverse both take the product of the ell - 2
    conjugates zeta -> zeta^s, s != 1, by doubling over the powers of a
    primitive root g mod ell (`_conjugates`).

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
        if _is_scalar(other):
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
        if not isinstance(other, CycQuadElement) and _is_scalar(other):
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
        k = max((bits + 9) // 8, _LANE)
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
        """The product of the ell - 2 conjugates zeta -> zeta^s, 2 <= s < ell.

        With g a primitive root mod ell and P(a) the product of
        sigma_(g^i)(self) for 1 <= i <= a, P(a + b) = P(a) sigma_(g^a)(P(b)).
        Doubling a along the binary digits of ell - 2 gives P(ell - 2), the
        product over every s but 1, in at most 2 log2(ell) products.
        """
        ell = self.ell
        g = primitive_root(ell)
        y = self.galois_zeta(g)
        co, a = y, 1
        for bit in bin(ell - 2)[3:]:
            co = co * co.galois_zeta(pow(g, a, ell))
            a *= 2
            if bit == "1":
                co = y * co.galois_zeta(g)
                a += 1
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
    the denominator of z must be prime to ell.  With z = (a + b omega) / e
    the image is (a + b root) / e mod ell, as in `residues.ResidueRing`.
    """
    if (root * root - z.field.omega_trace * root + z.field.omega_norm) % ell != 0:
        raise ValueError("root %d does not define a prime over %d" % (root, ell))
    if z.e % ell == 0:
        raise ValueError("denominator of %r is not prime to %d" % (z, ell))
    return (z.a + z.b * root) * pow(z.e, -1, ell) % ell


# ----------------------------------------------------------------------
# Norm-one units at a cyclotomic level


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
    the power mu(t) d/t, where F_t is the monic polynomial whose roots are
    the orbit of zeta_n^t under the subgroup fixing k^n
    (`circular.orbit_product` gives its value).  Requires n > 1, n not
    dividing rad(d), and an odd prime ell, split in the field and coprime
    to n*d (see `validate_aux_prime`).
    """
    validate_aux_prime(field, n, d, ell)
    num = den = CycQuadElement._embed(field, ell, 1)
    for t in divisors(radical(d)):  # squarefree, so mu(t) = +-1
        value = CycQuadElement.from_full(field, ell, orbit_product(field, n, t, ell))
        if moebius(t) > 0:
            num = num * value ** (d // t)
        else:
            den = den * value ** (d // t)
    return num * den.inverse()


# ----------------------------------------------------------------------
# Constructive Hilbert 90


def hilbert90_witness(eps):
    """A nonzero alpha with alpha = eps * tau(alpha), built explicitly.

    tau is the generator zeta -> zeta^s of Gal(k(zeta_ell)/k), s the
    smallest primitive root mod ell.  alpha is the alternating-free sum
    -sum_i zeta^(g s^i) eps^(1 + tau + ... + tau^(i-1)); the exponent g
    walks 1, 2, ... until alpha is nonzero (guaranteed within ell - 1).

    Requires eps integral with norm one down to the quadratic field.  That
    norm is the next partial product, partial[ell - 2] tau^(ell - 2)(eps),
    so it costs one product more.
    Returns a dict with alpha, the chosen g, s, and the exact flags.
    """
    field, ell = eps.field, eps.ell
    s = primitive_root(ell)
    partial = [CycQuadElement._embed(field, ell, 1)]
    for i in range(1, ell):
        conj = eps.galois_zeta(pow(s, i - 1, ell))
        partial.append(partial[-1] * conj)
    if partial.pop() != 1:
        raise ValueError("witness requires relative norm one")

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


#: the names that moved to `checks_annihilators`, resolved on first access
#: for the `TARGETS` of perfbench/tracer.py
_MOVED = {
    "special_prime_candidates": "checks_annihilators",
    "special_unit_certificate": "checks_annihilators",
    "residue_dlogs": "checks_annihilators",
    "dlog_annihilator_coefficients": "checks_annihilators",
}

__getattr__ = _lazy_getattr(globals(), _MOVED)
