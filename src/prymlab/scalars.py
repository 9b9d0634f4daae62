"""Exact arithmetic in Q and in the cyclotomic field Q(xi_p), p prime.

All scalar computation in the package happens here.  Rationals (`Rat`)
are `fractions.Fraction`.  `Cyclo` holds an element of Q(xi_p) reduced
against the p-th cyclotomic polynomial, on the basis 1, xi, ...,
xi^(p-2), as p - 1 integer numerators over one positive denominator in
lowest terms: its arithmetic is integer arithmetic with one gcd per
result, and its `coeffs` view gives the same element as `Fraction`s.
For p = 2 the field degenerates to Q with xi = -1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rat = Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


_ZEROS = {}  # p -> the shared zero of Q(xi_p)
_ONES = {}   # p -> the shared one of Q(xi_p)


def _mul_mod(p: int, a, b) -> list:
    """Integer product of two p - 1 coefficient vectors modulo Phi_p."""
    raw = [0] * p
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    raw[(i + j) % p] += x * y
    # xi^(p-1) = -(1 + xi + ... + xi^(p-2))
    top = raw.pop()
    return [c - top for c in raw] if top else raw


def _product(a: "Cyclo", c: "Cyclo"):
    """(numerators, denominator) of a*c, not brought to lowest terms."""
    p = a.p
    if p == 2:
        return (a._n[0] * c._n[0],), a._d * c._d
    return _mul_mod(p, a._n, c._n), a._d * c._d


class Cyclo:
    """Element of Q(xi_p) on the power basis {1, xi, ..., xi^(p-2)}.

    Stored as integer numerators `_n` over one positive denominator `_d`
    with gcd(_d, *_n) == 1 (zero is 0/1), so two elements are equal iff
    their (numerators, denominator) pairs are equal.  `coeffs` is the
    same element as a tuple of `Fraction`s.

    >>> xi = Cyclo.xi_power(3, 1)
    >>> xi * xi * xi == Cyclo.one(3)
    True
    >>> (Cyclo.one(3) + xi) * (Cyclo.one(3) + xi * xi)
    Cyclo(3, (Fraction(1, 1), Fraction(0, 1)))
    """

    __slots__ = ("p", "_n", "_d")

    def __init__(self, p: int, coeffs):
        if not is_prime(p):
            raise ValueError("p must be prime, got %r" % (p,))
        coeffs = tuple(coeffs)
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError("expected an integer or Fraction, got %r" % (c,))
        if len(coeffs) != p - 1:
            raise ValueError("need %d coefficients for p=%d" % (p - 1, p))
        # over the lcm of the reduced denominators the numerators have gcd 1
        d = lcm(*(c.denominator for c in coeffs))
        self.p = p
        self._n = tuple(c.numerator * (d // c.denominator) for c in coeffs)
        self._d = d

    @staticmethod
    def _new(p: int, nums, den: int) -> "Cyclo":
        """Trusted constructor for results of arithmetic on valid operands:
        p is a checked prime, `nums` p - 1 integers, `den` > 0; one gcd
        brings them to the canonical form."""
        out = object.__new__(Cyclo)
        out.p = p
        g = gcd(den, *nums)
        out._n = tuple(nums) if g == 1 else tuple(a // g for a in nums)
        out._d = den // g
        return out

    @property
    def coeffs(self) -> tuple:
        d = self._d
        return tuple(Fraction(a, d) for a in self._n)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(p: int) -> "Cyclo":
        """The zero of Q(xi_p): one shared instance per p (never mutated)."""
        z = _ZEROS.get(p)
        if z is None:
            z = _ZEROS[p] = Cyclo(p, (0,) * (p - 1))
        return z

    @staticmethod
    def one(p: int) -> "Cyclo":
        """The one of Q(xi_p): one shared instance per p (never mutated)."""
        u = _ONES.get(p)
        if u is None:
            u = _ONES[p] = Cyclo.rational(p, 1)
        return u

    @staticmethod
    def rational(p: int, value) -> "Cyclo":
        return Cyclo(p, (value,) + (0,) * (p - 2))

    @staticmethod
    def xi_power(p: int, k: int) -> "Cyclo":
        """xi^k reduced modulo Phi_p; xi^(p-1) = -(1 + xi + ... + xi^(p-2))."""
        k %= p
        if k < p - 1:
            c = [0] * (p - 1)
            c[k] = 1
            return Cyclo(p, c)
        return Cyclo(p, (-1,) * (p - 1))

    # -- ring structure ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            if other.p != self.p:
                raise ValueError("mixed cyclotomic fields: p=%d vs p=%d" % (self.p, other.p))
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo._new(self.p, (other.numerator,) + (0,) * (self.p - 2),
                              other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, od = self._d, o._d
        if d == od:
            return Cyclo._new(self.p, [a + b for a, b in zip(self._n, o._n)], d)
        return Cyclo._new(self.p, [a * od + b * d for a, b in zip(self._n, o._n)], d * od)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(Cyclo)
        out.p = self.p
        out._n = tuple(-a for a in self._n)
        out._d = self._d
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, od = self._d, o._d
        if d == od:
            return Cyclo._new(self.p, [a - b for a, b in zip(self._n, o._n)], d)
        return Cyclo._new(self.p, [a * od - b * d for a, b in zip(self._n, o._n)], d * od)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        if p == 2:
            return Cyclo._new(2, (self._n[0] * o._n[0],), self._d * o._d)
        return Cyclo._new(p, _mul_mod(p, self._n, o._n), self._d * o._d)

    __rmul__ = __mul__

    def addmul(self, a: "Cyclo", c: "Cyclo") -> "Cyclo":
        """self + a*c in one step: one product modulo Phi_p and one gcd,
        with no intermediate element.  `a` and `c` are `Cyclo` of this
        field (no coercion).  The canonical form is unique, so this is
        the same (_n, _d) as `self + a * c`."""
        prod, pd = _product(a, c)
        d = self._d
        if d == pd:
            return Cyclo._new(self.p, [x + y for x, y in zip(self._n, prod)], d)
        return Cyclo._new(self.p, [x * pd + y * d for x, y in zip(self._n, prod)], d * pd)

    def submul(self, a: "Cyclo", c: "Cyclo") -> "Cyclo":
        """self - a*c in one step, as `addmul`: the same (_n, _d) as
        `self - a * c`."""
        prod, pd = _product(a, c)
        d = self._d
        if d == pd:
            return Cyclo._new(self.p, [x - y for x, y in zip(self._n, prod)], d)
        return Cyclo._new(self.p, [x * pd - y * d for x, y in zip(self._n, prod)], d * pd)

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse: the product of the conjugates
        sigma_k(a), k = 2..p-1 (sigma_k: xi -> xi^k), over the norm
        N(a) = a * prod sigma_k(a), a rational integer for integer a."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in Q(xi_%d)" % self.p)
        p, n, d = self.p, self._n, self._d
        if p == 2:
            return Cyclo._new(2, (d if n[0] > 0 else -d,), abs(n[0]))
        conj = [1] + [0] * (p - 2)
        for k in range(2, p):
            raw = [0] * p
            for i, a in enumerate(n):
                raw[i * k % p] += a
            top = raw.pop()
            conj = _mul_mod(p, conj, [c - top for c in raw])
        # N(a) > 0: Q(xi_p) has no real embedding for p >= 3
        return Cyclo._new(p, [d * c for c in conj], _mul_mod(p, n, conj)[0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyclo.one(self.p)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates and views -------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._n)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._d == o._d and self._n == o._n

    def __hash__(self):
        # a rational equals its Fraction (and int), so it hashes as one
        if not any(self._n[1:]):
            return hash(Fraction(self._n[0], self._d))
        return hash((self.p, self._n, self._d))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return "Cyclo(%d, %r)" % (self.p, self.coeffs)

    def __str__(self):
        return self.to_text()

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        """Render as "c0 + c1*x + ..." with rationals written a/b."""
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("%s*x" % c)
            else:
                parts.append("%s*x^%d" % (c, k))
        return " + ".join(parts) if parts else "0"
