"""Exact arithmetic in Q and in the cyclotomic field Q(xi_p), p prime.

All scalar computation in the package happens here.  Rationals are
`fractions.Fraction`; `Cyclo` holds an element of Q(xi_p) reduced against
the p-th cyclotomic polynomial, on the basis 1, xi, ..., xi^(p-2).  For
p = 2 the field degenerates to Q with xi = -1.
"""

from __future__ import annotations

from fractions import Fraction

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


def _as_rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected an integer or Fraction, got %r" % (x,))


_ZEROS = {}  # p -> the shared zero of Q(xi_p)


class Cyclo:
    """Element of Q(xi_p) on the power basis {1, xi, ..., xi^(p-2)}.

    The representation is canonical: two elements are equal iff their
    coefficient tuples are equal.

    >>> xi = Cyclo.xi_power(3, 1)
    >>> xi * xi * xi == Cyclo.one(3)
    True
    >>> (Cyclo.one(3) + xi) * (Cyclo.one(3) + xi * xi)
    Cyclo(3, (Fraction(1, 1), Fraction(0, 1)))
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        if not is_prime(p):
            raise ValueError("p must be prime, got %r" % (p,))
        coeffs = tuple(_as_rat(c) for c in coeffs)
        if len(coeffs) != p - 1:
            raise ValueError("need %d coefficients for p=%d" % (p - 1, p))
        self.p = p
        self.coeffs = coeffs

    @staticmethod
    def _make(p: int, coeffs: tuple) -> "Cyclo":
        """Trusted constructor for results of arithmetic on valid operands:
        p is already a checked prime and `coeffs` a tuple of p - 1 Fractions."""
        out = object.__new__(Cyclo)
        out.p = p
        out.coeffs = coeffs
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(p: int) -> "Cyclo":
        """The zero of Q(xi_p): one shared instance per p (never mutated)."""
        z = _ZEROS.get(p)
        if z is None:
            z = _ZEROS[p] = Cyclo(p, (Fraction(0),) * (p - 1))
        return z

    @staticmethod
    def one(p: int) -> "Cyclo":
        return Cyclo.rational(p, Fraction(1))

    @staticmethod
    def rational(p: int, value) -> "Cyclo":
        c = [Fraction(0)] * (p - 1)
        c[0] = _as_rat(value)
        return Cyclo(p, c)

    @staticmethod
    def xi_power(p: int, k: int) -> "Cyclo":
        """xi^k reduced modulo Phi_p; xi^(p-1) = -(1 + xi + ... + xi^(p-2))."""
        k %= p
        if k < p - 1:
            c = [Fraction(0)] * (p - 1)
            c[k] = Fraction(1)
            return Cyclo(p, c)
        return Cyclo(p, (Fraction(-1),) * (p - 1))

    # -- ring structure ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            if other.p != self.p:
                raise ValueError("mixed cyclotomic fields: p=%d vs p=%d" % (self.p, other.p))
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo.rational(self.p, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo._make(self.p, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo._make(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo._make(self.p, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

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
            return Cyclo._make(2, (self.coeffs[0] * o.coeffs[0],))
        # polynomial product, exponents reduced with xi^p = 1 first
        raw = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b == 0:
                    continue
                raw[(i + j) % p] += a * b
        # xi^(p-1) = -(1 + xi + ... + xi^(p-2))
        top = raw[p - 1]
        if top:
            out = tuple(raw[k] - top for k in range(p - 1))
        else:
            out = tuple(raw[: p - 1])
        return Cyclo._make(p, out)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse, by extended gcd against Phi_p over Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in Q(xi_%d)" % self.p)
        p = self.p
        if p == 2:
            return Cyclo._make(2, (Fraction(1) / self.coeffs[0],))
        phi = [Fraction(1)] * p            # Phi_p = 1 + x + ... + x^(p-1)
        a = list(self.coeffs)
        g, inv = _poly_xgcd_mod(a, phi)
        scale = Fraction(1) / g
        out = [c * scale for c in inv] + [Fraction(0)] * (p - 1 - len(inv))
        return Cyclo._make(p, tuple(out[: p - 1]))

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
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        """Return (True, value) when the element lies in Q, else (False, None)."""
        if any(c != 0 for c in self.coeffs[1:]):
            return False, None
        return True, self.coeffs[0]

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

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

    @staticmethod
    def from_text(p: int, text: str) -> "Cyclo":
        coeffs = [Fraction(0)] * (p - 1)
        text = text.strip()
        if text in ("", "0"):
            return Cyclo(p, coeffs)
        for part in text.replace("- ", "+ -").split("+"):
            part = part.strip()
            if not part:
                continue
            if "*x" in part:
                c, _, tail = part.partition("*x")
                k = int(tail[1:]) if tail.startswith("^") else 1
            else:
                c, k = part, 0
            coeffs[k] += Fraction(c.strip())
        return Cyclo(p, coeffs)


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = Fraction(1) / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        coef = a[k + len(b) - 1] * inv_lead
        if coef == 0:
            continue
        q[k] = coef
        for j, bj in enumerate(b):
            a[k + j] -= coef * bj
    return _poly_trim(q), _poly_trim(a)


def _poly_xgcd_mod(a, m):
    """Return (g, u) with u*a = g modulo m, g a nonzero constant for coprime a, m."""
    r0, r1 = _poly_trim(list(m)), _poly_trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while len(r1) > 1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        # s2 = s0 - q*s1
        prod = [Fraction(0)] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                prod[i + j] += qi * sj
        s2 = [Fraction(0)] * max(len(s0), len(prod))
        for i, c in enumerate(s0):
            s2[i] += c
        for i, c in enumerate(prod):
            s2[i] -= c
        s0, s1 = s1, _poly_trim(s2)
    if not r1:
        raise ZeroDivisionError("element not invertible")
    return r1[0], s1


def root_product(p: int) -> Cyclo:
    """Product of (1 - xi^i) over i = 1..p-1; equals p in Q(xi_p)."""
    out = Cyclo.one(p)
    for i in range(1, p):
        out = out * (Cyclo.one(p) - Cyclo.xi_power(p, i))
    return out


def power_sum(p: int, j: int) -> Cyclo:
    """Sum of xi^(i*j) over i = 0..p-1; equals p when p | j, else 0."""
    out = Cyclo.zero(p)
    for i in range(p):
        out = out + Cyclo.xi_power(p, i * j)
    return out
