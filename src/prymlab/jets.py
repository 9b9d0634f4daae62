"""Truncated polynomial rings in flow variables with nilpotent semantics.

A `JetRing` fixes an ordered list of variable names and a total-degree cap
D; every variable is nilpotent of order D+1 by fiat.  `JetPoly` is a sparse
element of that ring with `Cyclo` coefficients.  Every variable being
nilpotent, the exponential of a series with nilpotent coefficients is a
finite sum (`vseries.vseries_exp`), which is what makes every flow action
in the package exact.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Cyclo


def _add_into(t: dict, d: dict) -> dict:
    """Add the key -> coefficient map d into t, in place; zero sums drop."""
    for e, c in d.items():
        s = t.get(e)
        s = c if s is None else s + c
        if s.is_zero():
            t.pop(e, None)
        else:
            t[e] = s
    return t


def _mul_terms(d1: dict, d2: dict, hi, t=None) -> dict:
    """Product of two key -> coefficient maps, keys below hi: series exponents
    below a window top, or jet monomial keys below `JetRing._bound`.  Given
    `t`, the product is added into it, in place.  A key that already holds
    a value takes `s.addmul(c1, c2)`; the result is the same map as
    summing the products one by one, though a key whose partial sum
    cancels may be re-inserted later, in another order (no reader
    depends on the order of a map's keys)."""
    if t is None:
        t = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            e = e1 + e2
            if e >= hi:
                continue
            s = t.get(e)
            s = c1 * c2 if s is None else s.addmul(c1, c2)
            if s.is_zero():
                t.pop(e, None)
            else:
                t[e] = s
    return t


class JetRing:
    """Ring K[t_1, ..., t_n] / (total degree > cap), K = Q(xi_p).

    The monomial t^e of degree d has the key d*B^n + sum_v e_v*B^v, with
    B = cap + 1 (the constant is 0).  Within the cap every digit is at
    most cap < B, so keys add without carries; past it the degree digit
    alone puts the sum at or above the bound B^(n+1).

    >>> R = JetRing(2, ("t1", "t2"), cap=2)
    >>> t1, t2 = R.var("t1"), R.var("t2")
    >>> list(t1.terms), list(t2.terms), list((t1 * t2).terms)
    ([10], [12], [22])
    >>> 10 + 10 + 12 >= 3 ** 3, (t1 * t1 * t2).is_zero()
    (True, True)
    """

    __slots__ = ("names", "cap", "p", "index", "_top", "_bound")

    def __init__(self, p: int, names=(), cap: int = 0):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.p = p
        self.names = names
        self.cap = cap
        self.index = {n: i for i, n in enumerate(names)}
        self._top = (cap + 1) ** len(names)
        self._bound = (cap + 1) * self._top

    def _key(self, pairs) -> int:
        """Key of the monomial with (variable index, exponent) pairs."""
        return sum(e * (self._top + (self.cap + 1) ** v) for v, e in pairs)

    def _pairs(self, key: int) -> tuple:
        """(degree, sorted (variable index, exponent) pairs) of a key."""
        deg, rest = divmod(key, self._top)
        pairs, v = [], 0
        while rest:
            rest, e = divmod(rest, self.cap + 1)
            if e:
                pairs.append((v, e))
            v += 1
        return deg, tuple(pairs)

    @staticmethod
    def scalar(p: int) -> "JetRing":
        return JetRing(p, (), 0)

    def compatible(self, other: "JetRing") -> bool:
        return self is other or (
            self.p == other.p and self.names == other.names and self.cap == other.cap
        )

    # -- element constructors -------------------------------------------

    def zero(self) -> "JetPoly":
        return JetPoly(self, {})

    def one(self) -> "JetPoly":
        return self.const(Cyclo.one(self.p))

    def const(self, value) -> "JetPoly":
        """`value` as an element: a scalar becomes a constant, a jet stays as is."""
        if isinstance(value, JetPoly):
            return value
        if isinstance(value, (int, Fraction)):
            value = Cyclo.rational(self.p, value)
        if value.is_zero():
            return JetPoly(self, {})
        return JetPoly(self, {0: value})

    def var(self, name: str, coeff=1) -> "JetPoly":
        if self.cap < 1:
            raise ValueError("cap 0 ring has no non-constant elements")
        i = self.index[name]
        c = coeff if isinstance(coeff, Cyclo) else Cyclo.rational(self.p, coeff)
        if c.is_zero():
            return self.zero()
        return JetPoly(self, {self._key(((i, 1),)): c})

    def __repr__(self):
        return "JetRing(p=%d, %d vars, cap=%d)" % (self.p, len(self.names), self.cap)


class JetPoly:
    """Sparse truncated polynomial; zero coefficients are never stored."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: JetRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Cyclo:
        return self.terms.get(0, Cyclo.zero(self.ring.p))

    def is_unit(self) -> bool:
        return 0 in self.terms

    def is_nilpotent(self) -> bool:
        return 0 not in self.terms

    def coeff(self, mono) -> Cyclo:
        """Coefficient of the monomial given as (variable index, exponent) pairs."""
        return self.terms.get(self.ring._key(mono), Cyclo.zero(self.ring.p))

    def __eq__(self, other):
        if isinstance(other, JetPoly):
            return self.ring.compatible(other.ring) and self.terms == other.terms
        if isinstance(other, (int, Fraction, Cyclo)):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        # a constant equals its value, so it hashes as that value; others
        # hash the fields `ring.compatible` compares, so equal polynomials
        # over separately built rings hash alike
        if self.terms.keys() <= {0}:
            return hash(self.constant_term())
        ring = self.ring
        return hash((ring.p, ring.names, ring.cap, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, JetPoly):
            if not self.ring.compatible(other.ring):
                raise ValueError("jet rings differ")
            return other
        if isinstance(other, (int, Fraction, Cyclo)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return JetPoly(self.ring, _add_into(dict(self.terms), o.terms))

    __radd__ = __add__

    def __neg__(self):
        return JetPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return JetPoly(self.ring, _mul_terms(self.terms, o.terms, self.ring._bound))

    __rmul__ = __mul__

    def addmul(self, a: "JetPoly", c: "JetPoly") -> "JetPoly":
        """self + a*c in one pass over the product's terms, each added into a
        copy of `self.terms` by the `Cyclo` op; `a` and `c` are over this
        ring (no coercion).  Equal to `self + a * c`: `==`, `hash` and
        `to_text` compare or sort the term maps, so the order in which a
        cancelled term comes back does not show."""
        return JetPoly(self.ring, _mul_terms(a.terms, c.terms, self.ring._bound,
                                             dict(self.terms)))

    def submul(self, a: "JetPoly", c: "JetPoly") -> "JetPoly":
        """self - a*c, as `addmul` of -a (the same as `self - a * c`)."""
        neg = {k: -v for k, v in a.terms.items()}
        return JetPoly(self.ring, _mul_terms(neg, c.terms, self.ring._bound,
                                             dict(self.terms)))

    def inverse(self) -> "JetPoly":
        """Inverse of a unit: geometric series in the nilpotent part."""
        c0 = self.constant_term()
        if c0.is_zero():
            raise ZeroDivisionError("non-unit jet element has no inverse")
        c0_inv = c0.inverse()
        n = JetPoly(self.ring, {m: c * c0_inv for m, c in self.terms.items() if m})
        out = self.ring.one()
        power = self.ring.one()
        sign = -1
        for _ in range(self.ring.cap):
            power = power * n
            if power.is_zero():
                break
            out = out + power * sign
            sign = -sign
        return out * c0_inv

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    # -- variable maps -----------------------------------------------------

    def map_vars(self, ring: JetRing, mapping) -> "JetPoly":
        """Push through var -> (scalar, var') substitutions into `ring`.

        `mapping` sends a variable index of self.ring to a pair
        (Cyclo scalar, variable index in `ring`); identity when omitted.
        """
        t = {}
        for m, c in self.terms.items():
            deg, pairs = self.ring._pairs(m)
            if deg > ring.cap:
                continue
            scale, out = c, []
            for v, e in pairs:
                sc, v2 = mapping.get(v, (None, v))
                if sc is not None:
                    scale = scale * (sc ** e)
                out.append((v2, e))
            _add_into(t, {ring._key(out): scale})
        return JetPoly(ring, t)

    def lift(self, ring: JetRing) -> "JetPoly":
        """Reinterpret in a larger ring; matches variables by name."""
        if ring.compatible(self.ring):
            return JetPoly(ring, dict(self.terms))
        mapping = {}
        for i, n in enumerate(self.ring.names):
            if n not in ring.index:
                raise ValueError("variable %r missing from target ring" % n)
            mapping[i] = (None, ring.index[n])
        return self.map_vars(ring, mapping)

    def truncate(self, cap: int, ring: JetRing | None = None) -> "JetPoly":
        """The terms of degree at most `cap`, in `ring` (of that cap) or a new ring."""
        ring = ring or JetRing(self.ring.p, self.ring.names, cap)
        return self.map_vars(ring, {})

    # -- rendering -----------------------------------------------------------

    def to_text(self) -> str:
        """Multi-index form, e.g. "(1/2)*t1^2*t3 + 2*t2"."""
        if not self.terms:
            return "0"
        parts = []
        for (_, pairs), c in sorted((self.ring._pairs(m), c) for m, c in self.terms.items()):
            mono = "*".join(
                "%s^%d" % (self.ring.names[v], e) if e > 1 else self.ring.names[v]
                for v, e in pairs
            )
            ctext = c.to_text()
            if "+" in ctext or " " in ctext:
                ctext = "(%s)" % ctext
            parts.append(ctext if not mono else "%s*%s" % (ctext, mono))
        return " + ".join(parts)

    def __repr__(self):
        return "JetPoly<%s>" % self.to_text()
