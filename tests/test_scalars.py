import math
import random
from fractions import Fraction

import pytest

from conftest import is_rational

from prymlab.scalars import Cyclo


def rand_cyclo(rng, p, depth=6):
    return Cyclo(p, [Fraction(rng.randint(-depth, depth), rng.randint(1, depth)) for _ in range(p - 1)])


def test_xi_products_p3():
    xi = Cyclo.xi_power(3, 1)
    assert xi * Cyclo.xi_power(3, 2) == Cyclo.one(3)
    # (1+xi)(1+xi^2) = 1, by reduction with xi^2 = -1-xi
    assert (Cyclo.one(3) + xi) * (Cyclo.one(3) + xi * xi) == Cyclo.one(3)


def test_inverse_of_xi_p5():
    xi = Cyclo.xi_power(5, 1)
    assert xi.inverse() == Cyclo.xi_power(5, 4)


def test_p2_degenerates_to_rationals():
    a = Cyclo.rational(2, Fraction(-7, 3))
    ok, val = is_rational(a)
    assert ok and val == Fraction(-7, 3)
    assert Cyclo.xi_power(2, 1) == Cyclo.rational(2, -1)


def test_is_rational():
    p = 3
    s = Cyclo.one(p) + Cyclo.xi_power(p, 1) + Cyclo.xi_power(p, 2)
    ok, val = is_rational(s)
    assert ok and val == 0
    ok, _ = is_rational(Cyclo.xi_power(p, 1))
    assert not ok


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_random(p):
    rng = random.Random(20240 + p)
    one = Cyclo.one(p)
    for _ in range(25):
        a, b, c = (rand_cyclo(rng, p) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == one


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero(5).inverse()


def test_pow_and_xi_reduction():
    for p in (3, 5, 7):
        xi = Cyclo.xi_power(p, 1)
        assert xi ** p == Cyclo.one(p)
        for k in range(2 * p):
            assert Cyclo.xi_power(p, k) == xi ** k


def test_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError):
        Cyclo(4, (Fraction(1), Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        Cyclo(3, (Fraction(1),))
    with pytest.raises(ValueError):
        Cyclo(5, (1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        Cyclo.zero(4)
    with pytest.raises(TypeError):
        Cyclo(3, (1.5, 0))


def test_arithmetic_results_are_canonical():
    # results built by the trusted constructor equal publicly built ones
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        a, b = rand_cyclo(rng, p), rand_cyclo(rng, p)
        for r in (a + b, a - b, -a, a * b, a.inverse()):
            assert type(r.coeffs) is tuple and len(r.coeffs) == p - 1
            assert all(type(c) is Fraction for c in r.coeffs)
            assert r == Cyclo(p, r.coeffs) and hash(r) == hash(Cyclo(p, r.coeffs))
        assert Cyclo.zero(p) is Cyclo.zero(p)
        assert (a - a) == Cyclo.zero(p)


def test_rationals_hash_as_fractions():
    # `==` accepts int and Fraction, so a rational hashes as the Fraction
    assert hash(Cyclo.rational(3, Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(Cyclo.rational(5, 3)) == hash(3) and hash(Cyclo.zero(7)) == hash(0)
    assert len({Cyclo.rational(2, 3), 3, Fraction(3)}) == 1
    xi = Cyclo.xi_power(3, 1)
    assert hash(xi * xi.inverse()) == hash(1)


def test_doctests_run():
    # the `Cyclo` docstring pins the repr and the integer form
    import doctest

    import prymlab.scalars

    failed, attempted = doctest.testmod(prymlab.scalars)
    assert attempted > 0 and failed == 0


# ---------------------------------------------------------------- reference
# The Fraction-based Cyclo that the integer representation replaced: its
# arithmetic, inverse and text copied verbatim apart from names (the input
# checks are left out).  The package must agree with it exactly.


def _ref_rat(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected an integer or Fraction, got %r" % (x,))


class RefCyclo:
    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        self.p = p
        self.coeffs = tuple(_ref_rat(c) for c in coeffs)

    @staticmethod
    def rational(p, value):
        c = [Fraction(0)] * (p - 1)
        c[0] = _ref_rat(value)
        return RefCyclo(p, c)

    def _coerce(self, other):
        if isinstance(other, RefCyclo):
            return other
        if isinstance(other, (int, Fraction)):
            return RefCyclo.rational(self.p, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return RefCyclo(self.p, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return RefCyclo(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        return RefCyclo(self.p, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        p = self.p
        if p == 2:
            return RefCyclo(2, (self.coeffs[0] * o.coeffs[0],))
        raw = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b == 0:
                    continue
                raw[(i + j) % p] += a * b
        top = raw[p - 1]
        if top:
            out = tuple(raw[k] - top for k in range(p - 1))
        else:
            out = tuple(raw[: p - 1])
        return RefCyclo(p, out)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in Q(xi_%d)" % self.p)
        p = self.p
        if p == 2:
            return RefCyclo(2, (Fraction(1) / self.coeffs[0],))
        phi = [Fraction(1)] * p
        g, inv = _ref_xgcd_mod(list(self.coeffs), phi)
        scale = Fraction(1) / g
        out = [c * scale for c in inv] + [Fraction(0)] * (p - 1 - len(inv))
        return RefCyclo(p, tuple(out[: p - 1]))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = RefCyclo.rational(self.p, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        if any(c != 0 for c in self.coeffs[1:]):
            return False, None
        return True, self.coeffs[0]

    def __eq__(self, other):
        return self.coeffs == self._coerce(other).coeffs

    def __repr__(self):
        return "Cyclo(%d, %r)" % (self.p, self.coeffs)

    def to_text(self):
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


def _ref_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _ref_divmod(a, b):
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
    return _ref_trim(q), _ref_trim(a)


def _ref_xgcd_mod(a, m):
    r0, r1 = _ref_trim(list(m)), _ref_trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while len(r1) > 1:
        q, r = _ref_divmod(r0, r1)
        r0, r1 = r1, r
        prod = [Fraction(0)] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                prod[i + j] += qi * sj
        s2 = [Fraction(0)] * max(len(s0), len(prod))
        for i, c in enumerate(s0):
            s2[i] += c
        for i, c in enumerate(prod):
            s2[i] -= c
        s0, s1 = s1, _ref_trim(s2)
    if not r1:
        raise ZeroDivisionError("element not invertible")
    return r1[0], s1


def _ref_pair(rng, p, kind):
    """Two (package, reference) operands of one kind of input."""
    bits = {"small": 4, "big": 60}.get(kind, 4)

    def num():
        return rng.choice([-1, 1]) * rng.randint(0, 2 ** bits)

    def den():
        return rng.randint(1, 2 ** bits)

    if kind == "same-den":   # one denominator for both operands
        d = den()
        coeffs = [[Fraction(num(), d) for _ in range(p - 1)] for _ in range(2)]
    elif kind == "zero":
        coeffs = [[Fraction(0)] * (p - 1),
                  [Fraction(num(), den()) for _ in range(p - 1)]]
    elif kind == "rational":  # only the constant term is set
        coeffs = [[Fraction(num(), den())] + [Fraction(0)] * (p - 2) for _ in range(2)]
    else:
        coeffs = [[Fraction(num(), den()) if rng.random() < 0.8 else Fraction(0)
                   for _ in range(p - 1)] for _ in range(2)]
    if rng.random() < 0.3:  # int coefficients, as callers pass them
        coeffs[1] = [c.numerator for c in coeffs[1]]
    rng.shuffle(coeffs)
    return [(Cyclo(p, c), RefCyclo(p, c)) for c in coeffs]


def _same(got, want):
    assert isinstance(got, Cyclo)
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in got.coeffs)
    assert repr(got) == repr(want)
    assert got.to_text() == want.to_text()
    assert got._d > 0 and math.gcd(got._d, *got._n) == 1
    assert len(got._n) == got.p - 1 and all(type(a) is int for a in got._n)
    canon = Cyclo(got.p, want.coeffs)
    assert (got._n, got._d) == (canon._n, canon._d)
    assert got == canon and hash(got) == hash(canon)


KINDS = ("small", "big", "same-den", "zero", "rational")


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("kind", KINDS)
def test_matches_the_fraction_reference(p, kind):
    rng = random.Random("%d:%s" % (p, kind))
    for _ in range(12 if kind == "big" and p == 7 else 30):
        (a, ra), (b, rb) = _ref_pair(rng, p, kind)
        _same(a, ra)
        _same(b, rb)
        _same(a + b, ra + rb)
        _same(a - b, ra - rb)
        _same(-a, -ra)
        _same(a * b, ra * rb)
        k = rng.choice([0, 1, -3, 2 ** 61 + 1])
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        for s in (k, q):
            _same(a + s, ra + s)
            _same(s + a, s + ra)
            _same(a - s, ra - s)
            _same(s - a, s - ra)
            _same(a * s, ra * s)
            _same(s * a, s * ra)
            assert (a == s) == (ra == s)
        for x, rx, y, ry in ((a, ra, b, rb), (b, rb, a, ra)):
            if ry.is_zero():
                with pytest.raises(ZeroDivisionError):
                    y.inverse()
                with pytest.raises(ZeroDivisionError):
                    x / y
                continue
            _same(y.inverse(), ry.inverse())
            _same(x / y, rx / ry)
            _same(1 / y, 1 / ry)
            _same(y ** -2, ry ** -2)
        _same(a ** 3, ra ** 3)
        _same(a ** 0, ra ** 0)
        assert (a == b) == (ra == rb)
        assert a == Cyclo(p, ra.coeffs) and a != a + 1
        assert a.is_zero() == ra.is_zero() and bool(a) == (not ra.is_zero())
        assert is_rational(a) == ra.is_rational()
        ok, value = is_rational(a)
        if ok:
            assert type(value) is Fraction and a == value and a == Cyclo.rational(p, value)
            if value.denominator == 1:
                assert a == value.numerator


def test_equal_values_hash_equal_whatever_their_history():
    rng = random.Random(3)
    for p in (2, 3, 5, 7):
        for _ in range(20):
            (a, _), (b, _) = _ref_pair(rng, p, "small")
            c = a * 6
            if c.is_zero():
                continue
            # the same value reached by different routes
            for v in ((c + b) - b, c * b / b if not b.is_zero() else c,
                      Cyclo(p, c.coeffs), c / 2 * 2, -(-c)):
                assert v == c and hash(v) == hash(c)
                assert (v._n, v._d) == (c._n, c._d)
        zero = Cyclo(p, [Fraction(0, 5)] * (p - 1))
        assert (zero._n, zero._d) == ((0,) * (p - 1), 1)
        assert zero == Cyclo.zero(p) and hash(zero) == hash(Cyclo.zero(p))


def test_one_is_shared():
    for p in (2, 3, 5, 7):
        assert Cyclo.one(p) is Cyclo.one(p)
        assert Cyclo.one(p) == 1 and Cyclo.one(p).coeffs[0] == 1
    with pytest.raises(ValueError):
        Cyclo.one(6)


# ------------------------------------------------------------------ fused multiply-accumulate
#
# `addmul`/`submul` are the inner statement of the product, reduction and
# elimination kernels.  Canonical form is unique, so each must give the
# very (_n, _d) of the two-step `s + a*c` / `s - a*c`.


def _fused_operands(rng, p, kind):
    """(s, a, c) of one kind of input."""
    (a, _), (c, _) = _ref_pair(rng, p, kind)
    if kind == "zero":
        return Cyclo.zero(p), a, c
    (s, _), _ = _ref_pair(rng, p, kind)
    return s, a, c


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("kind", KINDS)
def test_fused_ops_match_two_steps(p, kind):
    rng = random.Random("fused:%d:%s" % (p, kind))
    for _ in range(30):
        s, a, c = _fused_operands(rng, p, kind)
        for got, want in ((s.addmul(a, c), s + a * c), (s.submul(a, c), s - a * c)):
            assert (got._n, got._d) == (want._n, want._d)
            assert got == want and hash(got) == hash(want)
        # s over the product's denominator a._d * c._d, before lowest terms
        pd = a._d * c._d
        t = Cyclo(p, [Fraction(1, pd)] + [Fraction(rng.randint(-pd, pd), pd)
                                          for _ in range(p - 2)])
        assert t._d == pd
        for got, want in ((t.addmul(a, c), t + a * c), (t.submul(a, c), t - a * c)):
            assert (got._n, got._d) == (want._n, want._d)
        # results that cancel to the canonical zero
        for zero in ((a * c).submul(a, c), (-(a * c)).addmul(a, c),
                     (a * c).addmul(-a, c)):
            assert (zero._n, zero._d) == ((0,) * (p - 1), 1) and zero.is_zero()
        assert Cyclo.zero(p).submul(a, c) == -(a * c)
