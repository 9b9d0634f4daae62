import random
from fractions import Fraction

import pytest

from prymlab.jets import JetRing
from prymlab.scalars import Cyclo


def test_truncating_product():
    R = JetRing(2, ("t1", "t2"), cap=2)
    t1 = R.var("t1")
    assert (R.one() + t1) * (R.one() - t1) == R.one() - t1 * t1


def test_hash_agrees_with_equality_across_rings():
    # equality compares rings by (p, names, cap), not identity
    a, b = JetRing.scalar(2).const(3), JetRing.scalar(2).const(3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    R1, R2 = JetRing(3, ("t1",), cap=2), JetRing(3, ("t1",), cap=2)
    assert len({R1.var("t1") + 1, R2.var("t1") + 1}) == 1
    assert len({R1.var("t1"), JetRing(3, ("t1",), cap=1).var("t1")}) == 2


def test_nilpotent_inverse_dual_numbers():
    R = JetRing(2, ("t1",), cap=1)
    t1 = R.var("t1")
    assert (R.one() + t1).inverse() == R.one() - t1


def test_coefficient_extraction():
    R = JetRing(2, ("t1", "t2"), cap=3)
    t1, t2 = R.var("t1"), R.var("t2")
    sq = (t1 + t2) * (t1 + t2)
    i1, i2 = R.index["t1"], R.index["t2"]
    assert sq.coeff(((i1, 1), (i2, 1))) == Cyclo.rational(2, 2)


def test_inverse_requires_unit():
    R = JetRing(2, ("t1",), cap=2)
    with pytest.raises(ZeroDivisionError):
        R.var("t1").inverse()


def test_truncation_is_ring_hom():
    rng = random.Random(5)
    R4 = JetRing(2, ("t1", "t2"), cap=4)
    for _ in range(6):
        a = sum((R4.var(n, rng.randint(-2, 2)) for n in R4.names), R4.zero())
        b = sum((R4.var(n, rng.randint(-2, 2)) for n in R4.names), R4.zero())
        prod = ((R4.one() + a) * (R4.one() + b)) * (R4.one() + a * b)
        for cap in (1, 2, 3):
            Rc = JetRing(2, ("t1", "t2"), cap=cap)
            direct = ((Rc.one() + a.truncate(cap, Rc)) * (Rc.one() + b.truncate(cap, Rc))) * (
                Rc.one() + a.truncate(cap, Rc) * b.truncate(cap, Rc)
            )
            assert prod.truncate(cap, Rc) == direct


def test_unit_inverse_random():
    rng = random.Random(11)
    R = JetRing(5, ("t1", "t2", "t3"), cap=3)
    for _ in range(6):
        u = R.const(Cyclo(5, [Fraction(rng.randint(1, 4)) for _ in range(4)]))
        for n in R.names:
            u = u + R.var(n, rng.randint(-2, 2))
        if u.constant_term().is_zero():
            continue
        assert u * u.inverse() == R.one()


def test_map_vars_scaling():
    R = JetRing(3, ("t1", "t2"), cap=2)
    xi = Cyclo.xi_power(3, 1)
    t1, t2 = R.var("t1"), R.var("t2")
    poly = t1 * t2 + t1
    scaled = poly.map_vars(R, {R.index["t1"]: (xi, R.index["t1"])})
    assert scaled == R.var("t1", xi) * t2 + R.var("t1", xi)


def test_blocks_and_lift():
    R = JetRing(2, ("t1", "t2", "s1", "s2"), cap=2)
    small = JetRing(2, ("t1",), cap=2)
    lifted = small.var("t1").lift(R)
    assert lifted == R.var("t1")


def test_to_text():
    R = JetRing(2, ("t1", "t3"), cap=3)
    s = R.var("t1") * R.var("t1") * R.var("t3") + R.var("t3") * 2
    assert s.to_text() == "2*t3 + 1*t1^2*t3"


def test_constants_hash_as_their_values():
    # `==` accepts plain numbers, so a constant hashes as the number it equals
    R = JetRing(3, ("t1",), cap=2)
    assert len({R.const(3), 3}) == 1
    assert hash(R.const(3)) == hash(3) and hash(R.zero()) == hash(0)
    assert hash(R.const(Fraction(1, 2))) == hash(Fraction(1, 2))
    xi = Cyclo.xi_power(3, 1)
    assert R.const(xi) == xi and hash(R.const(xi)) == hash(xi)
    assert len({R.const(3), Cyclo.rational(3, 3), Fraction(3)}) == 1


def test_const_returns_a_jet_unchanged():
    # wrapping a jet as the constant coefficient of a new jet would make
    # `R.const(t) == t` False
    R = JetRing(3, ("t1",), cap=2)
    t = R.var("t1") + 2
    assert R.const(t) is t
    assert R.const(R.const(5)) == R.const(5) == 5


def test_doctests_run():
    # the `JetRing` docstring pins the monomial key and its bound
    import doctest

    import prymlab.jets

    failed, attempted = doctest.testmod(prymlab.jets)
    assert attempted > 0 and failed == 0


# ---------------------------------------------------------------- reference
# The tuple-keyed JetPoly that the integer monomial keys replaced: a
# monomial is the sorted tuple of (variable index, exponent) pairs, merged
# through a dict.  The integer keys must reproduce it term for term.


def _ref_mono_mul(m1, m2, cap):
    if not m1:
        return m2
    if not m2:
        return m1
    out = dict(m1)
    for v, e in m2:
        out[v] = out.get(v, 0) + e
    if sum(out.values()) > cap:
        return None
    return tuple(sorted(out.items()))


def _ref_mono_deg(m):
    return sum(e for _, e in m)


class _RefJet:
    def __init__(self, p, names, cap, terms):
        self.p, self.names, self.cap, self.terms = p, tuple(names), cap, terms

    def _new(self, terms):
        return _RefJet(self.p, self.names, self.cap, terms)

    def one(self):
        return self._new({(): Cyclo.one(self.p)})

    def __add__(self, o):
        t = dict(self.terms)
        for m, c in o.terms.items():
            s = t.get(m)
            s = c if s is None else s + c
            if s.is_zero():
                t.pop(m, None)
            else:
                t[m] = s
        return self._new(t)

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()})

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        if not isinstance(o, _RefJet):
            o = self._new({(): Cyclo.rational(self.p, o)} if o else {})
        t = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = _ref_mono_mul(m1, m2, self.cap)
                if m is None:
                    continue
                c = c1 * c2
                s = t.get(m)
                s = c if s is None else s + c
                if s.is_zero():
                    t.pop(m, None)
                else:
                    t[m] = s
        return self._new(t)

    def inverse(self):
        c0_inv = self.terms[()].inverse()
        n = self._new({m: c * c0_inv for m, c in self.terms.items() if m != ()})
        out, power, sign = self.one(), self.one(), -1
        for _ in range(self.cap):
            power = power * n
            if not power.terms:
                break
            out = out + power * sign
            sign = -sign
        return out * self._new({(): c0_inv})

    def map_vars(self, names, cap, mapping):
        t = {}
        for m, c in self.terms.items():
            scale = c
            out_m = {}
            for v, e in m:
                sc, v2 = mapping.get(v, (None, v))
                if sc is not None:
                    scale = scale * (sc ** e)
                out_m[v2] = out_m.get(v2, 0) + e
            if sum(out_m.values()) > cap or scale.is_zero():
                continue
            key = tuple(sorted(out_m.items()))
            s = t.get(key)
            s = scale if s is None else s + scale
            if s.is_zero():
                t.pop(key, None)
            else:
                t[key] = s
        return _RefJet(self.p, names, cap, t)

    def truncate(self, cap):
        return _RefJet(self.p, self.names, cap,
                       {m: c for m, c in self.terms.items() if _ref_mono_deg(m) <= cap})

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda mm: (_ref_mono_deg(mm), mm)):
            c = self.terms[m]
            mono = "*".join(
                "%s^%d" % (self.names[v], e) if e > 1 else self.names[v] for v, e in m
            )
            ctext = c.to_text()
            if "+" in ctext or " " in ctext:
                ctext = "(%s)" % ctext
            parts.append(ctext if not mono else "%s*%s" % (ctext, mono))
        return " + ".join(parts)


def _rand_scalar(rng, p):
    if rng.random() < 0.5:
        return Cyclo.rational(p, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return Cyclo(p, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(p - 1)])


def _rand_pair(rng, R, nterms, nilpotent=False):
    """The same random element as a JetPoly (built by public arithmetic)
    and as a reference."""
    ref = _RefJet(R.p, R.names, R.cap, {})
    new = R.zero()
    for _ in range(nterms):
        c = _rand_scalar(rng, R.p)
        deg = rng.randint(0, R.cap) if R.names else 0
        if nilpotent and not deg:
            continue
        exps = {}
        for _ in range(deg):
            v = rng.randrange(len(R.names))
            exps[v] = exps.get(v, 0) + 1
        mono = tuple(sorted(exps.items()))
        ref = ref + _RefJet(R.p, R.names, R.cap, {} if c.is_zero() else {mono: c})
        term = R.const(c)
        for v, e in mono:
            for _ in range(e):
                term = term * R.var(R.names[v])
        new = new + term
    return new, ref


def _same(new, ref):
    assert len(new.terms) == len(ref.terms)
    assert all(new.coeff(m) == c for m, c in ref.terms.items())
    assert new.to_text() == ref.to_text()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("nvars", [0, 2, 8, 36])
def test_integer_keys_match_reference(p, nvars):
    rng = random.Random("%d:%d" % (p, nvars))
    names = ["t%d" % (i + 1) for i in range(nvars)]
    xi = Cyclo.xi_power(p, 1)
    for cap in (0, 1, 2, 3, 6):
        R = JetRing(p, names, cap)
        for _ in range(3):
            nterms = 4 if cap < 6 else 3
            (a, ra), (b, rb) = _rand_pair(rng, R, nterms), _rand_pair(rng, R, nterms)
            _same(a + b, ra + rb)
            _same(a - b, ra - rb)
            _same(-a, -ra)
            _same(a * b, ra * rb)
            _same(a * 0, ra * 0)
            assert (a == b) == (ra.terms == rb.terms)
            assert a - b + b == a and hash(a - b + b) == hash(a)
            twin = JetRing(p, names, cap)
            a2 = a.lift(twin)
            assert a2 == a and hash(a2) == hash(a) and len({a, a2}) == 1
            c0 = ra.terms.get((), Cyclo.zero(p))
            assert (a == c0) == (set(ra.terms) <= {()})
            if c0:
                _same(a.inverse(), ra.inverse())
                assert a * a.inverse() == R.one()
            # a nilpotent draw that every later random input depends on
            _rand_pair(rng, R, nterms, nilpotent=True)
            for low in range(cap):
                _same(a.truncate(low), ra.truncate(low))
            # a substitution that scales, renames and merges variables,
            # into a wider ring with the names in another order
            wide = names + ["s1", "s2"]
            rng.shuffle(wide)
            W = JetRing(p, wide, cap)
            mapping = {}
            for v in range(nvars):
                if rng.random() < 0.5:
                    sc = xi ** rng.randrange(p) if rng.random() < 0.7 else None
                    mapping[v] = (sc, rng.randrange(len(wide)))
            _same(a.map_vars(W, mapping), ra.map_vars(wide, cap, mapping))
            by_name = {v: (None, W.index[n]) for v, n in enumerate(names)}
            _same(a.lift(W), ra.map_vars(wide, cap, by_name))


# ------------------------------------------------------------------ fused multiply-accumulate


def _same_map(got, want):
    """Equal term maps, coefficient by coefficient down to (_n, _d)."""
    assert got.terms == want.terms
    assert all((c._n, c._d) == (want.terms[k]._n, want.terms[k]._d)
               for k, c in got.terms.items())
    assert got == want and hash(got) == hash(want) and got.to_text() == want.to_text()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("cap", [0, 1, 2])
def test_fused_ops_match_two_steps(p, cap):
    rng = random.Random("fused:%d:%d" % (p, cap))
    R = JetRing(p, ("t1", "t2", "t3"), cap)
    for _ in range(20):
        # up to degree 2 per factor: at caps 1-2 products pass the cap
        s, a, c = (_rand_pair(rng, R, 5)[0] for _ in range(3))
        _same_map(s.addmul(a, c), s + a * c)
        _same_map(s.submul(a, c), s - a * c)
        _same_map(R.zero().addmul(a, c), a * c)
        # partial sums that cancel, and a total that does
        _same_map((a * c).submul(a, c), R.zero())
        _same_map((s + a * c).submul(a, c), s)
        _same_map((s - a * c).addmul(a, c), s)
        assert s.addmul(a, R.zero()) == s and s.submul(R.zero(), c) == s


def _parent_mul_terms(d1, d2, hi):
    """The product loop as it was before the fused op: a product, then a sum."""
    t = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            e = e1 + e2
            if e >= hi:
                continue
            c = c1 * c2
            s = t.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                t.pop(e, None)
            else:
                t[e] = s
    return t


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mul_terms_matches_the_two_step_loop(p):
    from prymlab.jets import _mul_terms

    rng = random.Random("mul_terms:%d" % p)
    for cap in (0, 1, 2):
        R = JetRing(p, ("t1", "t2"), cap)
        for _ in range(10):
            # series-like maps of jet coefficients
            d1 = {e: _rand_pair(rng, R, 3)[0] for e in range(-3, 4) if rng.random() < 0.7}
            d2 = {e: _rand_pair(rng, R, 3)[0] for e in range(-2, 5) if rng.random() < 0.7}
            # at key 21 the first two products cancel and the third comes
            # back: the fused loop re-inserts it at the end of the map
            x, y, z = (_rand_pair(rng, R, 2)[0] + 1 for _ in range(3))
            d1.update({10: x, 11: x, 12: x})
            d2.update({10: y, 11: -y, 9: z})
            d1 = {e: c for e, c in d1.items() if c}
            d2 = {e: c for e, c in d2.items() if c}
            for hi in (float("inf"), 22, 3, 0):
                got, want = _mul_terms(d1, d2, hi), _parent_mul_terms(d1, d2, hi)
                assert got.keys() == want.keys()
                for e in got:
                    _same_map(got[e], want[e])
            # jet monomial keys, below the ring's bound
            a, c = _rand_pair(rng, R, 6)[0], _rand_pair(rng, R, 6)[0]
            got = _mul_terms(a.terms, c.terms, R._bound)
            want = _parent_mul_terms(a.terms, c.terms, R._bound)
            assert got == want
            assert all((v._n, v._d) == (want[k]._n, want[k]._d) for k, v in got.items())
