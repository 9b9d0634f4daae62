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


def test_exp_basics():
    R = JetRing(2, ("t1", "t2"), cap=2)
    t1, t2 = R.var("t1"), R.var("t2")
    e = t1.exp()
    assert e == R.one() + t1 + t1 * t1 * Fraction(1, 2)
    assert ((t1 + t2).exp() * (-(t1 + t2)).exp()) == R.one()
    R1 = JetRing(2, ("t2",), cap=1)
    assert (R1.var("t2") * 3).exp() == R1.one() + R1.var("t2") * 3


@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_exp_group_law(cap):
    rng = random.Random(100 + cap)
    R = JetRing(3, ("t1", "t2", "t3"), cap=cap)
    for _ in range(8):
        a = sum((R.var(n, rng.randint(-3, 3)) for n in R.names), R.zero())
        b = sum((R.var(n, rng.randint(-3, 3)) for n in R.names), R.zero())
        assert (a + b).exp() == a.exp() * b.exp()
        assert a.exp() * (-a).exp() == R.one()


def test_exp_requires_nilpotent():
    R = JetRing(2, ("t1",), cap=2)
    with pytest.raises(ValueError):
        (R.one() + R.var("t1")).exp()


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
    R = JetRing.with_blocks(2, {"t": 2, "s": 2}, cap=2)
    assert R.block_vars("t") == ["t1", "t2"]
    small = JetRing(2, ("t1",), cap=2)
    lifted = small.var("t1").lift(R)
    assert lifted == R.var("t1")


def test_to_text():
    R = JetRing(2, ("t1", "t3"), cap=3)
    s = R.var("t1") * R.var("t1") * R.var("t3") + R.var("t3") * 2
    assert s.to_text() == "2*t3 + 1*t1^2*t3"
