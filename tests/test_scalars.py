import random
from fractions import Fraction

import pytest

from prymlab.scalars import Cyclo, power_sum, root_product


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
    ok, val = a.is_rational()
    assert ok and val == Fraction(-7, 3)
    assert Cyclo.xi_power(2, 1) == Cyclo.rational(2, -1)


def test_is_rational():
    p = 3
    s = Cyclo.one(p) + Cyclo.xi_power(p, 1) + Cyclo.xi_power(p, 2)
    ok, val = s.is_rational()
    assert ok and val == 0
    ok, _ = Cyclo.xi_power(p, 1).is_rational()
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


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_root_product_identity(p):
    assert root_product(p) == Cyclo.rational(p, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_power_sum_identity(p):
    for j in range(-20, 21):
        expect = Cyclo.rational(p, p if j % p == 0 else 0)
        assert power_sum(p, j) == expect


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero(5).inverse()


def test_text_roundtrip():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(10):
            a = rand_cyclo(rng, p)
            assert Cyclo.from_text(p, a.to_text()) == a


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
