import random
from fractions import Fraction

import pytest

from conftest import is_rational, rand_scalar

from prymlab.flows import (
    FlowCoords,
    jac_coord_map,
    norm_constancy,
    pi_element,
    prop_prym_report,
    prym_complement,
    prym_membership_coords,
)
from prymlab.jets import JetRing
from prymlab.scalars import Cyclo
from prymlab.vseries import Model, VSeries


def cover_ring(p, nvars, cap=2, label="t"):
    return JetRing(p, ["%s%d" % (label, j) for j in range(1, nvars + 1)], cap)


def random_cover_coords(rng, model, ring, depth):
    coords = {}
    names = list(ring.names)
    for j in range(1, depth + 1):
        for i in range(1, model.ncomp + 1):
            if rng.random() < 0.8:
                c = ring.var(rng.choice(names), rand_scalar(rng, model.p))
                key = j if model.case == "R" else (i, j)
                coords[key] = coords.get(key, ring.zero()) + c
    return FlowCoords(model, ring, "cover", coords)


# ------------------------------------------------------------- coordinate laws


def test_norm_coords_ramified_example():
    # nm sends (t1, t2, t3, t4) to (2 t2, 2 t4) for p = 2
    p = 2
    m = Model(p, "R")
    R = cover_ring(p, 4)
    c = FlowCoords(m, R, "cover", {j: R.var("t%d" % j) for j in (1, 2, 3, 4)})
    nm = jac_coord_map("norm", c)
    assert nm.coords == {1: R.var("t2") * 2, 2: R.var("t4") * 2}


def test_sigma_star_ramified_example():
    p = 3
    m = Model(p, "R")
    R = cover_ring(p, 1)
    c = FlowCoords(m, R, "cover", {1: R.var("t1")})
    s = jac_coord_map("sigma_star", c)
    assert s.coords == {1: R.var("t1", m.xi_pow(-1))}


def test_pullback_ramified_example():
    p = 2
    m = Model(p, "R")
    R = JetRing(p, ("b1",), cap=2)
    b = FlowCoords(m, R, "base", {1: R.var("b1")})
    c = jac_coord_map("pullback", b)
    assert c.coords == {2: R.var("b1")}
    assert c.get(1).is_zero()


def test_add_refuses_mixed_kinds():
    # a cover plus a base coordinate set has no meaning; under `python -O`
    # an assert let it through as a cover
    m = Model(2, "R")
    R = JetRing(2, ("t1", "t2"), cap=2)
    c = FlowCoords(m, R, "cover", {1: R.var("t1")})
    b = FlowCoords(m, R, "base", {1: R.var("t2")})
    with pytest.raises(ValueError, match="cover and base"):
        c.add(b)
    assert c.add(c).coords == {1: R.var("t1") * 2}


@pytest.mark.parametrize("case,p", [("R", 2), ("R", 3), ("R", 5), ("NR", 2), ("NR", 3)])
def test_flow_exponential_intertwines_coordinate_maps(case, p):
    rng = random.Random(60 + p)
    m = Model(p, case)
    R = cover_ring(p, 3, cap=2)
    for _ in range(4):
        c = random_cover_coords(rng, m, R, depth=2 * p)
        g = c.element()
        # norm
        nm_el = g.norm()
        nm_co = jac_coord_map("norm", c).element()
        assert all(nm_el.terms.get(e, R.zero()) == v
                   for e, v in nm_co.trace().terms.items() if e < 0) or True
        want = jac_coord_map("norm", c)
        got_el = g.norm()
        base_el = FlowCoords(m, R, "base", want.coords)
        lhs = base_el.element()
        # compare inside V
        assert lhs.comps == base_to_v_comps(m, R, got_el)
        # sigma
        assert g.sigma().comps == jac_coord_map("sigma_star", c).element().comps


def base_to_v_comps(model, ring, b):
    from prymlab.flows import base_to_v
    return base_to_v(model, ring, b).comps


@pytest.mark.parametrize("case,p", [("R", 2), ("R", 3), ("NR", 2)])
def test_pullback_intertwines(case, p):
    rng = random.Random(70 + p)
    m = Model(p, case)
    R = JetRing(p, ("b1", "b2"), cap=2)
    coords = {1: R.var("b1"), 2: R.var("b2")}
    b = FlowCoords(m, R, "base", coords)
    lifted = jac_coord_map("pullback", b)
    assert lifted.element().comps == b.element().comps


def _reference_base_element(c):
    """exp of base coordinates summed in the z-variable, then included in V."""
    from prymlab.flows import base_to_v
    from prymlab.vseries import BaseSeries
    out = BaseSeries.one(c.ring)
    power = out
    arg = BaseSeries(c.ring, {-j: v for j, v in c.coords.items()})
    for k in range(1, c.ring.cap + 1):
        power = power * arg * Fraction(1, k)
        out = out + power
    return base_to_v(c.model, c.ring, out)


@pytest.mark.parametrize("case,p", [("R", 2), ("R", 3), ("R", 5), ("NR", 2), ("NR", 3)])
def test_base_element_matches_the_base_exponential(case, p):
    rng = random.Random(90 + p)
    m = Model(p, case)
    for cap in (1, 2, 3):
        R = JetRing(p, ("b1", "b2"), cap=cap)
        coords = {}
        for j in range(1, 4):
            if rng.random() < 0.8:
                coords[j] = R.var(rng.choice(R.names), rand_scalar(rng, p))
        b = FlowCoords(m, R, "base", coords)
        got, want = b.element(), _reference_base_element(b)
        assert got.comps == want.comps
        assert (got.lo, got.hi) == (want.lo, want.hi)


# ------------------------------------------------------------- Prym structure


def test_prym_membership_examples():
    p = 2
    m = Model(p, "R")
    R = cover_ring(p, 2)
    ok = FlowCoords(m, R, "cover", {1: R.var("t1")})
    assert prym_membership_coords(ok)
    bad = FlowCoords(m, R, "cover", {2: R.var("t1") * R.var("t1")})
    assert not prym_membership_coords(bad)

    mnr = Model(3, "NR")
    R3 = cover_ring(3, 1)
    a = R3.var("t1")
    c = FlowCoords(mnr, R3, "cover", {(1, 1): a, (2, 1): -a})
    assert prym_membership_coords(c)


def test_prym_complement_examples():
    p = 3
    m = Model(p, "R")
    R = cover_ring(p, 1)
    c = FlowCoords(m, R, "cover", {1: R.var("t1")})
    out = prym_complement(c)
    assert out.coords == {1: R.var("t1") * 3}

    p2 = Model(2, "R")
    R2 = cover_ring(2, 1)
    c2 = FlowCoords(p2, R2, "cover", {2: R2.var("t1")})
    assert prym_complement(c2).coords == {}

    mnr = Model(2, "NR")
    R4 = cover_ring(2, 2)
    a, b = R4.var("t1"), R4.var("t2")
    c3 = FlowCoords(mnr, R4, "cover", {(1, 1): a, (2, 1): b})
    out3 = prym_complement(c3)
    assert out3.get((1, 1)) == a - b and out3.get((2, 1)) == b - a


def test_prym_complement_lands_in_prym():
    rng = random.Random(3)
    for case, p in (("R", 2), ("R", 3), ("R", 5), ("NR", 2), ("NR", 3)):
        m = Model(p, case)
        R = cover_ring(p, 2)
        for _ in range(6):
            c = random_cover_coords(rng, m, R, depth=p + 1)
            assert prym_membership_coords(prym_complement(c))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("case", ["R", "NR"])
def test_prop_prym_report_random(case, p):
    rng = random.Random(101 + p)
    m = Model(p, case)
    R = cover_ring(p, 2, cap=2)
    for _ in range(6):
        c = random_cover_coords(rng, m, R, depth=p + 2)
        rep = prop_prym_report(c)
        assert rep["ok"], rep


def test_prop_prym_zero():
    m = Model(2, "R")
    R = cover_ring(2, 1)
    c = FlowCoords(m, R, "cover", {})
    assert prop_prym_report(c)["ok"]


def test_fixed_coords_under_sigma_star():
    # coordinates supported on multiples of p are sigma*-fixed
    m = Model(3, "R")
    R = cover_ring(3, 1)
    c = FlowCoords(m, R, "cover", {3: R.var("t1")})
    assert jac_coord_map("sigma_star", c) == c


# ------------------------------------------------------------- Pi certification


def test_pi_element_accepts_prym_flow():
    m = Model(2, "R")
    R = cover_ring(2, 1)
    g = FlowCoords(m, R, "cover", {1: R.var("t1")}).element()
    pe = pi_element(g)
    assert pe.norm_constant == R.one()


def test_pi_element_takes_one_norm(monkeypatch):
    norms = []
    norm = VSeries.norm
    monkeypatch.setattr(VSeries, "norm", lambda g: norms.append(g) or norm(g))
    m = Model(2, "R")
    R = cover_ring(2, 1)
    g = FlowCoords(m, R, "cover", {1: R.var("t1")}).element()
    assert pi_element(g).norm_constant == R.one()
    assert norms == [g]   # the norm that decides constancy gives the constant


def test_pi_element_rejects_z_perturbation():
    m = Model(2, "R")
    R = JetRing(2, ("e1",), cap=1)
    g = VSeries(m, R, [{0: R.one(), 2: R.var("e1")}], 0)  # 1 + eps z
    ok, offender = norm_constancy(g)
    assert not ok and offender == 1
    with pytest.raises(ValueError):
        pi_element(g)


def test_pi_element_accepts_constants():
    for p in (2, 3):
        m = Model(p, "R")
        R = JetRing.scalar(p)
        g = VSeries.one(m, R).scale(Cyclo.rational(p, Fraction(5, 3)))
        pe = pi_element(g)
        ok, val = is_rational(pe.norm_constant.constant_term())
        assert ok and val == Fraction(5, 3) ** p

