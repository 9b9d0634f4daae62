from fractions import Fraction

import pytest

from prymlab.baker import residue_identity_eval
from prymlab.errors import WindowError
from prymlab.krichever import (
    CurveSpec,
    FunctionRep,
    algebra_point,
    curve_invariants,
    module_point,
    puiseux_expand,
)
from prymlab.vseries import VSeries

def curve_y2_x5():
    return CurveSpec(2, [-1, 0, 0, 0, 0, 1])   # y^2 = x^5 - 1


def curve_y3_x4():
    return CurveSpec(3, [-1, 0, 0, 0, 1])      # y^3 = x^4 - 1


def curve_y2_x6():
    return CurveSpec(2, [-1, 0, 0, 0, 0, 0, 1])  # y^2 = x^6 - 1 (NR)


def test_curve_case_detection():
    assert curve_y2_x5().case == "R"
    assert curve_y3_x4().case == "R"
    assert curve_y2_x6().case == "NR"


def test_squarefree_rejected():
    with pytest.raises(ValueError):
        CurveSpec(2, [0, 0, 1])  # x^2: double root
    with pytest.raises(ValueError):
        CurveSpec(2, [1, 2, 1])  # (x+1)^2


def test_puiseux_y2_x5():
    exp = puiseux_expand(curve_y2_x5(), 25)
    # x = z1^-2 exactly
    assert exp.x.comps[0] == {-2: exp.ring.one()}
    # y = z1^-5 (1 - z1^10/2 - z1^20/8 - ...)
    y = exp.y.comps[0]
    assert y[-5] == exp.ring.one()
    assert y[5] == exp.ring.const(Fraction(-1, 2))
    assert y[15] == exp.ring.const(Fraction(-1, 8))


def test_puiseux_nr_branches():
    exp = puiseux_expand(curve_y2_x6(), 10)
    y1, y2 = exp.y.comps
    assert y1[-3] == exp.ring.one()
    assert y2[-3] == exp.ring.const(-1)
    assert y1[3] == exp.ring.const(Fraction(-1, 2))


def test_equivariance_of_expansions():
    for curve in (curve_y2_x5(), curve_y3_x4(), curve_y2_x6()):
        exp = puiseux_expand(curve, 14)
        for F in (FunctionRep.x(), FunctionRep.y(),
                  FunctionRep({(1, 1): 1, (0, 0): Fraction(2, 3)})):
            lhs = exp.expand(F.sigma_curve(curve.p))
            rhs = exp.expand(F).sigma()
            assert (lhs - rhs).is_zero_certified()
        # x is a base function: sigma-invariant
        assert (exp.x.sigma() - exp.x).is_zero_certified()


@pytest.mark.parametrize("curve", [curve_y2_x5(), curve_y3_x4(), curve_y2_x6()])
def test_monomials_extend_their_kept_prefix(monkeypatch, curve):
    exp = puiseux_expand(curve, 12)
    products = []
    mul = VSeries.__mul__
    monkeypatch.setattr(VSeries, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    kept = {}
    for a in range(5):
        for b in range(curve.p):
            products.clear()
            kept[a, b] = exp.monomial(a, b)
            assert len(products) == 1 if (a, b) != (0, 0) else not products
    monkeypatch.setattr(VSeries, "__mul__", mul)
    for (a, b), got in kept.items():
        want = VSeries.one(exp.model, exp.ring)
        for factor in [exp.x] * a + [exp.y] * b:
            want = want * factor
        assert got == want   # coefficients and window
        assert exp.monomial(a, b) is got
    # a negative exponent counts as 0, as in the product it replaces
    assert exp.monomial(-1, 1) is exp.monomial(0, 1)


def test_expand_function_with_denominator():
    exp = puiseux_expand(curve_y2_x5(), 16)
    F = FunctionRep({(0, 1): 1}, {(1, 0): 1, (0, 0): -1})  # y / (x - 1)
    v = exp.expand(F)
    # v_infty(y) = -5, v_infty(x-1) = -2: leading exponent -3
    assert v.leading_position() == -3
    assert exp.expand(FunctionRep.one()).comps[0] == {0: exp.ring.one()}
    assert exp.expand(FunctionRep.x()).comps[0] == {-2: exp.ring.one()}


def test_algebra_point_y2_x5():
    U = algebra_point(curve_y2_x5(), 12)
    assert U.index_chi() == -1
    assert U.gap_orders() == [1, 3]
    from prymlab.vseries import VSeries
    assert not U.membership(VSeries.monomial(U.model, U.ring, 1, -1))
    assert U.invariance_check()
    assert U.algebra_point_check()


def test_algebra_point_y3_x4():
    U = algebra_point(curve_y3_x4(), 14)
    assert U.index_chi() == -2          # genus 3
    assert U.gap_orders() == [1, 2, 5]  # semigroup <3,4>
    assert U.invariance_check()
    assert U.algebra_point_check()


def test_algebra_point_y2_x6():
    U = algebra_point(curve_y2_x6(), 12)
    assert U.index_chi() == -1          # genus 2, two points at infinity
    assert U.invariance_check()
    assert U.algebra_point_check()
    verdicts = U.connectedness_check()
    assert not any(verdicts.values())   # irreducible: no idempotents


def test_curve_invariants():
    inv = curve_invariants(curve_y2_x5())
    assert inv["genus"] == 2 and inv["gaps"] == [1, 3]
    assert inv["prym_degree"] == 1 + 0  # (g-1) - (p-2)(gbar-1) = 1
    inv3 = curve_invariants(curve_y3_x4())
    assert inv3["genus"] == 3
    assert inv3["prym_degree"] == 2 + 1
    inv6 = curve_invariants(curve_y2_x6())
    assert inv6["genus"] == 2 and inv6["case"] == "NR"


def test_curve_invariants_agree_with_riemann_hurwitz():
    genus9 = CurveSpec(3, [1, 2, 0, -1, 0, 0, 0, 3, 0, 0, 1])   # 3 does not divide 10
    for curve, g in ((curve_y2_x5(), 2), (curve_y3_x4(), 3), (curve_y2_x6(), 2),
                     (genus9, 9)):
        inv = curve_invariants(curve)
        assert inv["genus"] == inv["riemann_hurwitz_genus"] == g
        assert len(inv["gaps"]) == g


def test_curve_invariants_shallow_window_raises():
    # depth 2 sees one gap of y^2 = x^5 - 1: genus 1, gaps [1]
    with pytest.raises(WindowError) as err:
        curve_invariants(curve_y2_x5(), depth=2)
    assert err.value.suggest == 2                      # reach pole order 2g = 4
    assert curve_invariants(curve_y2_x5(), depth=2 + err.value.suggest)["gaps"] == [1, 3]


def test_module_point_degree_one_bundle():
    # I = {1, y/(x-1)}: a degree-1 line bundle on the genus-2 curve
    gens = [FunctionRep.one(),
            FunctionRep({(0, 1): 1}, {(1, 0): 1, (0, 0): -1})]
    U = module_point(curve_y2_x5(), gens, 12)
    assert U.index_chi() == 0           # d + 1 - g = 1 + 1 - 2
    assert U.gap_orders() == [1]


def test_module_point_trivial_ideal_is_algebra_point():
    U = module_point(curve_y2_x5(), [FunctionRep.one()], 10)
    B = algebra_point(curve_y2_x5(), 10)
    assert sorted(U.rows) == sorted(B.rows)
    assert U.index_chi() == B.index_chi()


def test_tangent_dimension_curve_fixtures():
    U = algebra_point(curve_y2_x5(), 16)
    assert U.tangent_orbit_dim(5) == U.tangent_orbit_dim(6) == 2
    U3 = algebra_point(curve_y3_x4(), 18)
    assert U3.tangent_orbit_dim(6) == 3
    U6 = algebra_point(curve_y2_x6(), 14)
    assert U6.tangent_orbit_dim(5) == 2


def test_trace_constant_functions_in_tangent_kernel():
    # x^a y has vanishing trace: its expansion solves the kernel system,
    # so the tangent value never exceeds g - gbar
    U = algebra_point(curve_y2_x5(), 16)
    assert U.tangent_orbit_dim(8) == 2


def test_residue_identities_on_curve_points():
    U = algebra_point(curve_y2_x5(), 18)
    for tag in ("SIGMA_R", "MOD_R_1", "MOD_R_3"):
        val = residue_identity_eval(tag, U, depth=4, cap=1)
        assert val.is_zero(), tag
    assert residue_identity_eval("MOD_R_2", U, depth=2, cap=1).is_zero()
    U6 = algebra_point(curve_y2_x6(), 16)
    for tag in ("SIGMA_NR", "MOD_NR_1", "MOD_NR_3"):
        val = residue_identity_eval(tag, U6, depth=3, cap=1)
        assert val.is_zero(), tag
    assert residue_identity_eval("MOD_NR_2", U6, depth=2, cap=1).is_zero()
    conn = residue_identity_eval("CONN_i", U6, depth=3, cap=1)
    assert not conn.is_zero()  # connected curve: e_i not in U


def test_module_point_flow_action_keeps_chi():
    from prymlab.jets import JetRing
    from prymlab.vseries import flow_exponential

    gens = [FunctionRep.one(),
            FunctionRep({(0, 1): 1}, {(1, 0): 1, (0, 0): -1})]
    U = module_point(curve_y2_x5(), gens, 12)
    ring = JetRing(2, ("e1",), cap=1)
    g = flow_exponential(U.model, ring, {1: ring.var("e1")})
    assert U.group_act(g).index_chi() == U.index_chi() == 0
