from fractions import Fraction

import pytest

from conftest import frames_agree
from prymlab import krichever
from prymlab.baker import residue_identity_eval
from prymlab.errors import WindowError
from prymlab.jets import JetRing
from prymlab.krichever import (
    CurveSpec,
    FunctionRep,
    algebra_point,
    curve_invariants,
    module_point,
    puiseux_expand,
)
from prymlab.scalars import Cyclo
from prymlab.vseries import INF, BaseSeries, VSeries, pth_root_series

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


def sigma_curve(F, p):
    """F with y -> zeta_p * y in numerator and denominator."""
    zeta = Cyclo.xi_power(p, 1)

    def tw(d):
        return {(a, b): zeta ** b * c for (a, b), c in d.items()}

    return FunctionRep(tw(F.num), tw(F.den))


def test_equivariance_of_expansions():
    for curve in (curve_y2_x5(), curve_y3_x4(), curve_y2_x6()):
        exp = puiseux_expand(curve, 14)
        for F in (FunctionRep.x(), FunctionRep.y(),
                  FunctionRep({(1, 1): 1, (0, 0): Fraction(2, 3)})):
            lhs = exp.expand(sigma_curve(F, curve.p))
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
    # the defining-relation check kept y^0..y^p and x^0..x^deg f
    built = {(0, b) for b in range(curve.p + 1)} | {(a, 0) for a in range(len(curve.f))}
    kept = {}
    for a in range(5):
        for b in range(curve.p):
            products.clear()
            kept[a, b] = exp.monomial(a, b)
            assert len(products) == (0 if (a, b) in built else 1)
    monkeypatch.setattr(VSeries, "__mul__", mul)
    for (a, b), got in kept.items():
        want = VSeries.one(exp.model, exp.ring)
        for factor in [exp.x] * a + [exp.y] * b:
            want = want * factor
        assert got == want   # coefficients and window
        assert exp.monomial(a, b) is got
    # a negative exponent counts as 0, as in the product it replaces
    assert exp.monomial(-1, 1) is exp.monomial(0, 1)


@pytest.mark.parametrize("curve", [curve_y2_x5(), curve_y3_x4(), curve_y2_x6()])
def test_the_defining_relation_makes_each_power_once(monkeypatch, curve):
    exp = krichever.CurveExpansion(curve, 12)
    products = []
    mul = VSeries.__mul__
    monkeypatch.setattr(VSeries, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    assert exp.check_defining_relation()
    assert len(products) == curve.p + curve.d   # y^1..y^p and x^1..x^d
    products.clear()
    assert exp.check_defining_relation() and not products


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


# ------------------------------------------------------------------ one expansion: reference
#
# The expansion and the generators as they were written once per local
# model, over f converted into Q(xi_p), with squarefreeness decided there.
# The package writes both models through the ramification index r and
# holds f as rationals: x, y, every monomial, the generator list and the
# frame must equal these, and a bad f must raise the same errors.


def _ref_poly_scale(coeffs, p):
    out = []
    for c in coeffs:
        if isinstance(c, Cyclo):
            out.append(c)
        else:
            out.append(Cyclo.rational(p, Fraction(c)))
    while out and out[-1].is_zero():
        out.pop()
    return out


def _ref_poly_deriv(f, p):
    return _ref_poly_scale([c * k for k, c in enumerate(f)][1:] or [0], p)


def _ref_poly_mod(a, b, p):
    a = list(a)
    inv = b[-1].inverse()
    while len(a) >= len(b) and a:
        c = a[-1] * inv
        for j, bj in enumerate(b):
            a[len(a) - len(b) + j] = a[len(a) - len(b) + j] - c * bj
        while a and a[-1].is_zero():
            a.pop()
    return a


def _ref_is_squarefree(f, p) -> bool:
    a, b = f, _ref_poly_deriv(f, p)
    while b:
        a, b = b, _ref_poly_mod(a, b, p)
    return len(a) == 1


def _ref_curve_f(p, f_coeffs):
    """f in Q(xi_p), or the ValueError a curve with this f raises."""
    f = _ref_poly_scale(f_coeffs, p)
    if len(f) < 2:
        raise ValueError("f must be non-constant")
    if f[-1] != Cyclo.one(p):
        raise ValueError("f must be monic")
    if not _ref_is_squarefree(f, p):
        raise ValueError("f must be squarefree (smooth affine model)")
    return f


def _ref_expansion(curve, f, hi):
    """(x, y) of the curve, one branch per local model."""
    p, d = curve.p, len(f) - 1
    m, R = curve.model(), JetRing.scalar(curve.p)
    if curve.case == "R":
        x = VSeries.monomial(m, R, 1, -p)
        w = {p * (d - k): R.const(c) for k, c in enumerate(f)}
        u = pth_root_series(BaseSeries(R, w, 0, hi + d), p)
        y = VSeries(m, R, [{e - d: c for e, c in u.terms.items()}], -d, hi)
    else:
        x = VSeries(m, R, [{-1: R.one()} for _ in range(p)], -1, INF)
        w = {d - k: R.const(c) for k, c in enumerate(f)}
        u = pth_root_series(BaseSeries(R, w, 0, hi + d // p), p)
        comps = []
        for i in range(1, p + 1):
            scale = m.xi ** ((1 - i) % p)
            comps.append({e - d // p: c * scale for e, c in u.terms.items()})
        y = VSeries(m, R, comps, -d // p, hi)
    return x, y


def _ref_generators(curve, d, depth):
    """The exponents (a, b) of the generators x^a y^b, in order."""
    p = curve.p
    out = []
    if curve.case == "R":
        for b in range(p):
            for a in range((depth - d * b) // p + 1):
                if p * a + d * b <= depth:
                    out.append((a, b))
    else:
        dp = d // p
        for b in range(p):
            for a in range(depth - dp * b + 1):
                if a + dp * b <= depth:
                    out.append((a, b))
    return out


# (p, f constant first): p does not divide d, p divides d, trailing zeros,
# rational coefficients
ONE_EXPANSION_CURVES = [
    (2, [-1, 0, 0, 0, 0, 1]),
    (2, [-1, 0, 0, 0, 1, 0, 0]),
    (2, ["1/2", "-3", 0, 1]),
    (3, [-1, 0, 0, 0, 1, 0]),
    (3, [1, 2, 0, 1]),
    (5, [1, 0, 1, 1]),
    (5, [1, 1, 0, 0, 0, 1, 0, 0]),
    (7, [1, 1, 0, 1]),
    (7, [Fraction(1, 3), 1, 0, 0, 0, 0, 0, 1]),
]


@pytest.mark.parametrize("p, coeffs", ONE_EXPANSION_CURVES)
def test_one_expansion_matches_the_per_model_reference(monkeypatch, p, coeffs):
    curve = CurveSpec(p, coeffs)
    f = _ref_curve_f(p, coeffs)
    assert curve.f == f and curve.d == len(f) - 1
    assert curve.case == ("NR" if curve.d % p == 0 else "R")
    built = []
    build = krichever.build_frame

    def recording(model, ring, vectors, **kwargs):
        built.append((list(vectors), kwargs))
        return build(model, ring, vectors, **kwargs)

    monkeypatch.setattr(krichever, "build_frame", recording)
    for depth, height in ((3, 4), (2 * curve.d, 6), (curve.d + 5, 2 * curve.d + 1)):
        exp = puiseux_expand(curve, height)
        x, y = _ref_expansion(curve, f, height)
        assert exp.x == x and exp.y == y          # coefficients and windows
        gens = []
        for a, b in _ref_generators(curve, curve.d, depth):
            want = VSeries.one(x.model, x.ring)
            for factor in [x] * a + [y] * b:
                want = want * factor
            assert exp.monomial(a, b) == want
            gens.append(want)
        built.clear()
        U = algebra_point(curve, depth, height)
        (vectors, kwargs), = built
        assert vectors == gens
        ref = build(x.model, x.ring, gens, phi=min(g.pos_window()[1] for g in gens),
                    pivots_full_below=True,
                    max_pivot_bound=p - 1 if curve.case == "NR" else 0)
        assert kwargs["max_pivot_bound"] == ref.max_pivot_bound
        assert (U.rows, U.phi, U.pivots_full_below) == (ref.rows, ref.phi, True)
        # a deep generator can end its window below the pivot bound
        assert frames_agree(U, ref, probe_hi=min(U.phi - 1, U.max_pivot_bound + 1))


@pytest.mark.parametrize("p, coeffs", [
    (2, [1, 0, 2]),                    # leading coefficient 2
    (3, [1, 0, "1/2", 0]),             # leading coefficient 1/2 after trimming
    (2, [0, 0, 1]),                    # x^2
    (2, [1, 2, 1]),                    # (x + 1)^2
    (3, [-1, 0, 1, 0, 0]),             # squarefree: (x - 1)(x + 1)
    (5, [1, -2, 1, 0]),                # (x - 1)^2, trailing zero
    (2, [3]),                          # constant
    (3, [1, 0, 0]),                    # constant after trimming
    (2, []),
])
def test_bad_f_raises_what_the_reference_raises(p, coeffs):
    try:
        _ref_curve_f(p, coeffs)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            CurveSpec(p, coeffs)
        assert str(got.value) == str(e)
    else:
        assert CurveSpec(p, coeffs).f == _ref_curve_f(p, coeffs)


def test_doctests_run():
    # the `CurveExpansion` docstring pins x's exponent -r and y's leading
    # exponent in each model
    import doctest

    failed, attempted = doctest.testmod(krichever)
    assert attempted > 0 and failed == 0
