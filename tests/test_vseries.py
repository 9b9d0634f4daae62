import itertools
import random
from fractions import Fraction

import pytest

from conftest import rand_scalar

from prymlab.errors import WindowError
from prymlab.jets import JetRing
from prymlab.scalars import Cyclo
from prymlab.vseries import (
    INF,
    BaseSeries,
    Model,
    VSeries,
    _isinf,
    flow_exponential,
    pth_root_series,
    residue_pairing,
    wedge_residue,
    wedge_step,
)


def scalar_ring(p):
    return JetRing.scalar(p)


def rand_vseries(rng, model, ring, lo=-6, hi=6, density=0.5):
    comps = []
    for _ in range(model.ncomp):
        d = {}
        for e in range(lo, hi):
            if rng.random() < density:
                c = Cyclo(model.p, [Fraction(rng.randint(-4, 4)) for _ in range(model.p - 1)])
                if not c.is_zero():
                    d[e] = ring.const(c)
        comps.append(d)
    return VSeries(model, ring, comps, lo, hi)


# ---------------------------------------------------------------- arithmetic


def test_mul_window_r():
    m = Model(2, "R")
    R = scalar_ring(2)
    a = VSeries.monomial(m, R, 1, -1)
    b = VSeries.monomial(m, R, 1, 1)
    prod = a * b
    assert prod.pos_coeff(0) == R.one()
    assert prod.lo == -1 + 1 and prod.hi == INF


def test_mul_componentwise_nr():
    m = Model(2, "NR")
    R = scalar_ring(2)
    a = VSeries.monomial(m, R, 1, 1)   # (z, 0)
    b = VSeries.monomial(m, R, 2, 1)   # (0, z)
    assert (a * b).is_zero_certified()


def test_geometric_series_window():
    m = Model(2, "R")
    R = scalar_ring(2)
    one_plus = VSeries(m, R, [{0: R.one(), 1: R.one()}], 0, INF)
    geo = VSeries(m, R, [{e: R.const((-1) ** e) for e in range(0, 5)}], 0, 5)
    prod = one_plus * geo
    assert prod.hi == 5
    assert prod.pos_coeff(0) == R.one()
    for e in range(1, 5):
        assert prod.pos_coeff(e).is_zero()


def test_mul_empty_window_raises():
    # degenerate (already empty) windows are rejected when multiplied
    m = Model(2, "R")
    R = scalar_ring(2)
    a = VSeries(m, R, [{}], 5, 3)
    with pytest.raises(WindowError):
        a * a


# ---------------------------------------------------------------- sigma


def test_sigma_ramified_scaling():
    m = Model(3, "R")
    R = scalar_ring(3)
    a = VSeries.monomial(m, R, 1, 2)
    assert a.sigma().pos_coeff(2) == R.const(Cyclo.xi_power(3, 2))


def test_sigma_nr_swap():
    m = Model(2, "NR")
    R = scalar_ring(2)
    f = VSeries(m, R, [{0: R.one()}, {1: R.const(3)}], 0, INF)
    g = f.sigma()
    assert g.comps[0] == {1: R.const(3)} and g.comps[1] == {0: R.one()}


@pytest.mark.parametrize("case", ["R", "NR"])
def test_sigma_order_p(case):
    rng = random.Random(42)
    for p in (2, 3):
        m = Model(p, case)
        R = scalar_ring(p)
        a = rand_vseries(rng, m, R)
        assert a.sigma_power(p).comps == a.comps


# ---------------------------------------------------------------- trace / norm


def test_trace_ramified():
    m = Model(2, "R")
    R = scalar_ring(2)
    assert VSeries.monomial(m, R, 1, 1).trace().is_zero_certified()
    t = VSeries.monomial(m, R, 1, 2).trace()
    assert t.terms == {1: R.const(2)}


def test_trace_nr_sums_components():
    m = Model(3, "NR")
    R = scalar_ring(3)
    a = VSeries(m, R, [{0: R.one()}, {0: R.const(2)}, {1: R.const(5)}], 0, INF)
    t = a.trace()
    assert t.terms == {0: R.const(3), 1: R.const(5)}


def test_norm_monomial_r():
    m = Model(3, "R")
    R = scalar_ring(3)
    n = VSeries.monomial(m, R, 1, 1).norm()
    # z1 * (xi z1) * (xi^2 z1) = xi^3 z1^3 = z
    assert n.terms == {1: R.one()}


def base_flow(ring, coords):
    """exp(sum_j c_j z^{-j}) as a BaseSeries (independent oracle helper)."""
    out = BaseSeries.one(ring)
    power = out
    arg = BaseSeries(ring, {-j: c for j, c in coords.items() if not c.is_zero()}, hi=INF)
    for k in range(1, ring.cap + 1):
        power = power * arg * Fraction(1, k)
        out = out + power
    return out


def test_norm_flow_ramified_matches_coordinate_law():
    # Nm(exp(t1 z1^-1 + t2 z1^-2)) = exp(2 t2 z^-1): nm(tbar_i) = p*t_{ip}
    p = 2
    m = Model(p, "R")
    R = JetRing(p, ("t1", "t2"), cap=2)
    g = flow_exponential(m, R, {1: R.var("t1"), 2: R.var("t2")})
    nm = g.norm()
    expect = base_flow(R, {1: R.var("t2") * 2})
    assert nm.terms == expect.terms


def test_norm_flow_nonramified_matches_coordinate_law():
    # Nm(exp(t^(1) z^-1), exp(t^(2) z^-1)) = exp((t^(1)+t^(2)) z^-1)
    p = 2
    m = Model(p, "NR")
    R = JetRing(p, ("a1", "b1"), cap=2)
    g = flow_exponential(m, R, {(1, 1): R.var("a1"), (2, 1): R.var("b1")})
    nm = g.norm()
    expect = base_flow(R, {1: R.var("a1") + R.var("b1")})
    assert nm.terms == expect.terms


@pytest.mark.parametrize("case", ["R", "NR"])
def test_trace_and_norm_sigma_invariant(case):
    rng = random.Random(9)
    for p in (2, 3):
        m = Model(p, case)
        R = scalar_ring(p)
        a = rand_vseries(rng, m, R)
        assert a.sigma().trace().terms == a.trace().terms
        if case == "NR":
            # make all components invertible for a clean norm comparison
            a = a + VSeries.one(m, R).scale(100)
        assert a.sigma().norm().terms == a.norm().terms


# ---------------------------------------------------------------- residue pairing


def brute_pairing_r(p, a, b):
    """Oracle: <z1^a, z1^b> = p when a + b = -p, else 0."""
    return p if a + b == -p else 0


def test_pairing_table_ramified():
    for p in (2, 3):
        m = Model(p, "R")
        R = scalar_ring(p)
        for a in range(-8, 9):
            for b in range(-8, 9):
                got = residue_pairing(VSeries.monomial(m, R, 1, a),
                                      VSeries.monomial(m, R, 1, b))
                assert got == R.const(brute_pairing_r(p, a, b))


def test_pairing_table_nonramified():
    p = 2
    m = Model(p, "NR")
    R = scalar_ring(p)
    for i in (1, 2):
        for j in (1, 2):
            for a in range(-4, 5):
                for b in range(-4, 5):
                    got = residue_pairing(VSeries.monomial(m, R, i, a),
                                          VSeries.monomial(m, R, j, b))
                    want = 1 if (i == j and a + b == -1) else 0
                    assert got == R.const(want)


def test_pairing_trivial_and_window_error():
    m = Model(2, "R")
    R = scalar_ring(2)
    one = VSeries.one(m, R)
    assert residue_pairing(one, one).is_zero()
    short = VSeries(m, R, [{-4: R.one()}], -4, -3)
    with pytest.raises(WindowError):
        residue_pairing(short, short)


def test_pairing_nondegenerate_on_window():
    for case in ("R", "NR"):
        for p in (2, 3):
            m = Model(p, case)
            R = scalar_ring(p)
            for n in range(-2 * p, 2 * p):
                dual = m.reflect(n)
                got = residue_pairing(VSeries.basis(m, R, n), VSeries.basis(m, R, dual))
                assert got == R.const(m.ramification_index())
                # off-diagonal in the reflected pairing vanishes
                got2 = residue_pairing(VSeries.basis(m, R, n), VSeries.basis(m, R, dual + p))
                assert got2.is_zero()


# ---------------------------------------------------------------- wedge form


def brute_wedge(us):
    """Oracle: decompose into distinguished coordinates by hand and expand det."""
    model = us[0].model
    ring = us[0].ring
    p = model.p
    import itertools
    total = ring.zero()
    for perm in itertools.permutations(range(p)):
        sign = 1
        seen = list(perm)
        # permutation sign by counting inversions
        inv = sum(1 for x in range(p) for y in range(x + 1, p) if seen[x] > seen[y])
        sign = -1 if inv % 2 else 1
        term = None
        # product over l of coordinate perm[l] of us[l], at z-exponents summing to -1
        coords = [u.coordinates() for u in us]
        choices = [coords[l][perm[l]] for l in range(p)]
        for exps in itertools.product(*[list(c.terms) for c in choices]):
            if sum(exps) != -1:
                continue
            prod = ring.one()
            for c, e in zip(choices, exps):
                prod = prod * c.terms[e]
            total = total + prod * sign
        del term
    return total


def test_wedge_ramified_example():
    m = Model(2, "R")
    R = scalar_ring(2)
    got = wedge_residue([VSeries.monomial(m, R, 1, -1), VSeries.one(m, R)])
    assert got == R.const(-1)


def test_wedge_alternating():
    m = Model(3, "R")
    R = scalar_ring(3)
    u = VSeries(m, R, [{-3: R.one(), 1: R.const(2)}], -3, INF)
    v = VSeries.monomial(m, R, 1, -1)
    assert wedge_residue([u, u, v]).is_zero()


def test_wedge_nonramified_example():
    m = Model(2, "NR")
    R = scalar_ring(2)
    u1 = VSeries.monomial(m, R, 1, -1)   # (z^-1, 0)
    u2 = VSeries.monomial(m, R, 2, 0)    # (0, 1)
    assert wedge_residue([u1, u2]) == R.one()


@pytest.mark.parametrize("case,p", [("R", 2), ("R", 3), ("NR", 2)])
def test_wedge_against_bruteforce(case, p):
    # positions [-3, 3(p-1)) give every coordinate the z-window [-1, 2)
    # (R-3) or one whose determinant is certified through z^-1 (p = 2)
    rng = random.Random(31 + p)
    m = Model(p, case)
    R = scalar_ring(p)
    certified = 0
    for _ in range(8):
        us = [rand_vseries(rng, m, R, lo=-3, hi=3 * (p - 1), density=0.6) for _ in range(p)]
        try:
            got = wedge_residue(us)
        except WindowError:
            continue
        assert got == brute_wedge(us)
        certified += 1
    assert certified >= 4


def test_wedge_norm_equivariance():
    # wedge(g*u_1, ..., g*u_p) picks up Nm(g) inside the residue
    rng = random.Random(77)
    p = 2
    m = Model(p, "R")
    R = JetRing(p, ("e1",), cap=1)
    g = flow_exponential(m, R, {1: R.var("e1")}) * VSeries.one(m, R).scale(3)
    certified = 0
    for _ in range(6):
        # g has a z1^-1 term, so g*u ends one position lower than u; u on
        # [-3, 6) leaves the determinant of the g*u certified through z^-1
        us = [rand_vseries(rng, m, R, lo=-3, hi=6, density=0.5) for _ in range(p)]
        gus = [g * u for u in us]
        try:
            lhs = wedge_residue(gus)
        except WindowError:
            continue
        # Nm(g) * det as base series, residue taken afterwards
        det = _old_det([[us[l].coordinates()[k] for l in range(p)] for k in range(p)])
        prod = g.norm() * det
        assert prod.lo <= -1 < prod.hi
        assert lhs == prod.terms.get(-1, R.zero())
        certified += 1
    assert certified >= 3


# ---------------------------------------------------------------- roots, flows


def test_sqrt_one_minus_z():
    R = scalar_ring(2)
    f = BaseSeries(R, {0: R.one(), 1: R.const(-1)}, 0, 4)
    g = pth_root_series(f, 2)
    assert g.terms == {
        0: R.one(),
        1: R.const(Fraction(-1, 2)),
        2: R.const(Fraction(-1, 8)),
        3: R.const(Fraction(-1, 16)),
    }
    sq = g * g
    for e in range(0, 4):
        assert sq.terms.get(e, R.zero()) == f.terms.get(e, R.zero())


def test_root_of_one_and_perfect_square():
    R = scalar_ring(3)
    one = BaseSeries.one(R)
    assert pth_root_series(one, 3).terms == {0: R.one()}
    R2 = scalar_ring(2)
    f = BaseSeries(R2, {0: R2.one(), 1: R2.const(2), 2: R2.one()}, 0, 6)
    assert pth_root_series(f, 2).terms == {0: R2.one(), 1: R2.one()}


def _reference_pth_root_series(f, p):
    """The p-th root as solved before the Miller recurrence: each new
    coefficient recomputes g^p from scratch with p - 1 series products."""
    ring = f.ring
    hi = f.hi
    if _isinf(hi):
        hi = (max(f.terms) if len(f.terms) > 1 else 0) + 1
    g = {0: ring.one()}
    gp = {0: ring.one()}
    inv_p = Fraction(1, p)
    for e in range(1, hi):
        delta = (f.terms.get(e, ring.zero()) - gp.get(e, ring.zero())) * inv_p
        if delta.is_zero():
            continue
        g[e] = delta
        gs = BaseSeries(ring, g, 0, hi)
        acc = BaseSeries.one(ring)
        for _ in range(p):
            acc = acc * gs
        gp = acc.terms
    return BaseSeries(ring, g, 0, f.hi)


def test_pth_root_matches_reference_random():
    rng = random.Random(43)
    for trial in range(24):
        p = (2, 3, 5)[trial % 3]
        R = scalar_ring(p) if trial % 2 else JetRing(p, ("t1", "t2"), cap=2)
        terms = {0: R.one()}
        for e in range(1, 7):
            if rng.random() < 0.6:
                c = R.const(rand_scalar(rng, p))
                if R.cap and rng.random() < 0.5:
                    c = c + R.var(rng.choice(R.names), rng.randint(-3, 3))
                terms[e] = c
        hi = INF if trial % 4 == 0 else rng.randint(3, 9)
        f = BaseSeries(R, terms, 0, hi)
        got, want = pth_root_series(f, p), _reference_pth_root_series(f, p)
        assert got.terms == want.terms
        if _isinf(hi):
            assert got.hi == max(f.terms) + 1
        else:
            assert (got.lo, got.hi) == (want.lo, want.hi)
        acc = BaseSeries.one(R)
        for _ in range(p):
            acc = acc * got
        for e in range(got.hi):
            assert acc.terms.get(e, R.zero()) == f.terms.get(e, R.zero())


def test_pth_root_of_an_exact_series_has_a_finite_window():
    R = scalar_ring(2)
    f = BaseSeries(R, {0: R.one(), 1: R.one()})        # 1 + z, exact
    g = pth_root_series(f, 2)
    assert g.terms == {0: R.one(), 1: R.const(Fraction(1, 2))}
    assert (g.lo, g.hi) == (0, 2)
    # (1 + z/2)^2 = 1 + z + z^2/4: only the certified part agrees with f
    sq = g * g
    assert sq.hi == 2
    assert sq.terms == f.terms


def test_flow_exponential_examples():
    m = Model(2, "R")
    R1 = JetRing(2, ("t1",), cap=1)
    f = flow_exponential(m, R1, {1: R1.var("t1")})
    assert f.comps[0] == {0: R1.one(), -1: R1.var("t1")}

    R2 = JetRing(2, ("t1",), cap=2)
    f2 = flow_exponential(m, R2, {1: R2.var("t1")})
    g2 = flow_exponential(m, R2, {1: -R2.var("t1")})
    prod = f2 * g2
    assert prod.pos_coeff(0) == R2.one()
    assert all(c.is_zero() for n, c in prod.pos_items() if n != 0)

    mnr = Model(3, "NR")
    R3 = JetRing(3, ("t1",), cap=1)
    f3 = flow_exponential(mnr, R3, {(1, 1): R3.var("t1")})
    assert f3.comps[0] == {0: R3.one(), -1: R3.var("t1")}
    assert f3.comps[1] == {0: R3.one()} and f3.comps[2] == {0: R3.one()}


def test_trace_norm_land_on_integer_exponents():
    rng = random.Random(3)
    for p in (2, 3):
        m = Model(p, "R")
        R = scalar_ring(p)
        a = rand_vseries(rng, m, R)
        for e in a.trace().terms:
            assert isinstance(e, int)
        for e in a.norm().terms:
            assert isinstance(e, int)


def test_vseries_inverse():
    m = Model(2, "R")
    R = scalar_ring(2)
    a = VSeries(m, R, [{-1: R.one(), 0: R.const(3), 2: R.const(-2)}], -1, 7)
    inv = a.inverse()
    prod = a * inv
    assert prod.pos_coeff(0) == R.one()
    for n, c in prod.pos_items():
        if n != 0:
            assert c.is_zero()


# ---------------------------------------------------------------- kernels vs the old loops
#
# `+`, `*` and `trace` of both series types once spelled out their own
# accumulate-and-prune loop; these are those loops.  The shared kernels
# must give the same terms and windows.


def _old_add_terms(d1, d2, hi):
    t = dict(d1)
    for e, c in d2.items():
        s = t.get(e)
        s = c if s is None else s + c
        if s.is_zero():
            t.pop(e, None)
        else:
            t[e] = s
    return {e: c for e, c in t.items() if e < hi}


def _old_mul_terms(d1, d2, hi):
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


def _old_trace_terms(comps):
    t = {}
    for d in comps:
        for e, c in d.items():
            s = t.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                t.pop(e, None)
            else:
                t[e] = s
    return t


def _rand_terms(rng, ring, p, lo, hi):
    """Sparse terms with small coefficients, so sums often cancel."""
    d = {}
    for e in range(lo, hi):
        if rng.random() < 0.6:
            c = ring.const(Cyclo(p, [Fraction(rng.randint(-1, 1)) for _ in range(p - 1)]))
            if ring.cap and rng.random() < 0.4:
                c = c + ring.var("w", rng.randint(-1, 1))
            if not c.is_zero():
                d[e] = c
    return d


def _rand_window(rng):
    lo = rng.randint(-5, 1)
    return lo, (INF if rng.random() < 0.3 else lo + rng.randint(1, 9))


def _base_key(b):
    return b.terms, b.lo, b.hi


@pytest.mark.parametrize("case,p,cap", [("R", 2, 0), ("R", 3, 1), ("NR", 2, 1), ("NR", 3, 0)])
def test_series_kernels_match_the_old_loops(case, p, cap):
    rng = random.Random(31 * p + cap + (7 if case == "NR" else 0))
    m = Model(p, case)
    ring = JetRing(p, ("w",), cap=cap) if cap else scalar_ring(p)
    for _ in range(60):
        (la, ha), (lb, hb) = _rand_window(rng), _rand_window(rng)
        ta = [_rand_terms(rng, ring, p, la, min(ha, la + 9)) for _ in range(m.ncomp)]
        tb = [_rand_terms(rng, ring, p, lb, min(hb, lb + 9)) for _ in range(m.ncomp)]
        a, b = VSeries(m, ring, ta, la, ha), VSeries(m, ring, tb, lb, hb)
        hi = min(ha, hb)
        want = VSeries(m, ring, [_old_add_terms(x, y, hi) for x, y in zip(ta, tb)],
                       min(la, lb), hi)
        assert a + b == want
        lo, hi = la + lb, min(la + hb, lb + ha)
        if hi == INF or hi > lo:
            want = VSeries(m, ring, [_old_mul_terms(x, y, hi) for x, y in zip(ta, tb)],
                           lo, hi)
            assert a * b == want
        else:
            with pytest.raises(WindowError):
                a * b
        if case == "NR":
            want = BaseSeries(ring, _old_trace_terms(ta), la, ha)
            assert _base_key(a.trace()) == _base_key(want)
        ba, bb = BaseSeries(ring, ta[0], la, ha), BaseSeries(ring, tb[0], lb, hb)
        hi = min(ha, hb)
        assert _base_key(ba + bb) == _base_key(
            BaseSeries(ring, _old_add_terms(ta[0], tb[0], hi), min(la, lb), hi))
        lo, hi = la + lb, min(la + hb, lb + ha)
        assert _base_key(ba * bb) == _base_key(
            BaseSeries(ring, _old_mul_terms(ta[0], tb[0], hi), lo, hi))


# ---------------------------------------------------------------- wedge kernel vs cofactors
#
# The wedge determinant was once expanded by cofactors along the first
# column; this is that expansion.  The exterior-step fold must give the
# same series: terms, window and sign.


def _old_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for i in range(n):
        lead = rows[i][0]
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        term = lead * _old_det(minor)
        if i % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _fold(cols):
    minors = None
    for col in cols:
        minors = wedge_step(minors, col)
    (det,) = minors.values()
    return det


def _rand_entry(rng, ring, p, span):
    """A sparse entry on a random window; some hold no terms."""
    lo = rng.randint(-3, 1)
    hi = INF if rng.random() < 0.75 else lo + rng.randint(1, 12)
    if rng.random() < 0.15:
        return BaseSeries(ring, {}, lo, hi)
    d = {}
    for e in range(lo, min(hi, lo + span)):
        if rng.random() < 0.5:
            c = ring.const(Cyclo(p, [Fraction(rng.randint(-1, 1)) for _ in range(p - 1)]))
            if ring.cap and rng.random() < 0.4:
                c = c + ring.var("w", rng.randint(-1, 1))
            if not c.is_zero():
                d[e] = c
    return BaseSeries(ring, d, lo, hi)


@pytest.mark.parametrize("p,cap,count", [(2, 0, 40), (2, 1, 40), (3, 0, 30), (3, 1, 30),
                                         (5, 0, 6), (5, 1, 6), (7, 0, 1), (7, 1, 1)])
def test_wedge_fold_matches_cofactor_expansion(p, cap, count):
    rng = random.Random(97 * p + cap)
    ring = JetRing(p, ("w",), cap=cap) if cap else scalar_ring(p)
    span = 3 if p < 7 else 2
    for _ in range(count):
        cols = [[_rand_entry(rng, ring, p, span) for _ in range(p)] for _ in range(p)]
        want = _old_det([[cols[l][k] for l in range(p)] for k in range(p)])
        got = _fold(cols)
        assert (got.lo, got.hi, got.terms) == (want.lo, want.hi, want.terms)


def _witness_column(rng, ring, p, span, c):
    """A witness-like column: the coordinates of one vector, whose class c
    holds terms from its window's bottom up, while the other classes are
    empty series on nearly the same window, finite or infinite."""
    lo, width = rng.randint(-3, 1), rng.randint(3, 8)
    col = []
    for k in range(p):
        lo_k = lo + (rng.random() < 0.2)
        hi_k = INF if rng.random() < 0.5 else lo_k + width
        d = {}
        if k == c:
            for e in range(lo_k, min(hi_k, lo_k + span)):
                x = ring.const(Cyclo(p, [Fraction(rng.randint(-1, 1)) for _ in range(p - 1)]))
                if ring.cap and rng.random() < 0.4:
                    x = x + ring.var("w", rng.randint(-1, 1))
                if e == lo_k or rng.random() < 0.6:
                    d[e] = x if not x.is_zero() else ring.one()
        col.append(BaseSeries(ring, d, lo_k, hi_k))
    return col


@pytest.mark.parametrize("p,cap,count", [(2, 0, 40), (2, 1, 40), (3, 0, 30), (3, 1, 30),
                                         (5, 0, 6), (5, 1, 6), (7, 0, 2), (7, 1, 2)])
def test_wedge_fold_matches_cofactor_expansion_on_witness_columns(p, cap, count):
    rng = random.Random(89 * p + cap)
    ring = JetRing(p, ("w",), cap=cap) if cap else scalar_ring(p)
    nonzero = 0
    for n in range(count):
        # distinct classes in every other draw, so some determinants hold
        # terms; repeated classes leave only a window
        classes = rng.sample(range(p), p) if n % 2 == 0 else \
            [rng.randrange(p) for _ in range(p)]
        cols = [_witness_column(rng, ring, p, 3, c) for c in classes]
        want = _old_det([[cols[l][k] for l in range(p)] for k in range(p)])
        got = _fold(cols)
        assert (got.lo, got.hi, got.terms) == (want.lo, want.hi, want.terms)
        nonzero += bool(got.terms)
    assert nonzero > 0


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except WindowError as e:
        return "WindowError: %s" % e


@pytest.mark.parametrize("case,p", [("R", 3), ("NR", 3), ("R", 5), ("NR", 5)])
def test_wedge_head_matches_the_full_fold(case, p):
    rng = random.Random(11 * p + (1 if case == "NR" else 0))
    m = Model(p, case)
    R = scalar_ring(p)
    for _ in range(8):
        # coordinates on z-exponents [-1, top): the residue is certified
        # about when top >= p - 1
        top = rng.randint(p - 2, p + 1)
        lo, hi = (-p, p * top) if case == "R" else (-1, top)
        us = [rand_vseries(rng, m, R, lo=lo, hi=hi, density=0.3) for _ in range(p)]
        minors = None
        for u in us[:-1]:
            minors = wedge_step(minors, u.coordinates())
        head = (minors, us[-1].coordinates())
        assert _outcome(wedge_residue, us, head=head) == _outcome(wedge_residue, us)


def test_wedge_p7_costs_at_most_p_times_2_to_p_minus_1_products(monkeypatch):
    # the fold visits p*2^(p-1) - p (entry, minor) pairs and makes one
    # series product for each pair whose two factors both hold terms
    rng = random.Random(7)
    p = 7
    m = Model(p, "R")
    R = scalar_ring(p)
    us = [rand_vseries(rng, m, R, lo=-3, hi=4, density=0.3) for _ in range(p)]
    pairs = nonempty = 0
    minors = None
    for u in us:
        col = u.coordinates()
        if minors is not None:
            k = len(next(iter(minors)))
            for rows in itertools.combinations(range(p), k + 1):
                for i, r in enumerate(rows):
                    pairs += 1
                    nonempty += bool(col[r].terms and minors[rows[:i] + rows[i + 1:]].terms)
        minors = wedge_step(minors, col)
    assert pairs == p * 2 ** (p - 1) - p
    calls = []
    mul = BaseSeries.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(BaseSeries, "__mul__", counting)
    _outcome(wedge_residue, us)
    assert 0 < len(calls) == nonempty < pairs


# ---------------------------------------------------------------- one position layout
#
# `Model` writes the layout n = ncomp*e + (i-1) once for both local
# models; the per-case methods below, and a per-class loop for
# `coordinates`, are the reference it must match.


def _per_case_pos(m, comp, e):
    if m.case == "R":
        return e
    return m.p * e + (comp - 1)


def _per_case_unpos(m, n):
    if m.case == "R":
        return 1, n
    return n % m.p + 1, n // m.p


def _per_case_reflect(m, n):
    if m.case == "R":
        return -m.p - n
    return -m.p - n + 2 * (n % m.p)


def _per_case_pos_window(m, lo, hi):
    if m.case == "R":
        return lo, hi
    return m.p * lo, (INF if _isinf(hi) else m.p * hi)


def _per_case_exp_window(m, plo, phi):
    if m.case == "R":
        return plo, phi
    return plo // m.p, (INF if _isinf(phi) else -((-phi) // m.p))


@pytest.mark.parametrize("case", ["R", "NR"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_one_layout_matches_the_per_case_methods(case, p):
    m = Model(p, case)
    assert m.ncomp == (1 if case == "R" else p)
    for e in range(-12, 13):
        for comp in range(1, m.ncomp + 1):
            assert m.pos(comp, e) == _per_case_pos(m, comp, e)
    for n in range(-4 * p - 9, 4 * p + 10):
        assert m.unpos(n) == _per_case_unpos(m, n)
        assert m.pos(*m.unpos(n)) == n
        assert m.reflect(n) == _per_case_reflect(m, n)
        assert m.reflect(m.reflect(n)) == n
    for lo in range(-9, 10):
        for hi in list(range(lo, lo + 9)) + [INF]:
            assert m.pos_window(lo, hi) == _per_case_pos_window(m, lo, hi)
            assert m.exp_window(lo, hi) == _per_case_exp_window(m, lo, hi)


def _per_class_coordinates(v):
    m = v.model
    plo, phi = v.pos_window()
    out = []
    for k in range(m.p):
        t = {}
        for n, c in v.pos_items():
            if n % m.p == k:
                t[(n - k) // m.p] = c
        lo_k = -((k - plo) // m.p)
        hi_k = INF if _isinf(phi) else -((k - phi) // m.p)
        out.append(BaseSeries(v.ring, t, lo_k, hi_k))
    return out


@pytest.mark.parametrize("case", ["R", "NR"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coordinates_match_the_per_class_loop(case, p):
    rng = random.Random(p * 31 + len(case))
    m = Model(p, case)
    R = scalar_ring(p)
    for _ in range(12):
        lo = rng.randint(-8, 2)
        v = rand_vseries(rng, m, R, lo, lo + rng.randint(1, 9), density=0.6)
        if rng.random() < 0.3:
            v = VSeries(m, R, v.comps, v.lo, INF)
        got, want = v.coordinates(), _per_class_coordinates(v)
        assert len(got) == len(want) == p
        for b, b_ref in zip(got, want):
            assert (b.lo, b.hi) == (b_ref.lo, b_ref.hi)
            assert list(b.terms.items()) == list(b_ref.terms.items())


@pytest.mark.parametrize("case", ["R", "NR"])
def test_flow_components_outside_the_model_are_refused(case):
    m = Model(3, case)
    R = JetRing(3, ("t1",), cap=1)
    for i in (0, m.ncomp + 1):
        with pytest.raises(ValueError, match="component"):
            flow_exponential(m, R, {(i, 1): R.var("t1")})


@pytest.mark.parametrize("case", ["R", "NR"])
def test_monomials_outside_the_model_are_refused(case):
    # component 0 must not wrap round to the last component, and the
    # ramified model has one idempotent, e_1 = 1
    m = Model(3, case)
    R = scalar_ring(3)
    for i in (0, m.ncomp + 1):
        with pytest.raises(ValueError, match="component"):
            VSeries.monomial(m, R, i, 1)
        with pytest.raises(ValueError, match="component"):
            VSeries.unit_vector(m, R, i)
    assert VSeries.unit_vector(m, R, 1) == VSeries.monomial(m, R, 1, 0)
    if case == "R":
        assert VSeries.unit_vector(m, R, 1) == VSeries.one(m, R)


def test_doctests_run():
    # the `Model` docstring pins pos, unpos and reflect in both models
    import doctest

    import prymlab.vseries

    failed, attempted = doctest.testmod(prymlab.vseries)
    assert attempted > 0 and failed == 0
