"""Acceptance suite: one test per criterion, printing a pass line each.

Everything is exact; no tolerances appear anywhere (the asserted
equalities hold in Q(xi_p) or not at all).
"""

import itertools
import random
from fractions import Fraction

from conftest import frames_agree, rand_scalar, random_point

from prymlab.baker import residue_identity_eval
from prymlab.flows import (
    FlowCoords,
    jac_coord_map,
    pi_element,
    prop_prym_report,
)
from prymlab.grass import build_frame, lines_point, u_n_point, v_minus
from prymlab.jets import JetRing
from prymlab.krichever import CurveSpec, algebra_point
from prymlab.scalars import Cyclo
from prymlab.vseries import INF, Model, VSeries, flow_exponential

PASS_LINE = "ACCEPTANCE %d: PASS - %s"


def announce(k, text):
    print(PASS_LINE % (k, text))


def random_cover_coords(rng, model, ring, depth):
    coords = {}
    for j in range(1, depth + 1):
        for i in range(1, model.ncomp + 1):
            c = ring.var(rng.choice(ring.names), rand_scalar(rng, model.p))
            key = j if model.case == "R" else (i, j)
            coords[key] = coords.get(key, ring.zero()) + c
    return FlowCoords(model, ring, "cover", coords)


# ---------------------------------------------------------------- criterion 1


def test_acceptance_1_coordinate_laws():
    """Nm, pullback, sigma* on jet flows match the group computations
    exactly for p in {2,3,5}, caps D <= 2, flow support past 3p."""
    rng = random.Random(1001)
    for p in (2, 3, 5):
        for case in ("R", "NR"):
            model = Model(p, case)
            for cap in (1, 2):
                ring = JetRing(p, ("t1", "t2", "t3"), cap)
                c = random_cover_coords(rng, model, ring, depth=3 * p)
                g = c.element()
                # norm: element level vs coordinate level; the trace of the
                # included base element is p times the base flow
                nm = jac_coord_map("norm", c)
                lhs = g.norm()
                rhs_z = nm.element().trace()
                scaled = {e: v * Fraction(1, p) for e, v in rhs_z.terms.items()}
                assert lhs.terms == scaled
                # sigma* and pullback
                assert g.sigma().comps == jac_coord_map("sigma_star", c).element().comps
                b = FlowCoords(model, ring, "base",
                               {j: ring.var(rng.choice(ring.names),
                                            rand_scalar(rng, p))
                                for j in range(1, 2 * p)})
                assert jac_coord_map("pullback", b).element().comps == b.element().comps
    announce(1, "coordinate laws (norm, pullback, sigma*) exact for p=2,3,5")


# ---------------------------------------------------------------- criterion 2


def test_acceptance_2_formal_prym_properties():
    """Every expected formal-Prym property, exactly, on >= 50 random jet
    points per prime; the p-th power law uses the composite projection."""
    rng = random.Random(1002)
    for p in (2, 3, 5):
        count = 0
        while count < 50:
            case = "R" if count % 2 == 0 else "NR"
            model = Model(p, case)
            ring = JetRing(p, ("t1", "t2"), 2)
            c = random_cover_coords(rng, model, ring, depth=p + 2)
            rep = prop_prym_report(c)
            assert rep["ok"], (p, case, rep)
            count += 1
    announce(2, "formal Prym properties (1)-(5) exact on 50 random points each")


# ---------------------------------------------------------------- criterion 3


def test_acceptance_3_pairing_involution():
    """U-perp-perp = U and the index shift chi -> 1-chi-p (R) / -chi (NR)
    on >= 20 random frames per case."""
    for case, p, seed in (("R", 2, 31), ("R", 3, 32), ("NR", 2, 33), ("NR", 3, 34)):
        rng = random.Random(seed)
        model = Model(p, case)
        ring = JetRing.scalar(p)
        for _ in range(20):
            U = random_point(rng, model, ring)
            D = U.orthogonal()
            assert frames_agree(U, D.orthogonal())
            if case == "R":
                assert D.index_chi() == 1 - U.index_chi() - p
            else:
                assert D.index_chi() == -U.index_chi()
    announce(3, "orthogonal involution and index shift on 20 random frames per case")


# ---------------------------------------------------------------- criterion 4


def test_acceptance_4_fixture_y2_x5():
    """y^2 = x^5 - 1: chi, gaps, invariance, ring structure, vanishing
    residues at D in {0,1}, and the stable orbit-tangent dimension."""
    U = algebra_point(CurveSpec(2, [-1, 0, 0, 0, 0, 1]), 18)
    assert U.index_chi() == -1
    assert U.gap_orders() == [1, 3]
    assert U.invariance_check()
    assert U.algebra_point_check()
    for cap in (0, 1):
        for tag in ("SIGMA_R", "MOD_R_1", "MOD_R_3"):
            assert residue_identity_eval(tag, U, depth=4, cap=cap).is_zero(), (tag, cap)
        assert residue_identity_eval("MOD_R_2", U, depth=2, cap=cap).is_zero()
    dims = {m: U.tangent_orbit_dim(m) for m in (5, 6, 7, 8)}
    assert dims == {5: 2, 6: 2, 7: 2, 8: 2}
    announce(4, "y^2=x^5-1: chi=-1, gaps {1,3}, residues vanish, tangent 2 at depths 5-8")


# ---------------------------------------------------------------- criterion 5


def test_acceptance_5_fixture_y3_x4():
    """y^3 = x^4 - 1 (p = 3): chi = -2, every ramified identity vanishes
    at D <= 1, orbit tangent dimension 3."""
    U = algebra_point(CurveSpec(3, [-1, 0, 0, 0, 1]), 18)
    assert U.index_chi() == -2
    for cap in (0, 1):
        for tag in ("SIGMA_R", "MOD_R_1", "MOD_R_3"):
            assert residue_identity_eval(tag, U, depth=3, cap=cap).is_zero()
        assert residue_identity_eval("MOD_R_2", U, depth=2, cap=cap).is_zero()
    assert U.tangent_orbit_dim(6) == 3
    announce(5, "y^3=x^4-1: chi=-2, identities vanish at D<=1, tangent 3")


# ---------------------------------------------------------------- criterion 6


def test_acceptance_6_fixture_y2_x6_and_lines():
    """y^2 = x^6 - 1 (NR) and the p-disjoint-lines point: indices,
    vanishing residues, tangents, and the connectedness dichotomy."""
    U = algebra_point(CurveSpec(2, [-1, 0, 0, 0, 0, 0, 1]), 16)
    assert U.index_chi() == -1
    for tag in ("SIGMA_NR", "MOD_NR_1", "MOD_NR_3"):
        assert residue_identity_eval(tag, U, depth=3, cap=1).is_zero(), tag
    assert residue_identity_eval("MOD_NR_2", U, depth=2, cap=1).is_zero()
    assert U.tangent_orbit_dim(5) == 2
    conn = U.connectedness_check()
    assert conn == {1: False, 2: False}
    assert not residue_identity_eval("CONN_i", U, depth=3, cap=1).is_zero()

    model = Model(2, "NR")
    L = lines_point(model, JetRing.scalar(2))
    lconn = L.connectedness_check()
    assert lconn == {1: True, 2: True}
    assert residue_identity_eval("CONN_i", L, depth=3, cap=1).is_zero()
    # sigma-transitivity: membership is all-or-none on invariant points
    assert L.invariance_check() and len(set(lconn.values())) == 1
    assert U.invariance_check() and len(set(conn.values())) == 1
    announce(6, "y^2=x^6-1 and disjoint lines: NR residues, tangent 2, "
                "connectedness dichotomy")


# ---------------------------------------------------------------- criterion 7


def test_acceptance_7_pi_action_on_isotropic_witness():
    """An isotropic witness subspace stays isotropic under 20 random
    constant-norm flows and loses isotropy under 1 + eps z, with the
    violating wedge tuple reported."""
    from prymlab.cli import prym_search_u_n
    model = Model(2, "R")
    scalar = JetRing.scalar(2)
    found = prym_search_u_n(2, "R", 1, start=2)
    big_n = found["threshold_N"]
    assert big_n == -1
    rng = random.Random(1007)
    for trial in range(20):
        ring = JetRing(2, ("a1", "a2"), cap=1)
        U = u_n_point(model, ring, 1, big_n)
        # constant-norm element: odd flows only, times a unit constant
        coords = {1: ring.var("a1", rand_scalar(rng, 2)),
                  3: ring.var("a2", rand_scalar(rng, 2))}
        coords = {j: c for j, c in coords.items() if not c.is_zero()}
        g = flow_exponential(model, ring, coords)
        c = Cyclo.rational(2, Fraction(rng.randint(1, 5)))
        g = g.scale(c)
        pe = pi_element(g)   # certifies the constant norm
        ok, _ = U.group_act(g).isotropy_check()
        assert ok, trial
    ring = JetRing(2, ("e1",), cap=1)
    U = u_n_point(model, ring, 1, big_n)
    h = VSeries(model, ring, [{0: ring.one(), 2: ring.var("e1")}], 0, INF)
    ok, witness = U.group_act(h).isotropy_check()
    assert not ok and witness is not None
    announce(7, "witness subspace: isotropy kept by 20 Pi-elements, broken "
                "by 1+eps z (witness %s)" % (witness,))


# ---------------------------------------------------------------- criterion 8


def _equivalence_fixture_zoo():
    """(point, kind) pairs: big-cell points with controlled corruption."""
    zoo = []
    m2 = Model(2, "R")
    nr = Model(2, "NR")
    R = JetRing.scalar(2)

    def rrow(data, lo=None):
        return VSeries(m2, R, [dict(data)], lo)

    # --- sigma equivalence (ramified): perturbation parity decides
    for q, good in ((2, True), (1, False), (4, True), (3, False)):
        row = rrow({-2: R.one(), q: R.const(3)})
        zoo.append((build_frame(m2, R, [row], tail=(-2,)), "sigma", good))
    # --- sigma equivalence (non-ramified): symmetric row vs mixed row
    sym = VSeries(nr, R, [{-1: R.one()}, {-1: R.one()}], -1)
    zoo.append((build_frame(nr, R, [sym], tail=(-1, -1)), "sigma", True))
    mixed_row = VSeries(nr, R, [{-1: R.one()}, {1: R.const(2)}], -1)
    zoo.append((build_frame(nr, R, [mixed_row], tail=(-1, -1)), "sigma", False))
    # --- isotropy / BKP (p=2 ramified)
    safe = build_frame(m2, R, [VSeries.monomial(m2, R, 1, 0),
                               VSeries.monomial(m2, R, 1, -2)], tail=(-3,))
    zoo.append((safe, "bkp", True))
    broken = build_frame(m2, R, [VSeries.monomial(m2, R, 1, 0)], tail=(0,))
    zoo.append((broken, "bkp", False))     # pair (0, -1) hits the residue
    safe2 = build_frame(m2, R, [rrow({-2: R.one(), 0: R.const(5)})], tail=(-2,))
    zoo.append((safe2, "bkp", True))
    # perturbation at z1^2 pairs with the tail monomial z1^-3
    broken2 = build_frame(m2, R, [rrow({-2: R.one(), 2: R.const(2)})], tail=(-2,))
    zoo.append((broken2, "bkp", False))
    # --- algebra (MOD 2/3): chi=1 points with unit row
    one_row = VSeries.one(m2, R)
    good_alg = build_frame(m2, R, [one_row], tail=(0,))
    zoo.append((good_alg, "algebra", True))
    bad_alg = build_frame(m2, R, [one_row, rrow({-1: R.one(), 1: R.one()})],
                          tail=(-1,))
    zoo.append((bad_alg, "algebra", False))  # square of the row escapes
    no_one = v_minus(m2, R)
    zoo.append((no_one, "unit", False))
    with_one = build_frame(m2, R, [one_row], tail=(0,))
    zoo.append((with_one, "unit", True))
    # --- p = 3 ramified variants
    m3 = Model(3, "R")
    R3 = JetRing.scalar(3)
    inv3 = VSeries(m3, R3, [{-3: R3.one(), 3: R3.const(2)}], -3)
    zoo.append((build_frame(m3, R3, [inv3], tail=(-3,)), "sigma", True))
    brk3 = VSeries(m3, R3, [{-3: R3.one(), 2: R3.const(2)}], -3)
    zoo.append((build_frame(m3, R3, [brk3], tail=(-3,)), "sigma", False))
    zoo.append((build_frame(m3, R3, [VSeries.one(m3, R3)], tail=(0,)), "unit", True))
    zoo.append((v_minus(m3, R3), "unit", False))
    # --- connectedness (NR): idempotent membership
    L = lines_point(nr, R)
    zoo.append((L, "conn", True))
    vm = v_minus(nr, R)
    zoo.append((vm, "conn", False))
    mixed = build_frame(nr, R, [VSeries(nr, R, [{0: R.one()}, {0: R.const(7)}], 0)],
                        tail=(0, 0))
    zoo.append((mixed, "conn", False))     # e_1 + 7 e_2 only: e_i alone missing
    both = build_frame(nr, R, [VSeries.unit_vector(nr, R, 1),
                               VSeries.unit_vector(nr, R, 2)], tail=(0, 0))
    zoo.append((both, "conn", True))
    return zoo


def test_acceptance_8_identity_subspace_equivalence():
    """Residue identities and direct subspace checks agree, instance by
    instance, on passing and corrupted points (jet cap 1)."""
    passing = corrupted = 0
    for point, kind, good in _equivalence_fixture_zoo():
        model = point.model
        suffix = "_R" if model.case == "R" else "_NR"
        if kind == "sigma":
            direct = point.invariance_check()
            ident = residue_identity_eval("SIGMA" + suffix, point,
                                          depth=5, cap=1).is_zero()
        elif kind == "bkp":
            direct, _ = point.isotropy_check()
            ident = residue_identity_eval("BKP_GEN", point,
                                          depth=5, cap=1).is_zero()
        elif kind == "algebra":
            direct = point.algebra_point_check()
            ident = residue_identity_eval("MOD%s_2" % suffix, point,
                                          depth=3, cap=1).is_zero() and \
                residue_identity_eval("MOD%s_3" % suffix, point,
                                      depth=5, cap=1).is_zero()
        elif kind == "unit":
            direct = point.membership(VSeries.one(model, point.ring))
            ident = residue_identity_eval("MOD%s_3" % suffix, point,
                                          depth=5, cap=1).is_zero()
        else:
            verdicts = point.connectedness_check()
            direct = all(verdicts.values())
            ident = residue_identity_eval("CONN_i", point,
                                          depth=5, cap=1).is_zero()
        assert direct == good, (kind, good)
        assert ident == direct, (kind, good)
        passing += direct
        corrupted += not direct
    assert passing >= 10 and corrupted >= 10, (passing, corrupted)
    announce(8, "identity <-> subspace equivalence on %d passing and %d "
                "corrupted instances" % (passing, corrupted))


# ---------------------------------------------------------------- criterion 9


def _classical_bkp_verdict(U):
    """res f(z1) g(-z1) dz1/z1^2 = 0 for all f, g in the frame window.

    The residue is the z1^1 coefficient of f(z1) g(-z1), i.e.
    sum over a+b=1 of f_a g_b (-1)^b; the form is antisymmetric, so
    unordered pairs decide the verdict.  The wedge candidate list already
    materializes the tail one level deeper than this form can reach.
    """
    cands = U._wedge_candidates()
    for (r1, u1, n1), (r2, u2, n2) in itertools.combinations_with_replacement(cands, 2):
        total = U.ring.zero()
        d1, d2 = r1.comps[0], r2.comps[0]
        for a, ca in d1.items():
            cb = d2.get(1 - a)
            if cb is not None:
                sign = -1 if (1 - a) % 2 == 1 else 1
                total = total + ca * cb * sign
        if not total.is_zero():
            return False
    return True


def test_acceptance_9_bkp_specialization():
    """p = 2 ramified, index 0: the wedge-residue verdict coincides with
    the classical bilinear check on 20 sampled frames."""
    m = Model(2, "R")
    R = JetRing.scalar(2)
    rng = random.Random(1009)
    frames = []
    # isotropic-by-construction monomial frames (safe for both forms)
    for shift in range(4):
        rows = [VSeries.monomial(m, R, 1, 0), VSeries.monomial(m, R, 1, -2)]
        frames.append(build_frame(m, R, rows, tail=(-3 - 2 * shift,)))
    frames.append(v_minus(m, R))
    frames.append(build_frame(m, R, [VSeries.monomial(m, R, 1, 0)], tail=(-3,)))

    def random_index0_frame():
        k = rng.randint(0, 2)
        kernel = sorted(rng.sample(range(0, 5), k))
        holes = set(rng.sample(range(-5, 0), k))
        tail_edge = -8
        pivots = [e for e in range(tail_edge, 0) if e not in holes] + kernel
        non_pivots = sorted(holes | {e for e in range(0, 7) if e not in kernel})
        rows = []
        for s in pivots:
            data = {s: R.one()}
            for q in non_pivots:
                if q > s and rng.random() < 0.35:
                    c = rand_scalar(rng, 2)
                    if not c.is_zero():
                        data[q] = R.const(c)
            rows.append(VSeries.from_positions(m, R, data))
        return build_frame(m, R, rows, tail=(tail_edge,))

    while len(frames) < 20:
        U = random_index0_frame()
        assert U.index_chi() == 0
        frames.append(U)
    agreements = 0
    trues = falses = 0
    for U in frames[:20]:
        ok, _ = U.isotropy_check()
        classical = _classical_bkp_verdict(U)
        assert ok == classical
        agreements += 1
        trues += ok
        falses += not ok
    assert trues >= 3 and falses >= 3
    announce(9, "BKP specialization: wedge and classical verdicts agree on "
                "%d frames (%d isotropic, %d not)" % (agreements, trues, falses))


# ---------------------------------------------------------------- criterion 10


def test_acceptance_10_verdict_monotonicity():
    """Enlarging the window by 4 and the cap by 1 never flips a pass/fail
    verdict on any fixture; only window-insufficient may resolve."""
    from prymlab.cli import run

    fixtures = [
        {"curve": {"p": 2, "f": ["-1", "0", "0", "0", "0", "1"]},
         "point": {"type": "algebra"}, "window": [-16, 26],
         "checks": ["chi", "gaps", "sigma", "algebra", "SIGMA_R", "MOD_R_3",
                    "tangent"],
         "expect": {"chi": -1, "gaps": [1, 3], "tangent": 2},
         "flow_depth": 4, "tangent_depth": 6},
        {"curve": {"p": 3, "f": ["-1", "0", "0", "0", "1"]},
         "point": {"type": "algebra"}, "window": [-18, 30],
         "checks": ["chi", "sigma", "algebra", "SIGMA_R"],
         "expect": {"chi": -2}, "flow_depth": 3},
        {"curve": {"p": 2, "f": ["-1", "0", "0", "0", "0", "0", "1"]},
         "point": {"type": "algebra"}, "window": [-16, 28],
         "checks": ["chi", "sigma", "SIGMA_NR", "MOD_NR_3", "CONN_i",
                    "connectedness"],
         "expect": {"chi": -1, "CONN_i": False,
                    "connectedness": {"1": False, "2": False}},
         "flow_depth": 3},
        {"model": {"p": 2, "case": "NR"}, "point": {"type": "lines"},
         "window": [-8, 8],
         "checks": ["chi", "sigma", "connectedness", "CONN_i", "isotropy"],
         "expect": {"chi": 2, "CONN_i": True, "isotropy": False,
                    "connectedness": {"1": True, "2": True}},
         "flow_depth": 3},
        {"model": {"p": 2, "case": "R"},
         "point": {"type": "u_n", "n": 1, "N": -1}, "window": [-8, 8],
         "checks": ["isotropy", "BKP_GEN"], "flow_depth": 4},
    ]
    flips = []
    for cfg in fixtures:
        base = run(dict(cfg))
        grown = dict(cfg)
        lo, hi = cfg["window"]
        grown["window"] = [lo - 4, hi + 4]
        grown["jet_cap"] = cfg.get("jet_cap", 1) + 1
        bigger = run(grown)
        for name, res in base["checks"].items():
            v0 = res["verdict"]
            v1 = bigger["checks"][name]["verdict"]
            if v0 in ("pass", "fail") and v1 in ("pass", "fail") and v0 != v1:
                flips.append((name, v0, v1, cfg.get("curve") or cfg.get("point")))
    assert not flips, flips
    announce(10, "no pass/fail verdict flips under window +4 and cap +1 "
                 "across %d fixtures" % len(fixtures))
