import random
from fractions import Fraction

import pytest

from conftest import random_point

from prymlab.baker import (
    BAFunction,
    IdentityValue,
    adjoint_baker,
    ba_transform_check,
    baker_akhiezer,
    identity_case,
    identity_ring,
    normalizing_element,
    residue_identity_eval,
    v_over_z,
)
from prymlab.errors import BigCellError, FrameError, WindowError
from prymlab.grass import build_frame, lines_point, u_n_point, v_minus
from prymlab.jets import JetRing
from prymlab.krichever import CurveSpec, algebra_point
from prymlab.vseries import (
    INF,
    Model,
    VSeries,
    flow_exponential,
    residue_pairing,
    wedge_residue,
)


def scalar_ring(p):
    return JetRing.scalar(p)


def test_normalizing_element_nr():
    m = Model(3, "NR")
    R = scalar_ring(3)
    v4 = normalizing_element(m, R, 4)  # 4 = 3*1 + 1
    assert [sorted(d) for d in v4.comps] == [[2], [1], [1]]
    v_m4 = normalizing_element(m, R, -4)
    assert [sorted(d) for d in v_m4.comps] == [[-2], [-1], [-1]]
    prod = v4 * v_m4
    assert prod.pos_coeff(0) is not None
    # v_m * v_{-m} = 1
    one = VSeries.one(m, R)
    assert (prod - one).is_zero_certified()


def test_monomial_point_wave_is_pure_flow():
    # V^- translate: every correction vanishes, psi = flow exactly
    m = Model(2, "R")
    ring, blocks = identity_ring(m, ("t",), 3, 2)
    U = v_minus(m, ring)
    ba = baker_akhiezer(U, blocks["t"])
    assert ba.big_cell
    from prymlab.vseries import flow_exponential
    g = flow_exponential(m, ring, blocks["t"])
    E = v_over_z(m, ring, 0) * g
    assert ba.u.same_data(E)
    # psi = flow exactly
    assert ba.psi.same_data(g)
    # psi(0) = 1
    const = {e: c.constant_term() for e, c in ba.psi.comps[0].items()
             if not c.constant_term().is_zero()}
    assert const == {0: ba.ring.one().constant_term()}


def test_wave_stays_in_point_random():
    rng = random.Random(11)
    for case, p in (("R", 2), ("NR", 2), ("R", 3)):
        m = Model(p, case)
        ring, blocks = identity_ring(m, ("t",), 3, 2)
        for _ in range(4):
            U = random_point(rng, m, scalar_ring(p)).lifted(ring)
            ba = baker_akhiezer(U, blocks["t"], require_big_cell=False)
            assert U.membership(ba.u)


def test_big_cell_error_on_gapped_point():
    # pivots 0,-2,-4,...: kernel at 0 for v_{-1}: not transverse
    m = Model(2, "R")
    ring, blocks = identity_ring(m, ("t",), 2, 1)
    rows = [VSeries.monomial(m, ring, 1, -e) for e in (0, 2, 4, 5, 6)]
    U = build_frame(m, ring, rows, tail=(-6,))
    assert U.index_chi() == -1
    with pytest.raises(BigCellError):
        baker_akhiezer(U, blocks["t"])
    ba = baker_akhiezer(U, blocks["t"], require_big_cell=False)
    assert not ba.big_cell
    assert U.membership(ba.u)


def test_adjoint_adjoint_is_identity_on_monomial_points():
    m = Model(2, "R")
    ring, blocks = identity_ring(m, ("t",), 2, 1)
    U = v_minus(m, ring)
    ba = baker_akhiezer(U, blocks["t"])
    adj = adjoint_baker(U, blocks["t"])
    dd = adjoint_baker(U.orthogonal(), {k: -c for k, c in blocks["t"].items()},
                       dual=U.orthogonal().orthogonal())
    assert dd.u.same_data(ba.u)


def test_pairing_of_wave_families_vanishes():
    # <u(t), u*(s)> = 0: U and its orthogonal annihilate each other
    rng = random.Random(21)
    for case, p in (("R", 2), ("NR", 2)):
        m = Model(p, case)
        ring, blocks = identity_ring(m, ("t", "s"), 3, 2)
        for _ in range(4):
            U = random_point(rng, m, scalar_ring(p)).lifted(ring)
            ba = baker_akhiezer(U, blocks["t"], require_big_cell=False)
            adj = adjoint_baker(U, blocks["s"], require_big_cell=False)
            assert residue_pairing(ba.u, adj.u).is_zero()


# ------------------------------------------------------------------ identities


def test_sigma_identity_on_invariant_and_broken_points():
    m = Model(2, "R")
    R = scalar_ring(2)
    U = v_minus(m, R)
    val = residue_identity_eval("SIGMA_R", U, depth=3, cap=1)
    assert val.is_zero()
    # adjoin 1 + z1: sigma row is 1 - z1, not a member
    W = build_frame(m, R, [VSeries(m, R, [{0: R.one(), 1: R.one()}], 0)], tail=(0,))
    assert not W.invariance_check()
    val2 = residue_identity_eval("SIGMA_R", W, depth=3, cap=1)
    assert not val2.is_zero()


def test_sigma_identity_nr():
    m = Model(2, "NR")
    R = scalar_ring(2)
    U = lines_point(m, R)
    assert residue_identity_eval("SIGMA_NR", U, depth=3, cap=1).is_zero()
    # big-cell index-0 point with one sigma-breaking perturbed row
    row = VSeries(m, R, [{-1: R.one()}, {1: R.const(3)}], -1)
    W = build_frame(m, R, [row], tail=(-1, -1))
    assert not W.invariance_check()
    assert not residue_identity_eval("SIGMA_NR", W, depth=3, cap=1).is_zero()


def test_mod3_identity_tracks_unit_membership():
    m = Model(2, "R")
    R = scalar_ring(2)
    with_one = build_frame(m, R, [VSeries.one(m, R)], tail=(0,))
    assert residue_identity_eval("MOD_R_3", with_one, depth=4, cap=1).is_zero()
    without_one = v_minus(m, R)
    assert not residue_identity_eval("MOD_R_3", without_one, depth=4, cap=1).is_zero()


def test_mod2_identity_tracks_products():
    m = Model(2, "R")
    R = scalar_ring(2)
    good = build_frame(m, R, [VSeries.one(m, R)], tail=(0,))
    assert residue_identity_eval("MOD_R_2", good, depth=3, cap=1).is_zero()
    # big-cell chi=1 point containing 1, with a row whose square escapes
    gen = VSeries(m, R, [{-1: R.one(), 1: R.one()}], -1)
    bad = build_frame(m, R, [VSeries.one(m, R), gen], tail=(-1,))
    assert bad.index_chi() == 1
    assert not bad.algebra_point_check()
    assert not residue_identity_eval("MOD_R_2", bad, depth=3, cap=1).is_zero()


def test_bkp_identity_matches_isotropy_on_u_n():
    m = Model(2, "R")
    R = scalar_ring(2)
    iso = u_n_point(m, R, 1, -1)
    ok, _ = iso.isotropy_check()
    assert ok
    assert residue_identity_eval("BKP_GEN", iso, depth=4, cap=1).is_zero()
    not_iso = u_n_point(m, R, 1, 0)
    ok2, _ = not_iso.isotropy_check()
    assert not ok2
    assert not residue_identity_eval("BKP_GEN", not_iso, depth=4, cap=1).is_zero()


def test_conn_identity_matches_membership():
    m = Model(2, "NR")
    R = scalar_ring(2)
    L = lines_point(m, R)
    val = residue_identity_eval("CONN_i", L, depth=3, cap=1)
    assert val.is_zero()  # e_i in U: every component residue vanishes
    # V-: no idempotent inside
    U = v_minus(m, R)
    val2 = residue_identity_eval("CONN_i", U, depth=3, cap=1)
    assert not val2.is_zero()
    single = residue_identity_eval("CONN_1", U, depth=3, cap=1)
    assert not single.is_zero()


def test_identity_tag_model_mismatch():
    m = Model(2, "R")
    U = v_minus(m, scalar_ring(2))
    with pytest.raises(ValueError):
        residue_identity_eval("SIGMA_NR", U)


# ------------------------------------------------------------------ transform law


def test_ba_transform_on_monomial_points():
    for case, p in (("R", 2), ("R", 3), ("NR", 2), ("NR", 3)):
        m = Model(p, case)
        U = v_minus(m, scalar_ring(p))
        assert ba_transform_check(U, depth=3, cap=1)


def test_ba_transform_on_invariant_points():
    m = Model(2, "R")
    R = scalar_ring(2)
    rows = [VSeries.monomial(m, R, 1, -e) for e in (0, 2, 4, 5, 6)]
    U = build_frame(m, R, rows, tail=(-6,))
    assert U.invariance_check()
    assert ba_transform_check(U, depth=2, cap=1)


def test_ba_transform_on_swapped_nr_point():
    m = Model(2, "NR")
    R = scalar_ring(2)
    # non-invariant monomial point: component floors differ
    g = VSeries(m, R, [{1: R.one()}, {0: R.one()}], 0, INF)
    U = v_minus(m, R).group_act(g)
    assert U.index_chi() == 1
    assert ba_transform_check(U, depth=2, cap=1)


def test_generating_property_on_big_cell_points():
    # each first-order jet coefficient of u(t) is a frame row (leading
    # position m-1-j) up to window precision
    rng = random.Random(33)
    for case, p in (("R", 2), ("NR", 2)):
        m = Model(p, case)
        ring, blocks = identity_ring(m, ("t",), 3, 1)
        U = v_minus(m, JetRing.scalar(p)).lifted(ring)
        ba = baker_akhiezer(U, blocks["t"])
        assert ba.big_cell
        for key, var in blocks["t"].items():
            mono = next(iter(var.terms))
            coeff = ba.u.map_coeffs(lambda c: ring.const(c.coeff(mono)))
            if coeff.is_zero_certified():
                continue
            assert U.membership(coeff)
            j = key if m.case == "R" else key[1]
            if m.case == "R":
                assert coeff.leading_position() == U.index_chi() - 1 - j


# ------------------------------------------------------------------ reference
# The evaluator as it stood before the family builder and the identity
# table: per-tag branches, kernel counts and completions worked out next to
# the wave solve.  The rewrite must reproduce it value for value.


def _ref_normalizing_element(model, ring, m):
    if model.case == "R":
        return VSeries.monomial(model, ring, 1, m)
    sign = 1 if m >= 0 else -1
    q, r = divmod(abs(m), model.p)
    comps = []
    for i in range(1, model.p + 1):
        a = q + 1 if i <= r else q
        comps.append({sign * a: ring.one()})
    lo = min(min(d) for d in comps)
    return VSeries(model, ring, comps, lo, INF)


def _ref_v_over_z(model, ring, m):
    v = _ref_normalizing_element(model, ring, m)
    comps = [{e - 1: c for e, c in d.items()} for d in v.comps]
    return VSeries(model, ring, comps, v.lo - 1, INF)


def _ref_baker_akhiezer(U, coords, *, require_big_cell=True):
    model, ring = U.model, U.ring
    cdict = coords
    ring2 = None
    for c in cdict.values():
        if hasattr(c, "ring"):
            ring2 = c.ring
            break
    if ring2 is not None and not ring.compatible(ring2):
        U = U.lifted(ring2)
        ring = ring2
    m = U.index_chi()
    g = flow_exponential(model, ring, cdict)
    E = _ref_v_over_z(model, ring, m) * g
    residual, used, blocked = U.reduce(E)
    if blocked:
        raise WindowError(
            "wave solve needs rows below the stored window (positions %s); "
            "use fewer flow indices or a deeper frame" % sorted(blocked))
    u = E - residual
    vm = _ref_normalizing_element(model, ring, m)
    zone_floor = {i + 1: min(d) for i, d in enumerate(vm.comps)}
    kernel = []
    for n in U.pivot_positions():
        comp, e = model.unpos(n)
        if e >= zone_floor[comp]:
            kernel.append(n)
    if U.tail is not None:
        for i in range(1, model.ncomp + 1):
            if U.tail[i - 1] > zone_floor[i]:
                kernel.append(model.pos(i, zone_floor[i]))
    obstructed = []
    for n, c in residual.pos_items():
        comp, e = model.unpos(n)
        if e < zone_floor[comp] and not c.is_zero():
            obstructed.append(n)
    big_cell = not kernel and not obstructed
    if require_big_cell and not big_cell:
        raise BigCellError(
            "point is not transverse to v_%d V+ (kernel pivots %s, "
            "obstructed positions %s)" % (m, sorted(kernel), sorted(obstructed)))
    inv_comps = [{1 - e: c for e, c in d.items()} for d in vm.comps]
    zv_inv = VSeries(model, ring, inv_comps, min(min(d) for d in inv_comps), INF)
    return BAFunction(ring, u, zv_inv * u, big_cell)


def _ref_kernel_rows(U, m):
    model, ring = U.model, U.ring
    vm = _ref_normalizing_element(model, ring, m)
    zone_floor = {i + 1: min(d) for i, d in enumerate(vm.comps)}
    rows = []
    for n in U.pivot_positions():
        comp, e = model.unpos(n)
        if e >= zone_floor[comp]:
            rows.append(U.rows[n])
    if U.tail is not None:
        for i in range(1, model.ncomp + 1):
            for e in range(zone_floor[i], U.tail[i - 1]):
                rows.append(VSeries.monomial(model, ring, i, e))
    return rows


def _ref_augmented_family(point, coords, ring, label):
    ba = _ref_baker_akhiezer(point, coords, require_big_cell=False)
    fam = ba.u
    if not ba.big_cell:
        kern = _ref_kernel_rows(point.lifted(ring), point.index_chi())
        for idx, row in enumerate(kern):
            name = "%sx%d" % (label, idx + 1)
            if name not in ring.index:
                break
            fam = fam + row.scale(ring.var(name))
    return fam, ba


def _ref_kernel_count(point, label):
    m = point.index_chi()
    return label, len(_ref_kernel_rows(point, m))


def _ref_residue_identity_eval(tag, U, *, depth=4, cap=1, dual=None):
    model = U.model
    want = identity_case(tag)
    if want is not None and model.case != want:
        raise ValueError("identity %s applies to the %s model" % (tag, want))
    if tag == "BKP_GEN":
        labels = ("t", "s", "u", "w", "v")[: model.p]
        ext = dict(_ref_kernel_count(U, l) for l in labels)
        ring, blocks = identity_ring(model, labels, depth, model.p * cap, ext)
        UL = U.lifted(ring)
        fams = [_ref_augmented_family(UL, blocks[l], ring, l) for l in labels]
        value = wedge_residue([f for f, _ in fams])
        return IdentityValue(value, {"psi": fams[0][1].big_cell})
    if dual is None:
        dual = U.orthogonal()
    elif isinstance(dual, (WindowError, FrameError)):
        raise dual
    if tag in ("SIGMA_R", "SIGMA_NR", "MOD_R_1", "MOD_NR_1"):
        sig = U.sigma_point()
        ext = dict([_ref_kernel_count(sig, "t"), _ref_kernel_count(dual, "s")])
        ring, blocks = identity_ring(model, ("t", "s"), depth, 2 * cap, ext)
        fam, ba = _ref_augmented_family(sig.lifted(ring), blocks["t"], ring, "t")
        adj, ba2 = _ref_augmented_family(
            dual.lifted(ring), {k: -c for k, c in blocks["s"].items()}, ring, "s")
        value = residue_pairing(fam, adj)
        return IdentityValue(value, {"psi": ba.big_cell, "psi*": ba2.big_cell})
    if tag in ("MOD_R_2", "MOD_NR_2"):
        ext = dict([_ref_kernel_count(U, "t"), _ref_kernel_count(U, "s"),
                    _ref_kernel_count(dual, "u")])
        ring, blocks = identity_ring(model, ("t", "s", "u"), depth, 3 * cap, ext)
        UL = U.lifted(ring)
        f1, b1 = _ref_augmented_family(UL, blocks["t"], ring, "t")
        f2, _ = _ref_augmented_family(UL, blocks["s"], ring, "s")
        adj, b3 = _ref_augmented_family(
            dual.lifted(ring), {k: -c for k, c in blocks["u"].items()}, ring, "u")
        value = residue_pairing(f1 * f2, adj)
        return IdentityValue(value, {"psi": b1.big_cell, "psi*": b3.big_cell})
    if tag in ("MOD_R_3", "MOD_NR_3"):
        ext = dict([_ref_kernel_count(dual, "t")])
        ring, blocks = identity_ring(model, ("t",), depth, cap, ext)
        adj, ba = _ref_augmented_family(
            dual.lifted(ring), {k: -c for k, c in blocks["t"].items()}, ring, "t")
        value = residue_pairing(VSeries.one(model, ring), adj)
        return IdentityValue(value, {"psi*": ba.big_cell})
    if tag == "CONN_i" or tag.startswith("CONN_"):
        which = None
        if tag not in ("CONN_i",):
            which = int(tag.split("_")[1])
        ext = dict([_ref_kernel_count(dual, "t")])
        ring, blocks = identity_ring(model, ("t",), depth, cap, ext)
        adj, ba = _ref_augmented_family(
            dual.lifted(ring), {k: -c for k, c in blocks["t"].items()}, ring, "t")
        values = {}
        for i in range(1, model.p + 1):
            if which is not None and i != which:
                continue
            values[i] = residue_pairing(VSeries.unit_vector(model, ring, i), adj)
        return IdentityValue(values, {"psi*": ba.big_cell})
    raise ValueError("unknown identity tag %r" % tag)


def _outcome(fn, *args, **kwargs):
    try:
        v = fn(*args, **kwargs)
    except Exception as e:  # noqa: BLE001 -- the exception is the outcome
        return "raised", type(e).__name__, str(e)
    return v.witness(), v.is_zero(), v.big_cell


def _zoo():
    """Monomial, line, witness and random off-big-cell frames at p 2/3 in
    both models, and a curve point."""
    pts = []
    for p in (2, 3):
        for case in ("R", "NR"):
            m, R = Model(p, case), scalar_ring(p)
            pts += [v_minus(m, R), u_n_point(m, R, 1, -1), u_n_point(m, R, 1, 0)]
            if case == "NR":
                pts.append(lines_point(m, R))
    rng = random.Random(5)
    off = []
    while len(off) < 6:
        p, case = rng.choice(((2, "R"), (2, "NR"), (3, "R"), (3, "NR")))
        U = random_point(rng, Model(p, case), scalar_ring(p))
        if not baker_akhiezer(U, {}, require_big_cell=False).big_cell:
            off.append(U)
    curve = CurveSpec(2, [Fraction(c) for c in (-1, 0, 0, 0, 0, 1)])
    return pts + off + [algebra_point(curve, 8, 12)]


ZOO_TAGS = ("SIGMA_R", "SIGMA_NR", "BKP_GEN", "MOD_R_1", "MOD_R_2", "MOD_R_3",
            "MOD_NR_1", "MOD_NR_2", "MOD_NR_3", "CONN_i", "CONN_1", "CONN_2")


def test_identity_table_reproduces_the_per_tag_evaluator():
    zoo = _zoo()
    completed = 0
    for U in zoo:
        for tag in ZOO_TAGS:
            # cap 2 at p = 3 puts 6-9 jet variables per block: slow
            for cap, depth in ((0, 2), (1, 1), (1, 2) if U.model.p == 3 else (2, 2)):
                new = _outcome(residue_identity_eval, tag, U, depth=depth, cap=cap)
                old = _outcome(_ref_residue_identity_eval, tag, U, depth=depth, cap=cap)
                assert new == old, (tag, cap, depth, U)
                completed += cap > 0 and new[0] != "raised" and False in new[2].values()
    assert completed > 0  # some families needed the kernel completion


def test_wave_solve_reproduces_the_reference():
    for U in _zoo():
        ring, blocks = identity_ring(U.model, ("t",), 2, 1)
        UL = U.lifted(ring)
        b = _ref_baker_akhiezer(UL, blocks["t"], require_big_cell=False)
        a = baker_akhiezer(UL, blocks["t"], require_big_cell=False)
        assert a.big_cell == b.big_cell
        assert a.u.same_data(b.u) and a.psi.same_data(b.psi)
        if not b.big_cell:
            # the BigCellError text names kernel rows, not pivots
            with pytest.raises(BigCellError):
                baker_akhiezer(UL, blocks["t"])
