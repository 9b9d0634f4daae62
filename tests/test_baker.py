import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import random_point

from prymlab import baker
from prymlab.baker import (
    IdentityValue,
    _labels,
    adjoint_baker,
    ba_transform_check,
    baker_akhiezer,
    certified_identity,
    identity_ring,
    residue_identity_eval,
    v_over_z,
    wave_solve_blocked,
)
from prymlab.errors import FrameError, WindowError
from prymlab.grass import GrassPoint, build_frame, lines_point, u_n_point, v_minus
from prymlab.jets import JetRing
from prymlab.krichever import CurveSpec, FunctionRep, algebra_point, module_point
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


def normalizing_element(model, ring, m):
    """The index-m normalizing element v_m."""
    return baker._monomials(model, ring, baker._zone(model, m))


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
    assert ba.u.comps == E.comps
    # psi = flow exactly
    assert ba.psi.comps == g.comps
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
            ba = baker_akhiezer(U, blocks["t"])
            assert U.membership(ba.u)


def test_big_cell_error_on_gapped_point():
    # pivots 0,-2,-4,...: kernel at 0 for v_{-1}: not transverse
    m = Model(2, "R")
    ring, blocks = identity_ring(m, ("t",), 2, 1)
    rows = [VSeries.monomial(m, ring, 1, -e) for e in (0, 2, 4, 5, 6)]
    U = build_frame(m, ring, rows, tail=(-6,))
    assert U.index_chi() == -1
    ba = baker_akhiezer(U, blocks["t"])
    assert not ba.big_cell
    assert U.membership(ba.u)


def test_adjoint_adjoint_is_identity_on_monomial_points():
    m = Model(2, "R")
    ring, blocks = identity_ring(m, ("t",), 2, 1)
    U = v_minus(m, ring)
    ba = baker_akhiezer(U, blocks["t"])
    adj = adjoint_baker(U, blocks["t"])
    dd = adjoint_baker(U.orthogonal(), {k: -c for k, c in blocks["t"].items()})
    assert dd.u.comps == ba.u.comps


def test_pairing_of_wave_families_vanishes():
    # <u(t), u*(s)> = 0: U and its orthogonal annihilate each other
    rng = random.Random(21)
    for case, p in (("R", 2), ("NR", 2)):
        m = Model(p, case)
        ring, blocks = identity_ring(m, ("t", "s"), 3, 2)
        for _ in range(4):
            U = random_point(rng, m, scalar_ring(p)).lifted(ring)
            ba = baker_akhiezer(U, blocks["t"])
            adj = adjoint_baker(U, blocks["s"])
            assert residue_pairing(ba.u, adj.u).is_zero()


def _y2x5_point(depth=10, height=14):
    return algebra_point(CurveSpec(2, [Fraction(c) for c in (-1, 0, 0, 0, 0, 1)]),
                         depth, height)


def _count_builds(monkeypatch, *names, fail=False):
    """Count calls of the GrassPoint builders `names`; with `fail` they raise."""
    builds = {name: 0 for name in names}
    for name in names:
        build = getattr(GrassPoint, name)

        def counting(self, name=name, build=build):
            builds[name] += 1
            if fail:
                raise FrameError("no %s in this test" % name)
            return build(self)

        monkeypatch.setattr(GrassPoint, name, counting)
    return builds


def test_a_point_builds_its_dual_and_sigma_image_once(monkeypatch):
    builds = _count_builds(monkeypatch, "orthogonal", "_sigma_frame")
    U = _y2x5_point()
    for tag in ("SIGMA_R", "MOD_R_1", "MOD_R_2", "MOD_R_3", "BKP_GEN"):
        for depth in (1, 2, 3):
            try:
                residue_identity_eval(tag, U, depth=depth, cap=1)
            except WindowError:
                pass
    assert builds == {"orthogonal": 1, "_sigma_frame": 1}
    assert U.dual() is U.dual() and U.sigma_point() is U.sigma_point()
    adjoint_baker(U, {})
    assert builds["orthogonal"] == 1


def test_a_dual_that_cannot_be_built_is_tried_once(monkeypatch):
    builds = _count_builds(monkeypatch, "orthogonal", fail=True)
    U = _y2x5_point()
    for tag in ("SIGMA_R", "MOD_R_2", "MOD_R_3"):
        for depth in (1, 2):
            with pytest.raises(FrameError, match="no orthogonal in this test"):
                residue_identity_eval(tag, U, depth=depth, cap=1)
    assert residue_identity_eval("BKP_GEN", U, depth=2, cap=1).is_zero()
    assert builds == {"orthogonal": 1}


def test_the_wave_solve_suggests_the_window_it_needs():
    # flow depth 9 multiplies down past the stored rows of pole depth 10
    ring, blocks = identity_ring(Model(2, "R"), ("t",), 9, 1)
    with pytest.raises(WindowError, match="wave solve needs rows below") as err:
        baker_akhiezer(_y2x5_point().lifted(ring), blocks["t"])
    assert err.value.suggest == 1
    deeper = _y2x5_point(10 + err.value.suggest).lifted(ring)
    assert deeper.membership(
        baker_akhiezer(deeper, blocks["t"]).u)


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


def test_block_labels_never_share_a_variable_name():
    # BKP_GEN takes p blocks, and JetRing refuses a repeated name
    labels = _labels(31)
    assert labels[:5] == ["t", "s", "u", "w", "v"]
    assert len(set(_labels(1000))) == 1000
    ring, _ = identity_ring(Model(31, "R"), labels, 12, 1,
                            {label: 11 for label in labels})
    assert len(ring.names) == 31 * (12 + 11)


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
        for key in blocks["t"]:
            name = "t%d" % key if m.case == "R" else "t%d_%d" % key
            mono = ((ring.index[name], 1),)
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


def _ref_baker_akhiezer(U, coords):
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
    residual = U.reduce(E, "wave solve")
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
    inv_comps = [{1 - e: c for e, c in d.items()} for d in vm.comps]
    zv_inv = VSeries(model, ring, inv_comps, min(min(d) for d in inv_comps), INF)
    return SimpleNamespace(ring=ring, u=u, psi=zv_inv * u, big_cell=big_cell)


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
    ba = _ref_baker_akhiezer(point, coords)
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


def _ref_residue_identity_eval(tag, U, *, depth=4, cap=1):
    model = U.model
    if tag.startswith("CONN_") or tag.endswith("_NR") or "_NR_" in tag:
        want = "NR"
    else:
        want = "R" if tag.endswith("_R") or "_R_" in tag else None
    if want is not None and model.case != want:
        raise ValueError("identity %s needs the %s model; this point is %s"
                         % (tag, want, model.case))
    if tag == "BKP_GEN":
        labels = ("t", "s", "u", "w", "v")[: model.p]
        ext = dict(_ref_kernel_count(U, l) for l in labels)
        ring, blocks = identity_ring(model, labels, depth, model.p * cap, ext)
        UL = U.lifted(ring)
        fams = [_ref_augmented_family(UL, blocks[l], ring, l) for l in labels]
        value = wedge_residue([f for f, _ in fams])
        return IdentityValue(value, {"psi": fams[0][1].big_cell})
    dual = U.orthogonal()
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
        if not baker_akhiezer(U, {}).big_cell:
            off.append(U)
    return pts + off + [_y2x5_point(8, 12)]


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
    off = 0
    for U in _zoo():
        ring, blocks = identity_ring(U.model, ("t",), 2, 1)
        UL = U.lifted(ring)
        b = _ref_baker_akhiezer(UL, blocks["t"])
        a = baker_akhiezer(UL, blocks["t"])
        assert a.big_cell == b.big_cell
        assert a.u.comps == b.u.comps and a.psi.comps == b.psi.comps
        off += a.big_cell is False
    assert off > 0  # off the big cell the frame projection is the family


# ------------------------------------------------------------------ window rule


def _rule_frames():
    """Scalar frames of every kind the CLI builds, each with its dual and
    sigma image: four curves at two windows, a line-bundle module point,
    u_n (R/NR, N in {-1, 0}), lines and v_minus at p 2 and 3."""
    curves = (((2, (-1, 0, 0, 0, 0, 1)), ((10, 14), (16, 26))),
              ((3, (-1, 0, 0, 0, 1)), ((12, 14), (18, 27))),
              ((2, (-1, 0, 0, 0, 0, 0, 1)), ((10, 14), (12, 18))),
              ((3, (1, 2, 0, -1, 0, 0, 0, 3, 0, 0, 1)), ((24, 30), (30, 40))))
    bases = [algebra_point(CurveSpec(p, list(f)), depth, height)
             for (p, f), windows in curves for depth, height in windows]
    bundle = [FunctionRep.one(), FunctionRep({(0, 1): 1}, {(1, 0): 1, (0, 0): -1})]
    bases.append(module_point(CurveSpec(2, [-1, 0, 0, 0, 0, 1]), bundle, 12, 14))
    for p in (2, 3):
        R = scalar_ring(p)
        for case in ("R", "NR"):
            m = Model(p, case)
            bases += [u_n_point(m, R, 1, big_n) for big_n in (-1, 0)] + [v_minus(m, R)]
        bases.append(lines_point(Model(p, "NR"), R))
    frames = []
    for U in bases:
        frames.append(U)
        for derive in (U.dual, U.sigma_point):
            try:
                frames.append(derive())
            except (WindowError, FrameError):
                pass
    return frames


def _solve_outcome(fn):
    try:
        fn()
    except WindowError as e:
        return str(e), e.suggest
    return None


def _rule_outcome(U, reach):
    bad = wave_solve_blocked(U, reach)
    if not bad:
        return None
    error = U.below_window_error("wave solve", bad)
    return str(error), error.suggest


def test_the_window_rule_is_the_wave_solve():
    raised = passed = 0
    for U in _rule_frames():
        assert U.ring.cap == 0
        # spec lengths 1-3 at jet caps 1-2, each family ring cap once
        for n_spec, cap in ((1, 1), (1, 2), (3, 1), (2, 2), (3, 2)):
            labels = _labels(n_spec)
            for depth in range(1, 7):
                ring, blocks = identity_ring(U.model, labels, depth, n_spec * cap)
                solve = _solve_outcome(
                    lambda: baker_akhiezer(U.lifted(ring), blocks[labels[0]]))
                rule = _rule_outcome(U, n_spec * cap * depth)
                assert rule == solve, (U.model, U.stored_floor(), n_spec, cap, depth)
                raised += solve is not None
                passed += solve is None
    assert raised and passed


def test_a_jet_frame_is_not_prejudged(monkeypatch):
    # flow depth 9 multiplies down past the stored rows of pole depth 10
    U = _y2x5_point()
    ring, _ = identity_ring(U.model, ("t",), 9, 1)
    solves, rules = [], []
    solve, rule = baker.baker_akhiezer, baker.wave_solve_blocked
    monkeypatch.setattr(baker, "baker_akhiezer",
                        lambda *a: solves.append(a) or solve(*a))
    monkeypatch.setattr(baker, "wave_solve_blocked",
                        lambda *a: rules.append(a) or rule(*a))
    with pytest.raises(WindowError) as scalar:
        baker._families({"U": U}, ("U",), 9, 1)
    assert len(rules) == 1 and solves == []
    rules.clear()
    with pytest.raises(WindowError) as jet:
        baker._families({"U": U.lifted(ring)}, ("U",), 9, 1)
    assert rules == [] and len(solves) == 1
    assert str(jet.value) == str(scalar.value)
    assert jet.value.suggest == scalar.value.suggest == 1


def test_refused_flow_depths_build_no_jet_ring(monkeypatch):
    # the shape of the benchmark's algebra jobs at p = 2, d = 6, cap 2:
    # y^2 = x^6 - 1 at [-12, 14], flow depth 6
    depths = []
    build = baker.identity_ring
    monkeypatch.setattr(baker, "identity_ring", lambda model, labels, depth, *a:
                        depths.append(depth) or build(model, labels, depth, *a))
    U = algebra_point(CurveSpec(2, [-1, 0, 0, 0, 0, 0, 1]), 12, 14)
    value, used, attempts = certified_identity("SIGMA_NR", U, 6, 2)
    # each refused depth suggests what its neediest family asks for, here
    # the dual's (the sigma family asks for 4 at depth 3, nothing at 2)
    assert value.is_zero() and used == 1
    assert attempts == [[6, 39], [5, 31], [4, 23], [3, 15], [2, 7], [1, None]]
    assert depths == [1]
    # the memo keeps the search: MOD_NR_1 reuses it and builds nothing
    assert certified_identity("MOD_NR_1", U, 6, 2) == (value, used, attempts)
    assert depths == [1]
