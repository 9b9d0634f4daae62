"""Wave functions of Grassmannian points and the residue identities.

For a point U of index m the normalizing element v_m is z1^m in the
ramified case and the monomial vector (z^{q+1},...,z^{q+1},z^q,...,z^q)
with m = p*q + r in the non-ramified one (negative indices through the
inverse).  The wave solve produces the jet family

    u(t) = proj_U( (v_m/z_.) * exp-flow(t) ),

projected along the echelon complement of the frame.  When U is
transverse to v_m V+ (the big cell) this complement equals v_m V+ and
u(t) is exactly the normalized Baker-Akhiezer family: psi = (z_./v_m) u,
psi = flow * (1 + corrections), psi(0) = 1 + O(z_.).  Off the big cell
the classical normalization admits no solution at all; the frame
projection is the canonical substitute, the family still generates U
within the window, and every identity verdict below is insensitive to
the choice (the identities are multilinear in generating families).

Identity tags follow the CLI names: SIGMA_R, SIGMA_NR, BKP_GEN,
MOD_R_1..3, MOD_NR_1..3, CONN_i.
"""

from __future__ import annotations

from .errors import BigCellError, FrameError, WindowError
from .grass import GrassPoint
from .jets import JetRing
from .vseries import (
    INF,
    Model,
    VSeries,
    flow_exponential,
    residue_pairing,
    wedge_residue,
)

IDENTITY_TAGS = (
    "SIGMA_R", "SIGMA_NR", "BKP_GEN",
    "MOD_R_1", "MOD_R_2", "MOD_R_3",
    "MOD_NR_1", "MOD_NR_2", "MOD_NR_3",
    "CONN_i",
)


def normalizing_element(model: Model, ring: JetRing, m: int) -> VSeries:
    """The index-m normalizing element v_m."""
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


def v_over_z(model: Model, ring: JetRing, m: int) -> VSeries:
    """v_m / z_. as an exact monomial vector."""
    v = normalizing_element(model, ring, m)
    comps = [{e - 1: c for e, c in d.items()} for d in v.comps]
    return VSeries(model, ring, comps, v.lo - 1, INF)


class BAFunction:
    """Wave family of a point: u(t) in U tensor R and psi = (z_./v_m) u."""

    __slots__ = ("point", "m_index", "ring", "coords", "u", "psi",
                 "big_cell", "normalization")

    def __init__(self, point, m_index, ring, coords, u, psi, big_cell):
        self.point = point
        self.m_index = m_index
        self.ring = ring
        self.coords = coords
        self.u = u
        self.psi = psi
        self.big_cell = big_cell
        self.normalization = "big-cell" if big_cell else "window-frame"

    def generating(self) -> VSeries:
        return self.u

    def coordinates(self):
        """The p coordinate series of u over the distinguished basis."""
        return self.u.coordinates()


def _flow_coords_dict(coords):
    from .flows import FlowCoords
    if isinstance(coords, FlowCoords):
        return coords.coords
    return coords


def baker_akhiezer(U: GrassPoint, coords, *, require_big_cell: bool = True) -> BAFunction:
    """Wave family of U with flow coordinates `coords`.

    With `require_big_cell` (the default) a point that is not transverse
    to v_m V+ raises `BigCellError`; passing False falls back to the
    frame-complement normalization described in the module docstring.
    """
    model, ring = U.model, U.ring
    cdict = _flow_coords_dict(coords)
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
    E = v_over_z(model, ring, m) * g
    residual, used, blocked = U.reduce(E)
    if blocked:
        raise WindowError(
            "wave solve needs rows below the stored window (positions %s); "
            "use fewer flow indices or a deeper frame" % sorted(blocked))
    u = E - residual
    # big-cell diagnosis: the kernel U cap v_m V+ must vanish and the
    # residual must live in v_m V+ (no obstruction at deep gap positions)
    vm = normalizing_element(model, ring, m)
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
    # psi = (z_./v_m) u, via the exact inverse of the monomial vector
    inv_comps = [{1 - e: c for e, c in d.items()} for d in vm.comps]
    zv_inv = VSeries(model, ring, inv_comps, min(min(d) for d in inv_comps), INF)
    psi = zv_inv * u
    return BAFunction(U, m, ring, cdict, u, psi, big_cell)


def adjoint_baker(U: GrassPoint, coords, *, dual=None,
                  require_big_cell: bool = True) -> BAFunction:
    """Wave family of the orthogonal point with negated flow times."""
    cdict = _flow_coords_dict(coords)
    neg = {k: -c for k, c in cdict.items()}
    if dual is None:
        dual = U.orthogonal()
    return baker_akhiezer(dual, neg, require_big_cell=require_big_cell)


# ------------------------------------------------------------------ jet blocks


def identity_ring(model: Model, labels, depth: int, cap: int,
                  extensions=None) -> tuple:
    """Jet ring with one flow-variable block per label.

    Returns (ring, {label: coords dict}) where each block holds flow
    indices 1..depth (times p components in the non-ramified case).
    `extensions` reserves kernel-completion variables `<label>x<k>`.
    """
    names = []
    if cap > 0:
        for label in labels:
            if model.case == "R":
                names.extend("%s%d" % (label, j) for j in range(1, depth + 1))
            else:
                names.extend("%s%d_%d" % (label, i, j)
                             for i in range(1, model.p + 1)
                             for j in range(1, depth + 1))
            for k in range(1, (extensions or {}).get(label, 0) + 1):
                names.append("%sx%d" % (label, k))
    ring = JetRing(model.p, tuple(names), cap)
    blocks = {}
    for label in labels:
        if cap == 0:
            blocks[label] = {}
        elif model.case == "R":
            blocks[label] = {j: ring.var("%s%d" % (label, j))
                             for j in range(1, depth + 1)}
        else:
            blocks[label] = {(i, j): ring.var("%s%d_%d" % (label, i, j))
                             for i in range(1, model.p + 1)
                             for j in range(1, depth + 1)}
    return ring, blocks


def _kernel_rows(U: GrassPoint, m: int):
    """Rows of U in the v_m V+ zone (the directions a big-cell wave solve
    would never reach). Empty exactly on the big cell."""
    model, ring = U.model, U.ring
    vm = normalizing_element(model, ring, m)
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


def _augmented_family(point: GrassPoint, coords, ring: JetRing, label: str):
    """Wave family of the point, completed by its kernel-zone rows.

    The completion attaches one fresh variable per kernel row (names
    `<label>x1`, ...); on the big cell there is nothing to attach and the
    family is the literal wave family.
    """
    ba = baker_akhiezer(point, coords, require_big_cell=False)
    fam = ba.u
    if not ba.big_cell:
        kern = _kernel_rows(point.lifted(ring), point.index_chi())
        for idx, row in enumerate(kern):
            name = "%sx%d" % (label, idx + 1)
            if name not in ring.index:
                break
            fam = fam + row.scale(ring.var(name))
    return fam, ba


def _kernel_count(point: GrassPoint, label: str) -> tuple:
    m = point.index_chi()
    return label, len(_kernel_rows(point, m))


class IdentityValue:
    """Exact jet-valued left-hand side of a residue identity."""

    __slots__ = ("tag", "value", "cap", "depth", "big_cell", "component")

    def __init__(self, tag, value, cap, depth, big_cell, component=None):
        self.tag = tag
        self.value = value
        self.cap = cap
        self.depth = depth
        self.big_cell = big_cell
        self.component = component

    def is_zero(self) -> bool:
        if isinstance(self.value, dict):
            return all(v.is_zero() for v in self.value.values())
        return self.value.is_zero()

    def witness(self):
        if self.is_zero():
            return None
        if isinstance(self.value, dict):
            for i, v in sorted(self.value.items()):
                if not v.is_zero():
                    return "component %d: %s" % (i, v.to_text())
        return self.value.to_text()


def identity_case(tag: str) -> str | None:
    """The model case ("R" or "NR") an identity tag needs; None for both."""
    if tag.startswith("CONN_"):
        return "NR"
    if tag.endswith("_R") or "_R_" in tag:
        return "R"
    if tag.endswith("_NR") or "_NR_" in tag:
        return "NR"
    return None


def residue_identity_eval(tag: str, U: GrassPoint, *, depth: int = 4,
                          cap: int = 1, dual=None) -> IdentityValue:
    """Evaluate one residue identity on U, exactly, at the given jet cap.

    `depth` is the number of flow indices per independent time block;
    `cap` is the per-block truncation degree (the shared total-degree cap
    is cap * number-of-blocks).  The value is zero iff the identity holds
    through the tested truncation.  `dual` is U.orthogonal(), or the
    WindowError or FrameError that building it raised, if the caller
    already has it; BKP_GEN does not use it.
    """
    model = U.model
    want = identity_case(tag)
    if want is not None and model.case != want:
        raise ValueError("identity %s applies to the %s model" % (tag, want))
    if tag == "BKP_GEN":
        labels = ("t", "s", "u", "w", "v")[: model.p]
        ext = dict(_kernel_count(U, l) for l in labels)
        ring, blocks = identity_ring(model, labels, depth, model.p * cap, ext)
        UL = U.lifted(ring)
        fams = [_augmented_family(UL, blocks[l], ring, l) for l in labels]
        value = wedge_residue([f for f, _ in fams])
        return IdentityValue(tag, value, cap, depth,
                             {"psi": fams[0][1].big_cell})
    # every other identity pairs with the dual point
    if dual is None:
        dual = U.orthogonal()
    elif isinstance(dual, (WindowError, FrameError)):
        raise dual
    if tag in ("SIGMA_R", "SIGMA_NR", "MOD_R_1", "MOD_NR_1"):
        sig = U.sigma_point()
        ext = dict([_kernel_count(sig, "t"), _kernel_count(dual, "s")])
        ring, blocks = identity_ring(model, ("t", "s"), depth, 2 * cap, ext)
        fam, ba = _augmented_family(sig.lifted(ring), blocks["t"], ring, "t")
        adj, ba2 = _augmented_family(
            dual.lifted(ring), {k: -c for k, c in blocks["s"].items()}, ring, "s")
        value = residue_pairing(fam, adj)
        return IdentityValue(tag, value, cap, depth,
                             {"psi": ba.big_cell, "psi*": ba2.big_cell})
    if tag in ("MOD_R_2", "MOD_NR_2"):
        ext = dict([_kernel_count(U, "t"), _kernel_count(U, "s"),
                    _kernel_count(dual, "u")])
        ring, blocks = identity_ring(model, ("t", "s", "u"), depth, 3 * cap, ext)
        UL = U.lifted(ring)
        f1, b1 = _augmented_family(UL, blocks["t"], ring, "t")
        f2, _ = _augmented_family(UL, blocks["s"], ring, "s")
        adj, b3 = _augmented_family(
            dual.lifted(ring), {k: -c for k, c in blocks["u"].items()}, ring, "u")
        value = residue_pairing(f1 * f2, adj)
        return IdentityValue(tag, value, cap, depth,
                             {"psi": b1.big_cell, "psi*": b3.big_cell})
    if tag in ("MOD_R_3", "MOD_NR_3"):
        ext = dict([_kernel_count(dual, "t")])
        ring, blocks = identity_ring(model, ("t",), depth, cap, ext)
        adj, ba = _augmented_family(
            dual.lifted(ring), {k: -c for k, c in blocks["t"].items()}, ring, "t")
        value = residue_pairing(VSeries.one(model, ring), adj)
        return IdentityValue(tag, value, cap, depth, {"psi*": ba.big_cell})
    if tag == "CONN_i" or tag.startswith("CONN_"):
        which = None
        if tag not in ("CONN_i",):
            which = int(tag.split("_")[1])
        ext = dict([_kernel_count(dual, "t")])
        ring, blocks = identity_ring(model, ("t",), depth, cap, ext)
        adj, ba = _augmented_family(
            dual.lifted(ring), {k: -c for k, c in blocks["t"].items()}, ring, "t")
        values = {}
        for i in range(1, model.p + 1):
            if which is not None and i != which:
                continue
            values[i] = residue_pairing(VSeries.unit_vector(model, ring, i), adj)
        return IdentityValue(tag, values, cap, depth,
                             {"psi*": ba.big_cell}, component=which)
    raise ValueError("unknown identity tag %r" % tag)


def ba_transform_check(U: GrassPoint, *, depth: int = 3, cap: int = 1) -> bool:
    """Exact check of the wave-function transform under sigma.

    Verifies u_{sigma U}(t) = sigma( proj_U( sigma^{-1}(v_m/z_.) * g_{t''} ) )
    with t'' the inverse coordinate substitution (xi^j scalings in the
    ramified case, the block shift in the non-ramified one); this is the
    frame-normalized form of the block permutation / root-of-unity
    scaling law for Baker-Akhiezer functions.
    """
    model = U.model
    ring, blocks = identity_ring(model, ("t",), depth, cap)
    UL = U.lifted(ring)
    sig = UL.sigma_point()
    lhs = baker_akhiezer(sig, blocks["t"], require_big_cell=False)
    # inverse sigma* on coordinates
    tpp = {}
    for key, var in blocks["t"].items():
        if model.case == "R":
            tpp[key] = var * model.xi_pow(key)
        else:
            i, j = key
            tpp[((i - 2) % model.p + 1, j)] = var  # t''^(i) = t^(i+1)
    g = flow_exponential(model, ring, tpp)
    m = UL.index_chi()
    voz = v_over_z(model, ring, m)
    voz_prev = voz.sigma_power(model.p - 1)  # sigma^{-1} of the monomial vector
    E = voz_prev * g
    residual, _, blocked = UL.reduce(E)
    if blocked:
        raise WindowError("transform check needs a deeper frame window")
    rhs = (E - residual).sigma()
    diff = lhs.u - rhs
    return diff.is_zero_certified()
