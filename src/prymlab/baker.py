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


def _zone(model: Model, m: int) -> list:
    """Per-component exponents of v_m (one component in the ramified case)."""
    if model.case == "R":
        return [m]
    sign = 1 if m >= 0 else -1
    q, r = divmod(abs(m), model.p)
    return [sign * (q + 1 if i < r else q) for i in range(model.p)]


def _monomials(model: Model, ring: JetRing, exps) -> VSeries:
    """The monomial vector with z^exps[i] in component i + 1."""
    return VSeries(model, ring, [{e: ring.one()} for e in exps], min(exps), INF)


def normalizing_element(model: Model, ring: JetRing, m: int) -> VSeries:
    """The index-m normalizing element v_m."""
    return _monomials(model, ring, _zone(model, m))


def v_over_z(model: Model, ring: JetRing, m: int) -> VSeries:
    """v_m / z_. as an exact monomial vector."""
    return _monomials(model, ring, [e - 1 for e in _zone(model, m)])


def _in_zone(model: Model, zone, n: int) -> bool:
    """Whether position n lies in v_m V+, for `zone` the exponents of v_m."""
    comp, e = model.unpos(n)
    return e >= zone[comp - 1]


def _kernel_rows(U: GrassPoint, m: int) -> list:
    """Rows of U in the v_m V+ zone (the directions a big-cell wave solve
    would never reach).  Empty exactly when U cap v_m V+ = 0."""
    model = U.model
    zone = _zone(model, m)
    rows = [U.rows[n] for n in U.pivot_positions() if _in_zone(model, zone, n)]
    if U.tail is not None:
        for i, (floor, t) in enumerate(zip(zone, U.tail)):
            rows.extend(VSeries.monomial(model, U.ring, i + 1, e) for e in range(floor, t))
    return rows


class BAFunction:
    """Wave family of a point: u(t) in U tensor R and psi = (z_./v_m) u."""

    __slots__ = ("ring", "u", "psi", "big_cell")

    def __init__(self, ring, u, psi, big_cell):
        self.ring = ring
        self.u = u
        self.psi = psi
        self.big_cell = big_cell


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
    ring2 = next((c.ring for c in cdict.values() if hasattr(c, "ring")), None)
    if ring2 is not None and not ring.compatible(ring2):
        U = U.lifted(ring2)
        ring = ring2
    m = U.index_chi()
    zone = _zone(model, m)
    E = v_over_z(model, ring, m) * flow_exponential(model, ring, cdict)
    residual, used, blocked = U.reduce(E)
    if blocked:
        raise WindowError(
            "wave solve needs rows below the stored window (positions %s); "
            "use fewer flow indices or a deeper frame" % sorted(blocked))
    u = E - residual
    # big cell: U cap v_m V+ = 0, and the residual lives in v_m V+ (no
    # obstruction at deep gap positions)
    kernel = _kernel_rows(U, m)
    obstructed = [n for n, c in residual.pos_items()
                  if not _in_zone(model, zone, n) and not c.is_zero()]
    big_cell = not kernel and not obstructed
    if require_big_cell and not big_cell:
        raise BigCellError(
            "point is not transverse to v_%d V+ (kernel rows at %s, "
            "obstructed positions %s)"
            % (m, sorted(r.leading_position() for r in kernel), sorted(obstructed)))
    # psi = (z_./v_m) u, via the exact inverse of the monomial vector
    psi = _monomials(model, ring, [1 - e for e in zone]) * u
    return BAFunction(ring, u, psi, big_cell)


def adjoint_baker(U: GrassPoint, coords, *, dual=None,
                  require_big_cell: bool = True) -> BAFunction:
    """Wave family of the orthogonal point with negated flow times."""
    neg = {k: -c for k, c in _flow_coords_dict(coords).items()}
    return baker_akhiezer(U.orthogonal() if dual is None else dual, neg,
                          require_big_cell=require_big_cell)


# ------------------------------------------------------------------ jet blocks


def identity_ring(model: Model, labels, depth: int, cap: int,
                  extensions=None) -> tuple:
    """Jet ring with one flow-variable block per label.

    Returns (ring, {label: coords dict}) where each block holds flow
    indices 1..depth (times p components in the non-ramified case).
    `extensions` reserves kernel-completion variables `<label>x<k>`.
    """
    if model.case == "R":
        keys = {j: "%d" % j for j in range(1, depth + 1)}
    else:
        keys = {(i, j): "%d_%d" % (i, j)
                for i in range(1, model.p + 1) for j in range(1, depth + 1)}
    names = []
    if cap > 0:
        for label in labels:
            names.extend(label + s for s in keys.values())
            names.extend("%sx%d" % (label, k)
                         for k in range(1, (extensions or {}).get(label, 0) + 1))
    ring = JetRing(model.p, tuple(names), cap)
    blocks = {label: {k: ring.var(label + s) for k, s in keys.items()} if cap > 0 else {}
              for label in labels}
    return ring, blocks


def _families(sources, depth: int, cap: int) -> tuple:
    """Wave families of (point, label, flow sign) sources in one jet ring
    of total cap len(sources) * cap; returns (families, big-cell flags).

    A family off the big cell is completed by its kernel-zone rows, one
    fresh variable `<label>x<k>` each (none at cap 0); the identities are
    multilinear in generating families, so this changes no verdict.
    """
    kernels = [_kernel_rows(point, point.index_chi()) for point, _, _ in sources]
    ring, blocks = identity_ring(
        sources[0][0].model, [label for _, label, _ in sources], depth,
        len(sources) * cap, {s[1]: len(k) for s, k in zip(sources, kernels)})
    lifts, fams, cells = {}, [], []
    for (point, label, sign), kernel in zip(sources, kernels):
        if id(point) not in lifts:
            lifts[id(point)] = point.lifted(ring)
        coords = blocks[label] if sign > 0 else {k: -c for k, c in blocks[label].items()}
        ba = baker_akhiezer(lifts[id(point)], coords, require_big_cell=False)
        fam = ba.u
        if not ba.big_cell and cap > 0:
            for k, row in enumerate(kernel, 1):
                fam = fam + row.lift(ring).scale(ring.var("%sx%d" % (label, k)))
        fams.append(fam)
        cells.append(ba.big_cell)
    return fams, cells


class IdentityValue:
    """Exact jet-valued left-hand side of a residue identity."""

    __slots__ = ("value", "big_cell")

    def __init__(self, value, big_cell):
        self.value = value
        self.big_cell = big_cell

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
    if tag.startswith("CONN_") or tag.endswith("_NR") or "_NR_" in tag:
        return "NR"
    return "R" if tag.endswith("_R") or "_R_" in tag else None


def identity_key(tag: str) -> str:
    """The tag whose evaluation `tag` shares: MOD_*_1 is the SIGMA_*
    pairing; every other tag is its own."""
    return {"MOD_R_1": "SIGMA_R", "MOD_NR_1": "SIGMA_NR"}.get(tag, tag)


def conn_components(tag: str, p: int) -> tuple:
    """The components CONN_i (all of them) or CONN_<k> (k, 1 <= k <= p)
    pairs with; empty for any other tag."""
    if tag == "CONN_i":
        return tuple(range(1, p + 1))
    return tuple(k for k in range(1, p + 1) if tag == "CONN_%d" % k)


# each identity's families, as (point, label, flow sign) with the point U,
# its sigma image or the dual, and the step that combines them
_DUAL_T = (("dual", "t", -1),)
_IDENTITIES = {
    "SIGMA": ((("sigma", "t", 1), ("dual", "s", -1)),
              lambda f, comps: residue_pairing(f[0], f[1])),
    "MOD_2": ((("U", "t", 1), ("U", "s", 1), ("dual", "u", -1)),
              lambda f, comps: residue_pairing(f[0] * f[1], f[2])),
    "MOD_3": (_DUAL_T, lambda f, comps: residue_pairing(
        VSeries.one(f[0].model, f[0].ring), f[0])),
    "CONN": (_DUAL_T, lambda f, comps: {i: residue_pairing(
        VSeries.unit_vector(f[0].model, f[0].ring, i), f[0]) for i in comps}),
    "BKP_GEN": (tuple(("U", label, 1) for label in "tsuwv"),
                lambda f, comps: wedge_residue(f)),
}


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
    comps = conn_components(tag, model.p)
    if tag not in IDENTITY_TAGS and not comps:
        raise ValueError("unknown identity tag %r" % tag)
    entry = "CONN" if comps else identity_key(tag).replace("_NR", "").replace("_R", "")
    spec, combine = _IDENTITIES[entry]
    if entry == "BKP_GEN":
        spec = spec[:model.p]
    elif isinstance(dual, (WindowError, FrameError)):
        raise dual
    elif dual is None:
        dual = U.orthogonal()
    points = {"U": U, "dual": dual}
    if entry == "SIGMA":
        points["sigma"] = U.sigma_point()
    sources = [(points[name], label, sign) for name, label, sign in spec]
    fams, cells = _families(sources, depth, cap)
    big_cell = {}
    for (_, _, sign), cell in zip(sources, cells):
        big_cell.setdefault("psi" if sign > 0 else "psi*", cell)
    return IdentityValue(combine(fams, comps), big_cell)


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
    lhs = baker_akhiezer(UL.sigma_point(), blocks["t"], require_big_cell=False)
    # inverse sigma* on coordinates
    tpp = {}
    for key, var in blocks["t"].items():
        if model.case == "R":
            tpp[key] = var * model.xi_pow(key)
        else:
            i, j = key
            tpp[((i - 2) % model.p + 1, j)] = var  # t''^(i) = t^(i+1)
    # sigma^{-1} of the monomial vector v_m/z_., times the substituted flow
    E = v_over_z(model, ring, UL.index_chi()).sigma_power(model.p - 1) \
        * flow_exponential(model, ring, tpp)
    residual, _, blocked = UL.reduce(E)
    if blocked:
        raise WindowError("transform check needs a deeper frame window")
    return (lhs.u - (E - residual).sigma()).is_zero_certified()
