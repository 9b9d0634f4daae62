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

On a scalar frame (as `cli.build_point` builds) `wave_solve_blocked`
decides the wave solve before any jet arithmetic: E = (v_m/z_.) * exp-flow
is nonzero at every exponent zone_i - 1 - k, 0 <= k <= ring cap * flow
depth (distinct jet monomials cannot cancel), and a scalar row never writes
below the pivot it clears, so the solve raises exactly at E's positions
under the stored floor outside the tail, when pivots are full below.
A reduced scalar row is also zero at other pivots and in the tail, so
`reduce` uses exactly the rows at E's pivots below its running hi, and a
family's window is E's (min(zone) - 1 - reach, top of phi) met with
theirs and, at cap > 0, its kernel-zone rows'.  `_families` runs the
identity's step on such window shells first: no refused depth costs jets.

Identity tags follow the CLI names: SIGMA_R, SIGMA_NR, BKP_GEN,
MOD_R_1..3, MOD_NR_1..3, CONN_i and CONN_<k>; `identity` decides each.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import WindowError
from .grass import GrassPoint
from .jets import JetRing
from .vseries import (
    INF,
    Model,
    VSeries,
    flow_exponential,
    _residue,
    residue_pairing,
    wedge_residue,
    wedge_step,
)


def _zone(model: Model, m: int) -> list:
    """Per-component exponents of v_m (one component in the ramified case)."""
    sign = 1 if m >= 0 else -1
    q, r = divmod(abs(m), model.ncomp)
    return [sign * (q + 1 if i < r else q) for i in range(model.ncomp)]


def _monomials(model: Model, ring: JetRing, exps) -> VSeries:
    """The monomial vector with z^exps[i] in component i + 1."""
    return VSeries(model, ring, [{e: ring.one()} for e in exps], min(exps), INF)


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
    return rows + U.tail_monomials(zone)


class BAFunction(NamedTuple):
    """Wave family of a point: u(t) in U tensor R, whether the point is on
    the big cell, and `zone`, the exponents of v_m."""

    ring: JetRing
    u: VSeries
    big_cell: bool
    zone: list

    @property
    def psi(self) -> VSeries:
        """(z_./v_m) u, via the exact inverse of the monomial vector."""
        return _monomials(self.u.model, self.ring, [1 - e for e in self.zone]) * self.u


def baker_akhiezer(U: GrassPoint, coords) -> BAFunction:
    """Wave family of U with flow coordinates `coords`, a dict of flow
    index (j, or (i, j) in the non-ramified model) -> jet coefficient of
    U's ring.

    Off the big cell the family is the frame-complement normalization
    described in the module docstring, and `big_cell` is False.  A solve
    that needs rows below U's stored window raises `WindowError` with the
    extension that would supply them.
    """
    model, ring = U.model, U.ring
    m = U.index_chi()
    zone = _zone(model, m)
    E = v_over_z(model, ring, m) * flow_exponential(model, ring, coords)
    residual = U.reduce(E, "wave solve")
    u = E - residual
    # big cell: U cap v_m V+ = 0, and the residual lives in v_m V+ (no
    # obstruction at deep gap positions)
    big_cell = not _kernel_rows(U, m) and all(
        _in_zone(model, zone, n) or c.is_zero() for n, c in residual.pos_items())
    return BAFunction(ring, u, big_cell, zone)


def _wave_support(U: GrassPoint, reach: int) -> list:
    """E's positions, ascending, when its flow exponential reaches z_.^-`reach`."""
    model = U.model
    return sorted(model.pos(i + 1, z - 1 - k)
                  for i, z in enumerate(_zone(model, U.index_chi())) for k in range(reach + 1))


def wave_solve_blocked(U: GrassPoint, reach: int) -> list:
    """Positions below the stored window that the wave solve of a scalar
    frame U needs when its flow exponential reaches z_.^-`reach` (the ring
    cap times the flow depth): where `reduce` would raise."""
    floor = U.stored_floor()
    if floor is None or not U.pivots_full_below:
        return []
    return [n for n in _wave_support(U, reach) if n < floor and not U.in_tail(n)]


def _window_shell(U: GrassPoint, kernel: list, reach: int, cap: int) -> VSeries:
    """The wave family of scalar frame U as a window shell: no terms, the
    family's window (module docstring); `kernel` is U's kernel-zone rows."""
    model = U.model
    support = _wave_support(U, reach)
    lo, hi = model.unpos(support[0])[1], model.exp_window(0, U.phi)[1]
    for n in support:
        row = U.rows.get(n)
        if row is not None and model.unpos(n)[1] < hi:
            lo, hi = min(lo, row.lo), min(hi, row.hi)
    for row in kernel if cap else ():
        lo, hi = min(lo, row.lo), min(hi, row.hi)
    return VSeries(model, U.ring, [{}] * model.ncomp, lo, hi)


def _shell_pairing(a: VSeries, b: VSeries):
    """`residue_pairing`'s window walk, as the plan calls it (untraced)."""
    return _residue((a * b).trace(), "residue pairing needs the z^-1 trace coefficient")


def _shell_wedge(us):
    """`wedge_residue`'s window walk, as the plan calls it (untraced)."""
    minors = None
    for u in us:
        minors = wedge_step(minors, u.coordinates())
    return _residue(*minors.values(), "wedge residue needs the z^-1 determinant coefficient")


def adjoint_baker(U: GrassPoint, coords) -> BAFunction:
    """Wave family of the orthogonal point with negated flow times;
    `coords` is a dict of flow index -> jet coefficient, as for
    `baker_akhiezer`."""
    return baker_akhiezer(U.dual(), {k: -c for k, c in coords.items()})


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


def _families(points: dict, spec, depth: int, cap: int, combine=None) -> tuple:
    """Wave families of the points named in `spec` ("U", "sigma", or the
    "dual" with negated flow times), family i on block `_labels`[i] of one
    jet ring of total cap len(spec) * cap; returns (families, big-cell
    flag of the first "psi" and "psi*" family).  On scalar frames the wave
    solves and `combine` are first decided on windows (module docstring).

    A family off the big cell is completed by its kernel-zone rows, one
    fresh variable `<label>x<k>` each (none at cap 0); the identities are
    multilinear in generating families, so this changes no verdict.
    """
    labels = _labels(len(spec))
    # one kernel and one prejudge per point, in spec order
    kernels = {name: _kernel_rows(points[name], points[name].index_chi())
               for name in dict.fromkeys(spec)}
    reach = len(spec) * cap * depth
    if not points[spec[0]].ring.cap:  # a jet frame is not prejudged
        blocked = {n: wave_solve_blocked(points[n], reach) for n in kernels}
        errors = [points[n].below_window_error("wave solve", b) for n, b in blocked.items() if b]
        if errors:
            # the family that needs the largest extension names the depth's error
            raise max(errors, key=lambda e: e.suggest)
        if combine is not None:
            shells = {n: _window_shell(points[n], kernels[n], reach, cap) for n in kernels}
            combine([shells[n] for n in spec], _shell_pairing, _shell_wedge)
    ring, blocks = identity_ring(points[spec[0]].model, labels, depth, len(spec) * cap,
                                 {label: len(kernels[name]) for label, name in zip(labels, spec)})
    lifts, fams, big_cell = {}, [], {}
    for name, label in zip(spec, labels):
        if name not in lifts:
            lifts[name] = points[name].lifted(ring)
        coords = blocks[label] if name != "dual" else {k: -c for k, c in blocks[label].items()}
        ba = baker_akhiezer(lifts[name], coords)
        fam = ba.u
        if not ba.big_cell and cap > 0:
            for k, row in enumerate(kernels[name], 1):
                fam = fam + row.lift(ring).scale(ring.var("%sx%d" % (label, k)))
        fams.append(fam)
        big_cell.setdefault("psi*" if name == "dual" else "psi", ba.big_cell)
    return fams, big_cell


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


# block labels are letters but x, so no flow variable <label><digits> or
# kernel variable <label>x<k> of one label is a name of another
_LETTERS = "tsuwvabcdefghijklmnopqryz"


def _labels(n: int) -> list:
    """n distinct block labels: t, s, u, w, v, ..., z, then tt, ss, ..."""
    return [_LETTERS[k % len(_LETTERS)] * (k // len(_LETTERS) + 1) for k in range(n)]


def _conn(comps=None) -> Callable:
    """The CONN step: the dual family paired with e_i, i in `comps` (all if None)."""
    return lambda f, pair, wedge: {i: pair(VSeries.unit_vector(f[0].model, f[0].ring, i), f[0])
                                   for i in comps or range(1, f[0].model.p + 1)}


class Identity(NamedTuple):
    """A residue identity: the model `case` it needs (None for both), the
    `key` of the evaluation it shares, `families(p)` as point names for
    `_families`, the `combine` step (given a pairing and a wedge) and the
    default `expect`: True for a law, None for CONN (nonzero: connected)."""

    case: str | None
    key: str
    families: Callable
    combine: Callable
    expect: bool | None = True


_SIGMA = (lambda p: ("sigma", "dual"), lambda f, pair, wedge: pair(f[0], f[1]))
_MOD_2 = (lambda p: ("U", "U", "dual"), lambda f, pair, wedge: pair(f[0] * f[1], f[2]))
_MOD_3 = (lambda p: ("dual",),
          lambda f, pair, wedge: pair(VSeries.one(f[0].model, f[0].ring), f[0]))
# MOD_*_1 is the SIGMA_* pairing: one key.  An evaluation passes the pairing
# and wedge of this module's names when it runs, so a wrapper there sees them
IDENTITIES = {
    "SIGMA_R": Identity("R", "SIGMA_R", *_SIGMA),
    "SIGMA_NR": Identity("NR", "SIGMA_NR", *_SIGMA),
    "BKP_GEN": Identity(None, "BKP_GEN", lambda p: ("U",) * p, lambda f, pair, wedge: wedge(f)),
    "MOD_R_1": Identity("R", "SIGMA_R", *_SIGMA),
    "MOD_R_2": Identity("R", "MOD_R_2", *_MOD_2),
    "MOD_R_3": Identity("R", "MOD_R_3", *_MOD_3),
    "MOD_NR_1": Identity("NR", "SIGMA_NR", *_SIGMA),
    "MOD_NR_2": Identity("NR", "MOD_NR_2", *_MOD_2),
    "MOD_NR_3": Identity("NR", "MOD_NR_3", *_MOD_3),
    "CONN_i": Identity("NR", "CONN_i", _MOD_3[0], _conn(), None),
}


def identity(tag: str, model: Model | None = None) -> Identity:
    """The entry of identity `tag`; CONN_<k> is CONN_i on component k alone.

    Raises ValueError for an unknown tag and, given the point's model,
    for a tag of the other model case or a CONN_<k> with k outside 1..p.
    """
    entry = IDENTITIES.get(tag)
    if entry is None and not tag.startswith("CONN_"):
        raise ValueError("unknown identity tag %r" % tag)
    entry = entry or IDENTITIES["CONN_i"]._replace(key=tag)
    if model is None:
        return entry
    if entry.case not in (None, model.case):
        raise ValueError("identity %s needs the %s model; this point is %s"
                         % (tag, entry.case, model.case))
    if tag not in IDENTITIES:
        k = next((k for k in range(1, model.p + 1) if tag == "CONN_%d" % k), None)
        if k is None:
            raise ValueError("identity %s names no component (CONN_i or CONN_1 .. "
                             "CONN_%d)" % (tag, model.p))
        entry = entry._replace(combine=_conn((k,)))
    return entry


def residue_identity_eval(tag: str, U: GrassPoint, *, depth: int = 4,
                          cap: int = 1) -> IdentityValue:
    """Evaluate one residue identity on U, exactly, with `depth` flow
    indices per time block and truncation degree `cap` per block.  The
    value is zero iff the identity holds through that truncation.  U keeps
    its dual and sigma image, so all evaluations on U share them.
    """
    entry = identity(tag, U.model)
    spec = entry.families(U.model.p)
    points = {name: build() for name, build in (
        ("U", lambda: U), ("dual", U.dual), ("sigma", U.sigma_point)) if name in spec}
    fams, big_cell = _families(points, spec, depth, cap, entry.combine)
    return IdentityValue(entry.combine(fams, residue_pairing, wedge_residue), big_cell)


def certified_identity(tag: str, U: GrassPoint, depth: int, cap: int) -> tuple:
    """(value, flow depth, attempts) of identity `tag` at the largest flow
    depth up to `depth` that U's window certifies; `attempts` is [depth,
    suggest] per depth tried, None for the certified one.  U keeps all three
    under (evaluation key, depth, cap), so SIGMA_* and MOD_*_1 are searched
    once.  If no depth certifies, the `WindowError` carries the `attempts`
    and suggests the window that certifies 1.  On a scalar frame any
    refused depth, whether its wave solve, pairing or wedge refuses it,
    costs only its window walk (exactly; module docstring)."""
    def deepest():
        attempts = []
        for d in range(depth, 0, -1):
            try:
                value = residue_identity_eval(tag, U, depth=d, cap=cap)
                return value, d, attempts + [[d, None]]
            except WindowError as e:
                attempts.append([d, e.suggest])
        error = WindowError("no flow depth certifies", suggest=attempts[-1][1])
        error.attempts = attempts  # fresh: the last error may be a memoized one
        raise error

    try:
        return U.once((identity(tag, U.model).key, depth, cap), deepest)
    except WindowError as e:
        err = WindowError("identity %s not certifiable at any flow depth up to %d "
                          "in this window" % (tag, depth), suggest=e.suggest)
        err.attempts = e.attempts
        raise err from None


def ba_transform_check(U: GrassPoint, *, depth: int = 3, cap: int = 1) -> bool:
    """Exact check of the wave-function transform under sigma.

    Verifies u_{sigma U}(t) = sigma( proj_U( E ) ) with
    E = sigma^{-1}( (v_m/z_.) * g_t ), formed as sigma^(p-1) of the
    product: sigma is a ring automorphism of V, so this is
    sigma^{-1}(v_m/z_.) times the flow of the inverse sigma* of t.  It is
    the frame-normalized form of the block permutation / root-of-unity
    scaling law for Baker-Akhiezer functions.
    """
    model = U.model
    ring, blocks = identity_ring(model, ("t",), depth, cap)
    UL = U.lifted(ring)
    lhs = baker_akhiezer(UL.sigma_point(), blocks["t"])
    E = (v_over_z(model, ring, UL.index_chi())
         * flow_exponential(model, ring, blocks["t"])).sigma_power(model.p - 1)
    residual = UL.reduce(E, "transform check")
    return (lhs.u - (E - residual).sigma()).is_zero_certified()
