"""Jet-coordinate models of the formal groups attached to the cover.

Flow coordinates are finitely supported maps from flow indices to
nilpotent jet elements: index j for the base curve and the ramified
cover, pairs (i, j) with a component i for the non-ramified cover.  A
flow is held as its log L = sum_j t_j z_.^-j (`vseries.flow_log`), on
which the group law is addition and the exponential map to elements of V
is `vseries_exp`.  The maps of the formal jacobians are then V's own:
the norm is the trace (Nm exp L = exp Tr L), the pullback is the
inclusion of the base into V, and sigma* is sigma.
"""

from __future__ import annotations

from fractions import Fraction

from .jets import JetPoly, JetRing
from .scalars import Cyclo
from .vseries import RAMIFIED, BaseSeries, Model, VSeries, _isinf, flow_log, vseries_exp


class FlowCoords:
    """Finitely supported nilpotent coordinates on a formal jacobian.

    `log` is the flow's log: `flow_log`(model, ring, coords) in V for a
    cover flow, sum_j b_j z^-j for a base flow (keys read as on the
    ramified model).  `coords` reads the keys back off the log.
    """

    __slots__ = ("model", "kind", "log")

    def __init__(self, model: Model, ring: JetRing, kind: str, coords: dict):
        if kind == "cover":
            log = flow_log(model, ring, coords)
        elif kind == "base":
            (terms,) = flow_log(Model(model.p, RAMIFIED, model.xi), ring, coords).comps
            log = BaseSeries(ring, terms)
        else:
            raise ValueError("kind must be 'cover' or 'base'")
        self.model = model
        self.kind = kind
        self.log = log

    @staticmethod
    def _of_log(model: Model, kind: str, log) -> "FlowCoords":
        """The coordinates whose log is `log`."""
        out = object.__new__(FlowCoords)
        out.model, out.kind, out.log = model, kind, log
        return out

    @property
    def ring(self) -> JetRing:
        return self.log.ring

    @property
    def coords(self) -> dict:
        comps = (self.log.terms,) if self.kind == "base" else self.log.comps
        if len(comps) == 1:
            return {-e: c for e, c in comps[0].items()}
        return {(i, -e): c for i, d in enumerate(comps, 1) for e, c in d.items()}

    def get(self, key) -> JetPoly:
        return self.coords.get(key, self.ring.zero())

    def __eq__(self, other):
        if not isinstance(other, FlowCoords):
            return NotImplemented
        return (self.model, self.kind) == (other.model, other.kind) \
            and self.coords == other.coords

    def scale(self, c) -> "FlowCoords":
        return FlowCoords._of_log(self.model, self.kind, self.log * c)

    def add(self, other: "FlowCoords") -> "FlowCoords":
        if self.kind != other.kind:
            raise ValueError("cannot add %s and %s coordinates" % (self.kind, other.kind))
        return FlowCoords._of_log(self.model, self.kind, self.log + other.log)

    def element(self) -> VSeries:
        """Exponential flow element of Gamma_V (cover) or Gamma (base).

        A base log is included into V and exponentiated there; the
        inclusion of the base algebra is a ring map, so this is the image
        of the z-exponential.
        """
        if self.kind == "cover":
            return vseries_exp(self.log)
        return vseries_exp(base_to_v(self.model, self.ring, self.log))


def base_to_v(model: Model, ring: JetRing, b: BaseSeries) -> VSeries:
    """Image of a z-series under the inclusion of the base into V."""
    r = model.ramification_index()
    return VSeries(model, ring, [{r * e: c for e, c in b.terms.items()}
                                 for _ in range(model.ncomp)],
                   r * b.lo, b.hi if _isinf(b.hi) else r * b.hi)


# ----------------------------------------------------------------- coordinate maps


def jac_coord_map(kind: str, c: FlowCoords) -> FlowCoords:
    """The norm, pullback and sigma maps of the formal jacobians, on logs.

    norm: cover -> base, the trace Tr L (b_i = p * t_{ip} ramified,
    b_j = sum_i t_j^(i) non-ramified).  pullback: base -> cover, the
    inclusion of the base into V (t_{pj} = b_j ramified, t_j^(i) = b_j).
    sigma_star: cover -> cover, sigma (t_j -> xi^{-j} t_j ramified, the
    component shift non-ramified).
    """
    maps = {"norm": ("cover", "base", VSeries.trace),
            "pullback": ("base", "cover", lambda b: base_to_v(c.model, c.ring, b)),
            "sigma_star": ("cover", "cover", VSeries.sigma)}
    if kind not in maps:
        raise ValueError("unknown coordinate map %r" % kind)
    source, target, on_log = maps[kind]
    if c.kind != source:
        raise ValueError("%s maps %s coordinates to %s coordinates" % (kind, source, target))
    return FlowCoords._of_log(c.model, target, on_log(c.log))


def sigma_minus_id(c: FlowCoords) -> FlowCoords:
    """Coordinates of sigma*(g) / g (the literal one-step map)."""
    return jac_coord_map("sigma_star", c).add(c.scale(-1))


def prym_membership_coords(c: FlowCoords) -> bool:
    """Does the flow lie in the formal Prym (kernel of the norm)?"""
    if c.kind != "cover":
        raise ValueError("Prym membership applies to cover coordinates")
    return not jac_coord_map("norm", c).coords


def prym_complement(c: FlowCoords) -> FlowCoords:
    """Projection onto the formal Prym: the composite of (id - sigma*^i),
    which is p*c - pullback(norm(c)).

    In coordinates: p*t_j for p not dividing j and 0 otherwise (ramified);
    p*t_j^(i) - sum_k t_j^(k) (non-ramified).  Output always satisfies
    `prym_membership_coords`.
    """
    if c.kind != "cover":
        raise ValueError("the Prym projection applies to cover coordinates")
    back = jac_coord_map("pullback", jac_coord_map("norm", c))
    return c.scale(c.model.p).add(back.scale(-1))


def multiply_map(u: FlowCoords, b: FlowCoords) -> FlowCoords:
    """m: Prym x J(base) -> J(cover), (g', h) -> g' * pullback(h)."""
    return u.add(jac_coord_map("pullback", b))


def split_map(c: FlowCoords):
    """Inverse direction of `multiply_map`: coordinates (u, b) with
    m(u, b) = c, u in the Prym; exists uniquely in characteristic zero:
    b = norm(c) / p and u = c - pullback(b)."""
    b = jac_coord_map("norm", c).scale(Fraction(1, c.model.p))
    u = c.add(jac_coord_map("pullback", b).scale(-1))
    return u, b


def prop_prym_report(c: FlowCoords) -> dict:
    """Executable form of the expected formal-Prym properties.

    Checks, exactly in the jet ring: (1) the Prym projection has constant
    norm; (3) the multiplication map is a coordinate bijection; (4)/(5)
    the projection-norm pair composed with multiplication acts as the
    p-th power map in both orders.  Also records the one-step variant
    sigma*(g)/g, whose cover coefficient is xi^{-j} - 1 (equal to -p only
    for p = 2).
    """
    m, ring, p = c.model, c.ring, c.model.p
    a = prym_complement(c)
    nm = jac_coord_map("norm", c)
    report = {}
    report["prym_in_kernel"] = prym_membership_coords(a)
    u, b = split_map(c)
    report["multiply_splits"] = (multiply_map(u, b) == c) and prym_membership_coords(u)
    report["m_after_pair_is_pth_power"] = multiply_map(a, nm) == c.scale(p)
    m_of = multiply_map(u, b)
    a2 = prym_complement(m_of)
    nm2 = jac_coord_map("norm", m_of)
    report["pair_after_m_is_pth_power"] = (a2 == u.scale(p)) and (nm2 == b.scale(p))
    # the literal one-step map scales cover coordinate j by xi^{-j} - 1,
    # which equals -p only for p = 2; recorded, not asserted as the law
    single = sigma_minus_id(c)
    if m.case == "R":
        report["one_step_matches_xi_factor"] = all(
            single.get(j) == c.get(j) * (m.xi_pow(-j) - Cyclo.one(p))
            for j in c.coords)
        report["one_step_is_complement_up_to_sign"] = (
            p != 2 or single.coords == prym_complement(c.scale(-1)).coords)
    report["ok"] = all(bool(v) for v in report.values())
    return report


# ----------------------------------------------------------------- Pi elements


class PiElement:
    """An invertible element of V with certified constant norm."""

    __slots__ = ("g", "norm_constant")

    def __init__(self, g: VSeries, norm_constant: JetPoly):
        self.g = g
        self.norm_constant = norm_constant


def norm_constancy(g: VSeries):
    """(True, the constant) when Nm(g) is constant on the certified window,
    else (False, first offending z-exponent)."""
    nm = g.norm()
    offenders = sorted(e for e, c in nm.terms.items() if e != 0 and not c.is_zero())
    if offenders:
        return False, offenders[0]
    return True, nm.terms.get(0, g.ring.zero())


def pi_element(g: VSeries) -> PiElement:
    """Certify g as an element of the group Pi (constant norm)."""
    ok, value = norm_constancy(g)
    if not ok:
        raise ValueError("norm is not constant: z^%d coefficient is nonzero" % value)
    return PiElement(g, value)

