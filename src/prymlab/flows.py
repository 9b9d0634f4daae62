"""Jet-coordinate models of the formal groups attached to the cover.

Flow coordinates are finitely supported maps from flow indices to
nilpotent jet elements: index j for the base curve and the ramified
cover, pairs (i, j) with a component i for the non-ramified cover.  In
these coordinates the group law is addition, the exponential map to
elements of V is `flow_exponential`, and the norm / pullback / sigma
maps of the formal jacobians become the explicit linear substitutions
implemented here.
"""

from __future__ import annotations

from fractions import Fraction

from .jets import JetPoly, JetRing
from .scalars import Cyclo
from .vseries import BaseSeries, Model, VSeries, _isinf, flow_exponential, vseries_exp


class FlowCoords:
    """Finitely supported nilpotent coordinates on a formal jacobian."""

    __slots__ = ("model", "ring", "kind", "coords")

    def __init__(self, model: Model, ring: JetRing, kind: str, coords: dict):
        if kind not in ("cover", "base"):
            raise ValueError("kind must be 'cover' or 'base'")
        clean = {}
        for key, c in coords.items():
            c = ring.const(c)
            if not c.is_nilpotent():
                raise ValueError("flow coordinates must be nilpotent")
            if c.is_zero():
                continue
            if kind == "base" or model.case == "R":
                if isinstance(key, tuple):
                    if key[0] != 1:
                        raise ValueError("single-component coordinates expected")
                    key = key[1]
                if key < 1:
                    raise ValueError("flow indices start at 1")
            else:
                i, j = key
                if not (1 <= i <= model.p) or j < 1:
                    raise ValueError("bad coordinate index %r" % (key,))
            clean[key] = c
        self.model = model
        self.ring = ring
        self.kind = kind
        self.coords = clean

    def get(self, key) -> JetPoly:
        return self.coords.get(key, self.ring.zero())

    def __eq__(self, other):
        if not isinstance(other, FlowCoords):
            return NotImplemented
        return (self.model, self.kind) == (other.model, other.kind) \
            and self.coords == other.coords

    def scale(self, c) -> "FlowCoords":
        return FlowCoords(self.model, self.ring, self.kind,
                          {k: v * c for k, v in self.coords.items()})

    def add(self, other: "FlowCoords") -> "FlowCoords":
        if self.kind != other.kind:
            raise ValueError("cannot add %s and %s coordinates" % (self.kind, other.kind))
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = out.get(k, self.ring.zero()) + v
        return FlowCoords(self.model, self.ring, self.kind, out)

    def element(self) -> VSeries:
        """Exponential flow element of Gamma_V (cover) or Gamma (base).

        Base coordinates are included into V and exponentiated there; the
        inclusion of the base algebra is a ring map, so this is the image
        of the z-exponential.
        """
        if self.kind == "cover":
            return flow_exponential(self.model, self.ring, self.coords)
        arg = BaseSeries(self.ring, {-j: c for j, c in self.coords.items()})
        return vseries_exp(base_to_v(self.model, self.ring, arg))


def base_to_v(model: Model, ring: JetRing, b: BaseSeries) -> VSeries:
    """Image of a z-series under the inclusion of the base into V."""
    r = model.ramification_index()
    return VSeries(model, ring, [{r * e: c for e, c in b.terms.items()}
                                 for _ in range(model.ncomp)],
                   r * b.lo, b.hi if _isinf(b.hi) else r * b.hi)


# ----------------------------------------------------------------- coordinate maps


def jac_coord_map(kind: str, c: FlowCoords) -> FlowCoords:
    """The norm, pullback and sigma maps of the formal jacobians.

    norm: cover -> base, on points: b_i = p * t_{ip} (ramified) or
    b_j = sum_i t_j^(i) (non-ramified).  pullback: base -> cover,
    t_j = b_{j/p} when p | j else 0 (ramified) or t_j^(i) = b_j.
    sigma_star: cover -> cover, t_j -> xi^{-j} t_j or the component shift.
    """
    m, ring, p = c.model, c.ring, c.model.p
    if kind == "norm":
        if c.kind != "cover":
            raise ValueError("norm maps cover coordinates to base coordinates")
        if m.case == "R":
            out = {j // p: v * p for j, v in c.coords.items() if j % p == 0}
        else:
            out = {}
            for (i, j), v in c.coords.items():
                out[j] = out.get(j, ring.zero()) + v
        return FlowCoords(m, ring, "base", out)
    if kind == "pullback":
        if c.kind != "base":
            raise ValueError("pullback maps base coordinates to cover coordinates")
        if m.case == "R":
            out = {p * j: v for j, v in c.coords.items()}
        else:
            out = {(i, j): v for j, v in c.coords.items() for i in range(1, p + 1)}
        return FlowCoords(m, ring, "cover", out)
    if kind == "sigma_star":
        if c.kind != "cover":
            raise ValueError("sigma_star acts on cover coordinates")
        if m.case == "R":
            out = {j: v * m.xi_pow(-j) for j, v in c.coords.items()}
        else:
            out = {(i % p + 1, j): v for (i, j), v in c.coords.items()}
        return FlowCoords(m, ring, "cover", out)
    raise ValueError("unknown coordinate map %r" % kind)


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
    report["prym_in_kernel"] = prym_membership_coords(a) and \
        all(v.is_zero() for v in jac_coord_map("norm", a).coords.values())
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

