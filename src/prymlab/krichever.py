"""Cyclic covers y^p = f(x) marked over x = infinity, and their
Grassmannian points.

The affine curve is smooth (f squarefree); the fiber over infinity is a
single totally ramified point when p does not divide deg f and a free
orbit of p points otherwise, matching the two local models.  Expansions
use the exact parameter x = z^{-1}, z = z1^r for the ramification index r
(z1^{-p} ramified, z^{-1} on each of the p branches non-ramified), with
the y-branch from the principal p-th root; the model's root of unity is
aligned so that the deck transformation y -> zeta*y acts on expansions
exactly as the model's sigma.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import WindowError
from .grass import GrassPoint, build_frame, module_closure
from .jets import JetRing
from .scalars import Cyclo, is_prime
from .vseries import (
    INF,
    BaseSeries,
    Model,
    VSeries,
    pth_root_series,
)


def _poly_mod(a, b):
    a = list(a)
    inv = 1 / b[-1]
    while len(a) >= len(b) and a:
        c = a[-1] * inv
        for j, bj in enumerate(b):
            a[len(a) - len(b) + j] -= c * bj
        while a and not a[-1]:
            a.pop()
    return a


def _is_squarefree(f) -> bool:
    """gcd(f, f') is constant; over Q, which decides it over Q(xi_p) too."""
    a, b = f, [k * c for k, c in enumerate(f)][1:]
    while b:
        a, b = b, _poly_mod(a, b)
    return len(a) == 1


class CurveSpec:
    """The cover y^p = f(x): p prime, f monic squarefree of degree d, its
    coefficients (constant first) held as `Fraction`s."""

    __slots__ = ("p", "f", "d", "case")

    def __init__(self, p: int, f_coeffs):
        if not is_prime(p):
            raise ValueError("p must be prime")
        f = [Fraction(c) for c in f_coeffs]
        while f and not f[-1]:
            f.pop()
        if len(f) < 2:
            raise ValueError("f must be non-constant")
        if f[-1] != 1:
            raise ValueError("f must be monic")
        if not _is_squarefree(f):
            raise ValueError("f must be squarefree (smooth affine model)")
        self.p = p
        self.f = f
        self.d = len(f) - 1
        self.case = "R" if self.d % p != 0 else "NR"

    def model(self) -> Model:
        zeta = Cyclo.xi_power(self.p, 1)
        if self.case == "NR":
            return Model(self.p, "NR", zeta)
        a = (-pow(self.d, -1, self.p)) % self.p
        return Model(self.p, "R", Cyclo.xi_power(self.p, a))

    def __repr__(self):
        return "CurveSpec(p=%d, d=%d, %s)" % (self.p, self.d, self.case)


class FunctionRep:
    """Quotient of polynomial expressions sum a_{ab} x^a y^b (b < p)."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict | None = None):
        self.num = dict(num)
        self.den = dict(den) if den else {(0, 0): 1}

    @staticmethod
    def x():
        return FunctionRep({(1, 0): 1})

    @staticmethod
    def y():
        return FunctionRep({(0, 1): 1})

    @staticmethod
    def one():
        return FunctionRep({(0, 0): 1})

    @staticmethod
    def from_json(obj) -> "FunctionRep":
        """[[a, b, "coeff"], ...] or {"num": [...], "den": [...]}."""
        if isinstance(obj, dict):
            num = obj.get("num", [])
            den = obj.get("den") or [[0, 0, "1"]]
            return FunctionRep(_terms_from_json(num), _terms_from_json(den))
        return FunctionRep(_terms_from_json(obj))


def _terms_from_json(items):
    out = {}
    for a, b, c in items:
        if not all(isinstance(e, int) and not isinstance(e, bool) for e in (a, b)):
            raise TypeError("exponents must be integers, not %r" % ([a, b],))
        out[(a, b)] = rational_from_json(c)
    return out


def rational_from_json(x) -> Fraction:
    """A rational from a config: a JSON integer or a string ("a/b", or
    "0.1" for 1/10).  A JSON float holds the nearest binary double, not the
    decimal it was written as, so it is refused, as are true and false."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise TypeError("a rational must be an integer or a string, not %r" % (x,))
    return Fraction(x)


class CurveExpansion:
    """Cached exact expansions of x and y on a window, over K = Q(xi_p).

    Both local models read the ramification index r = p // ncomp of the
    marked fibre (z = z1^r): x = z^-1 has exponent -r on every branch, and
    y = z^(-d/p) (z^d f(1/z))^(1/p) is one principal p-th root shifted by
    -rd/p, its branch i twisted by xi^-(i-1).

    >>> R = CurveExpansion(CurveSpec(2, [-1, 0, 0, 0, 0, 1]), 8)      # y^2 = x^5 - 1, r = 2
    >>> [list(b) for b in R.x.comps], [min(b) for b in R.y.comps]
    ([[-2]], [-5])
    >>> NR = CurveExpansion(CurveSpec(2, [-1, 0, 0, 0, 0, 0, 1]), 8)  # y^2 = x^6 - 1, r = 1
    >>> [list(b) for b in NR.x.comps], [min(b) for b in NR.y.comps]
    ([[-1], [-1]], [-3, -3])
    """

    def __init__(self, curve: CurveSpec, hi: int):
        self.curve = curve
        self.model = m = curve.model()
        self.ring = R = JetRing.scalar(curve.p)
        self.hi = hi
        p, d, r = curve.p, curve.d, m.ramification_index()
        s = r * d // p
        self._monomials = {(0, 0): VSeries.one(m, R)}
        self.x = VSeries(m, R, [{-r: R.one()} for _ in range(m.ncomp)], -r, INF)
        w = {r * (d - k): R.const(c) for k, c in enumerate(curve.f)}
        u = pth_root_series(BaseSeries(R, w, 0, hi + s), p).terms
        self.y = VSeries(m, R, [{e - s: c * m.xi_pow(-i) if i else c for e, c in u.items()}
                                for i in range(m.ncomp)], -s, hi)

    def check_defining_relation(self) -> bool:
        """y^p - f(x) = 0 on the certified window; the powers of x and y
        are the kept `monomial`s that the generators read."""
        fx = VSeries.zero(self.model, self.ring)
        for k, c in enumerate(self.curve.f):
            fx = fx + self.monomial(k, 0).scale(c)
        return (self.monomial(0, self.curve.p) - fx).is_zero_certified()

    def monomial(self, a: int, b: int) -> VSeries:
        """x^a y^b as 1 * x * ... * x * y * ... * y (a negative exponent
        counts as 0).  Each monomial is kept, so one is its kept prefix
        x^a y^(b-1) or x^(a-1) times one more factor: the same products in
        the same order, with the same values and windows."""
        a, b = max(a, 0), max(b, 0)
        out = self._monomials.get((a, b))
        if out is None:
            out = self.monomial(a, b - 1) * self.y if b else self.monomial(a - 1, 0) * self.x
            self._monomials[(a, b)] = out
        return out

    def expand(self, F: FunctionRep) -> VSeries:
        """Expansion of a function along the marked fiber."""
        num = self._combo(F.num)
        den = self._combo(F.den)
        if any(not d for d in den.comps):
            raise ZeroDivisionError("denominator vanishes identically on a branch")
        return num * den.inverse(hi_out=self.hi + _den_val(den))


    def _combo(self, terms) -> VSeries:
        out = VSeries.zero(self.model, self.ring)
        for (a, b), c in sorted(terms.items()):
            out = out + self.monomial(a, b).scale(c)
        return out


def _den_val(den: VSeries):
    vals = [min(d) for d in den.comps if d]
    return -min(vals) if vals else 0


def puiseux_expand(curve: CurveSpec, hi: int) -> CurveExpansion:
    """Exact branch expansions of (x, y) certified below exponent `hi`."""
    exp = CurveExpansion(curve, hi)
    if not exp.check_defining_relation():
        raise AssertionError("defining relation failed on the window")
    return exp


def algebra_point(curve: CurveSpec, depth: int, height: int | None = None) -> GrassPoint:
    """Krichever point of the coordinate ring: echelon frame of the
    expansions of x^a y^b with pole order at most `depth`.

    The monomial basis is multiplicatively closed modulo y^p = f(x), and
    multiplying by x gives the downward ladder that certifies fullness
    below the stored window.  `height` fixes the certified positive reach
    of every stored row (wave families and pairings need headroom there).
    """
    if height is None:
        height = depth + 12
    exp = puiseux_expand(curve, height)
    p, m = curve.p, exp.model
    r = m.ramification_index()
    s = r * curve.d // p
    # x^a y^b has pole order r*a + s*b in z1 (ramified) or z (non-ramified)
    gens = [exp.monomial(a, b) for b in range(p) for a in range((depth - s * b) // r + 1)]
    return build_frame(m, exp.ring, gens,
                       phi=min(g.pos_window()[1] for g in gens),
                       pivots_full_below=True,
                       max_pivot_bound=m.pos(m.ncomp, 0))


def module_point(curve: CurveSpec, gens, depth: int, height: int | None = None) -> GrassPoint:
    """Krichever point of the coordinate-ring module spanned by `gens`
    (a list of FunctionRep): line-bundle sections via a fractional ideal."""
    if height is None:
        height = depth + 12
    exp = puiseux_expand(curve, height)
    vecs = [exp.expand(F) for F in gens]
    algebra = [exp.x, exp.y]
    floor = exp.model.pos(1, -depth)
    point = module_closure(exp.model, exp.ring, vecs, algebra,
                           phi=min(v.pos_window()[1] for v in vecs),
                           floor=floor)
    if not point.rows:
        raise ValueError("every generator expands to zero in the window")
    return point


def curve_invariants(curve: CurveSpec, depth: int | None = None) -> dict:
    """Genus (1 - chi, checked against Riemann-Hurwitz: `WindowError` if the
    depth misses gaps), gap orders, case data and the Prym degree bookkeeping."""
    p, d = curve.p, curve.d
    if depth is None:
        depth = (p - 1) * (d - 1) + p + 2
    point = algebra_point(curve, depth)
    chi = point.index_chi()
    genus = 1 - chi
    rh_genus = (p - 1) * (d - 1 if d % p else d - 2) // 2
    if genus != rh_genus:
        raise WindowError("genus 1 - chi = %d at depth %d, Riemann-Hurwitz gives %d"
                          % (genus, depth, rh_genus), suggest=max(2 * rh_genus - depth, 1))
    gbar = 0
    prym_degree = (genus - 1) - (p - 2) * (gbar - 1)
    return {
        "p": p,
        "degree": d,
        "case": curve.case,
        "chi": chi,
        "genus": genus,
        "riemann_hurwitz_genus": rh_genus,
        "gaps": point.gap_orders(),
        "quotient_genus": gbar,
        "prym_degree": prym_degree,
        "ramified_at_infinity": curve.case == "R",
        "tangent_expected": genus - gbar,
    }
