"""The algebra V over a jet ring, with windowed Laurent representation.

Two local models of a prime-order orbit are supported:

* ramified:     V = K((z1)), z = z1^p, sigma(z1) = xi*z1;
* non-ramified: V = K((z)) x ... x K((z)) (p factors), sigma the cyclic
  shift of factors.

Every series carries a window [lo, hi): coefficients are exactly zero
below lo, exactly stored in [lo, hi), and unknown at hi and above.  All
operations propagate the largest window on which the result is provably
exact; nothing is ever guessed.

Positions index the K-basis of V: with ncomp = 1 (ramified) or p
(non-ramified) components, (component i, exponent e) sits at position
n = ncomp*e + (i-1), a rule that only `Model` knows.  In both cases V+ is
{n >= 0} and the class n mod p picks the distinguished-basis coordinate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import inf

from .errors import WindowError
from .jets import JetPoly, JetRing, _add_into, _mul_terms
from .scalars import Cyclo, is_prime

RAMIFIED = "R"
NONRAMIFIED = "NR"

INF = inf


def _ceildiv(a: int, b: int) -> int:
    return -((-a) // b)


def _isinf(x) -> bool:
    return x == INF


class Model:
    """Shape of V: the prime p, the case, and the root of unity used by sigma.

    Component i, exponent e sits at position ncomp*e + (i-1), ncomp = 1 or p:

    >>> R, NR = Model(3, RAMIFIED), Model(3, NONRAMIFIED)
    >>> R.pos(1, -2), R.unpos(-2), R.reflect(-2)
    (-2, (1, -2), -1)
    >>> NR.pos(2, -1), NR.unpos(-2), NR.reflect(-2)
    (-2, (2, -1), 1)
    """

    __slots__ = ("p", "case", "ncomp", "xi", "_xi_pows")

    def __init__(self, p: int, case: str, xi: Cyclo | None = None):
        if not is_prime(p):
            raise ValueError("p must be prime")
        if case not in (RAMIFIED, NONRAMIFIED):
            raise ValueError("case must be 'R' or 'NR'")
        if xi is None:
            xi = Cyclo.xi_power(p, 1)
        if xi ** p != Cyclo.one(p) or xi == Cyclo.one(p):
            raise ValueError("xi must be a primitive p-th root of unity")
        self.p = p
        self.case = case
        self.ncomp = 1 if case == RAMIFIED else p
        self.xi = xi
        self._xi_pows = {0: Cyclo.one(p), 1: xi}

    def xi_pow(self, k: int) -> Cyclo:
        k %= self.p
        v = self._xi_pows.get(k)
        if v is None:
            v = self.xi ** k
            self._xi_pows[k] = v
        return v

    # positions: total order on the K-basis of V --------------------------

    def pos(self, comp: int, e: int) -> int:
        """Linear position of basis vector (component comp in 1..ncomp, exponent e)."""
        return self.ncomp * e + comp - 1

    def unpos(self, n: int):
        return n % self.ncomp + 1, n // self.ncomp

    def reflect(self, n: int) -> int:
        """Position paired dually with n under the residue pairing."""
        return -self.p - n + 2 * (n % self.ncomp)

    def ramification_index(self) -> int:
        """r = p // ncomp: z = z1^r at the marked fibre (p ramified, 1
        non-ramified); also the value of <basis_n, basis_reflect(n)>."""
        return self.p // self.ncomp

    def pos_window(self, lo: int, hi):
        """Exponent window -> linearized position window."""
        return self.ncomp * lo, (INF if _isinf(hi) else self.ncomp * hi)

    def exp_window(self, plo: int, phi):
        """Linearized position window -> covering exponent window."""
        return plo // self.ncomp, (INF if _isinf(phi) else _ceildiv(phi, self.ncomp))

    def __eq__(self, other):
        return (
            isinstance(other, Model)
            and (self.p, self.case, self.xi) == (other.p, other.case, other.xi)
        )

    def __hash__(self):
        return hash((self.p, self.case, self.xi))

    def __repr__(self):
        return "Model(p=%d, %s)" % (self.p, self.case)


class BaseSeries:
    """Windowed Laurent series in z over a jet ring (an element of K((z)) x R)."""

    __slots__ = ("ring", "lo", "hi", "terms")

    def __init__(self, ring: JetRing, terms: dict, lo: int | None = None, hi=INF):
        terms = {e: c for e, c in terms.items() if not c.is_zero()}
        if lo is None:
            lo = min(terms) if terms else 0
        if terms:
            kmin = min(terms)
            if kmin < lo:
                lo = kmin
            terms = {e: c for e, c in terms.items() if e < hi}
        self.ring = ring
        self.lo = lo
        self.hi = hi
        self.terms = terms

    @staticmethod
    def one(ring: JetRing) -> "BaseSeries":
        return BaseSeries(ring, {0: ring.one()}, 0, INF)

    def is_zero_certified(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, BaseSeries):
            return NotImplemented
        t = _add_into(dict(self.terms), other.terms)
        hi = min(self.hi, other.hi)
        return BaseSeries(self.ring, {e: c for e, c in t.items() if e < hi},
                          min(self.lo, other.lo), hi)

    def __neg__(self):
        return BaseSeries(self.ring, {e: -c for e, c in self.terms.items()}, self.lo, self.hi)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo, JetPoly)):
            c = self.ring.const(other)
            return BaseSeries(self.ring, {e: a * c for e, a in self.terms.items()},
                              self.lo, self.hi)
        if not isinstance(other, BaseSeries):
            return NotImplemented
        lo = self.lo + other.lo
        hi = min(self.lo + other.hi, other.lo + self.hi)
        return BaseSeries(self.ring, _mul_terms(self.terms, other.terms, hi), lo, hi)

    __rmul__ = __mul__

    def valuation(self):
        return min(self.terms) if self.terms else None

    def inverse(self, hi_out=None) -> "BaseSeries":
        """Inverse of a series with jet-unit leading coefficient.

        The result window is [-n0, hi - 2*n0) for leading exponent n0; an
        exact (hi = inf) input needs an explicit `hi_out` cutoff.
        """
        if not self.terms:
            raise ZeroDivisionError("inverse of (certified) zero series")
        n0 = min(self.terms)
        c0 = self.terms[n0]
        c0_inv = c0.inverse()
        hi = self.hi if _isinf(self.hi) else self.hi - 2 * n0
        if hi_out is not None:
            hi = min(hi, hi_out)
        if _isinf(hi):
            raise WindowError("inverse of an exact series needs an explicit hi_out")
        out = {-n0: c0_inv}
        for m in range(-n0 + 1, hi):
            acc = self.ring.zero()
            for j, fj in self.terms.items():
                if j == n0:
                    continue
                hk = out.get(m + n0 - j)
                if hk is not None:
                    acc = acc + fj * hk
            if not acc.is_zero():
                out[m] = -(c0_inv * acc)
        return BaseSeries(self.ring, out, -n0, hi)

    def to_text(self) -> str:
        body = ";".join("%d:%s" % (e, self.terms[e].to_text()) for e in sorted(self.terms))
        return "[%s,%s) %s" % (self.lo, self.hi, body)

    def __repr__(self):
        return "BaseSeries<%s>" % self.to_text()


def pth_root_series(f: BaseSeries, p: int) -> BaseSeries:
    """Principal p-th root of f = 1 + (positive-exponent tail).

    J.C.P. Miller's power-series recurrence (Knuth, TAOCP vol. 2, 4.7)
    for g = f^(1/p): g_0 = 1 and
        g_n = (1/n) sum_{k=1..n} ((1 + 1/p) k - n) f_k g_{n-k}.
    g_n reads f through z^n only, so the root is certified on f's own
    window.  An exact f is expanded through its top exponent, which
    bounds the root's window.
    """
    ring = f.ring
    if f.valuation() != 0 or f.terms.get(0) != ring.one():
        raise ValueError("p-th root needs leading term 1")
    if any(e < 0 for e in f.terms):
        raise ValueError("p-th root needs a positive-exponent tail")
    hi = f.hi
    if _isinf(hi):
        hi = max(f.terms) + 1
    tail = sorted((k, c) for k, c in f.terms.items() if k > 0)
    g = {0: ring.one()}
    for n in range(1, hi):
        acc = ring.zero()
        for k, fk in tail:
            if k > n:
                break
            gk = g.get(n - k)
            if gk is not None:
                acc = acc + fk * gk * Fraction((p + 1) * k - p * n, p * n)
        if not acc.is_zero():
            g[n] = acc
    return BaseSeries(ring, g, 0, hi)


class VSeries:
    """Windowed element of V (tensor the jet ring).

    `comps` holds one exponent->JetPoly dict in the ramified case and p of
    them in the non-ramified case; the window [lo, hi) is in z1-exponents
    (ramified) or shared z-exponents (non-ramified).
    """

    __slots__ = ("model", "ring", "lo", "hi", "comps")

    def __init__(self, model: Model, ring: JetRing, comps, lo: int | None = None, hi=INF):
        comps = tuple({e: c for e, c in d.items() if not c.is_zero()} for d in comps)
        if len(comps) != model.ncomp:
            raise ValueError("expected %d components" % model.ncomp)
        keys = [e for d in comps for e in d]
        if lo is None:
            lo = min(keys) if keys else 0
        if keys and min(keys) < lo:
            lo = min(keys)
        comps = tuple({e: c for e, c in d.items() if e < hi} for d in comps)
        self.model = model
        self.ring = ring
        self.lo = lo
        self.hi = hi
        self.comps = comps

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(model: Model, ring: JetRing) -> "VSeries":
        return VSeries(model, ring, [{} for _ in range(model.ncomp)], 0, INF)

    @staticmethod
    def one(model: Model, ring: JetRing) -> "VSeries":
        return VSeries(model, ring, [{0: ring.one()} for _ in range(model.ncomp)], 0, INF)

    @staticmethod
    def monomial(model: Model, ring: JetRing, comp: int, e: int, coeff=1) -> "VSeries":
        """coeff * z^e in component comp (ramified: coeff * z1^e)."""
        if not 1 <= comp <= model.ncomp:
            raise ValueError("component %d outside 1..%d" % (comp, model.ncomp))
        coeff = ring.const(coeff)
        comps = [{} for _ in range(model.ncomp)]
        comps[comp - 1] = {e: coeff}
        return VSeries(model, ring, comps, e, INF)

    @staticmethod
    def basis(model: Model, ring: JetRing, n: int, coeff=1) -> "VSeries":
        """Basis vector at linear position n."""
        comp, e = model.unpos(n)
        return VSeries.monomial(model, ring, comp, e, coeff)

    @staticmethod
    def unit_vector(model: Model, ring: JetRing, i: int) -> "VSeries":
        """The idempotent e_i = (0, ..., 1, ..., 0); in V_R this is e_1 = 1."""
        return VSeries.monomial(model, ring, i, 0)

    @staticmethod
    def from_positions(model: Model, ring: JetRing, data: dict, phi=INF) -> "VSeries":
        """Build from {linear position: coefficient}, certified below position `phi`."""
        comps = [{} for _ in range(model.ncomp)]
        for n, c in data.items():
            c = ring.const(c)
            if c.is_zero():
                continue
            comp, e = model.unpos(n)
            comps[comp - 1][e] = comps[comp - 1].get(e, ring.zero()) + c
        return VSeries(model, ring, comps, None, model.exp_window(0, phi)[1])

    # -- basic views --------------------------------------------------------

    def pos_items(self):
        """Iterate (linear position, coefficient)."""
        for ci, d in enumerate(self.comps):
            for e, c in d.items():
                yield self.model.pos(ci + 1, e), c

    def pos_coeff(self, n: int) -> JetPoly:
        comp, e = self.model.unpos(n)
        return self.comps[comp - 1].get(e, self.ring.zero())

    def pos_window(self):
        return self.model.pos_window(self.lo, self.hi)

    def leading_position(self):
        """Lowest position carrying a nonzero coefficient, or None."""
        ns = [n for n, _ in self.pos_items()]
        return min(ns) if ns else None

    def leading_unit_position(self):
        """Lowest position whose coefficient is a jet unit, or None."""
        ns = [n for n, c in self.pos_items() if c.is_unit()]
        return min(ns) if ns else None

    def support_max(self):
        ns = [n for n, _ in self.pos_items()]
        return max(ns) if ns else None

    def is_zero_certified(self) -> bool:
        return all(not d for d in self.comps)

    def __eq__(self, other):
        if not isinstance(other, VSeries):
            return NotImplemented
        return (
            self.model == other.model
            and self.comps == other.comps
            and (self.lo, self.hi) == (other.lo, other.hi)
        )

    def __hash__(self):
        raise TypeError("VSeries is not hashable")

    # -- ring operations ------------------------------------------------------

    def _check(self, other: "VSeries"):
        if self.model != other.model:
            raise ValueError("mixed models")
        if not self.ring.compatible(other.ring):
            raise ValueError("mixed jet rings")

    def __add__(self, other):
        if not isinstance(other, VSeries):
            return NotImplemented
        self._check(other)
        hi = min(self.hi, other.hi)
        comps = [{e: c for e, c in _add_into(dict(d1), d2).items() if e < hi}
                 for d1, d2 in zip(self.comps, other.comps)]
        return VSeries(self.model, self.ring, comps, min(self.lo, other.lo), hi)

    def __neg__(self):
        return VSeries(self.model, self.ring,
                       [{e: -c for e, c in d.items()} for d in self.comps],
                       self.lo, self.hi)

    def __sub__(self, other):
        if not isinstance(other, VSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "VSeries":
        """Multiply by a scalar or jet element (no z-dependence)."""
        c = self.ring.const(c)
        return VSeries(self.model, self.ring,
                       [{e: a * c for e, a in d.items()} for d in self.comps],
                       self.lo, self.hi)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo, JetPoly)):
            return self.scale(other)
        if not isinstance(other, VSeries):
            return NotImplemented
        self._check(other)
        lo = self.lo + other.lo
        hi = min(self.lo + other.hi, other.lo + self.hi)
        if not _isinf(hi) and hi <= lo:
            raise WindowError(
                "empty result window [%s,%s) in product" % (lo, hi),
                suggest=lo - hi + 1,
            )
        comps = [_mul_terms(d1, d2, hi) for d1, d2 in zip(self.comps, other.comps)]
        return VSeries(self.model, self.ring, comps, lo, hi)

    __rmul__ = __mul__

    def inverse(self, hi_out=None) -> "VSeries":
        """Componentwise inverse; every component needs a jet-unit leading term."""
        outs = []
        win = None
        for d in self.comps:
            b = BaseSeries(self.ring, d, self.lo, self.hi).inverse(hi_out)
            outs.append(b)
            win = (b.lo, b.hi) if win is None else (min(win[0], b.lo), min(win[1], b.hi))
        return VSeries(self.model, self.ring, [b.terms for b in outs], win[0], win[1])

    def truncate(self, hi) -> "VSeries":
        hi = min(self.hi, hi)
        return VSeries(self.model, self.ring,
                       [{e: c for e, c in d.items() if e < hi} for d in self.comps],
                       self.lo, hi)

    def lift(self, ring: JetRing) -> "VSeries":
        return VSeries(self.model, ring,
                       [{e: c.lift(ring) for e, c in d.items()} for d in self.comps],
                       self.lo, self.hi)

    def map_coeffs(self, fn) -> "VSeries":
        return VSeries(self.model, self.ring,
                       [{e: fn(c) for e, c in d.items()} for d in self.comps],
                       self.lo, self.hi)

    # -- the sigma action -------------------------------------------------------

    def sigma(self) -> "VSeries":
        """Apply sigma: coefficient scaling by xi^e (R), cyclic shift (NR)."""
        m = self.model
        if m.case == RAMIFIED:
            d = {e: c * m.xi_pow(e) for e, c in self.comps[0].items()}
            return VSeries(m, self.ring, [d], self.lo, self.hi)
        comps = (self.comps[-1],) + self.comps[:-1]
        return VSeries(m, self.ring, [dict(d) for d in comps], self.lo, self.hi)

    def sigma_power(self, k: int) -> "VSeries":
        out = self
        for _ in range(k % self.model.p):
            out = out.sigma()
        return out

    # -- trace, norm, pairing ------------------------------------------------------

    def trace(self) -> BaseSeries:
        """Trace of the homothety by self, as a series in z."""
        m = self.model
        if m.case == RAMIFIED:
            t = {}
            for e, c in self.comps[0].items():
                if e % m.p == 0:
                    t[e // m.p] = c * m.p
            return BaseSeries(self.ring, t, _ceildiv(self.lo, m.p),
                              INF if _isinf(self.hi) else _ceildiv(self.hi, m.p))
        t = {}
        for d in self.comps:
            _add_into(t, d)
        return BaseSeries(self.ring, t, self.lo, self.hi)

    def norm(self) -> BaseSeries:
        """Norm: product of the sigma-conjugates, as a series in z."""
        m = self.model
        if m.case == RAMIFIED:
            acc = self
            g = self
            for _ in range(1, m.p):
                g = g.sigma()
                acc = acc * g
            t = {}
            for e, c in acc.comps[0].items():
                if e % m.p != 0:
                    raise AssertionError("norm not supported on z-exponents")
                t[e // m.p] = c
            return BaseSeries(self.ring, t, _ceildiv(acc.lo, m.p),
                              INF if _isinf(acc.hi) else _ceildiv(acc.hi, m.p))
        acc = BaseSeries(self.ring, self.comps[0], self.lo, self.hi)
        for d in self.comps[1:]:
            acc = acc * BaseSeries(self.ring, d, self.lo, self.hi)
        return acc

    def coordinates(self):
        """Coordinates over the distinguished basis, as p series in z.

        Position n contributes to coordinate class n mod p at z-exponent
        n div p (exact in both cases; see the module docstring).
        """
        p = self.model.p
        plo, phi = self.pos_window()
        ts = [{} for _ in range(p)]
        for n, c in self.pos_items():
            ts[n % p][n // p] = c
        return [BaseSeries(self.ring, t, _ceildiv(plo - k, p),
                           INF if _isinf(phi) else _ceildiv(phi - k, p))
                for k, t in enumerate(ts)]

    def to_text(self) -> str:
        parts = []
        for d in self.comps:
            parts.append(";".join("%d:%s" % (e, d[e].to_text()) for e in sorted(d)))
        return "[%s,%s) " % (self.lo, self.hi) + " | ".join(parts)

    def __repr__(self):
        return "VSeries<%s>" % self.to_text()


def residue_pairing(a: VSeries, b: VSeries) -> JetPoly:
    """res_{z=0} tr(a*b) dz: the z^{-1} coefficient of the trace of a*b."""
    return _residue((a * b).trace(), "residue pairing needs the z^-1 trace coefficient")


def _residue(s: BaseSeries, what: str) -> JetPoly:
    """The z^-1 coefficient of s; `what` names it if s's window ends below."""
    if -1 < s.lo:
        return s.ring.zero()
    if -1 >= s.hi:
        raise WindowError("%s; window hi=%s" % (what, s.hi),
                          suggest=None if _isinf(s.hi) else -s.hi)
    return s.terms.get(-1, s.ring.zero())


def wedge_step(minors, col) -> dict:
    """Extend the minors of a k-vector prefix by one more coordinate column.

    `minors` maps each sorted k-tuple of coordinate classes to the
    BaseSeries minor of the prefix's columns on those rows (None for the
    empty prefix); `col` is the next vector's p coordinate series.  The
    (k+1)-minors come from Laplace expansion along the new last column,
    with sign (-1)^(i+k) for the i-th row of the subset, so folding this
    step over the columns of a matrix gives its determinant with the usual
    sign.  A k -> k+1 step visits C(p, k+1) * (k+1) (entry, minor) pairs.

    The result is the same BaseSeries, window and terms alike, as any
    other division-free expansion, e.g. by cofactors: a product's window
    is [lo1+lo2, min(lo1+hi2, lo2+hi1)) and a sum's is [min lo, min hi),
    and both rules distribute over sums, so every expansion of the
    determinant into signed products of entries has lo equal to the
    min-plus permanent of the entries' lo and hi equal to the minimum,
    over permutations and factors, of one factor's hi plus the others'
    lo.  Below a common hi the stored terms are the exact coefficients of
    the determinant, whatever the order of the sums.

    So each (k+1)-minor is one pass over its pairs: every pair adds its
    product's window by those rules, and only a pair whose factors both
    hold terms adds its signed series product into the minor's terms.
    """
    if minors is None:
        return {(r,): c for r, c in enumerate(col)}
    k = len(next(iter(minors)))
    out = {}
    for rows in itertools.combinations(range(len(col)), k + 1):
        lo = hi = INF
        terms = {}
        for i, r in enumerate(rows):
            a, b = col[r], minors[rows[:i] + rows[i + 1:]]
            lo = min(lo, a.lo + b.lo)
            hi = min(hi, a.lo + b.hi, b.lo + a.hi)
            if a.terms and b.terms:
                t = (a * b).terms
                _add_into(terms, {e: -c for e, c in t.items()} if (i + k) % 2 else t)
        out[rows] = BaseSeries(col[rows[0]].ring, terms, lo, hi)
    return out


def wedge_residue(us, head=None) -> JetPoly:
    """Skew p-form: res_{z=0} of the determinant of coordinate series.

    `us` is a sequence of p VSeries over a common model and ring; the
    determinant has the coordinate classes as rows and us as columns and
    is folded column by column with `wedge_step`, which visits
    p*2^(p-1) - p (entry, minor) pairs in all and makes a series product
    only for a pair whose two factors both hold terms.  `head`, if the
    caller already has it, is the pair (minors of us[:-1], coordinates of
    us[-1]); the fold then takes only its last step, p pairs.
    """
    us = list(us)
    model = us[0].model
    if len(us) != model.p:
        raise ValueError("wedge form takes exactly p arguments")
    if head is None:
        minors = None
        for u in us:
            minors = wedge_step(minors, u.coordinates())
    else:
        minors = wedge_step(*head)
    (det,) = minors.values()
    return _residue(det, "wedge residue needs the z^-1 determinant coefficient")


def vseries_exp(v: VSeries) -> VSeries:
    """exp of an element with nilpotent coefficients (finite sum)."""
    out = VSeries.one(v.model, v.ring)
    power = out
    for k in range(1, v.ring.cap + 1):
        power = power * v * Fraction(1, k)
        if power.is_zero_certified() and _isinf(power.hi):
            break
        out = out + power
    return out


def flow_exponential(model: Model, ring: JetRing, coords) -> VSeries:
    """Exponential flow element of the formal jacobian of the cover.

    Ramified: coords maps j >= 1 to a nilpotent jet coefficient and the
    result is exp(sum_j c_j z1^{-j}).  Non-ramified: coords maps (i, j)
    with component i in 1..p, and the exponential acts componentwise.
    """
    comps = [{} for _ in range(model.ncomp)]
    for key, c in coords.items():
        if isinstance(key, tuple):
            i, j = key
        else:
            i, j = 1, key
        if j < 1:
            raise ValueError("flow indices start at 1")
        c = ring.const(c)
        if not c.is_nilpotent():
            raise ValueError("flow coefficients must be nilpotent")
        if not 1 <= i <= model.ncomp:
            raise ValueError("flow component %d outside 1..%d" % (i, model.ncomp))
        if c.is_zero():
            continue
        comps[i - 1][-j] = comps[i - 1].get(-j, ring.zero()) + c
    arg = VSeries(model, ring, comps, hi=INF)
    return vseries_exp(arg)
