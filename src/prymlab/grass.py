"""Points of the infinite Grassmannian of V as windowed echelon frames.

A point U is held as a reduced echelon frame over the linearized position
set (see `vseries`): one row per pivot (leading) position, pivot
coefficient 1, no row supported at another row's pivot.  Below the stored
rows a frame carries either an explicit monomial tail (synthetic points:
every position under per-component exponent bounds belongs to U) or a
certificate that all deep positions are pivots (curve points, where deep
rows exist but are not materialized).

Verdicts are certificates: checks either decide within the stored window
or raise `WindowError`; they never guess.
"""

from __future__ import annotations

import heapq
import itertools

from .errors import FrameError, WindowError
from .jets import JetPoly, JetRing
from .linalg import nullspace, rank_of_vectors
from .scalars import Cyclo
from .vseries import INF, Model, VSeries, _isinf, wedge_residue, wedge_step

_DEEP = -(10 ** 9)


class GrassPoint:
    """Windowed echelon frame for a subspace of V commensurable with V+."""

    def __init__(self, model: Model, ring: JetRing, rows: dict, *, tail=None,
                 phi, pivots_full_below: bool, max_pivot_bound: int):
        self.model = model
        self.ring = ring
        self.rows = dict(rows)
        self.tail = None if tail is None else tuple(tail)
        self.phi = phi
        self.pivots_full_below = pivots_full_below or tail is not None
        self.max_pivot_bound = max_pivot_bound
        self._derived = {}
        if self.tail is not None and len(self.tail) != model.ncomp:
            raise ValueError("tail needs one exponent bound per component")

    def once(self, key, build):
        """build() at the first call for `key`; its result (a frame, an
        identity value), or the WindowError or FrameError it raised (with a
        fresh traceback), at every later one.  A frame is not changed once
        its builder returns, so what is derived from it stays valid."""
        if key not in self._derived:
            try:
                self._derived[key] = build()
            except (WindowError, FrameError) as e:
                self._derived[key] = e
        if isinstance(self._derived[key], Exception):
            raise self._derived[key].with_traceback(None)
        return self._derived[key]

    # ------------------------------------------------------------------ shape

    def pivot_positions(self):
        return sorted(self.rows)

    def stored_floor(self):
        """Lowest position with explicit knowledge (stored row or tail edge)."""
        cands = list(self.rows)
        if self.tail is not None:
            cands.extend(self.model.pos(i + 1, t) for i, t in enumerate(self.tail))
        return min(cands) if cands else None

    def in_tail(self, n: int) -> bool:
        if self.tail is None:
            return False
        comp, e = self.model.unpos(n)
        return e < self.tail[comp - 1]

    def is_pivot(self, n: int) -> bool:
        """Certified pivot test; raises WindowError in the undecided band."""
        if n in self.rows or self.in_tail(n):
            return True
        if n > self.max_pivot_bound:
            return False
        floor = self.stored_floor()
        if floor is None or n < floor:
            if self.pivots_full_below:
                return True
            raise WindowError("pivot status below the stored window is unknown")
        if _isinf(self.phi) or n < self.phi:
            return False
        raise WindowError(
            "pivot status at position %d not certified" % n,
            suggest=n - self.phi + 1,
        )

    def tail_monomials(self, lows) -> list:
        """z^e e_i for lows[i-1] <= e < tail[i-1], by component, e ascending.

        >>> m = Model(2, "NR")
        >>> U = build_frame(m, JetRing.scalar(2), [], tail=(1, 0))
        >>> [m.unpos(v.leading_position()) for v in U.tail_monomials([-1, -2])]
        [(1, -1), (1, 0), (2, -2), (2, -1)]
        """
        return [VSeries.monomial(self.model, self.ring, i, e)
                for i, (lo, t) in enumerate(zip(lows, self.tail or ()), 1)
                for e in range(lo, t)]

    def lifted(self, ring: JetRing) -> "GrassPoint":
        """The same frame over a larger jet ring."""
        if self.ring.compatible(ring):
            return self
        return self._with_rows({n: r.lift(ring) for n, r in self.rows.items()}, ring)

    def scalar_view(self) -> "GrassPoint":
        """This cap-0 frame with the `Cyclo` constant terms of its rows as
        coefficients, built once: `_clear` on it reduces plain coefficient
        maps with no jet around each scalar.  A jet frame has none."""
        if self.ring.cap:
            raise ValueError("a jet frame has no scalar view")
        return self.once("scalar", lambda: self._with_rows(
            {n: r.map_coeffs(JetPoly.constant_term) for n, r in self.rows.items()}))

    def _with_rows(self, rows: dict, ring: JetRing | None = None) -> "GrassPoint":
        """This frame's tail, window and pivot certificates over new rows."""
        return GrassPoint(self.model, self.ring if ring is None else ring, rows,
                          tail=self.tail, phi=self.phi,
                          pivots_full_below=self.pivots_full_below,
                          max_pivot_bound=self.max_pivot_bound)

    def d_full(self) -> int:
        """Largest d such that every position below d is certified a pivot."""
        if not self.pivots_full_below:
            raise WindowError("no full-below certificate for this frame")
        floor = self.stored_floor()
        n = floor if floor is not None else 0
        while True:
            try:
                if not self.is_pivot(n):
                    return n
            except WindowError:
                return n
            n += 1

    def index_chi(self) -> int:
        """Euler characteristic of U -> V/V+: dim(U cap V+) - dim V/(U+V+)."""
        kernel = sum(1 for n in range(0, self.max_pivot_bound + 1) if self.is_pivot(n))
        cogaps = sum(1 for n in range(self.d_full(), 0) if not self.is_pivot(n))
        return kernel - cogaps

    def gap_orders(self):
        """Positive pole-order gaps: -n over negative non-pivot positions."""
        return sorted(-n for n in range(self.d_full(), 0) if not self.is_pivot(n))

    # ------------------------------------------------------------------ reduction

    def reduce(self, v: VSeries, what: str) -> VSeries:
        """The residual of v against the frame, certified below min(v
        window, frame window); `WindowError` (naming `what`) if it is
        nonzero below the stored window, where a deep row would clear it.
        v must be over the frame's jet ring (`ValueError` otherwise).
        """
        if not self.ring.compatible(v.ring):
            raise ValueError("mixed jet rings")
        hi = v.hi
        if not _isinf(self.phi):
            hi = min(hi, self.model.exp_window(0, self.phi)[1])
        comps = [{e: c for e, c in d.items() if e < hi} for d in v.comps]
        lo, hi = self._clear(comps, v.lo, hi, what)
        return VSeries(self.model, self.ring, comps, lo, hi)

    def _clear(self, comps, lo, hi, what, skip=None):
        """Clear `comps` in place at the tail and at every row pivot but `skip`.

        `comps` holds one exponent -> coefficient map per component, all
        below `hi`; the coefficients are those of the frame's rows (jets,
        or `Cyclo` on a scalar view).  Each pass sweeps the positions
        upwards; a pivot or tail entry that a row puts above the sweep is
        cleared in the same pass.  A pass that adds no entry at or below its
        sweep position is the last.  The sweep has cleared every pivot and
        tail entry it passed (a row's coefficient at its pivot is 1) and
        marked every blocked one; an entry added above it is queued if it
        needs clearing and is never blocked (rows sit at or above the
        floor).  So only an entry added behind the sweep can need another
        pass.  A scalar row is supported at and above its pivot, so a scalar
        reduction takes one pass; a jet row's nilpotent entries below its
        pivot can need more.  An entry already present takes the fused
        `submul`, which gives the same value as `s - a * c`; a fresh one is
        `-(a * c)`.  Returns [lo, hi), the common window of the input and
        every row used; raises the `below_window_error` of `what` if an
        entry is left nonzero at a blocked position.  Only a full-below
        frame without a tail can block: a tail holds every position under
        the floor that no row holds.  Such a frame is complete before it is
        read (`build_frame`'s shell is not full below), so its floor is
        computed once.
        """
        m = self.model
        rows, tail = self.rows, self.tail
        blocked = {}  # position -> (its map, its exponent)
        floor = self.once("floor", self.stored_floor) \
            if self.pivots_full_below and tail is None else None
        for _ in range(self.ring.cap + 2):
            below = False
            todo = [m.pos(ci + 1, e) for ci, d in enumerate(comps) for e in d]
            heapq.heapify(todo)
            queued = set(todo)
            while todo:
                n = heapq.heappop(todo)
                ci, e = m.unpos(n)
                t = comps[ci - 1]
                c = t.get(e)
                if c is None or n == skip:
                    continue
                if self.in_tail(n):
                    del t[e]
                    continue
                row = rows.get(n)
                if row is not None:
                    if row.hi < hi:
                        hi = row.hi
                        for d in comps:
                            for e2 in [e2 for e2 in d if e2 >= hi]:
                                del d[e2]
                    lo = min(lo, row.lo)
                    for k, (d, rd) in enumerate(zip(comps, row.comps)):
                        for e2, a in rd.items():
                            if e2 >= hi:
                                continue
                            s = d.get(e2)
                            if s is None:
                                x = a * c
                                if x.is_zero():
                                    continue
                                d[e2] = -x
                                q = m.pos(k + 1, e2)
                                if q <= n:
                                    below = True
                                elif q not in queued and (
                                        q in rows or tail is not None and e2 < tail[k]):
                                    heapq.heappush(todo, q)
                                    queued.add(q)
                            else:
                                s = s.submul(a, c)
                                if s.is_zero():
                                    del d[e2]
                                else:
                                    d[e2] = s
                elif floor is not None and n < floor:
                    blocked[n] = t, e
            if not below:
                break
        bad = [n for n, (t, e) in blocked.items() if e in t and not t[e].is_zero()]
        if bad:
            raise self.below_window_error(what, bad)
        return lo, hi

    def below_window_error(self, what: str, bad) -> WindowError:
        """The error of a `what` needing rows at positions `bad` below the window."""
        return WindowError("%s needs rows below the stored window (positions %s)" % (
            what, sorted(bad)), suggest=(self.stored_floor() or 0) - min(bad))

    def membership(self, v: VSeries) -> bool:
        """Certified membership of v within the common window."""
        return self.reduce(v, "membership").is_zero_certified()

    def contains_unit_vector(self, i: int) -> bool:
        return self.membership(VSeries.unit_vector(self.model, self.ring, i))

    # ------------------------------------------------------------------ sigma

    def sigma_point(self) -> "GrassPoint":
        """The point rho(sigma) U, built once."""
        return self.once("sigma", self._sigma_frame)

    def _sigma_frame(self) -> "GrassPoint":
        # sigma rotates the components (NR), which can reorder positions in a
        # level, or scales z1^n by xi^n (R), which renormalizes each row
        m = self.model
        tail = self.tail[-1:] + self.tail[:-1] if self.tail is not None else None
        return build_frame(m, self.ring, [r.sigma() for r in self.rows.values()],
                           tail=tail, phi=self.phi,
                           pivots_full_below=self.pivots_full_below,
                           max_pivot_bound=m.pos(m.ncomp, m.unpos(self.max_pivot_bound)[1]))

    def invariance_check(self) -> bool:
        """True when sigma maps the frame into itself (certified).  A cap-0
        frame's sigma images are formed and reduced on its scalar view,
        tail monomials mapped to their `Cyclo` constants as in
        `_tangent_rows`."""
        # the tail below its lowest edge is sigma-stable; the rest is checked
        lows = [min(self.tail)] * len(self.tail) if self.tail else []
        monomials = self.tail_monomials(lows)
        U = self
        if not self.ring.cap:
            U = self.scalar_view()
            monomials = [v.map_coeffs(JetPoly.constant_term) for v in monomials]
        vectors = [U.rows[n] for n in sorted(U.rows)] + monomials
        return all(U.membership(v.sigma()) for v in vectors)

    # ------------------------------------------------------------------ pairing dual

    def dual(self) -> "GrassPoint":
        """`orthogonal()`, built once (`orthogonal` builds at every call); a
        dual that cannot be built is tried once, and its error raised again."""
        return self.once("dual", self.orthogonal)

    def orthogonal(self) -> "GrassPoint":
        """Annihilator under the residue pairing, as a frame.

        Row for gap g: basis(reflect(g)) - sum_s row_s[g] * basis(reflect(s))
        over stored pivots s < g; reducedness of the frame makes this exact.
        """
        m = self.model
        refl = m.reflect
        r = m.ramification_index()
        if _isinf(self.phi):
            # per-component support tops; everything above is a clean gap
            tops = [self.tail[i] - 1 if self.tail is not None else _DEEP
                    for i in range(m.ncomp)]
            for row in self.rows.values():
                for ci, d in enumerate(row.comps):
                    if d:
                        tops[ci] = max(tops[ci], max(d))
            mb = self.max_pivot_bound
            ci, e = m.unpos(max(mb, self.d_full()))
            tops[ci - 1] = max(tops[ci - 1], e)
            gap_hi = max(m.pos(i + 1, t) for i, t in enumerate(tops))
            tail2 = tuple(-r - t for t in tops)
            phi2 = INF
        else:
            gap_hi = self.phi - 1
            tail2 = None
            phi2 = refl(self.stored_floor()) + 1
        vectors = []
        pivots = sorted(self.rows)
        d0 = self.d_full()
        for g in range(d0, gap_hi + 1):
            if self.is_pivot(g):
                continue
            if tail2 is not None and m.unpos(g)[1] > tops[m.unpos(g)[0] - 1]:
                continue  # clean gap: covered by the dual tail
            data = {refl(g): self.ring.one()}
            # every pivot row can meet the gap g: above it for scalar
            # frames, and below it through nilpotent junk in jet frames
            for s in pivots:
                c = self.rows[s].pos_coeff(g)
                if not c.is_zero():
                    data[refl(s)] = -c
            vectors.append(VSeries.from_positions(m, self.ring, data))
        # dual pivots live on levels where U is not yet full
        bound = m.pos(m.ncomp, -r - m.unpos(d0)[1])
        return build_frame(m, self.ring, vectors, tail=tail2, phi=phi2,
                           pivots_full_below=True, max_pivot_bound=bound)

    # ------------------------------------------------------------------ group action

    def group_act(self, g: VSeries) -> "GrassPoint":
        """The point g.U for an invertible g (unit leading data per
        component); a g over a larger jet ring acts on the lifted frame."""
        m = self.model
        base = self.lifted(g.ring)
        shifts, reaches = [], []
        for ci in range(m.ncomp):
            d = g.comps[ci]
            units = [e for e, c in d.items() if c.is_unit()]
            if not units:
                raise WindowError(
                    "acting element has no unit leading term in component %d" % (ci + 1))
            a = min(units)
            if not _isinf(g.hi):
                reach = g.hi - 1 - a
            else:
                reach = (max(d) - a) if d else 0
            shifts.append(a)
            reaches.append(max(0, reach))
        tail2 = None if base.tail is None else tuple(
            t + a - r for t, a, r in zip(base.tail, shifts, reaches))
        lows = [t - r for t, r in zip(base.tail or (), reaches)]
        vectors = [g * v for v in base.tail_monomials(lows)
                   + [base.rows[n] for n in sorted(base.rows)]]
        phis = [v.pos_window()[1] for v in vectors]
        phi2 = min(phis) if phis else base.phi
        new_bound = base.max_pivot_bound + m.ncomp * max(shifts)
        return build_frame(m, base.ring, vectors, tail=tail2, phi=phi2,
                           pivots_full_below=base.pivots_full_below,
                           max_pivot_bound=new_bound)

    # ------------------------------------------------------------------ forms

    def _wedge_candidates(self):
        """(row, upper z-degree, pivot) for rows and relevant tail monomials.

        A p-tuple can only reach the z^{-1} residue when the sum of the
        rows' maximal coordinate degrees is >= -1; that caps how deep into
        a monomial tail the enumeration must go.
        """
        m = self.model
        out = []
        for n in sorted(self.rows, reverse=True):
            r = self.rows[n]
            sm = r.support_max()
            phi_r = r.pos_window()[1]
            if _isinf(phi_r):
                upper = (sm if sm is not None else n) // m.p
            else:
                upper = (phi_r - 1) // m.p
            out.append((r, upper, n))
        if self.tail is not None:
            top = max([u for _, u, _ in out], default=0)
            need = -1 - (m.p - 1) * max(top, 0)
            for i, t in enumerate(self.tail):
                n = m.pos(i + 1, t - 1)
                while n // m.p >= need:
                    out.append((VSeries.basis(m, self.ring, n), n // m.p, n))
                    n -= m.ncomp
        return out

    def isotropy_check(self):
        """Does the residue of the p-fold wedge vanish on the frame?

        Returns (True, None) or (False, witness positions).  Tuples whose
        residue is not window-certifiable raise WindowError unless a nonzero
        witness settles the verdict first, suggesting the largest extension
        theirs ask for (none if one names none).  The search carries the
        minors of the chosen prefix (`wedge_step`), so tuples sharing a
        prefix share its minors and each tuple's wedge visits p (entry,
        minor) pairs, with a series product only where both hold terms.
        """
        m = self.model
        cands = self._wedge_candidates()
        cands.sort(key=lambda t: t[1], reverse=True)
        coords = [r.coordinates() for r, _, _ in cands]
        pend = []
        witness = None

        def search(start, chosen, upper_sum, minors):
            nonlocal witness
            need = m.p - len(chosen)
            for j in range(start, len(cands) - need + 1):
                if witness is not None:
                    return
                best = upper_sum + sum(cands[j + k][1] for k in range(need))
                if best < -1:
                    break  # candidates sorted by upper: no completion can reach -1
                if need > 1:
                    search(j + 1, chosen + [j], upper_sum + cands[j][1],
                           wedge_step(minors, coords[j]))
                    continue
                tup = chosen + [j]
                try:
                    val = wedge_residue([cands[i][0] for i in tup],
                                        head=(minors, coords[j]))
                except WindowError as e:
                    pend.append(e.suggest)
                    continue
                if not val.is_zero():
                    witness = tuple(cands[i][2] for i in tup)

        search(0, [], 0, None)
        if witness is not None:
            return False, witness
        if pend:
            raise WindowError(
                "isotropy: %d candidate tuples not certifiable in window" % len(pend),
                suggest=None if None in pend else max(pend))
        return True, None

    def algebra_point_check(self) -> bool:
        """1 in U and U.U inside U, over window-certifiable row pairs; the
        row products and their memberships are formed on the scalar view
        of a cap-0 frame."""
        if not self.membership(VSeries.one(self.model, self.ring)):
            return False
        U = self.scalar_view() if not self.ring.cap else self
        floor = U.stored_floor()
        pivots = sorted(U.rows)
        p = U.model.p
        for a, b in itertools.combinations_with_replacement(pivots, 2):
            if U.tail is None and floor is not None \
                    and p * (a // p + b // p) < floor:
                continue  # product escapes the stored window
            if not U.membership(U.rows[a] * U.rows[b]):
                return False
        return True

    def connectedness_check(self):
        """Per component: does the idempotent e_i lie in U?"""
        if self.model.case != "NR":
            raise ValueError("connectedness test applies to the non-ramified model")
        return {i: self.contains_unit_vector(i) for i in range(1, self.model.p + 1)}

    # ------------------------------------------------------------------ tangent

    def tangent_orbit_dim(self, depth: int) -> int:
        """dim T_1 Pi / (ker d mu_U + T_1 Pibar+), principal parts to `depth`.

        Builds the exact linear system for g supported on exponents
        [-depth, E) in sigma-eigen coordinates: the unknown (c, e) is the
        coefficient of z1^e (ramified, c = e mod p) or of z^e w_c
        (non-ramified, w_c = sum_i xi^(c(i-1)) e_i), and sigma scales both
        by a power of xi fixed by the class c.  The sigma^k(g) span the
        eigencomponents of g, so "sigma^k(g) . row in U for all k" is "each
        eigencomponent times row in U", and tr(g) (p times the class-0
        part) is constant when every class-0 unknown off e = 0 vanishes.
        The dimension is (principal parts outside class 0) minus
        (principal parts of the nullspace).

        Each product z^e e_comp . row is the row's component comp shifted
        by e, on the window [row lo + e, min(row hi + e, frame top)) that
        `reduce` gives the series product; it is written straight into
        coefficient maps and cleared by `_clear` on the scalar view, which
        raises `WindowError` for a product that needs rows below the stored
        window (`_tangent_rows` leaves out the rows whose products could).  No
        product is cleared above the e = -depth product's top or the row's
        starting `hi`, where no equation of the row is kept.  That changes
        no kept equation: a scalar row is supported at and above its pivot,
        so entries above the cap make none below it, and a row the cap
        leaves unused has its pivot, and so its `hi`, at or above the cap.
        """
        m = self.model
        view = self.scalar_view()  # ValueError for a jet frame
        p = m.p
        top = m.exp_window(0, self.phi)[1]
        e_hi = depth + 2 if _isinf(top) else max(depth + 2, top - 1)
        exps = range(-depth, e_hi)
        if m.case == "R":
            unknowns = [(e % p, e) for e in exps]
        else:
            unknowns = [(c, e) for c in range(p) for e in exps]
        col = {u: k for k, u in enumerate(unknowns)}
        equations = [{col[(0, e)]: Cyclo.one(p)} for e in exps if e and (0, e) in col]
        # (class, weight) targets of an entry of z^e e_comp . row: its own
        # class (ramified) or every class, by the w_c coefficient of e_comp
        weights = [[(c, m.xi_pow(c * i) if c * i % p else None) for c in range(p)]
                   for i in range(m.ncomp)]
        top_pos = m.pos(1, e_hi)
        for r in view._tangent_rows(depth):
            # the row's equations hold on the meet of its products' windows;
            # hi only shrinks, so the final `q < hi` drops every equation
            # above the meet
            hi = top_pos + r.pos_window()[0]
            eqs = {}
            # no product is cleared above the e = -depth product's top or
            # the starting hi: no kept equation lies there
            cap = min(r.hi - depth, top, m.exp_window(0, hi)[1])
            for comp, rd in enumerate(r.comps, 1):
                for e in exps:
                    comps = [{} for _ in range(m.ncomp)]
                    comps[comp - 1] = {k + e: a for k, a in rd.items() if k + e < cap}
                    _, e_top = view._clear(comps, r.lo + e, cap, "orbit tangent")
                    hi = min(hi, m.pos_window(0, e_top)[1])
                    targets = [(e % p, None)] if m.case == "R" else weights[comp - 1]
                    for ci, d in enumerate(comps, 1):
                        for k, a in d.items():
                            q = m.pos(ci, k)
                            for c, w in targets:
                                x = a if w is None else a * w
                                eq = eqs.setdefault((c, q), {})
                                u = col[(c, e)]
                                eq[u] = eq[u] + x if u in eq else x
            equations.extend(eq for (_, q), eq in eqs.items() if q < hi)
        basis = nullspace(equations, len(unknowns), p)
        neg_cols = [k for k, (_, e) in enumerate(unknowns) if e < 0]
        amb = sum(1 for c, e in unknowns if c and e < 0)
        projected = [[vec[k] for k in neg_cols] for vec in basis]
        return amb - rank_of_vectors(projected, len(neg_cols), p)

    def _tangent_rows(self, depth: int):
        """Rows usable as constraints: products must stay in the window.
        Tail monomials near the tail edge come last, with `Cyclo`
        coefficients, as on the scalar view this is read from."""
        m = self.model
        rows = []
        floor = self.stored_floor()
        depth_pos = m.pos(1, -depth)
        for n in sorted(self.rows):
            r = self.rows[n]
            if self.tail is None and floor is not None:
                if r.pos_window()[0] + depth_pos < floor:
                    continue
            rows.append(r)
        lows = [t - depth - 1 for t in self.tail or ()]
        return rows + [v.map_coeffs(JetPoly.constant_term) for v in self.tail_monomials(lows)]

    # ------------------------------------------------------------------ misc

    def __repr__(self):
        try:
            chi = self.index_chi()
        except (WindowError, FrameError):
            chi = "?"
        return "GrassPoint(%s, chi=%s, %d rows)" % (self.model, chi, len(self.rows))


# ---------------------------------------------------------------------- builders


def build_frame(model: Model, ring: JetRing, vectors, *, tail=None, phi=INF,
                pivots_full_below=False, max_pivot_bound=None) -> GrassPoint:
    """Reduced echelon frame spanned by `vectors` (plus the tail, if any),
    made once from rows formed on a shell; the one builder of new rows."""
    shell = GrassPoint(model, ring, {}, tail=tail, phi=phi,
                       pivots_full_below=False, max_pivot_bound=-1)
    for v in vectors:
        residual = shell.reduce(v, "frame build")
        if residual.is_zero_certified():
            continue
        piv = residual.leading_unit_position()
        if piv is None:
            raise FrameError("generator reduces to a nilpotent-only vector; "
                             "not a frame over this jet ring")
        lead = residual.pos_coeff(piv)
        shell.rows[piv] = residual.scale(lead.inverse())
    # back-reduce: clear each row at the other rows' pivots and the tail;
    # a row with an entry at neither is returned unchanged by `_clear`
    for n in sorted(shell.rows):
        r = shell.rows[n]
        if all(q == n or q not in shell.rows and not shell.in_tail(q)
               for q, _ in r.pos_items()):
            continue
        comps = [dict(d) for d in r.comps]
        lo, hi = shell._clear(comps, r.lo, r.hi, "frame build", skip=n)
        shell.rows[n] = VSeries(model, ring, comps, lo, hi)
    if max_pivot_bound is None:
        tops = [model.pos(i, t - 1) for i, t in enumerate(tail or (), 1)]
        max_pivot_bound = max([*shell.rows, *tops], default=-1)
    return GrassPoint(model, ring, shell.rows, tail=tail, phi=phi,
                      pivots_full_below=pivots_full_below,
                      max_pivot_bound=max_pivot_bound)


def module_closure(model: Model, ring: JetRing, gens, algebra, *, phi, floor) -> GrassPoint:
    """Frame of the module generated by `gens` over products of `algebra`,
    full below its stored window.

    Multiplies by the algebra generators until the pivot set stops growing
    between `floor` and the window top; products diving below the floor
    are dropped (their pivots fall outside the stored range).
    """
    frame = build_frame(model, ring, gens, phi=phi, pivots_full_below=True)
    while True:
        before = set(frame.rows)
        new_vectors = list(frame.rows.values())
        for a in algebra:
            for r in list(frame.rows.values()):
                prod = a * r
                lead = prod.leading_position()
                if lead is None or lead < floor:
                    continue
                new_vectors.append(prod)
        frame = build_frame(model, ring, new_vectors, phi=phi, pivots_full_below=True)
        if set(frame.rows) == before:
            return frame


def v_minus(model: Model, ring: JetRing, shift: int = 0) -> GrassPoint:
    """The subspace of all positions with component exponent below `shift`."""
    return build_frame(model, ring, [], tail=(shift,) * model.ncomp)


def u_n_point(model: Model, ring: JetRing, n: int, big_n: int) -> GrassPoint:
    """The witness subspace <z^{-n-1} e_1, e_2, ..., e_p> + z^N V-."""
    if n == 0:
        raise ValueError("the witness family needs n != 0")
    # e_i sits at position i - 1 in both models (z1^{i-1} ramified, the
    # idempotent of component i non-ramified), and z^{-n-1} e_1 at -p(n+1)
    p = model.p
    gens = [VSeries.basis(model, ring, q) for q in [-p * (n + 1), *range(1, p)]]
    tail = (model.ramification_index() * big_n,) * model.ncomp
    return build_frame(model, ring, gens, tail=tail)


def lines_point(model: Model, ring: JetRing) -> GrassPoint:
    """p disjoint affine lines: U = K[x]^p = span of e_i x^a (NR model)."""
    if model.case != "NR":
        raise ValueError("the disjoint-lines point lives in the NR model")
    return v_minus(model, ring, shift=1)
