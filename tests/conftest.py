import random
from fractions import Fraction

from prymlab.grass import build_frame
from prymlab.scalars import Cyclo
from prymlab.vseries import VSeries


def rand_scalar(rng, p, span=4):
    return Cyclo(p, [Fraction(rng.randint(-span, span)) for _ in range(p - 1)])


def is_rational(c):
    """(True, value) when the Cyclo c lies in Q, else (False, None)."""
    first, *rest = c.coeffs
    return (False, None) if any(rest) else (True, first)


def random_point(rng, model, ring, span=6, nrows=3, tail_shift=None):
    """Random synthetic frame: monomial tail plus perturbed rows above it."""
    p = model.p
    if tail_shift is None:
        tail_shift = rng.randint(-2, 0)
    tail = tuple(tail_shift for _ in range(model.ncomp))
    edge = min(model.pos(i + 1, t) for i, t in enumerate(tail))
    positions = list(range(edge, edge + span * p))
    pivots = sorted(rng.sample(positions, min(nrows, len(positions))))
    vectors = []
    for piv in pivots:
        data = {piv: ring.one()}
        for q in positions:
            if q > piv and q not in pivots and rng.random() < 0.4:
                c = rand_scalar(rng, p)
                if not c.is_zero():
                    data[q] = ring.const(c)
        vectors.append(VSeries.from_positions(model, ring, data))
    return build_frame(model, ring, vectors, tail=tail)


def frames_agree(F, G, probe_lo=None, probe_hi=None):
    """Semantic equality of two certified frames on their common range."""
    if probe_lo is None:
        probe_lo = max(F.stored_floor(), G.stored_floor())
    if probe_hi is None:
        probe_hi = max(F.max_pivot_bound, G.max_pivot_bound) + 1
    for n in range(probe_lo, probe_hi + 1):
        if F.is_pivot(n) != G.is_pivot(n):
            return False
    for n, r in F.rows.items():
        if not G.membership(r):
            return False
    for n, r in G.rows.items():
        if not F.membership(r):
            return False
    return True
