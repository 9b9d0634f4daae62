"""`nullspace` and `rank_of_vectors` against the elimination loops as they
were before the fused `submul`: a product, then a difference.  Canonical
form is unique, so the bases must agree exactly, down to (_n, _d)."""

import random
from fractions import Fraction

import pytest

from prymlab.linalg import nullspace, rank_of_vectors
from prymlab.scalars import Cyclo


def _two_step_eliminate(rows, p):
    zero = Cyclo.zero(p)
    pivots = {}
    for eq in rows:
        row = {c: v for c, v in eq.items() if not v.is_zero()}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = row[col].inverse()
                pivots[col] = {c: v * inv for c, v in row.items()}
                break
            factor = row[col]
            for c, v in piv.items():
                s = row.get(c, zero) - factor * v
                if s.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = s
    return pivots


def _two_step_nullspace(equations, nunknowns, p):
    pivots = _two_step_eliminate(equations, p)
    zero = Cyclo.zero(p)
    free = [c for c in range(nunknowns) if c not in pivots]
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for c in [c for c in list(row) if c != col and c in pivots]:
            factor = row.pop(c)
            for c2, v in pivots[c].items():
                if c2 == c:
                    continue
                s = row.get(c2, zero) - factor * v
                if s.is_zero():
                    row.pop(c2, None)
                else:
                    row[c2] = s
    basis = []
    for f in free:
        vec = [zero] * nunknowns
        vec[f] = Cyclo.one(p)
        for col, row in pivots.items():
            c = row.get(f)
            if c is not None:
                vec[col] = -c
        basis.append(vec)
    return basis


def _random_system(rng, p, nunknowns, nequations, bits):
    def scalar():
        return Cyclo(p, [Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 16))
                         if rng.random() < 0.7 else Fraction(0) for _ in range(p - 1)])

    equations = [{c: scalar() for c in range(nunknowns) if rng.random() < 0.4}
                 for _ in range(nequations)]
    # dependent equations, so elimination cancels whole rows
    for _ in range(2):
        a, b = rng.sample(equations, 2)
        k = scalar()
        equations.append({c: a.get(c, Cyclo.zero(p)) + k * b.get(c, Cyclo.zero(p))
                          for c in set(a) | set(b)})
    return equations


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("bits", [4, 60])
def test_nullspace_matches_the_two_step_loops(p, bits):
    rng = random.Random("nullspace:%d:%d" % (p, bits))
    for _ in range(4 if p == 7 else 8):
        n = rng.randint(3, 9 if bits < 60 else 6)
        equations = _random_system(rng, p, n, rng.randint(2, n), bits)
        got = nullspace([dict(eq) for eq in equations], n, p)
        want = _two_step_nullspace([dict(eq) for eq in equations], n, p)
        assert [[(c._n, c._d) for c in vec] for vec in got] \
            == [[(c._n, c._d) for c in vec] for vec in want]
        dense = [[eq.get(c, Cyclo.zero(p)) for c in range(n)] for eq in equations]
        assert rank_of_vectors(dense, n, p) == len(_two_step_eliminate(
            ({c: v for c, v in enumerate(vec)} for vec in dense), p))
