"""Dense-free exact linear algebra over Q(xi_p) for small systems."""

from __future__ import annotations

from .scalars import Cyclo


def _eliminate(rows, p: int) -> dict:
    """Forward elimination of sparse {column: Cyclo} rows.

    Returns {pivot column: normalized row}; every row's lowest column is
    its pivot, with coefficient one, and no two rows share a pivot.  Each
    update is the fused `submul`, the same value as `s - factor * v`.
    """
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
                s = row.get(c, zero).submul(factor, v)
                if s.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = s
    return pivots


def nullspace(equations, nunknowns: int, p: int):
    """Nullspace basis of a homogeneous system over Q(xi_p).

    `equations` is an iterable of {column: Cyclo} dicts.  Returns a list of
    dense coefficient lists, one per nullspace basis vector.
    """
    pivots = _eliminate(equations, p)
    zero = Cyclo.zero(p)
    free = [c for c in range(nunknowns) if c not in pivots]
    # back-substitute, descending, so pivot rows touch only free columns
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for c in [c for c in list(row) if c != col and c in pivots]:
            factor = row.pop(c)
            for c2, v in pivots[c].items():
                if c2 == c:
                    continue
                s = row.get(c2, zero).submul(factor, v)
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


def rank_of_vectors(vectors, ncols: int, p: int) -> int:
    """Rank of a list of dense Cyclo rows."""
    return len(_eliminate(({i: v for i, v in enumerate(vec)} for vec in vectors), p))
