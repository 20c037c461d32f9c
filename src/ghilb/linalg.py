"""Exact linear algebra: one sparse elimination kernel, HNF and 3x3 closed forms.

``rank_sparse`` is the package's only elimination.  It takes rows as dicts
column -> value holding ints or Fractions, scales each row to a primitive
integer row (which does not change the rank) and eliminates with integer
row operations, so no quotient is ever formed.  ``hnf`` is the integer row
Hermite normal form used for the lattices; ``det3`` and ``adjugate3`` are
the closed-form 3x3 determinant and adjugate of the chart and lattice
bases.  Everything here is exact; no floating point is used anywhere in the
package.
"""

from __future__ import annotations

from math import gcd, lcm


def rank_sparse(rows: list[dict[int, object]], ncols: int) -> int:
    """Rank over Q of a sparse matrix given as dicts column -> int or Fraction.

    Rows are reduced one at a time against the pivot rows found so far, each
    keyed by its leading (smallest) column; empty rows are skipped and a
    one-entry row is scaled to 1 outright.  Only rows that share a column
    are ever combined, so the elimination never fills across blocks of a
    block-diagonal matrix.  ncols bounds the column indices and is not
    otherwise needed.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if len(row) > 1:
            row = _primitive(row)
        elif row:
            ((col, value),) = row.items()
            row = {col: 1} if value else {}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row = _eliminate(row, pivot, lead)
    return len(pivots)


def _primitive(row: dict) -> dict[int, int]:
    """The row scaled to coprime integers, with its zero entries dropped."""
    denom = lcm(*(v.denominator for v in row.values()))
    row = {c: v.numerator * (denom // v.denominator) for c, v in row.items() if v}
    content = gcd(*row.values())
    if content > 1:
        row = {c: v // content for c, v in row.items()}
    return row


def _eliminate(row: dict[int, int], pivot: dict[int, int], lead: int) -> dict[int, int]:
    """a*row - b*pivot, made primitive, where a and b cancel the lead column.

    The row is owned by the caller's loop and is updated in place when a = 1.
    """
    a, b = pivot[lead], row[lead]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        row = {c: a * v for c, v in row.items()}
    for c, v in pivot.items():
        value = row.get(c, 0) - b * v
        if value:
            row[c] = value
        else:
            del row[c]
    content = gcd(*row.values())
    if content > 1:
        row = {c: v // content for c, v in row.items()}
    return row


def rank_dense(mat) -> int:
    """Rank of a dense list-of-rows matrix, through rank_sparse."""
    if not mat:
        return 0
    return rank_sparse([{j: x for j, x in enumerate(row) if x} for row in mat], len(mat[0]))


def det3(m):
    """Determinant of a 3x3 matrix of ints or Fractions, by cofactor expansion."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adjugate3(m) -> list[list]:
    """Adjugate of a 3x3 matrix: adjugate3(m) times m is det3(m) times I."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form of an integer matrix (nonzero rows only)."""
    mat = [list(map(int, row)) for row in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, len(mat)):
            while mat[r][col]:
                q = mat[rank][col] // mat[r][col]
                mat[rank] = [a - q * b for a, b in zip(mat[rank], mat[r])]
                mat[rank], mat[r] = mat[r], mat[rank]
        if mat[rank][col] < 0:
            mat[rank] = [-a for a in mat[rank]]
        for r in range(rank):
            q = mat[r][col] // mat[rank][col]
            if q:
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return [row for row in mat[:rank] if any(row)]
