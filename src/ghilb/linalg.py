"""Exact linear algebra: one sparse elimination kernel, two-term bases and 3x3 closed forms.

``rank_sparse`` is the package's only elimination.  It takes rows as dicts
column -> nonzero int, divides each row by its content (which does not
change the rank) and eliminates with integer row operations, so no quotient
is ever formed.  ``two_term_basis`` needs no elimination: on rows with at
most two nonzero ints it finds a row basis by union-find over the columns,
keeping exact ratios as int pairs.  It cancels the d3 and d1 cells of the
Koszul complexes and ranks the Hom syzygy rows x_g - x_h and x_g of
``homcalc``.  ``det3`` and ``adjugate3`` are the closed-form 3x3
determinant and adjugate of the chart exponent matrices.  Everything here
is exact; no floating point is used anywhere in the package.
"""

from __future__ import annotations

from math import gcd


def rank_sparse(rows: list[dict[int, int]], ncols: int) -> int:
    """Rank over Q of a sparse matrix given as dicts column -> nonzero int.

    Rows are reduced one at a time against the pivot rows found so far, each
    keyed by its leading (smallest) column, after dividing it by its
    content; empty rows are skipped.  Only rows that share a column
    are ever combined, so the elimination never fills across blocks of a
    block-diagonal matrix.  ncols bounds the column indices and is not
    otherwise needed.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if row:
            row = _primitive(row)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row = _eliminate(row, pivot, lead)
    return len(pivots)


def two_term_basis(rows: list[dict[int, int]]) -> list[int]:
    """Indices of a row basis, first found first, of rows with at most two entries.

    Entries are nonzero ints; the rank is the basis's length.  No row is
    eliminated: columns are the nodes of a union-find forest, and a row
    a*x_u + b*x_v = 0 is an edge that fixes x_v / x_u.  Each node keeps the
    ratio of its value to its parent's as a gcd-reduced int pair (p, q),
    so every kernel vector is fixed on a component by its value at the
    root, until a one-term row, or a cycle whose ratios disagree, forces
    the whole component to zero.  Ratios are compared by cross-multiplying,
    so no quotient is formed.  A row is independent of the rows before it
    exactly when it joins two components that are not both forced to zero,
    or forces a free component to zero.  Raises ValueError on a row with
    more than two entries.
    """
    parent: dict[int, int] = {}
    ratio: dict[int, tuple[int, int]] = {}
    forced: set[int] = set()

    def find(u):
        """(root, p, q) with x_u / x_root = p / q, for a node that is not a root.

        Compresses the path: each node on it is reattached to the root.
        """
        path = []
        while u in parent:
            path.append(u)
            u = parent[u]
        p = q = 1
        for node in reversed(path):
            p, q = _reduced(ratio[node][0] * p, ratio[node][1] * q)
            parent[node], ratio[node] = u, (p, q)
        return u, p, q

    basis = []
    for index, row in enumerate(rows):
        if len(row) == 2:
            (u, a), (v, b) = row.items()
            ru, pu, qu = find(u) if u in parent else (u, 1, 1)
            rv, pv, qv = find(v) if v in parent else (v, 1, 1)
            if ru == rv:
                # a*pu/qu + b*pv/qv = 0 says the row holds on every kernel vector
                if ru in forced or a * pu * qv + b * pv * qu == 0:
                    continue
                forced.add(ru)
            elif ru in forced and rv in forced:
                continue
            else:
                parent[rv] = ru
                if ru in forced or rv in forced:
                    forced.add(ru)
                    ratio[rv] = (1, 1)
                else:
                    ratio[rv] = _reduced(-a * pu * qv, b * pv * qu)
        elif len(row) == 1:
            (u,) = row
            root = find(u)[0] if u in parent else u
            if root in forced:
                continue
            forced.add(root)
        elif row:
            raise ValueError(f"row {index} has {len(row)} entries, more than two")
        else:
            continue
        basis.append(index)
    return basis


def _reduced(p: int, q: int) -> tuple[int, int]:
    """The ratio p / q as an int pair divided by gcd(p, q)."""
    g = gcd(p, q)
    return (p, q) if g == 1 else (p // g, q // g)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """A row of nonzero ints divided by its content.

    A row with content 1, every row of the Koszul complexes at fixed points
    among them, is returned as it is, not copied.
    """
    content = gcd(*row.values())
    return row if content == 1 else {c: v // content for c, v in row.items()}


def _eliminate(row: dict[int, int], pivot: dict[int, int], lead: int) -> dict[int, int]:
    """a*row - b*pivot, made primitive, where a and b cancel the lead column.

    The result is a new dict: the row may be the caller's own (_primitive).
    """
    a, b = pivot[lead], row[lead]
    g = gcd(a, b)
    a, b = a // g, b // g
    row = {c: a * v for c, v in row.items()} if a != 1 else dict(row)
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
    """Rank of a dense list-of-rows matrix of ints, through rank_sparse."""
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

