"""Exact linear algebra: one sparse elimination kernel, two-term bases and 3x3 closed forms.

``rank_sparse`` is the package's only elimination.  It takes rows as dicts
column -> nonzero int, divides each row by its content (which does not
change the rank) and eliminates with integer row operations, so no quotient
is ever formed.  ``two_term_basis`` needs no elimination: on flat rows
(u, a, v, b), each a*x_u + b*x_v with a term possibly zero or both on one
column, it finds a row basis by a union-find over the columns held in
lists, keeping exact ratios as int pairs, with no gcd for a ratio of +-1.
It cancels the d3 and d1 cells of the Koszul complexes and ranks the Hom
syzygy rows x_g - x_h and x_g of ``homcalc``.  ``det3`` and ``adjugate3``
are the closed-form 3x3 determinant and adjugate of the chart exponent
matrices.  Everything here is exact; no floating point is used anywhere in
the package.
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


def two_term_basis(rows, ncols: int) -> list[int]:
    """Indices of a row basis, first found first, of two-term rows on ncols columns.

    Each row is a flat tuple (u, a, v, b) of ints standing for a*x_u + b*x_v:
    a or b may be zero, and when u == v the row is (a + b)*x_u.  The rank is
    the basis's length.  No row is eliminated: columns are the nodes of a
    union-find forest held in lists, and a row a*x_u + b*x_v = 0 with a and b
    nonzero is an edge that fixes x_v / x_u.  Each node keeps the ratio of
    its value to its parent's as an int pair (p, q) with q > 0, reduced by
    gcd only when q is not 1, so that ratios of +-1 never call gcd; every
    kernel vector is fixed on a component by its value at the root, until a
    one-term row, or a cycle whose ratios disagree, forces the whole
    component to zero.  Ratios are compared by cross-multiplying, so no
    quotient is formed.  A row is independent of the rows before it exactly
    when it joins two components that are not both forced to zero, or
    forces a free component to zero.  Raises ValueError on a row that is not
    one (u, a, v, b).
    """
    parent = list(range(ncols))
    num = [1] * ncols
    den = [1] * ncols
    forced = [False] * ncols
    basis = []
    try:
        for index, (u, a, v, b) in enumerate(rows):
            if u == v:
                a, b = a + b, 0
            if not a:
                if not b:
                    continue
                u, a, v, b = v, b, u, 0
            ru = parent[u]
            if ru == u:
                pu = qu = 1
            elif parent[ru] == ru:
                pu, qu = num[u], den[u]
            else:
                ru, pu, qu = _find(parent, num, den, u)
            if not b:
                if forced[ru]:
                    continue
                forced[ru] = True
            else:
                rv = parent[v]
                if rv == v:
                    pv = qv = 1
                elif parent[rv] == rv:
                    pv, qv = num[v], den[v]
                else:
                    rv, pv, qv = _find(parent, num, den, v)
                if ru == rv:
                    # a*pu/qu + b*pv/qv = 0 says the row holds on every kernel vector
                    if forced[ru] or a * pu * qv + b * pv * qu == 0:
                        continue
                    forced[ru] = True
                elif forced[ru] or forced[rv]:
                    if forced[ru] and forced[rv]:
                        continue
                    parent[rv] = ru
                    forced[ru] = True
                else:
                    parent[rv] = ru
                    p, q = -a * pu * qv, b * pv * qu
                    if q < 0:
                        p, q = -p, -q
                    num[rv], den[rv] = (p, q) if q == 1 else reduced(p, q)
            basis.append(index)
    except ValueError:
        raise ValueError(f"row {index} is not one (u, a, v, b) of at most two terms") from None
    return basis


def _find(parent: list[int], num: list[int], den: list[int], u: int) -> tuple[int, int, int]:
    """(root, p, q) with x_u / x_root = p / q, for a node two or more links below its root.

    Compresses the path: each node on it is reattached to the root, with its
    ratio to the root, reduced by gcd unless q is 1.
    """
    path = [u]
    root = parent[u]
    while parent[root] != root:
        path.append(root)
        root = parent[root]
    p = q = 1
    for node in reversed(path):
        p *= num[node]
        q *= den[node]
        if q != 1:
            p, q = reduced(p, q)
        parent[node], num[node], den[node] = root, p, q
    return root, p, q


def reduced(p: int, q: int) -> tuple[int, int]:
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
    """Determinant of a 3x3 matrix, by cofactor expansion."""
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

