"""Tensor-decomposition matrices for wedge powers of the coordinate action.

For each wedge degree i the matrix a^(i) counts, per pair of characters
(k, l), the i-element subsets S of {x, y, z} whose character product moves
rho_l to rho_k.  Degree 0 and 3 give the identity because the group sits in
SL3.  The antisymmetrized difference a^(2) - a^(1) is the intersection
pairing of the dual compact classes.
"""

from __future__ import annotations

from itertools import combinations

from .groups import AbelianGroup

COORD_EXPONENTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def mckay_matrices(G: AbelianGroup):
    """Return (a0, a1, a2, a3) as |G| x |G| integer matrices.

    Entry a^(i)[k][l] counts size-i subsets S of the coordinate characters
    with chi_S * rho_l = rho_k, so a^(1)[k][l] arrows run l -> k in the
    McKay quiver.
    """
    n = G.order
    coord = [G.char_index(e) for e in COORD_EXPONENTS]
    mats = []
    for i in range(4):
        mat = [[0] * n for _ in range(n)]
        for subset in combinations(range(3), i):
            shift = 0
            for alpha in subset:
                shift = G.char_add[shift][coord[alpha]]
            for l in range(n):
                mat[G.char_add[shift][l]][l] += 1
        mats.append(mat)
    return tuple(mats)


def intersection_matrix(G: AbelianGroup) -> list[list[int]]:
    """a^(2) - a^(1): the antisymmetric pairing matrix of the dual classes."""
    _, a1, a2, _ = mckay_matrices(G)
    n = G.order
    return [[a2[k][l] - a1[k][l] for l in range(n)] for k in range(n)]


def quiver_dot(G: AbelianGroup) -> str:
    """DOT source for the McKay quiver, one parallel edge per tensor count."""
    _, a1, _, _ = mckay_matrices(G)
    n = G.order
    lines = ["digraph mckay {"]
    for k in range(n):
        l, m, nn = G.char_exponents[k]
        lines.append(f'  v{k} [label="{k}: x^{l} y^{m} z^{nn}"];')
    for k in range(n):
        for l in range(n):
            lines.extend([f"  v{l} -> v{k};"] * a1[k][l])
    lines.append("}")
    return "\n".join(lines)
