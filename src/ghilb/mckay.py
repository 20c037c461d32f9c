"""Tensor-decomposition matrices for wedge powers of the coordinate action.

For each wedge degree i the matrix a^(i) counts, per pair of characters
(k, l), the i-element subsets S of {x, y, z} whose character product moves
rho_l to rho_k.  Degree 0 and 3 give the identity because the group sits in
SL3.  The antisymmetrized difference a^(2) - a^(1) is the intersection
pairing of the dual compact classes.  The matrices compose the group's
McKay arrows (AbelianGroup.arrows); the intersection matrix and the DOT
source are read off them, not rebuilt.
"""

from __future__ import annotations

from itertools import combinations

from .groups import AbelianGroup


def mckay_matrices(G: AbelianGroup):
    """Return (a0, a1, a2, a3) as |G| x |G| integer matrices.

    Entry a^(i)[k][l] counts size-i subsets S of the coordinate characters
    with chi_S * rho_l = rho_k, so a^(1)[k][l] arrows run l -> k in the
    McKay quiver.
    """
    n = G.order
    mats = []
    for i in range(4):
        mat = [[0] * n for _ in range(n)]
        for subset in combinations(G.arrows, i):
            for l in range(n):
                k = l
                for arrow in subset:
                    k = arrow[k]
                mat[k][l] += 1
        mats.append(mat)
    return tuple(mats)


def intersection_matrix(matrices) -> list[list[int]]:
    """a^(2) - a^(1) of mckay_matrices: the antisymmetric pairing of the dual classes."""
    _, a1, a2, _ = matrices
    return [[x2 - x1 for x1, x2 in zip(r1, r2)] for r1, r2 in zip(a1, a2)]


def quiver_dot(G: AbelianGroup, matrices) -> str:
    """DOT source for the McKay quiver, one parallel edge per count of a^(1)."""
    _, a1, _, _ = matrices
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
