"""Equivariant Hom dimensions between torus-fixed ideals.

An equivariant A-module map from I1 to A/I2 is determined by one scalar per
minimal generator g of I1, sent to its character match m(g) =
target.by_char[c(g)], the one monomial of the target staircase with the
character of g.  The pairwise lcm relations among the generators generate
all syzygies of a monomial ideal, and each one either identifies two
scalars, kills one, or is vacuous.  Each is one linear row on the scalars
with at most two entries, x_g - x_h or x_g, so the Hom dimension is the
number of generators less the rank of those rows, which
``linalg.two_term_basis`` reads off without elimination; every ratio it
keeps is 1.
"""

from __future__ import annotations

from . import linalg
from .ggraph import GGraph, Monomial, mono_lcm, mono_mul
from .groups import AbelianGroup


def hom_constraints(G: AbelianGroup, source: GGraph, target: GGraph) -> list[dict[int, int]]:
    """The pairwise lcm syzygies, as linear rows on the generators' scalars.

    For generators g, h with lcm L, the two transported images are
    u_g = (L/g) m(g) and u_h = (L/h) m(h).  Both carry the character of L,
    and the target staircase holds one monomial of each character, so a
    transported image survives in the target quotient exactly when it
    equals the one monomial of the lcm's character, and two survivors are
    the same monomial.  Both surviving give the row x_g - x_h, exactly one
    the row x_g or x_h, and neither a vacuous relation with no row.
    """
    gens = source.ideal.gens
    matched = [target.by_char[G.char_index(g)] for g in gens]
    rows: list[dict[int, int]] = []
    for i, g in enumerate(gens):
        for j in range(i + 1, len(gens)):
            h = gens[j]
            lcm = mono_lcm(g, h)
            u = target.by_char[G.char_index(lcm)]
            g_lives = u == mono_mul(matched[i], _quotient(lcm, g))
            h_lives = u == mono_mul(matched[j], _quotient(lcm, h))
            if g_lives and h_lives:
                rows.append({i: 1, j: -1})
            elif g_lives:
                rows.append({i: 1})
            elif h_lives:
                rows.append({j: 1})
    return rows


def hom_dim(G: AbelianGroup, source: GGraph, target: GGraph) -> int:
    """dim Hom_A(I1, A/I2)^G for two fixed points: the scalars less the rank of their syzygies."""
    rows = hom_constraints(G, source, target)
    return len(source.ideal.gens) - len(linalg.two_term_basis(rows))


def hom_matrix(G: AbelianGroup, fixed_points: list[GGraph]) -> list[list[int]]:
    """Matrix of hom_dim over all ordered pairs of fixed points."""
    return [
        [hom_dim(G, src, tgt) for tgt in fixed_points] for src in fixed_points
    ]


def _quotient(lcm: Monomial, g: Monomial) -> Monomial:
    return (lcm[0] - g[0], lcm[1] - g[1], lcm[2] - g[2])
