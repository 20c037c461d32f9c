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
keeps is 1.  What a row needs of the source alone (each generator's
character, each generator pair's lcm character and cofactors) is read once
per source, so that ``hom_matrix`` costs each target only lookups in its
character table.
"""

from __future__ import annotations

from . import linalg
from .ggraph import GGraph, Monomial, mono_lcm, mono_mul
from .groups import AbelianGroup

# A flat row (u, a, v, b) of linalg.two_term_basis, and what of the rows
# depends on the source alone (_syzygies).
Row = tuple[int, int, int, int]
Syzygies = tuple[list[int], list[tuple[int, int, int, Monomial, Monomial]]]


def hom_constraints(G: AbelianGroup, source: GGraph, target: GGraph) -> list[Row]:
    """The pairwise lcm syzygies, as linear rows on the generators' scalars.

    For generators g, h with lcm L, the two transported images are
    u_g = (L/g) m(g) and u_h = (L/h) m(h).  Both carry the character of L,
    and the target staircase holds one monomial of each character, so a
    transported image survives in the target quotient exactly when it
    equals the one monomial of the lcm's character, and two survivors are
    the same monomial.  Both surviving give the row x_g - x_h, exactly one
    the row x_g or x_h, and neither a vacuous relation with no row; rows are
    flat (u, a, v, b) as linalg.two_term_basis reads them, a one-term row
    x_g being (g, 1, g, 0).
    """
    return _rows(_syzygies(G, source), target)


def hom_dim(G: AbelianGroup, source: GGraph, target: GGraph) -> int:
    """dim Hom_A(I1, A/I2)^G for two fixed points: the scalars less the rank of their syzygies."""
    return _dim(_syzygies(G, source), target)


def hom_matrix(G: AbelianGroup, fixed_points: list[GGraph]) -> list[list[int]]:
    """Matrix of hom_dim over all ordered pairs of fixed points.

    Each source's syzygies are read once, and each target costs only lookups
    in its character table.
    """
    sources = [_syzygies(G, source) for source in fixed_points]
    return [[_dim(syzygies, target) for target in fixed_points] for syzygies in sources]


def _syzygies(G: AbelianGroup, source: GGraph) -> Syzygies:
    """What of hom_constraints depends on the source alone.

    The characters of the generators, and per pair of generators (i, j),
    i < j, with lcm L: (i, j, character of L, L/g_i, L/g_j).
    """
    gens = source.ideal.gens
    pairs = []
    for i, g in enumerate(gens):
        for j in range(i + 1, len(gens)):
            h = gens[j]
            lcm = mono_lcm(g, h)
            pairs.append((i, j, G.char_index(lcm), _quotient(lcm, g), _quotient(lcm, h)))
    return [G.char_index(g) for g in gens], pairs


def _dim(syzygies: Syzygies, target: GGraph) -> int:
    """hom_dim of one source's syzygies in one target."""
    ngens = len(syzygies[0])
    return ngens - len(linalg.two_term_basis(_rows(syzygies, target), ngens))


def _rows(syzygies: Syzygies, target: GGraph) -> list[Row]:
    """The rows of hom_constraints of one source's syzygies in one target."""
    chars, pairs = syzygies
    by_char = target.by_char
    matched = [by_char[c] for c in chars]
    rows = []
    for i, j, c, to_g, to_h in pairs:
        u = by_char[c]
        g_lives = u == mono_mul(matched[i], to_g)
        h_lives = u == mono_mul(matched[j], to_h)
        if g_lives and h_lives:
            rows.append((i, 1, j, -1))
        elif g_lives:
            rows.append((i, 1, i, 0))
        elif h_lives:
            rows.append((j, 1, j, 0))
    return rows


def _quotient(lcm: Monomial, g: Monomial) -> Monomial:
    return (lcm[0] - g[0], lcm[1] - g[1], lcm[2] - g[2])
