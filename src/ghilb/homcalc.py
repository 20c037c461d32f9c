"""Equivariant Hom dimensions between torus-fixed ideals.

An equivariant A-module map from I1 to A/I2 is determined by one scalar per
minimal generator g of I1, sent to its character match m(g) in the target
staircase.  The pairwise lcm relations among the generators generate all
syzygies of a monomial ideal, and each one either identifies two scalars,
kills one, or is vacuous.  Each is one linear row on the scalars with at
most two entries, x_g - x_h or x_g, so the Hom dimension is the number of
generators less the rank of those rows, which ``linalg.two_term_basis``
reads off without elimination; every ratio it keeps is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .ggraph import GGraph, Monomial, mono_lcm, mono_mul, mono_str
from .groups import AbelianGroup


@dataclass(frozen=True)
class HomInstance:
    """Generators of the source ideal paired with their target monomials."""

    target: GGraph
    gens: tuple[Monomial, ...]
    targets: tuple[Monomial, ...]


def hom_instance(G: AbelianGroup, source: GGraph, target: GGraph) -> HomInstance:
    pos = target.char_to_gamma()
    gens = source.ideal.gens
    try:
        matched = tuple(target.gamma[pos[G.char_index(g)]] for g in gens)
    except KeyError as exc:
        raise RuntimeError(
            f"target staircase carries no monomial of character {exc}; "
            "the staircase is corrupted"
        ) from exc
    return HomInstance(target=target, gens=gens, targets=matched)


def hom_constraints(inst: HomInstance) -> list[dict[int, int]]:
    """The pairwise lcm syzygies, as linear rows on the generators' scalars.

    For generators g, h with lcm L, the two transported images are
    u_g = (L/g) m(g) and u_h = (L/h) m(h).  If both survive in the target
    quotient they are the same monomial and the scalars agree, the row
    x_g - x_h; if exactly one survives its scalar is zero, the row x_g or
    x_h; if neither does, the relation is vacuous and gives no row.  A
    monomial survives exactly when it lies in the target staircase.
    """
    staircase = set(inst.target.gamma)
    n = len(inst.gens)
    rows: list[dict[int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            g, h = inst.gens[i], inst.gens[j]
            lcm = mono_lcm(g, h)
            u_g = mono_mul(inst.targets[i], _quotient(lcm, g))
            u_h = mono_mul(inst.targets[j], _quotient(lcm, h))
            g_lives = u_g in staircase
            h_lives = u_h in staircase
            if g_lives and h_lives:
                if u_g != u_h:
                    raise RuntimeError(
                        f"surviving images {mono_str(u_g)} and {mono_str(u_h)} of a "
                        "syzygy differ; the target staircase is corrupted"
                    )
                rows.append({i: 1, j: -1})
            elif g_lives:
                rows.append({i: 1})
            elif h_lives:
                rows.append({j: 1})
    return rows


def hom_dim(G: AbelianGroup, source: GGraph, target: GGraph) -> int:
    """dim Hom_A(I1, A/I2)^G for two fixed points: the scalars less the rank of their syzygies."""
    inst = hom_instance(G, source, target)
    return len(inst.gens) - len(linalg.two_term_basis(hom_constraints(inst)))


def hom_matrix(G: AbelianGroup, fixed_points: list[GGraph]) -> list[list[int]]:
    """Matrix of hom_dim over all ordered pairs of fixed points."""
    return [
        [hom_dim(G, src, tgt) for tgt in fixed_points] for src in fixed_points
    ]


def _quotient(lcm: Monomial, g: Monomial) -> Monomial:
    return (lcm[0] - g[0], lcm[1] - g[1], lcm[2] - g[2])
