"""Equivariant Hom dimensions between torus-fixed ideals.

An equivariant A-module map from I1 to A/I2 is determined by one scalar per
minimal generator g of I1, sent to its character match m(g) in the target
staircase.  The pairwise lcm relations among the generators generate all
syzygies of a monomial ideal, and each one either identifies two scalars,
kills one, or is vacuous; the Hom dimension is the number of surviving
scalar classes.  A union-find with a zero flag resolves the constraints in
any order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ggraph import GGraph, Monomial, mono_lcm, mono_mul, mono_str
from .groups import AbelianGroup


@dataclass(frozen=True)
class HomInstance:
    """Generators of the source ideal paired with their target monomials."""

    source: GGraph
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
    return HomInstance(source=source, target=target, gens=gens, targets=matched)


class _UnionFind:
    """Union-find over generator indices with an order-independent zero flag."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.zero = [False] * n

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        self.parent[rj] = ri
        self.zero[ri] = self.zero[ri] or self.zero[rj]

    def mark_zero(self, i: int) -> None:
        self.zero[self.find(i)] = True

    def free_classes(self) -> int:
        roots = {self.find(i) for i in range(len(self.parent))}
        return sum(1 for r in roots if not self.zero[r])


def hom_constraints(inst: HomInstance, uf: _UnionFind, trace: list | None = None) -> None:
    """Apply every pairwise lcm syzygy to the generators' union-find.

    For generators g, h with lcm L, the two transported images are
    u_g = (L/g) m(g) and u_h = (L/h) m(h).  If both survive in the target
    quotient they are the same monomial and the scalars agree; if exactly
    one survives its scalar is zero; if neither does, the relation is
    vacuous.  Given a list, each syzygy is appended to it as an audit record.
    """
    ideal2 = inst.target.ideal
    n = len(inst.gens)
    for i in range(n):
        for j in range(i + 1, n):
            g, h = inst.gens[i], inst.gens[j]
            lcm = mono_lcm(g, h)
            u_g = mono_mul(inst.targets[i], _quotient(lcm, g))
            u_h = mono_mul(inst.targets[j], _quotient(lcm, h))
            g_lives = not ideal2.contains(u_g)
            h_lives = not ideal2.contains(u_h)
            if g_lives and h_lives:
                if u_g != u_h:
                    raise RuntimeError(
                        f"surviving images {mono_str(u_g)} and {mono_str(u_h)} of a "
                        "syzygy differ; the target staircase is corrupted"
                    )
                uf.union(i, j)
                action = "union"
            elif g_lives:
                uf.mark_zero(i)
                action = "zero_first"
            elif h_lives:
                uf.mark_zero(j)
                action = "zero_second"
            else:
                action = "none"
            if trace is not None:
                trace.append(
                    {
                        "pair": [list(g), list(h)],
                        "lcm": list(lcm),
                        "images": [list(u_g), list(u_h)],
                        "action": action,
                    }
                )


def hom_dim(
    G: AbelianGroup, source: GGraph, target: GGraph, trace: list | None = None
) -> int:
    """dim Hom_A(I1, A/I2)^G for two fixed points, by syzygy propagation."""
    inst = hom_instance(G, source, target)
    uf = _UnionFind(len(inst.gens))
    hom_constraints(inst, uf, trace)
    return uf.free_classes()


def hom_matrix(G: AbelianGroup, fixed_points: list[GGraph]) -> list[list[int]]:
    """Matrix of hom_dim over all ordered pairs of fixed points."""
    return [
        [hom_dim(G, src, tgt) for tgt in fixed_points] for src in fixed_points
    ]


def _quotient(lcm: Monomial, g: Monomial) -> Monomial:
    return (lcm[0] - g[0], lcm[1] - g[1], lcm[2] - g[2])
