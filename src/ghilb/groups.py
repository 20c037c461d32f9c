"""Diagonal finite abelian subgroups of SL3(C) and their character groups.

A group element is a weight triple (v1, v2, v3) taken modulo the common
exponent R; it stands for the diagonal matrix diag(w^v1, w^v2, w^v3) with
w = exp(2*pi*i/R).  The determinant-one condition reads v1+v2+v3 = 0 mod R.
A character is determined by its values on the generators, so it is keyed by
its pairing with the generator elements: #generators integers mod R.  Its
public form is the value table (fingerprint) over the canonically ordered
elements, entry k the exponent e of its value w^e at the k-th element, so
that equality of fingerprints is equality of characters.  Characters are
indexed in fingerprint order, found by sorting on a prefix of the element
pairings, doubled in length until it tells the characters apart;
AbelianGroup.characters holds the full fingerprints, built on first use.
The McKay arrows c -> c + chi_alpha of x, y and z (AbelianGroup.arrows) are
the only rows built by adding keys; the product table char_add is built row
by row, every other row being a known row read through one of those three.
The wedge arrows c -> c + chi_alpha + chi_beta (AbelianGroup.wedge_arrows),
which the Koszul complexes read, are the arrows composed, built on first use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import lcm

Triple = tuple[int, int, int]
COORD_EXPONENTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class GroupSpecError(ValueError):
    """Generator data that does not define a nontrivial subgroup of SL3."""


@dataclass(frozen=True)
class Generator:
    """One diagonal generator of order r with weights (w1, w2, w3)."""

    order: int
    weights: Triple


@dataclass(frozen=True)
class GroupSpec:
    generators: tuple[Generator, ...]

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        """Parse a spec string like "7:1,2,4" or "2:1,1,0;2:1,0,1"."""
        generators = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            head, sep, tail = chunk.partition(":")
            if not sep:
                raise GroupSpecError(f"generator {chunk!r} is not of the form r:w1,w2,w3")
            try:
                order = int(head)
                weights = tuple(int(w) for w in tail.split(","))
            except ValueError as exc:
                raise GroupSpecError(f"generator {chunk!r} is not of the form r:w1,w2,w3") from exc
            if len(weights) != 3:
                raise GroupSpecError(f"generator {chunk!r} must carry exactly three weights")
            generators.append(Generator(order, weights))
        spec = cls(tuple(generators))
        spec.validate()
        return spec

    def validate(self) -> None:
        if not self.generators:
            raise GroupSpecError("no generators given")
        for gen in self.generators:
            if gen.order < 1:
                raise GroupSpecError(f"generator order {gen.order} must be >= 1")
            if any(not 0 <= w < gen.order for w in gen.weights):
                raise GroupSpecError(f"weights {gen.weights} must lie in [0, {gen.order})")
            if sum(gen.weights) % gen.order != 0:
                raise GroupSpecError(
                    f"weights {gen.weights} have w1+w2+w3 != 0 mod {gen.order}; "
                    "the generator is not in SL3"
                )
        if all(w == 0 for gen in self.generators for w in gen.weights):
            raise GroupSpecError("all generators are trivial")


class AbelianGroup:
    """Closure of the diagonal generators, with precomputed character data.

    Elements are canonically ordered lexicographically; characters are
    ordered lexicographically on their fingerprints, which puts the trivial
    character first.  Instances are immutable after construction.
    """

    def __init__(self, spec: GroupSpec):
        spec.validate()
        R = lcm(*(g.order for g in spec.generators))
        gens = [
            tuple((w * (R // g.order)) % R for w in g.weights) for g in spec.generators
        ]
        elems = {(0, 0, 0)}
        frontier = [(0, 0, 0)]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = tuple((c + w) % R for c, w in zip(cur, g))
                if nxt not in elems:
                    elems.add(nxt)
                    frontier.append(nxt)
        self.spec = spec
        self.R = R
        self.elements: tuple[Triple, ...] = tuple(sorted(elems))
        self.order = len(self.elements)
        self.generator_elements = tuple(tuple(g) for g in gens)
        if self.order == 1:
            raise GroupSpecError("the generated group is trivial")
        self._element_set = frozenset(self.elements)
        self._build_characters()

    def _pairing(self, e: Triple, points: tuple[Triple, ...]) -> tuple[int, ...]:
        """Pairing of the exponent with each of the points, mod R."""
        R = self.R
        l, m, n = e
        return tuple((l * g1 + m * g2 + n * g3) % R for (g1, g2, g3) in points)

    def _build_characters(self) -> None:
        """Find one exponent per character, first in lexicographic order.

        Exponents in [0, R)^3 realize every character, and the scan stops as
        soon as |G| distinct keys have turned up.
        """
        R = self.R
        gens = self.generator_elements
        rep_of_key: dict[tuple[int, ...], Triple] = {}
        for e in itertools.product(range(R), repeat=3):
            key = self._pairing(e, gens)
            if key not in rep_of_key:
                rep_of_key[key] = e
                if len(rep_of_key) == self.order:
                    break
        if len(rep_of_key) != self.order:
            raise RuntimeError(
                f"character scan found {len(rep_of_key)} characters for a group "
                f"of order {self.order}; group construction is inconsistent"
            )
        # Sorting on the pairings with the first L elements gives the order
        # of the full fingerprints once those prefixes are pairwise distinct;
        # L doubles from 2 (the first element is the identity) until they are.
        L = 2
        while True:
            points = self.elements[:L]
            prefix = {key: self._pairing(e, points) for key, e in rep_of_key.items()}
            if L >= self.order or len(set(prefix.values())) == self.order:
                break
            L *= 2
        keys = sorted(rep_of_key, key=prefix.__getitem__)
        self.char_exponents: tuple[Triple, ...] = tuple(rep_of_key[k] for k in keys)
        index_of_key = {key: k for k, key in enumerate(keys)}
        # Character index of x^j, y^j and z^j for j in [0, R).
        self._axis_index = tuple(
            tuple(
                index_of_key[self._pairing((j * u1, j * u2, j * u3), gens)]
                for j in range(R)
            )
            for (u1, u2, u3) in COORD_EXPONENTS
        )
        # The McKay arrows, built from keys once: arrows[alpha][c] is
        # c + chi_alpha, chi_alpha the character of x, y or z.
        self.arrows: tuple[tuple[int, ...], ...] = tuple(
            tuple(index_of_key[tuple((a + b) % R for a, b in zip(keys[axis[1]], key))] for key in keys)
            for axis in self._axis_index
        )
        # Index table for products of characters, row by row: with shift the
        # arrows of chi, row(c + chi)[j] = row(c)[shift[j]].  The walk starts
        # at the trivial row, and chi_x, chi_y, chi_z generate the characters.
        trivial = index_of_key[(0,) * len(gens)]
        rows: list = [None] * self.order
        rows[trivial] = tuple(range(self.order))
        stack = [trivial]
        while stack:
            row = rows[stack.pop()]
            for shift in self.arrows:
                nxt = row[shift[trivial]]
                if rows[nxt] is None:
                    rows[nxt] = tuple(map(row.__getitem__, shift))
                    stack.append(nxt)
        self.char_add: tuple[tuple[int, ...], ...] = tuple(rows)

    @cached_property
    def characters(self) -> tuple[tuple[int, ...], ...]:
        """The fingerprints of the characters, in index order; built on first use."""
        return tuple(self._pairing(e, self.elements) for e in self.char_exponents)

    @cached_property
    def wedge_arrows(self) -> tuple[tuple[int, ...], ...]:
        """wedge_arrows[gamma][c] = arrows[alpha][arrows[beta][c]], alpha < beta the other two.

        That is c + chi_alpha + chi_beta, which is c - chi_gamma because xyz
        is invariant.  Built once per group, on first use.
        """
        x, y, z = self.arrows
        return tuple(tuple(a[t] for t in b) for a, b in ((y, z), (x, z), (x, y)))

    # -- character operations -------------------------------------------------

    def char_index(self, e: Triple) -> int:
        """Index of the character carried by the monomial x^l y^m z^n."""
        R = self.R
        add = self.char_add
        tx, ty, tz = self._axis_index
        return add[add[tx[e[0] % R]][ty[e[1] % R]]][tz[e[2] % R]]

    # -- ages and junior elements --------------------------------------------

    def age(self, g: Triple) -> int:
        """(g1+g2+g3)/R, exact on an element: 0 for the identity, else 1 or 2."""
        if tuple(g) not in self._element_set:
            raise ValueError(f"{g} is not an element of the group")
        return sum(g) // self.R

    def junior_elements(self) -> tuple[Triple, ...]:
        return tuple(g for g in self.elements if self.age(g) == 1)

    def __repr__(self) -> str:
        gens = ";".join(
            f"{g.order}:{g.weights[0]},{g.weights[1]},{g.weights[2]}"
            for g in self.spec.generators
        )
        return f"AbelianGroup({gens}, order={self.order})"
