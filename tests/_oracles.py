"""Reference implementations that the package's faster routes are checked against.

hom_dim_dense: independent dense oracle for the equivariant Hom dimension.
Unknowns are the scalar values of a candidate map on every monomial of the
source ideal up to total degree 3|G| (equivariance forces each image onto a
single staircase monomial).  One-step multiplication by each variable gives
the full set of linearity constraints inside the degree box, which contains
every pairwise lcm of the generators.  The dimension of the solution space
is the nullity of the constraint matrix, computed by exact sparse
elimination; no syzygy bookkeeping is shared with the production route.

enumerate_fixed_points_scan, character_scan and lattices_scan: the direct
scans over the six-parameter box and over [0, R)^3 that the enumeration, the
character table and the lattice construction replace.
"""

from __future__ import annotations

from itertools import product

from ghilb import linalg
from ghilb.ggraph import (
    GGraph,
    MonomialIdeal,
    count_identity_value,
    is_ggraph,
    mono_mul,
    seven_generators,
)
from ghilb.groups import AbelianGroup
from ghilb.linalg import rank_sparse
from ghilb.toric import LatticePair


def hom_dim_dense(G: AbelianGroup, source: GGraph, target: GGraph) -> int:
    degree_cap = 3 * G.order
    ideal1, ideal2 = source.ideal, target.ideal
    pos2 = target.char_to_gamma()

    monomials = [
        m
        for total in range(degree_cap + 1)
        for m in _monomials_of_degree(total)
        if ideal1.contains(m)
    ]
    index = {m: k for k, m in enumerate(monomials)}

    rows: list[dict[int, int]] = []
    for w in monomials:
        if sum(w) == degree_cap:
            continue
        image = target.gamma[pos2[G.char_index(w)]]
        for alpha in range(3):
            step = (int(alpha == 0), int(alpha == 1), int(alpha == 2))
            w_up = mono_mul(w, step)
            if ideal2.contains(mono_mul(image, step)):
                rows.append({index[w_up]: 1})
            else:
                rows.append({index[w_up]: 1, index[w]: -1})
    return len(monomials) - rank_sparse(rows, len(monomials))


def _monomials_of_degree(total: int):
    for l in range(total + 1):
        for m in range(total + 1 - l):
            yield (l, m, total - l - m)


def enumerate_fixed_points_scan(G: AbelianGroup) -> list[GGraph]:
    """All torus-fixed points, by scanning both kinds over the parameter box.

    Every parameter ranges over [1, |G|]; candidates are pruned by the three
    character-matching conditions and the counting identity, deduplicated on
    the minimal generators and revalidated by is_ggraph.
    """
    N = G.order
    ci = G.char_index
    cx = [ci((k, 0, 0)) for k in range(N + 1)]
    cy = [ci((0, k, 0)) for k in range(N + 1)]
    cz = [ci((0, 0, k)) for k in range(N + 1)]
    pairs_by_char: dict[int, list[tuple[int, int]]] = {}
    for b in range(1, N + 1):
        for f in range(1, N + 1):
            pairs_by_char.setdefault(ci((0, b - 1, f - 1)), []).append((b, f))

    seen = set()
    results: list[GGraph] = []
    for kind in ("A", "B"):
        delta = 1 if kind == "A" else 0
        for a in range(1, N + 1):
            for d in range(1, N + 1):
                alpha = a + d - delta
                if not 1 <= alpha <= N:
                    continue
                for b, f in pairs_by_char.get(cx[alpha], ()):
                    for e in range(1, N + 1):
                        beta = b + e - delta
                        if not 1 <= beta <= N:
                            continue
                        target_z = ci((a - 1, e - 1, 0))
                        target_y = cy[beta]
                        for c in range(1, N + 1):
                            gamma_exp = c + f - delta
                            if not 1 <= gamma_exp <= N:
                                continue
                            if cz[gamma_exp] != target_z:
                                continue
                            if ci((d - 1, 0, c - 1)) != target_y:
                                continue
                            params = (a, b, c, d, e, f)
                            if count_identity_value(kind, params) != N:
                                continue
                            ideal = MonomialIdeal.from_generators(
                                seven_generators(kind, params)
                            )
                            if ideal.gens in seen:
                                continue
                            seen.add(ideal.gens)
                            gg = is_ggraph(G, ideal)
                            if gg is not None:
                                results.append(gg)
    results.sort(key=lambda gg: gg.gamma)
    return results


def fingerprint(G: AbelianGroup, e) -> tuple[int, ...]:
    """Exponents of the values of the character of x^l y^m z^n on G.elements."""
    l, m, n = e
    return tuple((l * g1 + m * g2 + n * g3) % G.R for (g1, g2, g3) in G.elements)


def character_scan(G: AbelianGroup):
    """(fingerprints, exponents) of the characters from the full [0, R)^3 scan.

    Characters are sorted by fingerprint, each with the lexicographically
    first exponent that carries it.
    """
    rep_of_fp = {}
    for e in product(range(G.R), repeat=3):
        rep_of_fp.setdefault(fingerprint(G, e), e)
    fingerprints = sorted(rep_of_fp)
    return fingerprints, [rep_of_fp[fp] for fp in fingerprints]


def lattices_scan(G: AbelianGroup) -> LatticePair:
    """M as the HNF of R*Z^3 and every invariant exponent in [0, R)^3; N = M*."""
    R = G.R
    rows = [[R, 0, 0], [0, R, 0], [0, 0, R]]
    for e in product(range(R), repeat=3):
        if not any(fingerprint(G, e)):
            rows.append(list(e))
    m_basis = linalg.hnf(rows)
    n_rows = linalg.transpose(linalg.invert(m_basis))
    return LatticePair(
        n_basis=tuple(tuple(row) for row in n_rows),
        m_basis=tuple(tuple(row) for row in m_basis),
        group_order=G.order,
    )
