"""Reference implementations that the package's faster routes are checked against.

hom_dim_dense: independent dense oracle for the equivariant Hom dimension.
Unknowns are the scalar values of a candidate map on every monomial of the
source ideal up to total degree 3|G| (equivariance forces each image onto a
single staircase monomial).  One-step multiplication by each variable gives
the full set of linearity constraints inside the degree box, which contains
every pairwise lcm of the generators.  The dimension of the solution space
is the nullity of the constraint matrix, computed by exact sparse
elimination; no syzygy bookkeeping is shared with the production route.

count_identity_value: the counting identity's polynomial in the kind A/B
parameters, which the determinant of the chart exponents
(toric.chart_dual_generators) equals and toric.chart_cone checks against
|G|.  enumerate_fixed_points_scan and character_scan: the direct scans over
the six-parameter box and over [0, R)^3 that the enumeration and the
character table replace.  enumerate_fixed_points_ad_search: the solve of
the counting identity over every (a, d) and every pair (b, f), against
which the enumeration's interval of feasible a is checked.
complement_box_scan: the staircase as every cell of the alpha*beta*gamma
box that no generator divides, against which ggraph.complement's column
walk is checked.
character_table_by_keys: the product table and the axis indices by adding
character keys entry by entry, against which the group's row walk is
checked.  in_m, in_n and primitive_in_n: membership in M (e.g = 0 mod R
for every element g), and membership and primitivity in N = Z^3 + sum Z*g/R,
held as R*N like the package's rays, straight from their definitions, against
which the character table and the chart rays are checked with no basis of M
or N built.  hook_staircases: the fixed points of the SL2 case in closed
form, against which the enumeration on r:1,r-1,0 is checked.

rank_dense, kernel_dense, mat_mul and dense: dense Fraction Gaussian
elimination and matrix products, against which the package's one sparse
kernel (linalg.rank_sparse) and its sparse Koszul differentials are checked.
dense_differentials and homology_full_ranks: a complex's differentials in
full (its flat two-term rows of d3 and d1 read by dense_two_term, every row
of d2 built with nothing cut or kept), and its homology from the three full
ranks, against which koszul.reduced_homology's cancelled cells are checked.
two_term_rows: sparse rows of at most two entries in the flat form
(u, a, v, b) that linalg.two_term_basis reads.  wedge_differentials:
the wedge complex of one module built block by block from its B's, against
which koszul.cpxnil_differentials, the pair complex from the zero module, is
checked.

rewrite_matrices: the chart-point module's multiplication matrices by
monomial rewriting with the seven chart relations, on the staircase basis,
against which the closed form of koszul.chart and koszul.build_rep is
checked once reindexed by character.

build_rep_fractions: the chart-point module with each coefficient the
product of Fraction powers of the integer coordinates, one coefficient at a
time, against which koszul.build_rep's power tables are checked.  Every
module handed to the package carries int coefficients, the form build_rep
gives, since its rank kernel takes only int rows.

Every module below is read on character lines, line c spanned by the
staircase monomial of character c, with its own McKay arrows (arrows), not
AbelianGroup.arrows.  dense_matrices and module_from_dense: a module's dense
matrices and cyclic vector, and the module of one coefficient per arrow read
back from dense matrices, which refuses an entry off its arrow; through them
tests build corrupted modules entry by entry.  support_check_walk: x^R,
y^R, z^R and xyz each a nonzero scalar, by an R-step walk from every line,
which pins that chart samples lie over one free orbit and fixed points do
not.  verify_adhm, krylov_dim and all_b_invertible: the ADHM relations,
the cyclic span and invertibility of a module, which hold by construction
at chart points and which verify therefore does not check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from ghilb.ggraph import (
    GGraph,
    MonomialIdeal,
    is_ggraph,
    mono_divides,
    mono_mul,
    seven_generators,
)
from ghilb.groups import COORD_EXPONENTS, AbelianGroup
from ghilb.koszul import Chart, Complex, ModuleRep
from ghilb.linalg import rank_sparse


def hom_dim_dense(G: AbelianGroup, source: GGraph, target: GGraph) -> int:
    degree_cap = 3 * G.order
    ideal1, ideal2 = source.ideal, target.ideal
    match = {G.char_index(m): m for m in target.gamma}

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
        image = match[G.char_index(w)]
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


def count_identity_value(kind: str, params) -> int:
    """Predicted group order from the classification parameters."""
    a, b, c, d, e, f = params
    total = a + b + c + d + e + f
    quad = a * b + a * c + a * e + b * c + b * f + d * c + d * e + d * f + e * f
    if kind == "A":
        return 4 - 2 * total + quad
    return 1 - total + quad


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


def enumerate_fixed_points_ad_search(G: AbelianGroup) -> list[GGraph]:
    """All torus-fixed points, by solving the counting identity for (c, e).

    Every (a, d) with alpha = a + d - (1 if kind A else 0) in [1, |G|] is
    tried against every pair (b, f), b*f <= |G|, passing the x-axis
    character match; the e-range is empty unless K + p + q <= |G|.
    """
    N = G.order
    ci = G.char_index
    cx = [ci((k, 0, 0)) for k in range(N + 1)]
    cy = [ci((0, k, 0)) for k in range(N + 1)]
    cz = [ci((0, 0, k)) for k in range(N + 1)]
    pairs_by_char: dict[int, list[tuple[int, int]]] = {}
    for b in range(1, N + 1):
        for f in range(1, N // b + 1):
            pairs_by_char.setdefault(ci((0, b - 1, f - 1)), []).append((b, f))

    seen = set()
    results: list[GGraph] = []
    for kind in ("A", "B"):
        delta = 1 if kind == "A" else 0
        t = 1 + delta
        for a in range(1, N + 1):
            for d in range(1, N + 1):
                alpha = a + d - delta
                if not 1 <= alpha <= N:
                    continue
                for b, f in pairs_by_char.get(cx[alpha], ()):
                    p = a + b + d - t
                    q = a + d + f - t
                    rest = N - (t * t - t * (a + b + d + f) + a * b + b * f + d * f)
                    for e in range(1, (rest - p) // q + 1):
                        c, remainder = divmod(rest - q * e, p)
                        if remainder:
                            continue
                        beta = b + e - delta
                        gamma_exp = c + f - delta
                        if not (1 <= beta <= N and 1 <= gamma_exp <= N):
                            continue
                        if cz[gamma_exp] != ci((a - 1, e - 1, 0)):
                            continue
                        if ci((d - 1, 0, c - 1)) != cy[beta]:
                            continue
                        ideal = MonomialIdeal.from_generators(
                            seven_generators(kind, (a, b, c, d, e, f))
                        )
                        if ideal.gens in seen:
                            continue
                        seen.add(ideal.gens)
                        gg = is_ggraph(G, ideal)
                        if gg is not None:
                            results.append(gg)
    results.sort(key=lambda gg: gg.gamma)
    return results


def complement_box_scan(ideal: MonomialIdeal) -> list:
    """The monomials of the alpha*beta*gamma box outside the ideal, sorted."""
    alpha, beta, gamma = ideal.pure_power_exponents()
    return sorted(
        m for m in product(range(alpha), range(beta), range(gamma)) if not ideal.contains(m)
    )


def hook_staircases(r: int) -> list[tuple]:
    """The staircases of the r hooks of size r, sorted, as monomials in z = 0.

    They are the Young diagrams of size r whose cells (i, j) carry pairwise
    distinct contents i - j mod r: a hook's r contents are consecutive, and
    any other diagram holds the cell (1, 1) of the content of (0, 0).
    """
    return sorted(
        tuple(sorted({(i, 0, 0) for i in range(a)} | {(0, j, 0) for j in range(r + 1 - a)}))
        for a in range(1, r + 1)
    )


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


def character_table_by_keys(G: AbelianGroup):
    """(char_add, axis_index) by adding keys, one key tuple per entry.

    A character's key is its pairing with the generators mod R, read off
    the exponent character_scan finds for it; characters are indexed as in
    character_scan, char_add[i][j] is the index of key_i + key_j, and
    axis_index[axis][j] the index of the key of x^j, y^j or z^j.
    """
    R = G.R
    gens = G.generator_elements

    def key(e):
        return tuple(sum(u * g for u, g in zip(e, gen)) % R for gen in gens)

    keys = [key(e) for e in character_scan(G)[1]]
    index = {k: i for i, k in enumerate(keys)}
    char_add = [[index[tuple((u + v) % R for u, v in zip(k1, k2))] for k2 in keys] for k1 in keys]
    axis_index = [
        [index[key(tuple(j * u for u in unit))] for j in range(R)]
        for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ]
    return char_add, axis_index


def in_m(G: AbelianGroup, e) -> bool:
    """True iff e lies in M, the invariant exponents: e.g = 0 mod R for every element g."""
    return all(sum(a * b for a, b in zip(e, g)) % G.R == 0 for g in G.elements)


def in_n(G: AbelianGroup, w) -> bool:
    """True iff the integer vector w lies in R*N, N = Z^3 + sum Z*g/R: w mod R is a group element."""
    return tuple(x % G.R for x in w) in G.elements


def primitive_in_n(G: AbelianGroup, w) -> bool:
    """True iff w lies in R*N and no w/k does for k >= 2.

    w/k in R*N needs w/k integral, so only the divisors k of the content of
    w are tried; for a ray, with coordinates in [0, R] not all zero, they
    are at most R.
    """
    if not in_n(G, w):
        return False
    content = gcd(*w)
    return not any(
        in_n(G, tuple(x // k for x in w))
        for k in range(2, content + 1)
        if content % k == 0
    )


def rank_dense(mat) -> int:
    """Rank by fraction Gaussian elimination on a copy."""
    rows = [[Fraction(x) for x in row] for row in mat]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        rows[rank] = prow = [x * inv for x in prow]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], prow)]
        rank += 1
        col += 1
    return rank


def kernel_dense(mat) -> list[list[Fraction]]:
    """Basis of the right kernel, via reduced row echelon form."""
    if not mat:
        return []
    ncols = len(mat[0])
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(vec)
    return basis


def mat_mul(a, b) -> list[list[Fraction]]:
    """Dense product of two list-of-rows matrices."""
    cols = len(b[0]) if b else 0
    return [
        [sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def dense(rows: list[dict], ncols: int) -> list[list]:
    """The dense list-of-rows form of sparse rows {column: value}."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def dense_two_term(rows, ncols: int) -> list[list]:
    """The dense list-of-rows form of flat two-term rows (u, a, v, b), each
    a*e_u + b*e_v, the two terms summed when u == v."""
    mat = []
    for u, a, v, b in rows:
        row = [0] * ncols
        row[u] += a
        row[v] += b
        mat.append(row)
    return mat


def two_term_rows(rows: list[dict]) -> list[tuple]:
    """Sparse rows {column: value} of at most two entries, in the flat form
    (u, a, v, b); a missing term is (0, 0)."""
    flat = []
    for row in rows:
        assert len(row) <= 2, row
        (u, a), (v, b) = (list(row.items()) + [(0, 0), (0, 0)])[:2]
        flat.append((u, a, v, b))
    return flat


def dense_differentials(cx: Complex) -> tuple[list[list], list[list], list[list]]:
    """(d3, d2, d1) of a complex as dense list-of-rows matrices, every row of d2
    built (nothing cut or kept) and d1 turned from columns back into rows."""
    n = len(cx.d1) // 3
    d1_columns = dense_two_term(cx.d1, n)
    return (
        dense_two_term(cx.d3, n),
        dense(cx.d2((), ()), 3 * n),
        [list(row) for row in zip(*d1_columns)],
    )


def homology_full_ranks(cx: Complex) -> tuple[int, int, int, int]:
    """(h3, h2, h1, h0) from the full ranks of d3, d2 and d1, no cell cancelled."""
    n = len(cx.d1) // 3
    r3, r2, r1 = (rank_dense(d) for d in dense_differentials(cx))
    return (n - r3, 3 * n - r2 - r3, 3 * n - r1 - r2, n - r1)


def arrows(G: AbelianGroup) -> list[list[int]]:
    """arrows[alpha][c]: the character of x_alpha times a monomial of character c."""
    return [
        [G.char_add[c][G.char_index(step)] for c in range(G.order)] for step in COORD_EXPONENTS
    ]


def _block_rows(rep: ModuleRep, nrows: int, blocks) -> list[dict]:
    """Sparse rows of a block matrix whose block (p, q) is sign * B_alpha."""
    n = rep.group.order
    targets = arrows(rep.group)
    rows: list[dict] = [{} for _ in range(nrows)]
    for p, q, sign, alpha in blocks:
        for col, (c, t) in enumerate(zip(rep.coeffs[alpha], targets[alpha])):
            if c:
                rows[p * n + t][q * n + col] = c if sign > 0 else -c
    return rows


def wedge_differentials(rep: ModuleRep) -> Complex:
    """The four-term wedge complex of one module, built block by block.

    d3 = (B1; B2; B3), d2 = ((-B2, B1, 0); (-B3, 0, B1); (0, -B3, B2)) and
    d1 = (B3, -B2, B1), the last by columns.
    """
    d3 = _block_rows(rep, 3 * rep.group.order, [(0, 0, 1, 0), (1, 0, 1, 1), (2, 0, 1, 2)])
    d2 = _block_rows(
        rep,
        3 * rep.group.order,
        [(0, 0, -1, 1), (0, 1, 1, 0), (1, 0, -1, 2), (1, 2, 1, 0), (2, 1, -1, 2), (2, 2, 1, 1)],
    )
    targets = arrows(rep.group)
    d1 = [
        {t: sign * c} if c else {}
        for sign, alpha in ((1, 2), (-1, 1), (1, 0))
        for c, t in zip(rep.coeffs[alpha], targets[alpha])
    ]

    def d2_residual(cut, kept):
        return [
            {col: x for col, x in row.items() if col not in kept}
            for cell, row in enumerate(d2)
            if cell not in cut
        ]

    return Complex(two_term_rows(d3), d2_residual, two_term_rows(d1))


def rewrite_rules(gg: GGraph):
    """The seven chart relations as (source, replacement, coefficient powers)."""
    a, b, c, d, e, f = gg.params
    if gg.kind == "A":
        return [
            ((a + d - 1, 0, 0), (0, b - 1, f - 1), (1, 0, 0)),
            ((0, b + e - 1, 0), (d - 1, 0, c - 1), (0, 1, 0)),
            ((0, 0, c + f - 1), (a - 1, e - 1, 0), (0, 0, 1)),
            ((a, e, 0), (0, 0, c + f - 2), (1, 1, 0)),
            ((0, b, f), (a + d - 2, 0, 0), (0, 1, 1)),
            ((d, 0, c), (0, b + e - 2, 0), (1, 0, 1)),
            ((1, 1, 1), (0, 0, 0), (1, 1, 1)),
        ]
    return [
        ((a + d, 0, 0), (0, b - 1, f - 1), (1, 0, 1)),
        ((0, b + e, 0), (d - 1, 0, c - 1), (1, 1, 0)),
        ((0, 0, c + f), (a - 1, e - 1, 0), (0, 1, 1)),
        ((a, e, 0), (0, 0, c + f - 1), (1, 0, 0)),
        ((0, b, f), (a + d - 1, 0, 0), (0, 1, 0)),
        ((d, 0, c), (0, b + e - 1, 0), (0, 0, 1)),
        ((1, 1, 1), (0, 0, 0), (1, 1, 1)),
    ]


def rewrite_matrices(G: AbelianGroup, gg: GGraph, coords, cone) -> tuple:
    """The three multiplication matrices at a chart point, by rewriting.

    Each step replaces a chart generator dividing the monomial by its
    relation and strictly lowers the pairing with n0, the sum of the cone's
    rays, by at least one, which bounds the loop.  The result must land on
    the staircase monomial of the product's character.
    """
    n0 = [sum(ray[i] for ray in cone.rays) for i in range(3)]
    rules = rewrite_rules(gg)
    index = {m: i for i, m in enumerate(gg.gamma)}
    n = len(gg.gamma)
    mats = []
    for alpha in range(3):
        mat = [[Fraction(0)] * n for _ in range(n)]
        for col, mono in enumerate(gg.gamma):
            w = tuple(x + (k == alpha) for k, x in enumerate(mono))
            coeff = Fraction(1)
            for _ in range(int(sum(f * e for f, e in zip(n0, w)))):
                if w in index:
                    break
                lhs, rhs, powers = next(r for r in rules if mono_divides(r[0], w))
                w = tuple(x - p + q for x, p, q in zip(w, lhs, rhs))
                for coord, power in zip(coords, powers):
                    coeff *= coord**power
            assert w in index, f"rewriting of x_{alpha} * {mono} exceeded its bound"
            expected = G.char_add[G.char_index(COORD_EXPONENTS[alpha])][G.char_index(mono)]
            assert G.char_index(w) == expected, "rewriting left the character line"
            mat[index[w]][col] = coeff
        mats.append(tuple(tuple(row) for row in mat))
    return tuple(mats)


def build_rep_fractions(chart: Chart, coords: tuple) -> ModuleRep:
    """The module at the chart point with these integer coordinates, each
    coefficient the product of Fraction powers of the coordinates."""
    powers = [[Fraction(1)] for _ in coords]
    values = []
    for key in chart.exponents:
        coeff = Fraction(1)
        for table, coord, power in zip(powers, coords, key):
            while len(table) <= power:
                table.append(table[-1] * coord)
            coeff *= table[power]
        values.append(coeff)
    return _int_module(chart.group, [[values[s] for s in column] for column in chart.slots])


def _int_module(group, values) -> ModuleRep:
    """The module with these coefficients per arrow, which must be integers."""
    if any(Fraction(x).denominator != 1 for cs in values for x in cs):
        raise ValueError("a module of the package has int coefficients")
    return ModuleRep(group, tuple([int(x) for x in cs] for cs in values))


def dense_matrices(rep: ModuleRep):
    """(B1, B2, B3), i: the dense Fraction matrices and cyclic vector of a
    module on character lines."""
    n = rep.group.order
    mats = []
    for cs, ts in zip(rep.coeffs, arrows(rep.group)):
        mat = [[Fraction(0)] * n for _ in range(n)]
        for col, (c, t) in enumerate(zip(cs, ts)):
            mat[t][col] = Fraction(c)
        mats.append(tuple(tuple(row) for row in mat))
    i_vec = tuple(Fraction(int(k == 0)) for k in range(n))
    return tuple(mats), i_vec


def module_from_dense(rep: ModuleRep, b) -> ModuleRep | None:
    """rep's group with dense matrices b on character lines, or None when
    some entry of b lies off its arrow (then b is not a module of G).  The
    entries must be integers."""
    values = []
    for mat, ts in zip(b, arrows(rep.group)):
        for r, row in enumerate(mat):
            if any(x and r != ts[c] for c, x in enumerate(row)):
                return None
        values.append([mat[t][c] for c, t in enumerate(ts)])
    return _int_module(rep.group, values)


def _walk(rep: ModuleRep, targets, word, line: int):
    """(coefficient, line) of the product of B_alpha, alpha in word applied
    first to last, on line line; (0, -1) once it dies."""
    value = 1
    for alpha in word:
        c = rep.coeffs[alpha][line]
        if not c:
            return 0, -1
        value *= c
        line = targets[alpha][line]
    return value, line


def support_check_walk(G: AbelianGroup, rep: ModuleRep) -> bool:
    """x^R, y^R, z^R and xyz each act as one nonzero scalar, by walking each
    word from every line: it must come back to that line with the same
    nonzero product everywhere."""
    R, targets = G.R, arrows(G)
    for word in ((0,) * R, (1,) * R, (2,) * R, (2, 1, 0)):
        walks = [_walk(rep, targets, word, line) for line in range(G.order)]
        if any(end != line for line, (_, end) in enumerate(walks)):
            return False
        if len({value for value, _ in walks}) != 1:
            return False
    return True


def verify_adhm(rep: ModuleRep) -> bool:
    """Exact commutator vanishing (ModuleRep.commutes) plus fullness of the cyclic span."""
    return rep.commutes and krylov_dim(rep) == rep.group.order


def krylov_dim(rep: ModuleRep) -> int:
    """Dimension of the smallest B-invariant subspace containing the cyclic vector.

    Every B maps a line to a line, so the span is that of the lines reached
    from line 0 along arrows with nonzero coefficients: a breadth-first
    search.
    """
    arrows = list(zip(rep.coeffs, rep.group.arrows))
    seen = {0}
    queue = [0]
    while queue:
        c = queue.pop()
        for cs, shift in arrows:
            if cs[c] and shift[c] not in seen:
                seen.add(shift[c])
                queue.append(shift[c])
    return len(seen)


def all_b_invertible(rep: ModuleRep) -> bool:
    """Every coefficient is nonzero; each B already permutes the lines."""
    return all(all(cs) for cs in rep.coeffs)
