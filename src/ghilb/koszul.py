"""Module realizations at chart points and exact homology of their complexes.

A point of a chart with coordinates (lambda, mu, nu) determines a cyclic
module with basis the staircase of the owning fixed point.  Multiplication
by each variable is read off the chart cone in closed form: x_alpha * m is
c * m', where m' is the staircase monomial with the character of
x_alpha * m, and c is the invariant Laurent monomial x_alpha * m / m'
written in the chart coordinates.  Those coordinates are the invariant
monomials dual to the cone's rays, so the exponent of c on coordinate i is
the pairing of x_alpha * m - m' with ray i; a negative or fractional
exponent means the cone is not the staircase's chart and raises
``toric.ChartError``.  What depends only on the staircase and the cone,
each column's target line and exponent triple, is computed once per fixed
point (``chart``); a module at a chart point then costs only the power
tables of its coordinates (``build_rep``).  Its coefficients are held as
int numerators over one positive module denominator D, the product of
each coordinate's denominator to the chart's top exponent on it, so no
check does Fraction arithmetic.

Equivariance makes every multiplication matrix a generalized permutation
matrix on character lines, each of dimension one, and a module is built in
that packed form only (``Packed``): for each variable and each basis vector,
one coefficient and one target line.  The ADHM-style checks (commutators,
cyclic span, invertibility) then cost O(n) each.  The support check reads
each B's cycles: at a chart point with nonzero coordinates the module lies
over a free orbit, so x^R, y^R, z^R and xyz must each act as one nonzero
scalar, which holds exactly when every B is a permutation with nonzero
coefficients whose cycle lengths divide R and whose cycle products agree
after raising to R over the length.  At a fixed point every B is nilpotent
and the check fails.  All of these checks are homogeneous in one module's
coefficients, so D cancels and they read the numerators as they are.

One complex builder reads the packed tables: the two-module complex with
differential B2 ^ eta - eta ^ B1, whose middle homology computes the
equivariant Hom into the quotient (``koszul_differentials``).  The
character-line tables it reads are computed once per module
(``ModuleRep.lines``); it mixes two modules, so when their denominators D1
and D2 differ each module's numerators are first scaled to the other's
denominator, which makes every differential one nonzero multiple of the
true one.  The four-term wedge complex of a single module, whose homology at
a fixed point is the Betti table of the staircase ideal, is the same complex
with the zero module on the same lines as the first module: the regular
representation with every B zero, so that only the B2 terms are left
(``cpxnil_differentials``).  Both go through one homology route,
``reduced_homology``: every row of d3 and every column of d1 has at most
two nonzeros, so ``linalg.two_term_basis`` finds a basis of each without
elimination, those cells cancel, and only what is left of d2 is ranked by
``linalg.rank_sparse``.  The cancellation holds only on a true complex, so
homology refuses a module whose B's do not commute (``ModuleRep.commutes``,
checked once per module and shared with ``verify_adhm``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Callable, NamedTuple

from . import linalg, toric
from .ggraph import GGraph
from .groups import AbelianGroup
from .mckay import COORD_EXPONENTS

WEDGE_PAIRS = ((0, 1), (0, 2), (1, 2))
# Sign of x_gamma ^ (x_alpha ^ x_beta) against x ^ y ^ z, per wedge pair.
WEDGE_SIGNS = (1, -1, 1)
OFF_PATTERN = "multiplication matrix is not supported on its character-shift pattern"
NOT_COMMUTING = "multiplication matrices do not commute, so the differentials are no complex"


class Packed(NamedTuple):
    """Generalized permutation form of a module's three matrices.

    Column k of B_alpha is coeffs[alpha][k] / denominator times basis vector
    targets[alpha][k]; the target of a zero coefficient is never read.  seed
    is the line of the cyclic vector, None when it is zero.  build_rep gives
    int numerators over one positive int denominator D.  The checks on one
    module read the numerators as they are, since D cancels: it scales both
    sides of a commutator comparison by D^2, every cycle product raised to
    R over its length by D^R and every xyz product by D^3.  The pair complex
    mixes two modules and scales each to the other's denominator first
    (koszul_differentials); the wedge complex is a pair complex whose first
    module is zero over denominator 1, so its differentials are D times the
    true ones.
    """

    coeffs: tuple[list, list, list]
    targets: tuple[list[int], list[int], list[int]]
    seed: int | None
    denominator: int = 1


class Chart(NamedTuple):
    """One fixed point's chart, as the table its modules are read from.

    Column k of B_alpha has target line targets[alpha][k] and coefficient the
    product of the coordinates raised to exponents[slots[alpha][k]]; top is
    the largest exponent on each coordinate.
    """

    group: AbelianGroup
    gg: GGraph
    targets: tuple[list[int], list[int], list[int]]
    exponents: tuple[tuple[int, int, int], ...]
    slots: tuple[list[int], list[int], list[int]]
    top: tuple[int, int, int]


class Lines(NamedTuple):
    """Character-line tables of one module, read by the two-module complex.

    Per basis monomial m_k: shifted_chars[alpha][k] is the character of
    x_alpha * m_k and wedge_chars[p][k] that of x_alpha * x_beta * m_k for
    the p-th wedge pair; by_char[alpha][c] is the coefficient of B_alpha on
    the line of character c.
    """

    shifted_chars: list[list[int]]
    wedge_chars: list[list[int]]
    by_char: list[list]


@dataclass(frozen=True)
class ModuleRep:
    """A module of G on the staircase basis of gg, held only in packed form.

    coords is the chart point it was built at.  Its character-line tables
    are computed on first use and kept with it.
    """

    group: AbelianGroup = field(repr=False, compare=False)
    gg: GGraph
    coords: tuple[Fraction, Fraction, Fraction]
    packed: Packed

    @cached_property
    def lines(self) -> Lines:
        """The module's character-line tables.

        Raises when a nonzero coefficient sits off the line its character
        dictates, which would mean the module is not equivariant; past this
        check the packed targets are the character lines wherever they are
        read.
        """
        G, chars = self.group, self.gg.char_index
        packed = self.packed
        for cs, ts, line in zip(packed.coeffs, packed.targets, _shift_lines(G, self.gg)):
            if any(c and t != s for c, t, s in zip(cs, ts, line)):
                raise RuntimeError(OFF_PATTERN)
        add = G.char_add
        step = [G.char_index(e) for e in COORD_EXPONENTS]
        line_of = self.gg.char_to_gamma()
        return Lines(
            shifted_chars=[[add[c][s] for c in chars] for s in step],
            wedge_chars=[
                [add[c][add[step[alpha]][step[beta]]] for c in chars]
                for alpha, beta in WEDGE_PAIRS
            ],
            by_char=[[cs[line_of[c]] for c in range(len(chars))] for cs in packed.coeffs],
        )

    @cached_property
    def commutes(self) -> bool:
        """Whether the three B's commute, checked once per module.

        The commutators are compared column by column on the packed tables:
        both orders of a pair must vanish on a column together, or reach the
        same line with the same coefficient.
        """
        coeffs, targets = self.packed.coeffs, self.packed.targets
        for alpha, beta in WEDGE_PAIRS:
            ca, ta, cb, tb = coeffs[alpha], targets[alpha], coeffs[beta], targets[beta]
            for col in range(len(ca)):
                alive_ab = ca[col] and cb[ta[col]]
                alive_ba = cb[col] and ca[tb[col]]
                if not (alive_ab and alive_ba):
                    if alive_ab or alive_ba:
                        return False
                elif tb[ta[col]] != ta[tb[col]] or ca[col] * cb[ta[col]] != cb[col] * ca[tb[col]]:
                    return False
        return True


def _shift_lines(G: AbelianGroup, gg: GGraph) -> list[list[int]]:
    """Per variable x_alpha and basis monomial m, the line of x_alpha * m's character."""
    pos = gg.char_to_gamma()
    shifts = [G.char_add[G.char_index(step)] for step in COORD_EXPONENTS]
    return [[pos[shift[c]] for c in gg.char_index] for shift in shifts]


def chart(G: AbelianGroup, gg: GGraph, cone: toric.ChartCone) -> Chart:
    """The table of the chart of gg, read off its cone as the module docstring says.

    Rays lie in N, inside (1/R) Z^3, so the pairings are taken with the
    integer vectors R * ray: x_alpha * m - m' pairs with R * ray_i to the
    height of m plus R * ray_i[alpha] minus the height of m'.  Raises
    ChartError when the cone is not the chart of this staircase.
    """
    R = G.R
    rays = [[int(R * x) for x in ray] for ray in cone.rays]
    heights = [[sum(p * r for p, r in zip(m, ray)) for ray in rays] for m in gg.gamma]
    targets = _shift_lines(G, gg)
    slot_of: dict = {}
    slots = []
    for alpha, lines in enumerate(targets):
        column = []
        for col, row in enumerate(lines):
            exponents = []
            for i in range(3):
                pairing = heights[col][i] + rays[i][alpha] - heights[row][i]
                power, rest = divmod(pairing, R)
                if power < 0 or rest:
                    raise toric.ChartError(
                        f"x_{alpha} * {gg.gamma[col]} has exponent {Fraction(pairing, R)} "
                        f"on coordinate {i} of the chart of fixed point {cone.owner}; "
                        "the cone is not this staircase's chart"
                    )
                exponents.append(power)
            column.append(slot_of.setdefault(tuple(exponents), len(slot_of)))
        slots.append(column)
    top = tuple(max(key[i] for key in slot_of) for i in range(3))
    return Chart(G, gg, tuple(targets), tuple(slot_of), tuple(slots), top)


def build_rep(chart: Chart, coords: tuple) -> ModuleRep:
    """The module at the chart point with these coordinates, packed on ints.

    With coordinate i equal to p_i / q_i and E_i the chart's top exponent on
    it, the module denominator is D = prod q_i^E_i and the numerator of the
    coefficient with exponents e is prod p_i^e_i * q_i^(E_i - e_i), read
    from one integer table per coordinate; each distinct exponent triple is
    raised once, and (0, 0, 0) gives the fixed point's module.
    """
    tables = []
    denominator = 1
    for coord, top in zip(coords, chart.top):
        p, q = coord.numerator, coord.denominator
        table = [q**top]
        for _ in range(top):
            table.append(table[-1] // q * p)
        tables.append(table)
        denominator *= table[0]
    tx, ty, tz = tables
    values = [tx[i] * ty[j] * tz[k] for i, j, k in chart.exponents]
    coeffs = tuple([values[s] for s in column] for column in chart.slots)
    packed = Packed(coeffs, chart.targets, chart.gg.gamma.index((0, 0, 0)), denominator)
    return ModuleRep(group=chart.group, gg=chart.gg, coords=coords, packed=packed)


def verify_adhm(rep: ModuleRep) -> bool:
    """Exact commutator vanishing (ModuleRep.commutes) plus fullness of the cyclic span."""
    return rep.commutes and krylov_dim(rep) == len(rep.gg.gamma)


def krylov_dim(rep: ModuleRep) -> int:
    """Dimension of the smallest B-invariant subspace containing the cyclic vector.

    Every B maps a basis vector to a multiple of one basis vector, so the
    span is that of the lines reached from the seed line along nonzero
    coefficients: a breadth-first search.
    """
    packed = rep.packed
    if packed.seed is None:
        return 0
    seen = {packed.seed}
    queue = [packed.seed]
    while queue:
        col = queue.pop()
        for cs, ts in zip(packed.coeffs, packed.targets):
            if cs[col] and ts[col] not in seen:
                seen.add(ts[col])
                queue.append(ts[col])
    return len(seen)


def all_b_invertible(rep: ModuleRep) -> bool:
    """Every coefficient is nonzero and every B permutes the lines."""
    packed = rep.packed
    return all(
        all(cs) and len(set(ts)) == len(ts)
        for cs, ts in zip(packed.coeffs, packed.targets)
    )


def support_check(G: AbelianGroup, rep: ModuleRep) -> bool:
    """x^R, y^R, z^R and xyz each act as one nonzero scalar.

    x_alpha^R is a nonzero scalar exactly when B_alpha permutes the lines
    with nonzero coefficients, each cycle's length L divides R, and P^(R/L)
    is the same for every cycle, P being the product of the coefficients
    around it.  The word xyz is walked from every line and must come back
    with one common nonzero product.  A chart point with nonzero coordinates
    lies in the open torus of G-Hilb, whose module is supported on one free
    G-orbit in (C*)^3, so there the check must pass; at a fixed point every B
    is nilpotent and it fails.
    """
    if not all_b_invertible(rep):
        return False
    R = G.R
    coeffs, targets = rep.packed.coeffs, rep.packed.targets
    for cs, ts in zip(coeffs, targets):
        scalars = set()
        seen = [False] * len(cs)
        for start in range(len(cs)):
            if seen[start]:
                continue
            seen[start] = True
            product, col, length = cs[start], ts[start], 1
            while col != start:
                seen[col] = True
                product *= cs[col]
                col = ts[col]
                length += 1
            if R % length:
                return False
            scalars.add(product ** (R // length))
        if len(scalars) != 1:
            return False
    (cx, cy, cz), (tx, ty, tz) = coeffs, targets
    xyz = set()
    for col in range(len(cx)):
        mid = tz[col]
        last = ty[mid]
        if tx[last] != col:
            return False
        xyz.add(cz[col] * cy[mid] * cx[last])
    return len(xyz) == 1


class Complex(NamedTuple):
    """A complex C3 -> C2 -> C1 -> C0 of dimensions n, 3n, 3n, n, as its homology reads it.

    d3 is given by its rows, one per C2 cell, and d1 by its columns, one per
    C1 cell; each has at most two nonzeros.  d2_rows(cells) builds the rows of
    d2 at the given C1 cells only.
    """

    d3: list[dict]
    d2_rows: Callable[[list[int]], list[dict]]
    d1: list[dict]


def reduced_homology(cx: Complex) -> tuple[int, int, int, int]:
    """Homology (h3, h2, h1, h0) of a complex, ranking only what is left of d2.

    linalg.two_term_basis picks a row basis S of d3 (C2 cells) and a column
    basis T of d1 (C1 cells).  Because d2 d3 = 0, each S column of d2 lies in
    the span of the other columns (im d3 is in ker d2 and projects onto the S
    coordinates); because d1 d2 = 0, each T row of d2 is fixed by the other
    rows (d1 is injective on the T coordinates).  So the rank of d2 is the
    rank of d2 with rows T and columns S deleted, and no entry of d2 needs
    updating.  The caller must know that cx is a complex.
    """
    n = len(cx.d1) // 3
    kept = set(linalg.two_term_basis(cx.d3))
    cut = set(linalg.two_term_basis(cx.d1))
    residual = [
        {col: value for col, value in row.items() if col not in kept}
        for row in cx.d2_rows([cell for cell in range(3 * n) if cell not in cut])
    ]
    r3, r2, r1 = len(kept), linalg.rank_sparse(residual, 3 * n), len(cut)
    return (n - r3, 3 * n - r2 - r3, 3 * n - r1 - r2, n - r1)


def _require_commuting(*reps: ModuleRep) -> None:
    """Raise unless every module's B's commute, so that its complexes square to zero."""
    if not all(rep.commutes for rep in reps):
        raise RuntimeError(NOT_COMMUTING)


def cpxnil_differentials(rep: ModuleRep) -> Complex:
    """The four-term wedge complex of one module, as a two-module complex.

    The first module is the zero module on the same lines, so every term of
    koszul_differentials read from it drops out and what is left is the
    wedge complex d3 = (Bx; By; Bz), d2 = ((-By, Bx, 0); (-Bz, 0, Bx);
    (0, -Bz, By)) and d1 = (Bz, -By, Bx), up to the order of its cells.
    """
    packed = rep.packed
    zero = packed._replace(coeffs=tuple([0] * len(cs) for cs in packed.coeffs), denominator=1)
    return koszul_differentials(rep.group, replace(rep, packed=zero), rep)


def cpxnil_homology(rep: ModuleRep) -> tuple[int, int, int, int]:
    """Homology dimensions (h3, h2, h1, h0) of the four-term wedge complex.

    At a fixed point it is the Betti table (socle, beta2, beta1, 1) of the
    staircase ideal; with some B invertible it is zero.
    """
    _require_commuting(rep)
    return reduced_homology(cpxnil_differentials(rep))


def _row(*entries) -> dict:
    """The sparse row with these (column, value) entries, coinciding columns summed."""
    row: dict = {}
    for col, value in entries:
        if value:
            if col in row:
                value += row[col]
                if not value:
                    del row[col]
                    continue
            row[col] = value
    return row


def koszul_differentials(G: AbelianGroup, rep1: ModuleRep, rep2: ModuleRep) -> Complex:
    """The two-module equivariant complex.

    The terms are the equivariant Homs of the first module into the wedge
    powers tensored with the second; each is packed on character lines, so
    the spaces have dimensions n, 3n, 3n, n.  The differential is the
    graded commutator with the two multiplication maps.  Every entry is read
    from the first module's packed tables and the two modules' character-line
    tables.  Those hold numerators over each module's denominator D1, D2;
    when these differ, the first module's numerators are multiplied by
    D2 / g and the second's by D1 / g, g = gcd(D1, D2), so that every
    differential is D1 * D2 / g times the true one and has its rank.
    """
    if rep1.group is not G or rep2.group is not G:
        raise ValueError("both modules must be modules of this group")
    lines1, b2 = rep1.lines, rep2.lines.by_char
    (b1, t1, _, den1), chars1, shifted1 = rep1.packed, rep1.gg.char_index, lines1.shifted_chars
    den2 = rep2.packed.denominator
    if den1 != den2:
        g = gcd(den1, den2)
        b1 = [[c * (den2 // g) for c in cs] for cs in b1]
        b2 = [[c * (den1 // g) for c in cs] for cs in b2]
    n = len(chars1)

    # d3: packed Hom -> three packed blocks.
    d3 = [
        _row((i, b2[alpha][chars1[i]]), (t1[alpha][i], -b1[alpha][i]))
        for alpha in range(3)
        for i in range(n)
    ]

    # d2: three blocks -> three wedge blocks, row p*n + i built on demand.
    def d2_rows(cells):
        rows = []
        for cell in cells:
            p, i = divmod(cell, n)
            alpha, beta = WEDGE_PAIRS[p]
            rows.append(
                _row(
                    (beta * n + i, b2[alpha][shifted1[beta][i]]),
                    (alpha * n + i, -b2[beta][shifted1[alpha][i]]),
                    (alpha * n + t1[beta][i], b1[beta][i]),
                    (beta * n + t1[alpha][i], -b1[alpha][i]),
                )
            )
        return rows

    # d1, by columns: three wedge blocks -> packed Hom; signs of the top
    # wedge product.
    d1 = [[] for _ in range(3 * n)]
    for p, (alpha, beta) in enumerate(WEDGE_PAIRS):
        third = 3 - alpha - beta
        sign = WEDGE_SIGNS[p]
        c2, wedge1, c1, s1 = b2[third], lines1.wedge_chars[p], b1[third], t1[third]
        for i in range(n):
            d1[p * n + i].append((i, sign * c2[wedge1[i]]))
            if c1[i]:
                d1[p * n + s1[i]].append((i, -sign * c1[i]))
    d1 = [_row(*entries) for entries in d1]

    return Complex(d3, d2_rows, d1)


def koszul_homology(
    G: AbelianGroup, rep1: ModuleRep, rep2: ModuleRep
) -> tuple[int, int, int, int]:
    """Homology (h3, h2, h1, h0) of the two-module equivariant complex.

    Raises RuntimeError when a module is off its character lines or its B's
    do not commute: then the differentials do not form a complex.
    """
    cx = koszul_differentials(G, rep1, rep2)
    _require_commuting(rep1, rep2)
    return reduced_homology(cx)


def pair_report(i: int, j: int, h, expected) -> dict:
    return {
        "pair": [i, j],
        "h": list(h),
        "expected": list(expected),
        "pass": tuple(h) == tuple(expected),
    }


def sample_chart_points(count: int, rng: random.Random) -> list[tuple[Fraction, ...]]:
    """Coordinates of seeded chart points: nonzero rationals of small height."""
    return [
        tuple(
            Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1))
            for _ in range(3)
        )
        for _ in range(count)
    ]
