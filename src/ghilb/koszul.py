"""Module realizations at chart points and exact homology of their complexes.

A point of G-Hilb is a G-equivariant (B1, B2, B3, i) on the regular
representation with commuting B's.  G is abelian, so every character line
is one-dimensional: each B_alpha is one scalar per arrow c -> c + chi_alpha
of the McKay quiver, chi_alpha being the character of x_alpha, and the
cyclic vector i spans the line of the trivial character 0.  A module is
held in exactly that form (``ModuleRep``): one int coefficient per arrow,
indexed by character the same way for every module of G, with the arrow
targets one table per group (``G.arrows``).

At a chart point with coordinates (lambda, mu, nu), line c is spanned by the
staircase monomial m of character c, and the coefficient of its arrow along
x_alpha is read off the chart cone in closed form: x_alpha * m is coef * m',
where m' is the staircase monomial of character c + chi_alpha, and coef is
the invariant Laurent monomial x_alpha * m / m' written in the chart
coordinates.  Those coordinates are the invariant monomials dual to the
cone's rays, so the exponent of coef on coordinate i is the pairing of
x_alpha * m - m' with ray i; a negative or fractional exponent means the
cone is not the staircase's chart and raises ``toric.ChartError``.  Each
arrow's exponent triple depends only on the staircase and the cone and is
computed once per fixed point (``chart``); a module at a chart point then
costs only the power tables of its coordinates (``build_rep``).  Every
point of a chart is a G-cluster, so the chart samples are drawn at integer
points (``sample_chart_points``) and every coefficient is an int.

One complex builder reads two modules on their common character indexing:
the two-module complex with differential B2 ^ eta - eta ^ B1, whose middle
homology computes the equivariant Hom into the quotient
(``koszul_differentials``).  The four-term wedge complex of a single
module, whose homology at a fixed point is the Betti table of the staircase
ideal, is the same complex from the zero module, the regular representation
with every B zero, so that only the second module's terms are left
(``cpxnil_differentials``).  Both go through
one homology route, ``reduced_homology``: every row of d3 and every column
of d1 has at most two terms, so each is held as a flat row (u, a, v, b),
read straight off the coefficient lists and the arrow tables (the wedge
arrows ``G.wedge_arrows`` for d1), and ``linalg.two_term_basis`` finds a
basis of each without elimination.  Those cells cancel, and what is left of d2 is
built in one pass that skips the cancelled rows and columns and never makes
a zero entry, then ranked by ``linalg.rank_sparse``.  The cancellation holds
only on a true complex, so homology refuses a module whose B's do not
commute (``ModuleRep.commutes``, checked once per module).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Container, NamedTuple

from . import linalg, toric
from .ggraph import GGraph
from .groups import AbelianGroup

WEDGE_PAIRS = ((0, 1), (0, 2), (1, 2))
# Sign of x_gamma ^ (x_alpha ^ x_beta) against x ^ y ^ z, per wedge pair.
WEDGE_SIGNS = (1, -1, 1)
NOT_COMMUTING = "multiplication matrices do not commute, so the differentials are no complex"


class Chart(NamedTuple):
    """One fixed point's chart, as the table its modules are read from.

    The arrow of x_alpha from line c has as coefficient the product of the
    coordinates raised to exponents[slots[alpha][c]]; top is the largest
    exponent on each coordinate.
    """

    group: AbelianGroup
    exponents: tuple[tuple[int, int, int], ...]
    slots: tuple[list[int], list[int], list[int]]
    top: tuple[int, int, int]


@dataclass(frozen=True)
class ModuleRep:
    """A module of G, built at a point of a fixed point's chart.

    B_alpha sends line c to line group.arrows[alpha][c] with int coefficient
    coeffs[alpha][c], and the cyclic vector spans line 0.
    """

    group: AbelianGroup = field(repr=False, compare=False)
    coeffs: tuple[list, list, list]

    @cached_property
    def commutes(self) -> bool:
        """Whether the three B's commute, checked once per module.

        From line c, x_alpha then x_beta and x_beta then x_alpha end on the
        same line, so two B's commute exactly when their two coefficient
        products agree on every line.
        """
        arrows = list(zip(self.coeffs, self.group.arrows))
        for alpha, beta in WEDGE_PAIRS:
            (ca, sa), (cb, sb) = arrows[alpha], arrows[beta]
            if any(ca[c] * cb[sa[c]] != cb[c] * ca[sb[c]] for c in range(len(ca))):
                return False
        return True


def chart(G: AbelianGroup, gg: GGraph, cone: toric.ChartCone) -> Chart:
    """The table of the chart of gg, read off its cone as the module docstring says.

    The cone holds each ray as the integer vector R * ray, so the pairings
    are taken with it as it is: x_alpha * m - m' pairs with R * ray_i to the
    height of m plus R * ray_i[alpha] minus the height of m'.  Raises
    ChartError when the cone is not the chart of this staircase.
    """
    R = G.R
    rays = cone.rays
    heights = [[sum(p * r for p, r in zip(m, ray)) for ray in rays] for m in gg.by_char]
    slot_of: dict = {}
    slots = []
    for alpha, shift in enumerate(G.arrows):
        column = []
        for c, target in enumerate(shift):
            exponents = []
            for i in range(3):
                pairing = heights[c][i] + rays[i][alpha] - heights[target][i]
                power, rest = divmod(pairing, R)
                if power < 0 or rest:
                    raise toric.ChartError(
                        f"x_{alpha} * {gg.by_char[c]} has exponent "
                        f"{toric.fraction_text(pairing, R)} "
                        f"on coordinate {i} of the chart of fixed point {cone.owner}; "
                        "the cone is not this staircase's chart"
                    )
                exponents.append(power)
            column.append(slot_of.setdefault(tuple(exponents), len(slot_of)))
        slots.append(column)
    top = tuple(max(key[i] for key in slot_of) for i in range(3))
    return Chart(G, tuple(slot_of), tuple(slots), top)


def build_rep(chart: Chart, coords: tuple[int, int, int]) -> ModuleRep:
    """The module at the chart point with these integer coordinates.

    The coefficient with exponents e is prod coords_i^e_i, read from one
    power table per coordinate; each distinct exponent triple is raised
    once, and (0, 0, 0) gives the fixed point's module.
    """
    tx, ty, tz = ([coord**e for e in range(top + 1)] for coord, top in zip(coords, chart.top))
    values = [tx[i] * ty[j] * tz[k] for i, j, k in chart.exponents]
    coeffs = tuple([values[s] for s in column] for column in chart.slots)
    return ModuleRep(chart.group, coeffs)


class Complex(NamedTuple):
    """A complex C3 -> C2 -> C1 -> C0 of dimensions n, 3n, 3n, n, as its homology reads it.

    d3 is given by its rows, one per C2 cell, and d1 by its columns, one per
    C1 cell, each a flat two-term row (u, a, v, b) for a*e_u + b*e_v, as
    linalg.two_term_basis reads it.  d2(cut, kept) builds the rows of d2 at
    the C1 cells not in cut, leaving out the columns (C2 cells) in kept, as
    dicts column -> nonzero int; d2((), ()) is all of d2.
    """

    d3: list[tuple[int, int, int, int]]
    d2: Callable[[Container[int], Container[int]], list[dict]]
    d1: list[tuple[int, int, int, int]]


def reduced_homology(cx: Complex) -> tuple[int, int, int, int]:
    """Homology (h3, h2, h1, h0) of a complex, ranking only what is left of d2.

    linalg.two_term_basis picks a row basis S of d3 (C2 cells) and a column
    basis T of d1 (C1 cells).  Because d2 d3 = 0, each S column of d2 lies in
    the span of the other columns (im d3 is in ker d2 and projects onto the S
    coordinates); because d1 d2 = 0, each T row of d2 is fixed by the other
    rows (d1 is injective on the T coordinates).  So the rank of d2 is the
    rank of d2 with rows T and columns S deleted, which cx.d2 builds in one
    pass, and no entry of d2 needs updating.  The caller must know that cx
    is a complex.
    """
    n = len(cx.d1) // 3
    kept = linalg.two_term_basis(cx.d3, n)
    cut = linalg.two_term_basis(cx.d1, n)
    residual = cx.d2(set(cut), set(kept))
    r3, r2, r1 = len(kept), linalg.rank_sparse(residual, 3 * n), len(cut)
    return (n - r3, 3 * n - r2 - r3, 3 * n - r1 - r2, n - r1)


def _require_commuting(*reps: ModuleRep) -> None:
    """Raise unless every module's B's commute, so that its complexes square to zero."""
    if not all(rep.commutes for rep in reps):
        raise RuntimeError(NOT_COMMUTING)


def cpxnil_differentials(rep: ModuleRep) -> Complex:
    """The four-term wedge complex of one module, as a two-module complex.

    The first module is the zero module, so every term of
    koszul_differentials read from it is zero: the empty slot of a flat row
    of d3 or d1, and never an entry of d2.  What is left is the wedge
    complex d3 = (Bx; By; Bz), d2 = ((-By, Bx, 0); (-Bz, 0, Bx); (0, -Bz, By))
    and d1 = (Bz, -By, Bx), up to the order of its cells.
    """
    zero = ModuleRep(rep.group, tuple([0] * len(cs) for cs in rep.coeffs))
    return koszul_differentials(rep.group, zero, rep)


def cpxnil_homology(rep: ModuleRep) -> tuple[int, int, int, int]:
    """Homology dimensions (h3, h2, h1, h0) of the four-term wedge complex.

    At a fixed point it is the Betti table (socle, beta2, beta1, 1) of the
    staircase ideal; with some B invertible it is zero.
    """
    _require_commuting(rep)
    return reduced_homology(cpxnil_differentials(rep))


def koszul_differentials(G: AbelianGroup, rep1: ModuleRep, rep2: ModuleRep) -> Complex:
    """The two-module equivariant complex.

    The terms are the equivariant Homs of the first module into the wedge
    powers tensored with the second, one cell per character line and wedge
    factor, so the spaces have dimensions n, 3n, 3n, n.  The differential
    is the graded commutator with the two multiplication maps; both modules
    are read on the character lines of G, so both must be modules of G.

    Row (alpha, c) of d3 and column (p, c) of d1 are flat rows read
    straight off the coefficient lists and the arrow tables; a zero
    coefficient stays in its row as a zero term.  d2 is built only on
    demand, and a zero coefficient never enters its rows.
    """
    if rep1.group is not G or rep2.group is not G:
        raise ValueError("both modules must be modules of this group")
    b1, b2 = rep1.coeffs, rep2.coeffs
    shift = G.arrows
    n = G.order
    lines = range(n)

    # d3: Hom -> three blocks; row (alpha, c) is b2 e_c - b1 e_(c + chi_alpha).
    d3 = [
        (c, x, t, -y)
        for alpha in range(3)
        for c, x, t, y in zip(lines, b2[alpha], shift[alpha], b1[alpha])
    ]

    # d2: three blocks -> three wedge blocks; row (p, c) has its terms at
    # columns (beta, c), (alpha, c), (alpha, c + chi_beta) and
    # (beta, c + chi_alpha), the first and last on one column when chi_alpha
    # is trivial, the middle two when chi_beta is.
    def d2(cut, kept):
        rows = []
        for p, (alpha, beta) in enumerate(WEDGE_PAIRS):
            b2a, b2b, b1a, b1b = b2[alpha], b2[beta], b1[alpha], b1[beta]
            an, bn, pn = alpha * n, beta * n, p * n
            for c, ta, tb in zip(lines, shift[alpha], shift[beta]):
                if pn + c in cut:
                    continue
                v1, v2, v3, v4 = b2a[tb], -b2b[ta], b1b[c], -b1a[c]
                if ta == c:
                    v1, v4 = v1 + v4, 0
                if tb == c:
                    v2, v3 = v2 + v3, 0
                row = {}
                if v1 and bn + c not in kept:
                    row[bn + c] = v1
                if v2 and an + c not in kept:
                    row[an + c] = v2
                if v3 and an + tb not in kept:
                    row[an + tb] = v3
                if v4 and bn + ta not in kept:
                    row[bn + ta] = v4
                rows.append(row)
        return rows

    # d1, by columns: three wedge blocks -> Hom, with the signs of the top
    # wedge product.  Column (p, c) of the pair without gamma is
    # sign * (b2 e_c - b1 e_w), both coefficients those of the arrow of gamma
    # from w = c - chi_gamma into c.
    d1: list = []
    for p, (alpha, beta) in enumerate(WEDGE_PAIRS):
        gamma = 3 - alpha - beta
        sign, c2, c1 = WEDGE_SIGNS[p], b2[gamma], b1[gamma]
        d1 += [(c, sign * c2[w], w, -sign * c1[w]) for c, w in zip(lines, G.wedge_arrows[gamma])]

    return Complex(d3, d2, d1)


def koszul_homology(
    G: AbelianGroup, rep1: ModuleRep, rep2: ModuleRep
) -> tuple[int, int, int, int]:
    """Homology (h3, h2, h1, h0) of the two-module equivariant complex.

    Raises RuntimeError when a module's B's do not commute: then the
    differentials do not form a complex.
    """
    cx = koszul_differentials(G, rep1, rep2)
    _require_commuting(rep1, rep2)
    return reduced_homology(cx)


def sample_chart_points(count: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """Coordinates of count distinct seeded chart points, out of 1000.

    Each coordinate is an int of modulus 2 to 6, of either sign, so its
    powers are all distinct and an exponent off by one changes the
    coefficient it is in.  A point equal to one drawn before is drawn again.
    """
    points: list[tuple[int, int, int]] = []
    while len(points) < count:
        point = tuple(rng.randint(2, 6) * rng.choice((1, -1)) for _ in range(3))
        if point not in points:
            points.append(point)
    return points
