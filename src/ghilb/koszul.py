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
``toric.ChartError``.

Equivariance makes every multiplication matrix a generalized permutation
matrix on character lines, each of dimension one.  Every check and complex
here works on that packed form (``ModuleRep.packed``): for each variable
and each basis vector, one coefficient and one target line.  The ADHM-style
checks (commutators, cyclic span, invertibility) then cost O(n) each, and
the support check walks each line's R-step cycle: at a chart point with
nonzero coordinates the module lies over a free orbit, so x^R, y^R, z^R and
xyz must each act as one nonzero scalar.  At a fixed point they are
nilpotent and the check fails.

Two complexes are built as sparse rows straight from the packed tables and
ranked by ``linalg.rank_sparse``: the four-term wedge complex of a single
module (exact whenever some B is invertible), and the two-module complex
with differential B2 ^ eta - eta ^ B1 whose middle homology computes the
equivariant Hom into the quotient.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import linalg, toric
from .ggraph import GGraph
from .groups import AbelianGroup

Matrix = tuple[tuple[Fraction, ...], ...]
COORD_EXPONENTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
WEDGE_PAIRS = ((0, 1), (0, 2), (1, 2))
# Sign of x_gamma ^ (x_alpha ^ x_beta) against x ^ y ^ z, per wedge pair.
WEDGE_SIGNS = (1, -1, 1)
OFF_PATTERN = "multiplication matrix is not supported on its character-shift pattern"


@dataclass(frozen=True)
class ChartPoint:
    """A point of the affine chart of a fixed point; (0,0,0) is the point itself."""

    base: GGraph
    coords: tuple[Fraction, Fraction, Fraction]


class Packed(NamedTuple):
    """Generalized permutation form of a module's three matrices.

    Column k of B_alpha is coeffs[alpha][k] times basis vector
    targets[alpha][k] (target -1 for a zero column); seed is the line of the
    cyclic vector, None when it is zero.  Integral entries are ints.
    """

    coeffs: tuple[list, list, list]
    targets: tuple[list[int], list[int], list[int]]
    seed: int | None


@dataclass(frozen=True)
class ModuleRep:
    """Multiplication matrices on the staircase basis, plus the cyclic vector."""

    gg: GGraph
    coords: tuple[Fraction, Fraction, Fraction]
    b: tuple[Matrix, Matrix, Matrix]
    i_vec: tuple[Fraction, ...]

    @cached_property
    def packed(self) -> Packed | None:
        """The packed form, or None when a column of some B or the cyclic
        vector has two nonzero entries (then no character-line form exists)."""
        n = len(self.i_vec)
        coeffs, targets = [], []
        for mat in self.b:
            cs, ts = [0] * n, [-1] * n
            for r, row in enumerate(mat):
                for c, x in enumerate(row):
                    if x:
                        if ts[c] >= 0:
                            return None
                        cs[c] = int(x) if x.denominator == 1 else x
                        ts[c] = r
            coeffs.append(cs)
            targets.append(ts)
        seeds = [k for k, x in enumerate(self.i_vec) if x]
        if len(seeds) > 1:
            return None
        return Packed(tuple(coeffs), tuple(targets), seeds[0] if seeds else None)


def _shift_lines(G: AbelianGroup, gg: GGraph) -> list[list[int]]:
    """Per variable x_alpha and basis monomial m, the line of x_alpha * m's character."""
    pos = gg.char_to_gamma()
    return [
        [pos[G.char_add[G.char_index(step)][c]] for c in gg.char_index]
        for step in COORD_EXPONENTS
    ]


def build_rep(G: AbelianGroup, pt: ChartPoint, cone: toric.ChartCone) -> ModuleRep:
    """Multiplication matrices of the chart-point module in the staircase basis.

    Each entry is read off the cone as the module docstring describes.  Rays
    lie in N, inside (1/R) Z^3, so the pairings are taken with the integer
    vectors R * ray: x_alpha * m - m' pairs with R * ray_i to the height of
    m plus R * ray_i[alpha] minus the height of m'.  Raises ChartError when
    the cone is not the chart of this staircase.
    """
    gg = pt.base
    R = G.R
    rays = [[int(R * x) for x in ray] for ray in cone.rays]
    heights = [[sum(p * r for p, r in zip(m, ray)) for ray in rays] for m in gg.gamma]
    n = len(gg.gamma)
    zero, one = Fraction(0), Fraction(1)
    mats = []
    for alpha, lines in enumerate(_shift_lines(G, gg)):
        mat = [[zero] * n for _ in range(n)]
        for col, row in enumerate(lines):
            coeff = one
            for i, coord in enumerate(pt.coords):
                pairing = heights[col][i] + rays[i][alpha] - heights[row][i]
                power, rest = divmod(pairing, R)
                if power < 0 or rest:
                    raise toric.ChartError(
                        f"x_{alpha} * {gg.gamma[col]} has exponent {Fraction(pairing, R)} "
                        f"on coordinate {i} of the chart of fixed point {cone.owner}; "
                        "the cone is not this staircase's chart"
                    )
                if power:
                    coeff *= coord**power
            mat[row][col] = coeff
        mats.append(tuple(tuple(r) for r in mat))
    i_vec = tuple(Fraction(int(m == (0, 0, 0))) for m in gg.gamma)
    return ModuleRep(gg=gg, coords=pt.coords, b=tuple(mats), i_vec=i_vec)


def fixed_point_rep(G: AbelianGroup, gg: GGraph, cone: toric.ChartCone) -> ModuleRep:
    zero = Fraction(0)
    return build_rep(G, ChartPoint(base=gg, coords=(zero, zero, zero)), cone)


def _require_packed(rep: ModuleRep) -> Packed:
    if rep.packed is None:
        raise RuntimeError(OFF_PATTERN)
    return rep.packed


def _walk(packed: Packed, word, col: int) -> tuple[object, int]:
    """(coefficient, line) of the product of B_alpha, alpha in word applied
    first to last, on basis vector col; (0, -1) once it dies."""
    value = 1
    for alpha in word:
        c = packed.coeffs[alpha][col]
        if not c:
            return 0, -1
        value *= c
        col = packed.targets[alpha][col]
    return value, col


def verify_adhm(rep: ModuleRep) -> bool:
    """Exact commutator vanishing plus fullness of the cyclic span.

    The commutators are compared column by column on the packed tables; a
    module with no packed form fails.
    """
    packed = rep.packed
    if packed is None:
        return False
    for alpha, beta in WEDGE_PAIRS:
        for col in range(len(rep.i_vec)):
            if _walk(packed, (alpha, beta), col) != _walk(packed, (beta, alpha), col):
                return False
    return krylov_dim(rep) == len(rep.i_vec)


def krylov_dim(rep: ModuleRep) -> int:
    """Dimension of the smallest B-invariant subspace containing the cyclic vector.

    Every B maps a basis vector to a multiple of one basis vector, so the
    span is that of the lines reached from the seed line along nonzero
    coefficients: a breadth-first search.
    """
    packed = _require_packed(rep)
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
    packed = _require_packed(rep)
    return all(
        all(cs) and len(set(ts)) == len(ts)
        for cs, ts in zip(packed.coeffs, packed.targets)
    )


def support_check(G: AbelianGroup, rep: ModuleRep) -> bool:
    """x^R, y^R, z^R and xyz each act as one nonzero scalar.

    Each word is walked from every basis vector; it must come back to that
    vector with the same nonzero product everywhere.  A chart point with
    nonzero coordinates lies in the open torus of G-Hilb, whose module is
    supported on one free G-orbit in (C*)^3, so there the check must pass;
    at a fixed point every B is nilpotent and it fails.
    """
    packed = rep.packed
    if packed is None:
        return False
    R = G.R
    for word in ((0,) * R, (1,) * R, (2,) * R, (2, 1, 0)):
        walks = [_walk(packed, word, col) for col in range(len(rep.i_vec))]
        if any(end != col for col, (_, end) in enumerate(walks)):
            return False
        if len({value for value, _ in walks}) != 1:
            return False
    return True


def _block_rows(packed: Packed, nrows: int, blocks) -> list[dict]:
    """Sparse rows of a block matrix whose block (p, q) is sign * B_alpha."""
    n = len(packed.coeffs[0])
    rows: list[dict] = [{} for _ in range(nrows)]
    for p, q, sign, alpha in blocks:
        for col, (c, t) in enumerate(zip(packed.coeffs[alpha], packed.targets[alpha])):
            if c:
                rows[p * n + t][q * n + col] = sign * c
    return rows


def cpxnil_differentials(rep: ModuleRep):
    """The three differentials of the four-term wedge complex of one module.

    As sparse rows: d3 = (B1; B2; B3), d2 = ((-B2, B1, 0); (-B3, 0, B1);
    (0, -B3, B2)), d1 = (B3, -B2, B1).
    """
    packed = _require_packed(rep)
    n = len(rep.i_vec)
    d3 = _block_rows(packed, 3 * n, [(0, 0, 1, 0), (1, 0, 1, 1), (2, 0, 1, 2)])
    d2 = _block_rows(
        packed,
        3 * n,
        [(0, 0, -1, 1), (0, 1, 1, 0), (1, 0, -1, 2), (1, 2, 1, 0), (2, 1, -1, 2), (2, 2, 1, 1)],
    )
    d1 = _block_rows(packed, n, [(0, 0, 1, 2), (0, 1, -1, 1), (0, 2, 1, 0)])
    return d3, d2, d1


def cpxnil_homology(rep: ModuleRep) -> tuple[int, int, int, int]:
    """Homology dimensions (h3, h2, h1, h0) of the four-term wedge complex."""
    d3, d2, d1 = cpxnil_differentials(rep)
    return _homology_of_ranks(len(rep.i_vec), d3, d2, d1)


def _homology_of_ranks(n, d3, d2, d1):
    r3 = linalg.rank_sparse(d3, n)
    r2 = linalg.rank_sparse(d2, 3 * n)
    r1 = linalg.rank_sparse(d1, 3 * n)
    h3 = n - r3
    h2 = 3 * n - r2 - r3
    h1 = 3 * n - r1 - r2
    h0 = n - r1
    return (h3, h2, h1, h0)


def _packed(G: AbelianGroup, rep: ModuleRep):
    """Coefficient tables, and the target lines the characters dictate.

    Raises when some matrix entry sits off its character line, which would
    mean the representation is not equivariant.
    """
    packed = rep.packed
    targets = _shift_lines(G, rep.gg)
    for alpha, line in enumerate(targets):
        if packed is None or any(
            c and t != s
            for c, t, s in zip(packed.coeffs[alpha], packed.targets[alpha], line)
        ):
            raise RuntimeError(OFF_PATTERN)
    return packed.coeffs, targets


def _row(*entries) -> dict:
    row: dict = {}
    for col, value in entries:
        if value:
            row[col] = row.get(col, 0) + value
    return {c: v for c, v in row.items() if v}


def koszul_differentials(G: AbelianGroup, rep1: ModuleRep, rep2: ModuleRep):
    """Differentials of the two-module equivariant complex, as sparse rows.

    The terms are the equivariant Homs of the first module into the wedge
    powers tensored with the second; each is packed on character lines, so
    the spaces have dimensions n, 3n, 3n, n.  The differential is the
    graded commutator with the two multiplication maps.
    """
    b1, shift1 = _packed(G, rep1)
    b2, _ = _packed(G, rep2)
    chars1 = rep1.gg.char_index
    pos2 = rep2.gg.char_to_gamma()
    add = G.char_add
    coord = [G.char_index(e) for e in COORD_EXPONENTS]
    n = len(rep1.gg.gamma)
    if len(rep2.gg.gamma) != n:
        raise ValueError("modules must share the group order")

    def b2_at(alpha, c):
        """Coefficient of B2_alpha on the second module's line of character c."""
        return b2[alpha][pos2[c]]

    # d3: packed Hom -> three packed blocks.
    d3 = [
        _row((i, b2_at(alpha, chars1[i])), (shift1[alpha][i], -b1[alpha][i]))
        for alpha in range(3)
        for i in range(n)
    ]

    # d2: three blocks -> three wedge blocks.
    d2 = [
        _row(
            (beta * n + i, b2_at(alpha, add[chars1[i]][coord[beta]])),
            (alpha * n + i, -b2_at(beta, add[chars1[i]][coord[alpha]])),
            (alpha * n + shift1[beta][i], b1[beta][i]),
            (beta * n + shift1[alpha][i], -b1[alpha][i]),
        )
        for alpha, beta in WEDGE_PAIRS
        for i in range(n)
    ]

    # d1: three wedge blocks -> packed Hom; signs of the top wedge product.
    d1 = []
    for i in range(n):
        entries = []
        for p, (alpha, beta) in enumerate(WEDGE_PAIRS):
            third = 3 - alpha - beta
            sign = WEDGE_SIGNS[p]
            pair_char = add[coord[alpha]][coord[beta]]
            entries.append((p * n + i, sign * b2_at(third, add[chars1[i]][pair_char])))
            entries.append((p * n + shift1[third][i], -sign * b1[third][i]))
        d1.append(_row(*entries))

    return d3, d2, d1


def koszul_homology(
    G: AbelianGroup, rep1: ModuleRep, rep2: ModuleRep
) -> tuple[int, int, int, int]:
    """Homology (h3, h2, h1, h0) of the two-module equivariant complex."""
    d3, d2, d1 = koszul_differentials(G, rep1, rep2)
    return _homology_of_ranks(len(rep1.gg.gamma), d3, d2, d1)


def pair_report(i: int, j: int, h, expected) -> dict:
    return {
        "pair": [i, j],
        "h": list(h),
        "expected": list(expected),
        "pass": tuple(h) == tuple(expected),
    }


def sample_chart_points(
    gg: GGraph, count: int, rng: random.Random
) -> list[ChartPoint]:
    """Seeded chart points with nonzero small-height rational coordinates."""
    points = []
    for _ in range(count):
        coords = tuple(
            Fraction(rng.randint(1, 5), rng.randint(1, 5))
            * rng.choice((1, -1))
            for _ in range(3)
        )
        points.append(ChartPoint(base=gg, coords=coords))
    return points
