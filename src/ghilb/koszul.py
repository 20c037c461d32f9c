"""Module realizations at chart points and exact homology of their complexes.

A point of a chart with coordinates (lambda, mu, nu) determines a cyclic
module with basis the staircase of the owning fixed point.  Multiplication
by each variable is computed by rewriting: whenever a monomial is divisible
by one of the seven chart generators, the generator is replaced by its
chart relation (a coefficient monomial in lambda, mu, nu times the
complementary monomial).  Each rewrite strictly lowers the pairing with
n0, the sum of the chart's three rays, by at least one, which bounds the
loop.

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
from .ggraph import GGraph, Monomial, mono_divides
from .groups import AbelianGroup

Matrix = tuple[tuple[Fraction, ...], ...]
COORD_EXPONENTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
WEDGE_PAIRS = ((0, 1), (0, 2), (1, 2))
# Sign of x_gamma ^ (x_alpha ^ x_beta) against x ^ y ^ z, per wedge pair.
WEDGE_SIGNS = (1, -1, 1)
OFF_PATTERN = "multiplication matrix is not supported on its character-shift pattern"


class RewriteError(RuntimeError):
    """Monomial rewriting exceeded its termination bound."""


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


def rewrite_rules(gg: GGraph):
    """The seven chart relations as (source, replacement, coefficient powers)."""
    a, b, c, d, e, f = gg.params
    if gg.kind == "A":
        rules = [
            ((a + d - 1, 0, 0), (0, b - 1, f - 1), (1, 0, 0)),
            ((0, b + e - 1, 0), (d - 1, 0, c - 1), (0, 1, 0)),
            ((0, 0, c + f - 1), (a - 1, e - 1, 0), (0, 0, 1)),
            ((a, e, 0), (0, 0, c + f - 2), (1, 1, 0)),
            ((0, b, f), (a + d - 2, 0, 0), (0, 1, 1)),
            ((d, 0, c), (0, b + e - 2, 0), (1, 0, 1)),
            ((1, 1, 1), (0, 0, 0), (1, 1, 1)),
        ]
    else:
        rules = [
            ((a + d, 0, 0), (0, b - 1, f - 1), (1, 0, 1)),
            ((0, b + e, 0), (d - 1, 0, c - 1), (1, 1, 0)),
            ((0, 0, c + f), (a - 1, e - 1, 0), (0, 1, 1)),
            ((a, e, 0), (0, 0, c + f - 1), (1, 0, 0)),
            ((0, b, f), (a + d - 1, 0, 0), (0, 1, 0)),
            ((d, 0, c), (0, b + e - 1, 0), (0, 0, 1)),
            ((1, 1, 1), (0, 0, 0), (1, 1, 1)),
        ]
    return rules


def build_rep(
    G: AbelianGroup, pt: ChartPoint, cone: toric.ChartCone | None = None
) -> ModuleRep:
    """Multiplication matrices of the chart-point module in the staircase basis."""
    gg = pt.base
    if cone is None:
        pair = toric.lattices(G)
        cone = toric.chart_cone(G, pair, gg, owner=0)
    n0 = [sum(ray[i] for ray in cone.rays) for i in range(3)]
    rules = rewrite_rules(gg)
    coords = pt.coords
    gamma = gg.gamma
    index = {m: i for i, m in enumerate(gamma)}
    gamma_set = set(gamma)
    n = len(gamma)
    mats = []
    for alpha in range(3):
        mat = [[Fraction(0)] * n for _ in range(n)]
        for col, mono in enumerate(gamma):
            w = list(mono)
            w[alpha] += 1
            result = _normal_form(tuple(w), rules, coords, n0, gamma_set)
            if result is None:
                continue
            target, coeff = result
            expected = G.char_add[G.char_index(COORD_EXPONENTS[alpha])][
                G.char_index(mono)
            ]
            if G.char_index(target) != expected:
                raise RewriteError(
                    f"rewriting x_{alpha} * {mono} landed on the wrong character line"
                )
            mat[index[target]][col] = coeff
        mats.append(tuple(tuple(row) for row in mat))
    i_vec = tuple(
        Fraction(int(m == (0, 0, 0))) for m in gamma
    )
    return ModuleRep(gg=gg, coords=coords, b=tuple(mats), i_vec=i_vec)


def _normal_form(start: Monomial, rules, coords, n0, gamma_set):
    """Reduce a monomial to the staircase; None when the coefficient dies."""
    phi = sum(f * e for f, e in zip(n0, start))
    budget = int(phi)
    w = start
    coeff = Fraction(1)
    steps = 0
    while w not in gamma_set:
        for lhs, rhs, powers in rules:
            if mono_divides(lhs, w):
                w = (
                    w[0] - lhs[0] + rhs[0],
                    w[1] - lhs[1] + rhs[1],
                    w[2] - lhs[2] + rhs[2],
                )
                for coord, power in zip(coords, powers):
                    if power:
                        if coord == 0:
                            return None
                        coeff *= coord**power
                break
        else:
            raise RewriteError(
                f"monomial {w} is outside the staircase but no chart rule applies"
            )
        steps += 1
        if steps > budget:
            raise RewriteError(
                f"rewriting of {start} exceeded its bound of {budget} steps; "
                "the chart is misclassified"
            )
    return w, coeff


def fixed_point_rep(G: AbelianGroup, gg: GGraph, cone=None) -> ModuleRep:
    zero = Fraction(0)
    return build_rep(G, ChartPoint(base=gg, coords=(zero, zero, zero)), cone=cone)


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
    chars = rep.gg.char_index
    pos = rep.gg.char_to_gamma()
    targets = []
    for alpha, exponent in enumerate(COORD_EXPONENTS):
        shift = G.char_add[G.char_index(exponent)]
        line = [pos[shift[c]] for c in chars]
        if packed is None or any(
            c and t != s
            for c, t, s in zip(packed.coeffs[alpha], packed.targets[alpha], line)
        ):
            raise RuntimeError(OFF_PATTERN)
        targets.append(line)
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
