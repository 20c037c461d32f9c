"""Torus-fixed points of the G-Hilbert scheme as monomial staircases.

A fixed point is a monomial ideal whose complement Gamma, its G-graph,
carries every character of G exactly once.  GGraph holds that as one
table, by_char[c] = the staircase monomial of character c, which spans the
fibre of the tautological bundle R_c at the fixed point; every layer reads
it.  Each such ideal is generated by

    x^alpha, y^beta, z^gamma, x^a y^e, y^b z^f, z^c x^d, xyz

with the pure-power exponents equal to (a+d-1, b+e-1, c+f-1) for kind A or
(a+d, b+e, c+f) for kind B.  The six parameters are pinned down purely by
character matching (the monomial of Gamma sharing the character of z^gamma
is x^(a-1) y^(e-1), and rotations), which also covers the degenerate cases
where one of the mixed monomials fails to be a minimal generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import AbelianGroup

Monomial = tuple[int, int, int]


class InfiniteComplementError(Exception):
    """A monomial ideal misses a pure power on some axis."""


class ClassificationError(RuntimeError):
    """A staircase violates the kind A / kind B structure theory."""


class OracleCapError(ValueError):
    """The brute-force search was asked to run above its group-order cap."""


# The largest group order the brute-force oracle runs on: the largest at
# which it costs no more CPU time than the rest of verify (on cyclic groups,
# at most 0.9 times the rest at order 32, up to 1.3 times at 33).
ORACLE_CAP = 32


def mono_mul(u: Monomial, v: Monomial) -> Monomial:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def mono_divides(u: Monomial, v: Monomial) -> bool:
    return u[0] <= v[0] and u[1] <= v[1] and u[2] <= v[2]


def mono_lcm(u: Monomial, v: Monomial) -> Monomial:
    return (max(u[0], v[0]), max(u[1], v[1]), max(u[2], v[2]))


def mono_str(m: Monomial) -> str:
    return f"x^{m[0]} y^{m[1]} z^{m[2]}"


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal stored by its minimal generators, sorted."""

    gens: tuple[Monomial, ...]

    @classmethod
    def from_generators(cls, monomials) -> "MonomialIdeal":
        """The minimal generators of the ideal the monomials generate.

        In sorted order a monomial can only be divided by an earlier one,
        so one pass keeps each monomial no kept one divides, and the kept
        ones come out sorted.
        """
        minimal: list[Monomial] = []
        for m in sorted(set(map(tuple, monomials))):
            x, y, z = m
            for a, b, c in minimal:
                if a <= x and b <= y and c <= z:
                    break
            else:
                minimal.append(m)
        return cls(tuple(minimal))

    def contains(self, m: Monomial) -> bool:
        return any(mono_divides(g, m) for g in self.gens)

    def pure_power_exponents(self) -> tuple[int, int, int]:
        """Exponents (alpha, beta, gamma) of the least pure powers in the ideal."""
        if (0, 0, 0) in self.gens:  # the unit ideal: 1 = x^0 = y^0 = z^0
            return (0, 0, 0)
        out = [None, None, None]
        for g in self.gens:
            if g.count(0) == 2:
                axis = 0 if g[0] else 1 if g[1] else 2
                if out[axis] is None or g[axis] < out[axis]:
                    out[axis] = g[axis]
        if None in out:
            raise InfiniteComplementError(
                f"ideal {self.gens} has no pure power on some axis; "
                "its complement is infinite"
            )
        return tuple(out)


@dataclass(frozen=True)
class GGraph:
    """A torus-fixed ideal with its staircase, character table and classification.

    gamma is the staircase sorted, and by_char[c] is its monomial of
    character c.  Both are kept: the column walk that fills by_char
    (is_ggraph) visits the cells in sorted order, so it yields gamma sorted
    for free, and that order sorts the fixed points and the JSON, while
    deriving it from by_char would cost a sort per fixed point.
    """

    gamma: tuple[Monomial, ...]
    ideal: MonomialIdeal
    by_char: tuple[Monomial, ...]
    kind: str
    params: tuple[int, int, int, int, int, int]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": list(self.params),
            "generators": [list(g) for g in self.ideal.gens],
            "gamma": [list(m) for m in self.gamma],
            # the character of each gamma monomial in turn, gamma being sorted
            "characters": sorted(range(len(self.by_char)), key=self.by_char.__getitem__),
        }


def _rows(ideal: MonomialIdeal, exponents: tuple[int, int, int]):
    """(i, heights) for each row x^i of the staircase, i from 0 to alpha - 1.

    x^i y^j z^k lies outside the ideal exactly when k is below heights[j],
    the least z-exponent among the generators that divide x^i y^j; heights
    holds the row's nonzero column heights, and j runs over its indices.
    One list is kept from row to row and yielded live.  The generators are
    taken in sorted order, so each x^u y^v z^w joins at its row u: it lowers
    the heights from column v on to w, stopping at the first column already
    at most w, since heights only fall as j grows, or ends the row at
    column v when w is 0; one past the row's last column, or with w at
    least gamma, changes nothing, so the generators may come unsorted and
    not minimal.
    """
    alpha, beta, gamma = exponents
    heights = [gamma] * beta
    i = 0
    for u, v, w in sorted(ideal.gens):
        if u >= alpha:
            break
        while i < u:
            yield i, heights
            i += 1
        if not w:
            del heights[v:]
            continue
        for j in range(v, len(heights)):
            if heights[j] <= w:
                break
            heights[j] = w
    while i < alpha:
        yield i, heights
        i += 1


def complement(ideal: MonomialIdeal) -> list[Monomial]:
    """All monomials outside the ideal, sorted; requires a finite staircase."""
    return [
        (i, j, k)
        for i, heights in _rows(ideal, ideal.pure_power_exponents())
        for j, height in enumerate(heights)
        for k in range(height)
    ]


def classify(G: AbelianGroup, by_char: tuple[Monomial, ...], exponents: tuple[int, int, int]):
    """Determine (kind, params) from character matching against by_char.

    exponents are the ideal's pure-power exponents (alpha, beta, gamma).
    Raises ClassificationError when the matched monomials do not have the
    required shape or the three axis relations disagree on the kind; either
    event contradicts the structure theory and is treated as fatal.
    """
    alpha, beta, gamma_exp = exponents

    def matched(exponent: Monomial) -> Monomial:
        return by_char[G.char_index(exponent)]

    mz = matched((0, 0, gamma_exp))
    if mz[2] != 0:
        raise ClassificationError(
            f"monomial {mono_str(mz)} matching z^{gamma_exp} is not of the form x^(a-1) y^(e-1)"
        )
    a, e = mz[0] + 1, mz[1] + 1
    mx = matched((alpha, 0, 0))
    if mx[0] != 0:
        raise ClassificationError(
            f"monomial {mono_str(mx)} matching x^{alpha} is not of the form y^(b-1) z^(f-1)"
        )
    b, f = mx[1] + 1, mx[2] + 1
    my = matched((0, beta, 0))
    if my[1] != 0:
        raise ClassificationError(
            f"monomial {mono_str(my)} matching y^{beta} is not of the form z^(c-1) x^(d-1)"
        )
    c, d = my[2] + 1, my[0] + 1

    kinds = []
    for total, u, v in ((alpha, a, d), (beta, b, e), (gamma_exp, c, f)):
        if total == u + v - 1:
            kinds.append("A")
        elif total == u + v:
            kinds.append("B")
        else:
            raise ClassificationError(
                f"pure-power exponent {total} matches neither {u}+{v}-1 nor {u}+{v}"
            )
    if len(set(kinds)) != 1:
        raise ClassificationError(f"axis relations disagree on the kind: {kinds}")
    return kinds[0], (a, b, c, d, e, f)


def is_ggraph(G: AbelianGroup, ideal: MonomialIdeal) -> GGraph | None:
    """The classified staircase if the ideal is a torus-fixed point, else None.

    One column walk (_rows) fills by_char in place, reading each cell's
    character off the McKay arrows: chi_x steps from row to row, chi_y
    from column to column and chi_z from cell to cell, starting at the
    trivial character 0 on 1.  The walk stops at the first repeated
    character or as soon as the staircase exceeds |G| cells; a staircase
    of |G| cells with no repeat carries every character exactly once.
    """
    exponents = ideal.pure_power_exponents()
    step_x, step_y, step_z = G.arrows
    N = G.order
    by_char: list = [None] * N
    gamma = []
    cells = row = 0
    for i, heights in _rows(ideal, exponents):
        cells += sum(heights)
        if cells > N:
            return None
        if i:
            row = step_x[row]
        col = row
        for j, height in enumerate(heights):
            c = col
            for k in range(height):
                if by_char[c] is not None:
                    return None
                by_char[c] = m = (i, j, k)
                gamma.append(m)
                c = step_z[c]
            col = step_y[col]
    if cells != N:
        return None
    by_char = tuple(by_char)
    kind, params = classify(G, by_char, exponents)
    return GGraph(gamma=tuple(gamma), ideal=ideal, by_char=by_char, kind=kind, params=params)


def seven_generators(kind: str, params) -> tuple[Monomial, ...]:
    a, b, c, d, e, f = params
    delta = 1 if kind == "A" else 0
    return (
        (a + d - delta, 0, 0),
        (0, b + e - delta, 0),
        (0, 0, c + f - delta),
        (a, e, 0),
        (0, b, f),
        (d, 0, c),
        (1, 1, 1),
    )


def enumerate_fixed_points(G: AbelianGroup) -> list[GGraph]:
    """All torus-fixed points, by solving the counting identity for (c, e).

    The staircase of a fixed point contains 1, x, ..., x^(alpha-1) with
    pairwise distinct characters, so alpha, beta, gamma are at most |G| and
    every parameter lies in [1, |G|].  The counting identity, |G| = the
    determinant of the chart exponents (toric.chart_dual_generators), has
    no c*e term: with t = 2 for kind A and t = 1 for kind B it reads

        |G| = K + p*c + q*e,  p = a+b+d-t,  q = a+d+f-t,
        K = t^2 - t*(a+b+d+f) + ab + bf + df,

    and p, q >= 1.  A solution with c, e >= 1 needs K + p + q <= |G|, where
    K + p + q is ab + bf + df - b - f for kind A and ab + bf + df + a + d - 1
    for kind B; both force b*f <= |G|, so only such pairs (b, f) are listed.
    The search fixes alpha, and with it s = a + d = alpha + t - 1, then a
    pair (b, f) passing the x-axis character match.  With d = s - a,
    K + p + q = a*(b - f) + C, where C = bf + sf - b - f for kind A and
    bf + sf + s - 1 for kind B, so the a in [1, s - 1] with
    K + p + q <= |G| form an interval, found in O(1), and no other a can
    have a solution.  Once a is fixed, the solutions with c, e >= 1 are
    exactly
    c = (|G| - K - q*e) / p for the e >= 1 with q*e + p <= |G| - K for which
    the division is exact.  Walking e over that range visits every candidate
    of the parameter box that satisfies the identity, so the search is
    exhaustive.  K + p*c + q*e is that determinant expanded, so each
    solution's chart has det = |G| by construction; it must still pass the
    ranges of beta and gamma and the two remaining character matches.
    Candidates are deduplicated on the minimal generators of the resulting
    ideal, whose staircase is revalidated by is_ggraph: one column walk per
    candidate that reads only those generators and the McKay arrows, none
    of the solved parameters, and stops at the first repeated character.
    """
    N = G.order
    ci = G.char_index
    cx = [ci((k, 0, 0)) for k in range(N + 1)]
    cy = [ci((0, k, 0)) for k in range(N + 1)]
    cz = [ci((0, 0, k)) for k in range(N + 1)]
    # the character of x^i y^j is add[cx[i]][cy[j]], and so on
    add = G.char_add
    pairs_by_char: dict[int, list[tuple[int, int]]] = {}
    for b in range(1, N + 1):
        for f in range(1, N // b + 1):
            pairs_by_char.setdefault(add[cy[b - 1]][cz[f - 1]], []).append((b, f))

    seen: set[tuple[Monomial, ...]] = set()
    results: list[GGraph] = []
    for kind in ("A", "B"):
        delta = 1 if kind == "A" else 0
        t = 1 + delta
        for alpha in range(1, N + 1):
            s = alpha + delta
            for b, f in pairs_by_char.get(cx[alpha], ()):
                C = b * f + s * f + (-b - f if delta else s - 1)
                lo, hi = 1, s - 1
                if b > f:
                    hi = min(hi, (N - C) // (b - f))
                elif b < f:
                    lo = max(lo, -((N - C) // (f - b)))
                elif C > N:
                    continue
                for a in range(lo, hi + 1):
                    d = s - a
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
                        if cz[gamma_exp] != add[cx[a - 1]][cy[e - 1]]:
                            continue
                        if add[cx[d - 1]][cz[c - 1]] != cy[beta]:
                            continue
                        params = (a, b, c, d, e, f)
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


def brute_force_fixed_points(G: AbelianGroup) -> list[GGraph]:
    """Independent oracle: depth-first search over staircase column heights.

    A staircase is its column heights h(i, j), which do not increase along a
    row or down a column.  The columns are decided in lexicographic order:
    height 0 ends row i at column j > 0; otherwise the cells (i, j, 0),
    (i, j, 1), ... join one at a time, each capped by h(i - 1, j) and
    h(i, j - 1), while its character is unused (xyz has the character of 1,
    so it never joins).  So each staircase is visited once, and recorded on
    reaching |G| cells by its generators: the column tops, the row ends and
    x^alpha past the last row.  is_ggraph revalidates each after the search,
    so the oracle shares nothing with the parameter solve of
    enumerate_fixed_points.
    """
    if G.order > ORACLE_CAP:
        raise OracleCapError(f"group order {G.order} exceeds the oracle cap {ORACLE_CAP}")
    N = G.order
    ci = G.char_index
    used = [False] * N
    rows: list[list[int]] = [[]]  # the column heights, row by row
    found: list[list[Monomial]] = []

    def column(cells: int) -> None:
        row = rows[-1]
        i, j = len(rows) - 1, len(row)
        cap = N
        if i:
            cap = rows[-2][j] if j < len(rows[-2]) else 0
        if j:  # height 0 ends the row
            cap = min(cap, row[-1])
            rows.append([])
            column(cells)
            rows.pop()
        row.append(0)
        chars = []
        for k in range(cap):
            c = ci((i, j, k))
            if used[c]:
                break
            used[c] = True
            chars.append(c)
            row[-1] += 1
            cells += 1
            if cells == N:
                found.append(
                    [(u, v, h) for u, hs in enumerate(rows) for v, h in enumerate(hs)]
                    + [(u, len(hs), 0) for u, hs in enumerate(rows)]
                    + [(len(rows), 0, 0)]
                )
                break
            column(cells)
        row.pop()
        for c in chars:
            used[c] = False

    column(0)
    results = []
    for gens in found:
        ideal = MonomialIdeal.from_generators(gens)
        gg = is_ggraph(G, ideal)
        if gg is None:
            raise RuntimeError(
                f"oracle staircase with generators {ideal.gens} failed revalidation; "
                "enumeration and validation disagree"
            )
        results.append(gg)
    results.sort(key=lambda gg: gg.gamma)
    return results


def oracle_agreement(G: AbelianGroup, fixed_points: list[GGraph]) -> tuple[bool, int] | None:
    """Whether the enumerated fixed points equal the oracle's, and how many it found.

    None above ORACLE_CAP: this is the one place that decides whether the oracle runs.
    """
    if G.order > ORACLE_CAP:
        return None
    oracle = brute_force_fixed_points(G)
    return [gg.to_json() for gg in fixed_points] == [gg.to_json() for gg in oracle], len(oracle)
