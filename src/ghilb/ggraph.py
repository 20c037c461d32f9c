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
        minimal: list[Monomial] = []
        for m in sorted(set(tuple(g) for g in monomials)):
            if not any(mono_divides(g, m) for g in minimal):
                minimal = [g for g in minimal if not mono_divides(m, g)]
                minimal.append(m)
        return cls(tuple(sorted(minimal)))

    def contains(self, m: Monomial) -> bool:
        return any(mono_divides(g, m) for g in self.gens)

    def pure_power_exponents(self) -> tuple[int, int, int]:
        """Exponents (alpha, beta, gamma) of the pure-power generators."""
        out = [None, None, None]
        for g in self.gens:
            for axis in range(3):
                if g[axis] and not g[(axis + 1) % 3] and not g[(axis + 2) % 3]:
                    out[axis] = g[axis]
        if any(v is None for v in out):
            raise InfiniteComplementError(
                f"ideal {self.gens} has no pure power on some axis; "
                "its complement is infinite"
            )
        return tuple(out)


@dataclass(frozen=True)
class GGraph:
    """A torus-fixed ideal with its staircase, character table and classification.

    gamma is the staircase sorted, and by_char[c] is its monomial of
    character c.  Both are kept: complement's column walk yields gamma
    sorted for free, and that order sorts the fixed points and the JSON,
    while deriving it from by_char would cost a sort per fixed point.
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


def complement(ideal: MonomialIdeal) -> list[Monomial]:
    """All monomials outside the ideal, sorted; requires a finite staircase.

    Walks the (x, y) columns: x^i y^j z^k lies outside the ideal exactly
    when k is below the column height, the least z-exponent among the
    generators that divide x^i y^j (z^gamma divides every column).  Heights
    only fall as j grows, so a row ends at its first column of height 0, and
    the cells come out in sorted order.
    """
    alpha, beta, _ = ideal.pure_power_exponents()
    out = []
    for i in range(alpha):
        row = [g for g in ideal.gens if g[0] <= i]
        for j in range(beta):
            height = min(g[2] for g in row if g[1] <= j)
            if not height:
                break
            out.extend((i, j, k) for k in range(height))
    return out


def classify(G: AbelianGroup, by_char: tuple[Monomial, ...], ideal: MonomialIdeal):
    """Determine (kind, params) from character matching against by_char.

    Raises ClassificationError when the matched monomials do not have the
    required shape or the three axis relations disagree on the kind; either
    event contradicts the structure theory and is treated as fatal.
    """
    alpha, beta, gamma_exp = ideal.pure_power_exponents()

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
    """The classified staircase if the ideal is a torus-fixed point, else None."""
    gamma = complement(ideal)
    if len(gamma) != G.order:
        return None
    table = {G.char_index(m): m for m in gamma}
    if len(table) != len(gamma):
        return None
    by_char = tuple(table[c] for c in range(G.order))
    kind, params = classify(G, by_char, ideal)
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
    ideal, whose staircase is revalidated by is_ggraph.
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
                        if cz[gamma_exp] != ci((a - 1, e - 1, 0)):
                            continue
                        if ci((d - 1, 0, c - 1)) != cy[beta]:
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


def brute_force_fixed_points(G: AbelianGroup, cap: int) -> list[GGraph]:
    """Independent oracle: depth-first search over admissible staircases.

    Staircases are grown one monomial at a time in increasing (degree, lex)
    order, so each candidate set is visited exactly once.  Only monomials
    with a zero exponent are eligible (xyz shares the trivial character with
    1, hence lies in every fixed ideal), and a monomial is only added when
    its character is still unused.

    The search carries the frontier of its staircase: the monomials outside
    it all of whose lowerings lie in it, which are the staircase ideal's
    minimal generators.  Adding a frontier monomial s removes s from the
    frontier and can add only raisings s * x_axis, those whose lowerings
    all lie in the new staircase: any other monomial has the same lowerings
    as before.  Each full staircase builds its ideal from its frontier and
    is revalidated by is_ggraph, so the oracle shares nothing with the
    parameter solve of enumerate_fixed_points.
    """
    if G.order > cap:
        raise OracleCapError(f"group order {G.order} exceeds the oracle cap {cap}")
    N = G.order
    ci = G.char_index

    def key(m: Monomial):
        return (m[0] + m[1] + m[2], m)

    results: list[GGraph] = []

    def raisings(gamma: set[Monomial], s: Monomial) -> set[Monomial]:
        """The raisings of s, just added to gamma, all of whose lowerings lie in gamma."""
        found = set()
        for axis in range(3):
            r = list(s)
            r[axis] += 1
            if all(ax == axis or not r[ax] or _lowered(r, ax) in gamma for ax in range(3)):
                found.add(tuple(r))
        return found

    def close(gamma: set[Monomial], frontier: set[Monomial]) -> None:
        gg = is_ggraph(G, MonomialIdeal.from_generators(frontier))
        if gg is None:
            raise RuntimeError(
                f"oracle staircase {sorted(gamma)} failed revalidation; "
                "enumeration and validation disagree"
            )
        results.append(gg)

    def dfs(gamma: set[Monomial], used: set[int], frontier: set[Monomial], last) -> None:
        if len(gamma) == N:
            close(gamma, frontier)
            return
        for s in sorted((s for s in frontier if min(s) == 0 and key(s) > last), key=key):
            c = ci(s)
            if c in used:
                continue
            gamma.add(s)
            used.add(c)
            dfs(gamma, used, (frontier - {s}) | raisings(gamma, s), key(s))
            gamma.discard(s)
            used.discard(c)

    one = (0, 0, 0)
    dfs({one}, {ci(one)}, raisings({one}, one), key(one))
    results.sort(key=lambda gg: gg.gamma)
    return results


def oracle_agreement(G: AbelianGroup, fixed_points: list[GGraph], cap: int) -> tuple[bool, int]:
    """Whether the enumerated fixed points equal the oracle's, and how many it found."""
    oracle = brute_force_fixed_points(G, cap=cap)
    return [gg.to_json() for gg in fixed_points] == [gg.to_json() for gg in oracle], len(oracle)


def _lowered(m: Monomial, axis: int) -> Monomial:
    s = list(m)
    s[axis] -= 1
    return tuple(s)
