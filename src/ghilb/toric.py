"""Toric data of the resolution: chart cones and fan consistency.

M is the lattice of invariant Laurent exponents, the kernel of the character
map on Z^3, of index |G|; N = Z^3 + sum Z*g/R is its dual.  Every vector v of
N is held as the integer vector R*v: the coordinate rays as R*e_i and the
junior rays g/R as the group elements g themselves; only where a vector is
written as text is R*v divided back by R.  Each fixed point carries an affine
chart whose coordinates lambda, mu, nu are invariant Laurent monomials; the
basis dual to their exponents spans the chart cone.  Three invariant
exponents with |det| = |G| are a basis of M, so their dual rays are a basis
of N: that is smoothness, and crepancy is every ray sitting at lattice
height one (nonnegative coordinates of R*ray summing to R).  The check is
signed, det = |G|: in the kind A/B parameters det is the polynomial of the
counting identity, so this one check is that identity too.  ``layers`` runs
the chain from the chart cones to the glued fan, recording where it fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import linalg
from .ggraph import GGraph
from .groups import AbelianGroup

Vector = tuple[int, int, int]


class ChartError(RuntimeError):
    """A chart cone violates invariance, smoothness or crepancy."""


class FanError(RuntimeError):
    """The glued fan is inconsistent; details name the offending cones."""

    def __init__(self, message: str, details: dict):
        super().__init__(message)
        self.details = details


@dataclass(frozen=True)
class ChartCone:
    """One affine chart of the resolution, as dual generators plus rays R*ray."""

    owner: int
    dual_gens: tuple[Vector, Vector, Vector]
    rays: tuple[Vector, Vector, Vector]


def fraction_text(c: int, R: int) -> str:
    """c/R in lowest terms with its sign on top, as p/q, or p when q is 1."""
    p, q = linalg.reduced(c, R)
    return f"{p}/{q}" if q != 1 else str(p)


def _text(ray: Vector, R: int) -> list[str]:
    """The ray held as R*ray written out as the vector it stands for, c/R."""
    return [fraction_text(c, R) for c in ray]


def _ray_str(ray: Vector, R: int) -> str:
    """_text as one string, for messages and facet keys: (1/3, 1/3, 1/3)."""
    return f"({', '.join(_text(ray, R))})"


@dataclass(frozen=True)
class Fan:
    R: int
    cones: tuple[ChartCone, ...]
    rays: tuple[Vector, ...]
    junior: tuple[Vector, ...]

    def to_json(self) -> dict:
        ray_index = {r: i for i, r in enumerate(self.rays)}
        return {
            "rays": [_text(ray, self.R) for ray in self.rays],
            "cones": [sorted(ray_index[r] for r in cone.rays) for cone in self.cones],
            "junior_elements": [_text(ray, self.R) for ray in self.junior],
        }


def chart_dual_generators(gg: GGraph) -> tuple[Vector, Vector, Vector]:
    """Exponents of the chart coordinates as invariant Laurent monomials.

    Kind A charts satisfy x^(a+d-1) = lambda y^(b-1) z^(f-1) and rotations;
    kind B charts satisfy x^a y^e = lambda z^(c+f-1) and rotations.  Solving
    each relation for the chart coordinate gives its Laurent exponent.
    """
    a, b, c, d, e, f = gg.params
    if gg.kind == "A":
        v_l = (a + d - 1, 1 - b, 1 - f)
        v_m = (1 - d, b + e - 1, 1 - c)
        v_n = (1 - a, 1 - e, c + f - 1)
    else:
        v_l = (a, e, 1 - c - f)
        v_m = (1 - a - d, b, f)
        v_n = (d, 1 - b - e, c)
    return (v_l, v_m, v_n)


def dual_rays(dual_gens, R: int) -> tuple[Vector, Vector, Vector]:
    """Rays of the chart cone, as R*ray: the basis dual to the chart exponents.

    That basis is adj(gens)^T / det, so R*ray_i is R * adj[.][i] / det.  When
    the exponents are invariant with det = |G|, they are a basis of M and
    the rays a basis of N, inside (1/R) Z^3, so det divides R*adj entrywise
    and the division is exact.  Each R*ray must have nonnegative coordinates
    summing to R; a violation is a failure of crepancy and raised loudly.
    """
    det = linalg.det3(dual_gens)
    adj = linalg.adjugate3(dual_gens)
    rays = tuple(tuple(R * adj[j][i] // det for j in range(3)) for i in range(3))
    for ray in rays:
        if any(x < 0 for x in ray):
            raise ChartError(f"ray {_ray_str(ray, R)} has a negative coordinate")
        if sum(ray) != R:
            raise ChartError(
                f"ray {_ray_str(ray, R)} has coordinate sum {fraction_text(sum(ray), R)}, not 1"
            )
    return rays


def chart_cone(G: AbelianGroup, gg: GGraph, owner: int) -> ChartCone:
    """Build and fully validate the cone of one fixed point's chart."""
    gens = chart_dual_generators(gg)
    for v in gens:
        if G.char_index(v) != 0:
            raise ChartError(
                f"chart exponent {v} of fixed point {owner} is not invariant; "
                "the staircase is misclassified"
            )
    det = linalg.det3(gens)
    if det != G.order:
        raise ChartError(f"chart of fixed point {owner} has det = {det}, expected {G.order}")
    rays = dual_rays(gens, G.R)
    return ChartCone(owner=owner, dual_gens=gens, rays=rays)


def build_fan(G: AbelianGroup, cones: list[ChartCone]) -> Fan:
    """Glue the chart cones and check global consistency of the fan.

    The deduplicated ray set must consist of the three coordinate rays plus
    the age-one group elements, and every internal two-ray facet must be
    shared by exactly two cones (facets lying in a wall of the junior
    simplex, where both rays have a common zero coordinate, by exactly one).
    """
    R = G.R
    junior = G.junior_elements()
    expected_rays = {(R, 0, 0), (0, R, 0), (0, 0, R), *junior}
    seen_rays = sorted({ray for cone in cones for ray in cone.rays})
    if set(seen_rays) != expected_rays:
        raise FanError(
            "fan ray set does not match the junior elements",
            details={
                "missing": [_text(r, R) for r in sorted(expected_rays - set(seen_rays))],
                "extra": [_text(r, R) for r in sorted(set(seen_rays) - expected_rays)],
            },
        )
    if len(cones) != G.order:
        raise FanError(
            f"fan has {len(cones)} maximal cones, expected {G.order}",
            details={"cones": len(cones), "expected": G.order},
        )
    facet_owners: dict[tuple[Vector, Vector], list[int]] = {}
    for cone in cones:
        r1, r2, r3 = sorted(cone.rays)
        for pair_rays in ((r1, r2), (r1, r3), (r2, r3)):
            facet_owners.setdefault(pair_rays, []).append(cone.owner)
    bad = {}
    for (r1, r2), owners in facet_owners.items():
        boundary = any(r1[i] == 0 and r2[i] == 0 for i in range(3))
        expected = 1 if boundary else 2
        if len(owners) != expected:
            bad[f"{_ray_str(r1, R)}|{_ray_str(r2, R)}"] = {
                "cones": owners,
                "expected": expected,
                "boundary": boundary,
            }
    if bad:
        raise FanError("facet pairing failed", details={"facets": bad})
    return Fan(R=R, cones=tuple(cones), rays=tuple(seen_rays), junior=junior)


class Layers(NamedTuple):
    """The toric layers of one group: cone_errors maps a fixed point to its
    chart's error, and only when it is empty is the fan glued, or fan_error set."""

    cones: list[ChartCone]
    cone_errors: dict[int, str]
    fan: Fan | None
    fan_error: FanError | None


def layers(G: AbelianGroup, fixed_points: list[GGraph]) -> Layers:
    """The chart cone of every fixed point, and the fan they glue into."""
    cones, cone_errors = [], {}
    for k, gg in enumerate(fixed_points):
        try:
            cones.append(chart_cone(G, gg, owner=k))
        except ChartError as exc:
            cone_errors[k] = str(exc)
    fan = fan_error = None
    if not cone_errors:
        try:
            fan = build_fan(G, cones)
        except FanError as exc:
            fan_error = exc
    return Layers(cones, cone_errors, fan, fan_error)
