from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import count_identity_value, in_m, in_n, mat_mul, primitive_in_n
from conftest import SUITE_3D, get_cones, get_fixed_points, get_group
from ghilb import linalg, toric
from ghilb.ggraph import GGraph, MonomialIdeal
from ghilb.toric import (
    ChartError,
    FanError,
    build_fan,
    chart_cone,
    chart_dual_generators,
    dual_rays,
)


def axes(R):
    """The coordinate rays e_1, e_2, e_3, held as R*e_i."""
    return ((R, 0, 0), (0, R, 0), (0, 0, R))


def test_lattice_indices_order_three():
    # M is the sum-divisible-by-three lattice, of index 3; the character
    # table decides membership, and agrees with the definition
    G = get_group("3:1,1,1")
    for e in ((1, 1, 1), (3, 0, 0), (2, -2, 3)):
        assert G.char_index(e) == 0 and in_m(G, e)
    for e in ((1, 0, 0), (2, -2, 1)):
        assert G.char_index(e) != 0 and not in_m(G, e)
    assert sum(in_m(G, e) for e in product(range(3), repeat=3)) == 27 // 3


def test_n_contains_half_weight_vector():
    # R = 2: (1, 1, 0) is R*(1/2, 1/2, 0), and (2, 2, 0) is R*(1, 1, 0)
    G = get_group("2:1,1,0")
    assert in_n(G, (1, 1, 0))
    assert not in_n(G, (1, 0, 0))
    assert not in_n(G, (1, 1, 1))
    assert primitive_in_n(G, (1, 1, 0))
    assert primitive_in_n(G, (2, 0, 0))
    assert not primitive_in_n(G, (2, 2, 0))
    assert not primitive_in_n(G, (3, 3, 0))


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_lattice_duality_and_indices(spec, order):
    # [Z^3 : M] = [N : Z^3] = |G| by their definitions, and each chart's
    # exponents and rays are dual bases
    G = get_group(spec)
    box = list(product(range(G.R), repeat=3))
    assert len(box) == sum(in_m(G, e) for e in box) * order
    assert sum(in_n(G, e) for e in box) == order
    for v in axes(G.R):
        assert primitive_in_n(G, v)
    for cone in get_cones(spec):
        assert all(in_m(G, v) for v in cone.dual_gens)
        for i, ray in enumerate(cone.rays):
            pairing = [sum(a * b for a, b in zip(ray, v)) for v in cone.dual_gens]
            assert pairing == [G.R * int(i == j) for j in range(3)]


def test_chart_dual_generators_frozen_axis_chart():
    fps = get_fixed_points("3:1,1,1")
    axis = next(gg for gg in fps if gg.gamma == ((0, 0, 0), (1, 0, 0), (2, 0, 0)))
    assert chart_dual_generators(axis) == ((3, 0, 0), (-1, 1, 0), (-1, 0, 1))


def test_chart_cone_rays_frozen_axis_chart():
    G = get_group("3:1,1,1")
    fps = get_fixed_points("3:1,1,1")
    axis = next(gg for gg in fps if gg.gamma == ((0, 0, 0), (1, 0, 0), (2, 0, 0)))
    cone = chart_cone(G, axis, owner=0)
    _, e2, e3 = axes(3)
    assert set(cone.rays) == {(1, 1, 1), e2, e3}


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_all_charts_smooth_and_crepant(spec, order):
    G = get_group(spec)
    for cone in get_cones(spec):
        assert all(G.char_index(v) == 0 for v in cone.dual_gens)
        assert linalg.det3(cone.dual_gens) == order
        for ray in cone.rays:
            assert sum(ray) == G.R
            assert all(x >= 0 for x in ray)
            assert primitive_in_n(G, ray)
        for ray, gen in zip(cone.rays, cone.dual_gens):
            assert sum(a * b for a, b in zip(ray, gen)) == G.R


def _plant_generators(monkeypatch, gens):
    monkeypatch.setattr(toric, "chart_dual_generators", lambda gg: gens)


def test_corrupted_cone_fails_smoothness(monkeypatch):
    G = get_group("3:1,1,1")
    cone = get_cones("3:1,1,1")[0]
    v = cone.dual_gens[1]
    # y^3 is invariant, so the exponents stay invariant but stop spanning M
    corrupted = (cone.dual_gens[0], (v[0], v[1] + 3, v[2]), cone.dual_gens[2])
    assert all(G.char_index(v) == 0 for v in corrupted)
    det = linalg.det3(corrupted)
    assert abs(det) != G.order
    _plant_generators(monkeypatch, corrupted)
    with pytest.raises(ChartError, match=rf"chart of fixed point 0 has det = {det}, expected 3$"):
        chart_cone(G, get_fixed_points("3:1,1,1")[0], owner=0)


@given(kind=st.sampled_from("AB"), params=st.tuples(*[st.integers(-60, 60)] * 6))
def test_chart_determinant_is_the_count_identity(kind, params):
    # the polynomial identity that lets chart_cone's det = |G| stand for
    # the counting identity: no separate check of it is needed
    gg = GGraph(gamma=(), ideal=MonomialIdeal(()), by_char=(), kind=kind, params=params)
    assert linalg.det3(chart_dual_generators(gg)) == count_identity_value(kind, params)


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_chart_of_determinant_minus_order_is_refused(spec, order, monkeypatch):
    # two exponents swapped still span M, |det| = |G|, and dual to the same
    # cone's rays; only the sign shows the counting identity broken
    G = get_group(spec)
    for cone in get_cones(spec):
        v1, v2, v3 = cone.dual_gens
        swapped = (v2, v1, v3)
        assert linalg.det3(swapped) == -order
        assert sorted(dual_rays(swapped, G.R)) == sorted(cone.rays)
        _plant_generators(monkeypatch, swapped)
        message = rf"chart of fixed point {cone.owner} has det = {-order}, expected {order}$"
        with pytest.raises(ChartError, match=message):
            chart_cone(G, get_fixed_points(spec)[cone.owner], owner=cone.owner)


# SL3(Z) is generated by the elementary matrices I + c*E_ij, i != j
ELEMENTARY = st.tuples(
    st.integers(0, 2), st.integers(1, 2), st.integers(-3, 3).filter(bool)
).map(lambda t: (t[0], (t[0] + t[1]) % 3, t[2]))


def _unimodular(ops) -> list[list[int]]:
    """The product of the elementary matrices I + c*E_ij, as row operations on I."""
    u = [[int(i == j) for j in range(3)] for i in range(3)]
    for i, j, c in ops:
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


@given(ops=st.lists(ELEMENTARY, min_size=1, max_size=6))
def test_invariant_basis_of_index_order_has_primitive_dual_in_n(ops):
    # the implication chart_cone rests on: three invariant exponents with
    # det = |G| are a basis of M, so the dual basis is one of N.  Any basis
    # U * dual_gens of the same M, U in SL3(Z), must pass both tests and
    # have every dual vector primitive in N.  R times the dual basis is
    # R*adj^T / det, so det divides R*adj entrywise: the exact division
    # dual_rays rests on.
    u = _unimodular(ops)
    assert linalg.det3(u) == 1
    for spec, order in SUITE_3D:
        G = get_group(spec)
        for cone in get_cones(spec):
            basis = [tuple(int(x) for x in row) for row in mat_mul(u, cone.dual_gens)]
            assert all(G.char_index(v) == 0 for v in basis)
            det = linalg.det3(basis)
            assert det == order
            adj = linalg.adjugate3(basis)
            assert all(G.R * x % det == 0 for row in adj for x in row)
            for i in range(3):
                ray = tuple(G.R * adj[j][i] // det for j in range(3))
                assert primitive_in_n(G, ray), (spec, cone.owner, basis, ray)


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_doubled_generator_fails_det_and_leaves_n(spec, order, monkeypatch):
    # 2*v3 is still invariant, but spans a sublattice of index 2|G|: chart_cone
    # refuses it by its determinant, and its third dual vector r3/2 lies outside N
    G = get_group(spec)
    gg = get_fixed_points(spec)[0]
    for cone in get_cones(spec):
        v1, v2, v3 = cone.dual_gens
        doubled = (v1, v2, tuple(2 * x for x in v3))
        assert all(G.char_index(v) == 0 for v in doubled)
        det, adj = linalg.det3(doubled), linalg.adjugate3(doubled)
        # R times dual vector i is R*adj[.][i] / det, in N only if integral
        in_n_flags = [
            all(G.R * adj[j][i] % det == 0 for j in range(3))
            and in_n(G, tuple(G.R * adj[j][i] // det for j in range(3)))
            for i in range(3)
        ]
        assert in_n_flags == [True, True, False]
        _plant_generators(monkeypatch, doubled)
        with pytest.raises(ChartError, match=rf"det = {2 * order}, expected {order}$"):
            chart_cone(G, gg, owner=cone.owner)


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_noninvariant_triple_fails_invariance(spec, order, monkeypatch):
    G = get_group(spec)
    gg = get_fixed_points(spec)[0]
    axis = next(e for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) if G.char_index(e) != 0)
    for cone in get_cones(spec):
        v1, v2, v3 = cone.dual_gens
        shifted = (tuple(a + b for a, b in zip(v1, axis)), v2, v3)
        _plant_generators(monkeypatch, shifted)
        with pytest.raises(ChartError, match="is not invariant"):
            chart_cone(G, gg, owner=cone.owner)


def test_dual_rays_crepancy_alarm():
    # the ray and its coordinate sum in the c/R form of the fan's JSON
    with pytest.raises(ChartError, match=r"^ray \(0, 0, 1/2\) has coordinate sum 1/2, not 1$"):
        dual_rays(((1, 0, 0), (0, 1, 0), (0, 0, 2)), 2)
    with pytest.raises(ChartError, match=r"^ray \(1, 0, -2/3\) has a negative coordinate$"):
        dual_rays(((1, 0, 0), (0, 1, 0), (2, 2, 3)), 3)


def test_noninvariant_exponent_rejected():
    G = get_group("2:1,1,0")
    gg = get_fixed_points("3:1,1,1")[0]  # staircase of the wrong group
    with pytest.raises(ChartError, match="is not invariant"):
        chart_cone(G, gg, owner=0)


def test_a_misclassified_staircase_names_its_fixed_point():
    # a + 1 moves a chart exponent off M at every fixed point of 7:1,2,4,
    # and the invariance error names the fixed point it was raised for
    G = get_group("7:1,2,4")
    for k, gg in enumerate(get_fixed_points("7:1,2,4")):
        a, *rest = gg.params
        misclassified = replace(gg, params=(a + 1, *rest))
        with pytest.raises(ChartError, match=rf"of fixed point {k} is not invariant"):
            chart_cone(G, misclassified, owner=k)


def test_fan_order_three_frozen():
    G = get_group("3:1,1,1")
    fan = build_fan(G, get_cones("3:1,1,1"))
    assert len(fan.cones) == 3
    assert set(fan.rays) == {*axes(3), (1, 1, 1)}
    assert fan.junior == ((1, 1, 1),)


def test_fan_involution_junior_ray():
    G = get_group("2:1,1,0")
    fan = build_fan(G, get_cones("2:1,1,0"))
    assert set(fan.rays) == {*axes(2), (1, 1, 0)}


def test_fan_seven_ray_set():
    G = get_group("7:1,2,4")
    fan = build_fan(G, get_cones("7:1,2,4"))
    assert set(fan.rays) == {*axes(7), (1, 2, 4), (2, 4, 1), (4, 1, 2)}


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_fan_consistency(spec, order):
    G = get_group(spec)
    fan = build_fan(G, get_cones(spec))
    assert len(fan.cones) == order
    assert fan.junior == G.junior_elements()
    assert set(fan.rays) == {*axes(G.R), *fan.junior}
    # facet multiplicities, recounted here independently of build_fan
    counts: dict = {}
    for cone in fan.cones:
        r1, r2, r3 = sorted(cone.rays)
        for pair_rays in ((r1, r2), (r1, r3), (r2, r3)):
            counts[pair_rays] = counts.get(pair_rays, 0) + 1
    for (r1, r2), count in counts.items():
        boundary = any(r1[i] == 0 and r2[i] == 0 for i in range(3))
        assert count == (1 if boundary else 2)


def test_dropped_cone_breaks_facet_pairing():
    G = get_group("3:1,1,1")
    cones = get_cones("3:1,1,1")
    with pytest.raises(FanError):
        build_fan(G, cones[:-1])


def test_fan_json_shape():
    G = get_group("2:1,1,0")
    fan = build_fan(G, get_cones("2:1,1,0"))
    payload = fan.to_json()
    assert set(payload) == {"rays", "cones", "junior_elements"}
    assert ["1/2", "1/2", "0"] in payload["rays"]
    assert all(len(cone) == 3 for cone in payload["cones"])



# the specs of the fan goldens, and order 499, whose junior elements reach
# every numerator of 1/499
@pytest.mark.parametrize(
    "spec",
    ["13:1,3,9", "3:1,2,0;3:0,1,2", "33:1,4,28", "37:1,10,26", "6:1,5,0;6:0,1,5", "499:1,2,496"],
)
def test_fan_json_ray_text_is_the_fraction_text(spec):
    G = get_group(spec)
    fan = build_fan(G, get_cones(spec))
    payload = fan.to_json()
    assert payload["rays"] == [[str(Fraction(c, G.R)) for c in ray] for ray in fan.rays]
    assert payload["junior_elements"] == [[str(Fraction(c, G.R)) for c in g] for g in fan.junior]


def test_ray_text_reduces_signs_and_zero_like_fraction():
    for R in (1, 2, 6, 12):
        for c in range(-2 * R, 2 * R + 1):
            assert toric._text((c, 0, -c), R) == [str(Fraction(c, R)), "0", str(Fraction(-c, R))]


def test_a_ray_set_fault_lists_the_rays_as_text_sorted_by_vector():
    # the cones of 7:1,2,4 glued for 7:1,1,5: same coordinate rays, other
    # junior rays; each list is sorted by R*ray, not by its text
    with pytest.raises(FanError) as exc:
        build_fan(get_group("7:1,1,5"), get_cones("7:1,2,4"))
    assert exc.value.details == {
        "missing": [["1/7", "1/7", "5/7"], ["2/7", "2/7", "3/7"], ["3/7", "3/7", "1/7"]],
        "extra": [["1/7", "2/7", "4/7"], ["2/7", "4/7", "1/7"], ["4/7", "1/7", "2/7"]],
    }
    with pytest.raises(FanError) as exc:
        build_fan(get_group("7:1,2,4"), [])
    assert exc.value.details["missing"] == [
        ["0", "0", "1"],
        ["0", "1", "0"],
        ["1/7", "2/7", "4/7"],
        ["2/7", "4/7", "1/7"],
        ["4/7", "1/7", "2/7"],
        ["1", "0", "0"],
    ]


def test_a_facet_fault_keys_its_facets_by_ray_text():
    # the first cone copied over the last: its facets get one or three owners
    cones = get_cones("7:1,2,4")
    cones = [*cones[:-1], replace(cones[0], owner=len(cones) - 1)]
    with pytest.raises(FanError, match="facet pairing failed") as exc:
        build_fan(get_group("7:1,2,4"), cones)
    facets = exc.value.details["facets"]
    assert facets["(0, 0, 1)|(1/7, 2/7, 4/7)"] == {"cones": [5], "expected": 2, "boundary": False}
    assert facets["(0, 1, 0)|(1, 0, 0)"] == {"cones": [0, 6], "expected": 1, "boundary": True}
    assert "Fraction" not in repr(facets)
