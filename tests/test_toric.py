from fractions import Fraction

import pytest

from _oracles import lattices_scan
from conftest import SUITE_3D, get_cones, get_fixed_points, get_group, get_lattices
from ghilb import linalg
from ghilb.toric import (
    ChartError,
    FanError,
    build_fan,
    chart_cone,
    chart_dual_generators,
    check_smooth,
    dual_rays,
    lattices,
)

E1 = (Fraction(1), Fraction(0), Fraction(0))
E2 = (Fraction(0), Fraction(1), Fraction(0))
E3 = (Fraction(0), Fraction(0), Fraction(1))


def test_lattice_indices_order_three():
    pair = get_lattices("3:1,1,1")
    assert abs(linalg.det3(pair.m_basis)) == 3
    # M is the sum-divisible-by-three lattice
    assert pair.in_m((1, 1, 1))
    assert pair.in_m((3, 0, 0))
    assert not pair.in_m((1, 0, 0))


def test_n_contains_half_weight_vector():
    pair = get_lattices("2:1,1,0")
    coords = pair.n_coordinates((Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    assert coords is not None
    assert pair.n_coordinates((Fraction(1, 2), Fraction(0), Fraction(0))) is None


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_lattice_duality_and_indices(spec, order):
    G = get_group(spec)
    pair = get_lattices(spec)
    assert abs(linalg.det3(pair.m_basis)) == order
    assert abs(linalg.det3(pair.n_basis)) == Fraction(1, order)
    for n_row in pair.n_basis:
        for m_row in pair.m_basis:
            value = sum(Fraction(a) * b for a, b in zip(n_row, m_row))
            assert value.denominator == 1
    # every group weight vector over R lies in N, and every unit vector too
    for g in G.elements:
        assert pair.n_coordinates(tuple(Fraction(c, G.R) for c in g)) is not None
    for e in (E1, E2, E3):
        assert pair.n_coordinates(e) is not None


def test_chart_dual_generators_frozen_axis_chart():
    fps = get_fixed_points("3:1,1,1")
    axis = next(gg for gg in fps if gg.gamma == ((0, 0, 0), (1, 0, 0), (2, 0, 0)))
    assert chart_dual_generators(axis) == ((3, 0, 0), (-1, 1, 0), (-1, 0, 1))


def test_chart_cone_rays_frozen_axis_chart():
    G = get_group("3:1,1,1")
    pair = get_lattices("3:1,1,1")
    fps = get_fixed_points("3:1,1,1")
    axis = next(gg for gg in fps if gg.gamma == ((0, 0, 0), (1, 0, 0), (2, 0, 0)))
    cone = chart_cone(G, pair, axis, owner=0)
    third = Fraction(1, 3)
    assert set(cone.rays) == {(third, third, third), E2, E3}


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_all_charts_smooth_and_crepant(spec, order):
    pair = get_lattices(spec)
    for cone in get_cones(spec):
        assert check_smooth(pair, cone.dual_gens)
        assert abs(linalg.det3(cone.dual_gens)) == order
        for ray in cone.rays:
            assert sum(ray) == 1
            assert all(x >= 0 for x in ray)
            coords = pair.n_coordinates(ray)
            assert coords is not None
        for ray, gen in zip(cone.rays, cone.dual_gens):
            assert sum(Fraction(a) * b for a, b in zip(ray, gen)) == 1


def test_corrupted_cone_fails_smoothness():
    pair = get_lattices("3:1,1,1")
    cone = get_cones("3:1,1,1")[0]
    v = cone.dual_gens[1]
    corrupted = (cone.dual_gens[0], (v[0], v[1] + 1, v[2]), cone.dual_gens[2])
    assert not check_smooth(pair, corrupted)


def test_dual_rays_crepancy_alarm():
    pair = get_lattices("2:1,1,0")
    with pytest.raises(ChartError):
        dual_rays(pair, ((1, 0, 0), (0, 1, 0), (0, 0, 2)))


def test_noninvariant_exponent_rejected():
    G = get_group("2:1,1,0")
    pair = get_lattices("2:1,1,0")
    gg = get_fixed_points("3:1,1,1")[0]  # staircase of the wrong group
    with pytest.raises(ChartError):
        chart_cone(G, pair, gg, owner=0)


def test_fan_order_three_frozen():
    G = get_group("3:1,1,1")
    fan = build_fan(G, get_lattices("3:1,1,1"), get_cones("3:1,1,1"))
    third = Fraction(1, 3)
    assert len(fan.cones) == 3
    assert set(fan.rays) == {E1, E2, E3, (third, third, third)}
    assert fan.junior == ((third, third, third),)


def test_fan_involution_junior_ray():
    G = get_group("2:1,1,0")
    fan = build_fan(G, get_lattices("2:1,1,0"), get_cones("2:1,1,0"))
    half = Fraction(1, 2)
    assert set(fan.rays) == {E1, E2, E3, (half, half, Fraction(0))}


def test_fan_seven_ray_set():
    G = get_group("7:1,2,4")
    fan = build_fan(G, get_lattices("7:1,2,4"), get_cones("7:1,2,4"))
    sevenths = lambda *nums: tuple(Fraction(n, 7) for n in nums)
    assert set(fan.rays) == {
        E1,
        E2,
        E3,
        sevenths(1, 2, 4),
        sevenths(2, 4, 1),
        sevenths(4, 1, 2),
    }


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_fan_consistency(spec, order):
    G = get_group(spec)
    fan = build_fan(G, get_lattices(spec), get_cones(spec))
    assert len(fan.cones) == order
    expected = {E1, E2, E3} | set(fan.junior)
    assert set(fan.rays) == expected
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
        build_fan(G, get_lattices("3:1,1,1"), cones[:-1])


def test_fan_json_shape():
    G = get_group("2:1,1,0")
    fan = build_fan(G, get_lattices("2:1,1,0"), get_cones("2:1,1,0"))
    payload = fan.to_json()
    assert set(payload) == {"rays", "cones", "junior_elements"}
    assert ["1/2", "1/2", "0"] in payload["rays"]
    assert all(len(cone) == 3 for cone in payload["cones"])


def test_lattices_standalone_construction():
    for spec in [spec for spec, _ in SUITE_3D] + ["6:1,5,0;6:0,1,5"]:
        G = get_group(spec)
        assert lattices(G) == lattices_scan(G)
