"""Shared fixtures: the suite groups and per-group pipeline data, each computed once."""

from __future__ import annotations

from functools import cache

from ghilb import ggraph, koszul, toric
from ghilb.groups import AbelianGroup, GroupSpec

SUITE_3D = [
    ("2:1,1,0", 2),
    ("3:1,1,1", 3),
    ("5:1,2,2", 5),
    ("6:1,2,3", 6),
    ("7:1,2,4", 7),
    ("11:1,2,8", 11),
    ("2:1,1,0;2:1,0,1", 4),
]


@cache
def get_group(spec: str):
    return AbelianGroup(GroupSpec.parse(spec))


@cache
def get_fixed_points(spec: str):
    return ggraph.enumerate_fixed_points(get_group(spec))


@cache
def get_layers(spec: str):
    return toric.layers(get_group(spec), get_fixed_points(spec))


def get_cones(spec: str):
    layers = get_layers(spec)
    if layers.cone_errors:
        raise toric.ChartError(f"charts of {spec} failed: {layers.cone_errors}")
    return layers.cones


@cache
def get_charts(spec: str):
    G = get_group(spec)
    return [koszul.chart(G, gg, cone) for gg, cone in zip(get_fixed_points(spec), get_cones(spec))]
