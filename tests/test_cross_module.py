"""Invariants that tie two modules together."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import in_m
from conftest import get_charts, get_fixed_points, get_group
from ghilb.groups import AbelianGroup, Generator, GroupSpec, GroupSpecError
from ghilb.homcalc import hom_dim
from ghilb.koszul import build_rep, koszul_homology
from ghilb.mckay import intersection_matrix, mckay_matrices
from ghilb.verify import verification_report

EXP = st.integers(min_value=-15, max_value=15)


@pytest.mark.parametrize("spec", ["2:1,1,0", "3:1,1,1", "2:1,1,0;2:1,0,1", "5:1,2,2"])
def test_middle_koszul_homology_matches_hom_dim(spec):
    # h2 = hom dimension, minus one off the diagonal where the canonical
    # projection is quotiented away
    G = get_group(spec)
    fps = get_fixed_points(spec)
    reps = [build_rep(c, (0, 0, 0)) for c in get_charts(spec)]
    for i, rep1 in enumerate(reps):
        for j, rep2 in enumerate(reps):
            h = koszul_homology(G, rep1, rep2)
            expected_h2 = hom_dim(G, fps[i], fps[j]) - int(i != j)
            assert h[1] == expected_h2


@given(e=st.tuples(EXP, EXP, EXP))
def test_trivial_character_means_invariant_lattice_point(e):
    for spec in ("7:1,2,4", "2:1,1,0;2:1,0,1"):
        G = get_group(spec)
        assert (not any(G.characters[G.char_index(e)])) == in_m(G, e)


@pytest.mark.parametrize("spec", ["2:1,1,0", "6:1,2,3", "7:1,2,4"])
def test_alternating_tensor_sum_is_intersection_matrix(spec):
    G = get_group(spec)
    a0, a1, a2, a3 = mckay_matrices(G)
    n = G.order
    alternating = [
        [a0[k][l] - a1[k][l] + a2[k][l] - a3[k][l] for l in range(n)] for k in range(n)
    ]
    assert alternating == intersection_matrix((a0, a1, a2, a3))


@settings(max_examples=40, deadline=None)
@given(
    order=st.integers(min_value=2, max_value=8),
    w1=st.integers(min_value=0, max_value=7),
    w2=st.integers(min_value=0, max_value=7),
)
def test_random_specs_have_full_character_groups(order, w1, w2):
    w1, w2 = w1 % order, w2 % order
    w3 = (-w1 - w2) % order
    try:
        G = AbelianGroup(GroupSpec((Generator(order, (w1, w2, w3)),)))
    except GroupSpecError:
        return  # trivial generator drawn
    assert len(G.characters) == G.order
    assert not any(G.characters[G.char_index((1, 1, 1))])
    elements = set(G.elements)
    for g in elements:
        for h in elements:
            assert tuple((a + b) % G.R for a, b in zip(g, h)) in elements


@st.composite
def sl3_generators(draw, max_order):
    order = draw(st.integers(min_value=2, max_value=max_order))
    w1 = draw(st.integers(min_value=0, max_value=order - 1))
    w2 = draw(st.integers(min_value=0, max_value=order - 1))
    return Generator(order, (w1, w2, (-w1 - w2) % order))


def _assert_report_passes(gens):
    try:
        G = AbelianGroup(GroupSpec(tuple(gens)))
    except GroupSpecError:
        assume(False)  # trivial group drawn
    report = verification_report(G, seed=0)
    assert report["pass"] is True
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert not {"fail", "empty"} & set(statuses.values()), statuses


# Presentations as Hypothesis draws them, which the census never writes: a
# generator of order r whose weights share a factor with r, or a second
# generator inside the group of the first
@settings(max_examples=25, deadline=None)
@given(gen=sl3_generators(12))
def test_full_report_passes_on_random_cyclic_specs(gen):
    _assert_report_passes([gen])


@settings(max_examples=25, deadline=None)
@given(data=st.data(), first=sl3_generators(6))
def test_full_report_passes_on_random_two_generator_specs(data, first):
    second = data.draw(sl3_generators(12 // first.order))
    _assert_report_passes([first, second])
