from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _census import specs
from _oracles import (
    complement_box_scan,
    count_identity_value,
    enumerate_fixed_points_ad_search,
    enumerate_fixed_points_scan,
    hook_staircases,
)
from conftest import SUITE_3D, get_fixed_points, get_group
from ghilb import ggraph
from ghilb.ggraph import (
    GGraph,
    InfiniteComplementError,
    MonomialIdeal,
    OracleCapError,
    brute_force_fixed_points,
    complement,
    enumerate_fixed_points,
    is_ggraph,
    mono_divides,
)


def ideal(*gens):
    return MonomialIdeal.from_generators(gens)


def test_minimal_generators():
    i = ideal((2, 0, 0), (4, 0, 0), (0, 1, 0), (2, 1, 0))
    assert i.gens == ((0, 1, 0), (2, 0, 0))
    assert i.contains((3, 5, 0))
    assert not i.contains((1, 0, 7))


def test_complement_simple_staircases():
    assert complement(ideal((2, 0, 0), (0, 1, 0), (0, 0, 1))) == [(0, 0, 0), (1, 0, 0)]
    assert complement(ideal((1, 0, 0), (0, 1, 0), (0, 0, 1))) == [(0, 0, 0)]


def test_complement_seven_cell_staircase():
    gens = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    got = complement(MonomialIdeal.from_generators(gens))
    assert got == sorted(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0), (0, 0, 1), (0, 0, 2)]
    )


@st.composite
def finite_ideals(draw):
    """A finite monomial ideal held by its generators as drawn, not minimalized.

    Pure powers on all three axes keep it finite; on top come arbitrary
    monomials, among them xy-plane ones that end a row before beta, and
    redundant ones: multiples of generators already drawn, which may be a
    second pure power on an axis.
    """
    exponent = st.integers(min_value=0, max_value=6)
    gens = [
        (draw(st.integers(min_value=1, max_value=6)), 0, 0),
        (0, draw(st.integers(min_value=1, max_value=6)), 0),
        (0, 0, draw(st.integers(min_value=1, max_value=6))),
    ]
    gens += draw(st.lists(st.tuples(exponent, exponent, exponent), max_size=6))
    for g in draw(st.lists(st.sampled_from(gens), max_size=3)):
        gens.append(tuple(u + draw(st.integers(min_value=0, max_value=2)) for u in g))
    return MonomialIdeal(tuple(draw(st.permutations(gens))))


# rows 1 and 2 end at y^1, before beta = 4
@example(MonomialIdeal(((3, 0, 0), (0, 4, 0), (0, 0, 2), (1, 1, 0))))
# a second x pure power, a generator's multiple and a duplicate
@example(
    MonomialIdeal(((4, 0, 0), (0, 0, 3), (3, 0, 0), (0, 2, 0), (1, 1, 1), (2, 1, 1), (0, 2, 0)))
)
@given(finite_ideals())
def test_complement_column_walk_matches_box_scan(i):
    assert complement(i) == complement_box_scan(i)


WALK_SPECS = specs(6)


# a fixed point of 3:1,1,1 held by unsorted generators, one of them repeated
# and two of them redundant
@example("3:1,1,1", MonomialIdeal(((0, 0, 1), (4, 0, 0), (3, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1))))
# the all-ones kind B point of the Klein group, xyz among its generators
@example(
    "2:1,1,0;2:1,0,1",
    MonomialIdeal(((1, 1, 1), (0, 2, 0), (1, 0, 1), (2, 0, 0), (0, 1, 1), (1, 1, 0), (0, 0, 2))),
)
# a hook of 6:1,5,0, whose z has the trivial character
@example("6:1,5,0", MonomialIdeal(((0, 0, 1), (0, 3, 0), (4, 0, 0), (1, 1, 0))))
@given(st.sampled_from(WALK_SPECS), finite_ideals())
def test_is_ggraph_walk_matches_box_scan(spec, i):
    G = get_group(spec)
    cells = complement_box_scan(i)
    chars = [G.char_index(m) for m in cells]
    gg = is_ggraph(G, i)
    if gg is None:
        assert len(cells) != G.order or len(set(chars)) != len(chars)
    else:
        assert list(gg.gamma) == cells
        assert all(G.char_index(gg.by_char[c]) == c for c in range(G.order))


def test_is_ggraph_rejects_a_repeated_character():
    # the three cells 1, x and z of 3:1,1,1, where x and z share a character
    G = get_group("3:1,1,1")
    assert is_ggraph(G, ideal((0, 1, 0), (0, 0, 2), (2, 0, 0), (1, 0, 1))) is None
    assert [G.char_index(m) for m in ((0, 0, 0), (1, 0, 0), (0, 0, 1))] == [0, 1, 1]


def test_is_ggraph_rejects_more_cells_than_the_order_before_walking_them():
    # one column of five cells in 2:1,1,0, where z has the trivial
    # character: the walk counts a row's cells before it reads any, so it
    # stops with no step along an arrow, where a walk that only watched for
    # a repeated character would take one step along z
    G = get_group("2:1,1,0")
    steps = []

    class Arrow(tuple):
        def __getitem__(self, c):
            steps.append(c)
            return tuple.__getitem__(self, c)

    probe = SimpleNamespace(order=G.order, arrows=tuple(Arrow(a) for a in G.arrows))
    assert is_ggraph(probe, ideal((1, 0, 0), (0, 1, 0), (0, 0, 5))) is None
    assert steps == []


def test_is_ggraph_rejects_fewer_cells_than_the_order():
    # 1 and z carry distinct characters of 7:1,2,4, but two cells are not seven
    G = get_group("7:1,2,4")
    assert G.char_index((0, 0, 1)) != G.char_index((0, 0, 0))
    assert is_ggraph(G, ideal((1, 0, 0), (0, 1, 0), (0, 0, 2))) is None


def test_the_unit_ideal_has_an_empty_complement():
    # 1 = x^0 = y^0 = z^0 is a pure power on every axis, so no cell is left
    unit = ideal((0, 0, 0))
    assert unit.pure_power_exponents() == (0, 0, 0)
    assert complement(unit) == []
    assert is_ggraph(get_group("7:1,2,4"), unit) is None


def test_infinite_complement_detected():
    with pytest.raises(InfiniteComplementError):
        complement(ideal((1, 0, 0), (0, 1, 0)))


def test_is_ggraph_order_two_cases():
    G = get_group("2:1,1,0")
    gg = is_ggraph(G, ideal((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert gg is not None
    assert gg.gamma == ((0, 0, 0), (1, 0, 0))
    assert gg.to_json()["characters"] == [0, 1]
    assert gg.kind == "A"
    assert gg.params == (1, 1, 1, 2, 1, 1)

    gg_y = is_ggraph(G, ideal((1, 0, 0), (0, 2, 0), (0, 0, 1)))
    assert gg_y is not None
    assert gg_y.gamma == ((0, 0, 0), (0, 1, 0))

    # gamma = {1, z} carries the trivial character twice
    assert is_ggraph(G, ideal((1, 0, 0), (0, 1, 0), (0, 0, 2))) is None


def test_seven_all_ones_candidate_rejected():
    # the 7-cell staircase {1,x,x^2,y,y^2,z,z^2} repeats characters for 1/7(1,2,4)
    G = get_group("7:1,2,4")
    gens = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert is_ggraph(G, MonomialIdeal.from_generators(gens)) is None


def test_klein_has_the_all_ones_kind_b_point():
    G = get_group("2:1,1,0;2:1,0,1")
    gens = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    gg = is_ggraph(G, MonomialIdeal.from_generators(gens))
    assert gg is not None
    assert gg.kind == "B"
    assert gg.params == (1, 1, 1, 1, 1, 1)
    assert count_identity_value(gg.kind, gg.params) == 4


def test_classify_axis_staircase_order_three():
    G = get_group("3:1,1,1")
    gg = is_ggraph(G, ideal((3, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert gg is not None
    assert gg.kind == "A"
    assert gg.params == (2, 1, 1, 2, 1, 1)
    assert gg.ideal.pure_power_exponents() == (3, 1, 1)


def test_count_identity_formulas():
    assert count_identity_value("A", (1, 1, 1, 1, 1, 1)) == 1
    assert count_identity_value("B", (1, 1, 1, 1, 1, 1)) == 4
    assert count_identity_value("A", (1, 1, 1, 2, 1, 1)) == 2
    assert count_identity_value("A", (2, 1, 1, 2, 1, 1)) == 3


@given(
    kind=st.sampled_from("AB"),
    params=st.tuples(*[st.integers(min_value=1, max_value=60)] * 6),
)
def test_count_identity_is_the_solved_form(kind, params):
    # enumerate_fixed_points solves |G| = K + p*c + q*e for c, so every
    # solution satisfies the identity with no further check
    a, b, c, d, e, f = params
    t = 2 if kind == "A" else 1
    p = a + b + d - t
    q = a + d + f - t
    K = t * t - t * (a + b + d + f) + a * b + b * f + d * f
    assert K + p * c + q * e == count_identity_value(kind, params)


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_enumeration_count_and_identities(spec, order):
    fps = get_fixed_points(spec)
    assert len(fps) == order
    for gg in fps:
        assert gg.kind in ("A", "B")
        assert count_identity_value(gg.kind, gg.params) == order


# Up to the oracle cap 32: 32:1,12,19 is at it, and of the cyclic groups of
# order 32 its oracle costs about the most against the rest of verify
ORACLE_SPECS = SUITE_3D + [
    ("13:1,3,9", 13),
    ("3:1,2,0;3:0,1,2", 9),
    ("6:1,5,0", 6),
    ("16:1,3,12", 16),
    ("4:1,3,0;4:0,1,3", 16),
    ("22:1,3,18", 22),
    ("23:1,4,18", 23),
    ("32:1,12,19", 32),
    ("5:1,4,0;5:0,1,4", 25),
]


@pytest.mark.parametrize("spec,order", ORACLE_SPECS)
def test_enumeration_matches_oracle(spec, order):
    G = get_group(spec)
    fps = get_fixed_points(spec)
    oracle = brute_force_fixed_points(G)
    assert len(oracle) == order
    # the search visits each staircase once
    assert len({gg.ideal.gens for gg in oracle}) == order
    assert [gg.to_json() for gg in fps] == [gg.to_json() for gg in oracle]


# Cyclic orders 17-23, a second enumeration next to the oracle's;
# 18:1,17,0 is not an isolated singularity.
SCAN_SPECS = [spec for spec, _ in SUITE_3D] + [
    "17:1,2,14",
    "18:1,17,0",
    "19:1,7,11",
    "20:1,2,17",
    "21:1,3,17",
    "22:1,9,12",
    "23:1,4,18",
    "4:1,3,0;4:0,1,3",
]


@pytest.mark.parametrize("spec", SCAN_SPECS)
def test_enumeration_matches_parameter_box_scan(spec):
    fast = [gg.to_json() for gg in get_fixed_points(spec)]
    scan = [gg.to_json() for gg in enumerate_fixed_points_scan(get_group(spec))]
    assert fast == scan
    assert len(fast) == get_group(spec).order


# Mostly above the oracle cap: every cyclic order n in 19-53, with weights
# 1, w and n - 1 - w for w = 2 + 3 (n mod 5), order 101, the 6x6 and 10x10
# groups and a three-generator group of order 27
AD_SEARCH_SPECS = [f"{n}:1,{2 + n % 5 * 3},{n - 3 - n % 5 * 3}" for n in range(19, 54)] + [
    "101:1,2,98",
    "6:1,5,0;6:0,1,5",
    "10:1,3,6;10:0,1,9",
    "3:1,2,0;3:0,1,2;9:1,1,7",
]


@pytest.mark.parametrize("spec", AD_SEARCH_SPECS)
def test_enumeration_matches_ad_search(spec):
    # the feasible interval of a drops no solution of the full (a, d) x (b, f) search
    G = get_group(spec)
    fast = [gg.to_json() for gg in get_fixed_points(spec)]
    assert fast == [gg.to_json() for gg in enumerate_fixed_points_ad_search(G)]
    assert len(fast) == G.order


def test_oracle_cap_enforced(monkeypatch):
    # the guard reads the constant at call time and refuses before any search
    monkeypatch.setattr(ggraph, "ORACLE_CAP", 5)
    monkeypatch.setattr(ggraph, "is_ggraph", None)  # any search would call it
    with pytest.raises(OracleCapError, match="group order 7 exceeds the oracle cap 5"):
        brute_force_fixed_points(get_group("7:1,2,4"))


def test_oracle_agreement_above_the_cap_does_not_run_the_oracle(monkeypatch):
    # oracle_agreement alone compares |G| with the cap, and it calls the
    # oracle through the module's name, where the benchmark tracer patches it
    real = ggraph.brute_force_fixed_points
    calls = []
    monkeypatch.setattr(ggraph, "brute_force_fixed_points", lambda G: calls.append(G) or real(G))
    G, fps = get_group("7:1,2,4"), get_fixed_points("7:1,2,4")
    monkeypatch.setattr(ggraph, "ORACLE_CAP", 6)
    assert ggraph.oracle_agreement(G, fps) is None
    assert calls == []
    monkeypatch.setattr(ggraph, "ORACLE_CAP", 7)
    assert ggraph.oracle_agreement(G, fps) == (True, 7)
    assert len(calls) == 1


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_staircase_invariants(spec, order):
    G = get_group(spec)
    for gg in get_fixed_points(spec) + brute_force_fixed_points(G):
        assert (0, 0, 0) in gg.gamma
        assert (1, 1, 1) not in gg.gamma
        assert len(set(gg.to_json()["characters"])) == order
        # the character table holds each character's one staircase monomial
        assert all(G.char_index(gg.by_char[c]) == c for c in range(order))
        assert sorted(gg.by_char) == list(gg.gamma)
        gamma_set = set(gg.gamma)
        for m in gg.gamma:
            assert min(m) == 0
            for axis in range(3):
                if m[axis]:
                    lower = list(m)
                    lower[axis] -= 1
                    assert tuple(lower) in gamma_set
        # the stored ideal is exactly the complement of gamma
        for m in gg.gamma:
            assert not gg.ideal.contains(m)


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_canonical_order_is_stable(spec, order):
    fps = get_fixed_points(spec)
    gammas = [gg.gamma for gg in fps]
    assert gammas == sorted(gammas)
    # a second independent run returns the identical list
    again = enumerate_fixed_points(get_group(spec))
    assert [gg.to_json() for gg in again] == [gg.to_json() for gg in fps]


def test_to_json_shape():
    gg = get_fixed_points("2:1,1,0")[0]
    payload = gg.to_json()
    assert set(payload) == {"kind", "params", "generators", "gamma", "characters"}
    assert payload["kind"] in ("A", "B")
    assert len(payload["params"]) == 6
    assert len(payload["gamma"]) == 2
    assert isinstance(gg, GGraph)


@pytest.mark.parametrize("r", range(2, 11))
def test_two_dimensional_fixed_point_count(r):
    # r:1,r-1,0 is the SL2 group 1/r(1, r-1) acting trivially on z: z has
    # the trivial character, so every staircase lies in z = 0, where the
    # character of x^i y^j is i - j mod r
    points = get_fixed_points(f"{r}:1,{r - 1},0")
    assert len(points) == r
    for gg in points:
        assert all(k == 0 for _, _, k in gg.gamma)
        assert len({(i - j) % r for i, j, _ in gg.gamma}) == r
    assert [gg.gamma for gg in points] == hook_staircases(r)


def test_two_dimensional_staircases_order_three():
    got = {gg.gamma for gg in get_fixed_points("3:1,2,0")}
    hooks = {
        tuple(sorted([(0, 0, 0), (1, 0, 0), (2, 0, 0)])),
        tuple(sorted([(0, 0, 0), (1, 0, 0), (0, 1, 0)])),
        tuple(sorted([(0, 0, 0), (0, 1, 0), (0, 2, 0)])),
    }
    assert got == hooks


def test_divisibility_helper():
    assert mono_divides((1, 0, 2), (1, 1, 2))
    assert not mono_divides((1, 0, 2), (0, 1, 2))
