from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import character_scan, character_table_by_keys, fingerprint
from conftest import SUITE_3D, get_group
from ghilb.cli import main
from ghilb.groups import AbelianGroup, GroupSpec, GroupSpecError

EXP = st.integers(min_value=-20, max_value=20)
GOLDEN = Path(__file__).parent / "golden"


def test_parse_roundtrip():
    spec = GroupSpec.parse("2:1,1,0;2:1,0,1")
    assert len(spec.generators) == 2
    assert spec.generators[0].weights == (1, 1, 0)


@pytest.mark.parametrize(
    "text",
    [
        "4:1,1,1",  # 1+1+1 != 0 mod 4
        "5:1,2,3",
        "2:0,0,0",  # trivial
        "1:0,0,0",
        "",
        "7:1,2",
        "7;1,2,4",
        "0:1,1,0",
        "3:1,1,4",  # weight out of range
    ],
)
def test_bad_specs_rejected(text):
    with pytest.raises(GroupSpecError):
        AbelianGroup(GroupSpec.parse(text))


def test_cyclic_seven_elements():
    G = get_group("7:1,2,4")
    assert G.order == 7
    assert G.elements == tuple(sorted((k % 7, 2 * k % 7, 4 * k % 7) for k in range(7)))


def test_klein_four_closure():
    # hand enumeration: 0, the two generators, and their sum
    G = get_group("2:1,1,0;2:1,0,1")
    assert G.order == 4
    assert G.elements == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_single_involution():
    assert get_group("2:1,1,0").order == 2


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_character_count_is_group_order(spec, order):
    G = get_group(spec)
    assert len(G.characters) == order
    fingerprints = list(G.characters)
    assert len(set(fingerprints)) == order
    assert fingerprints[0] == (0,) * order  # trivial character first


def test_xyz_is_always_invariant():
    for spec, _ in SUITE_3D:
        G = get_group(spec)
        assert not any(G.characters[G.char_index((1, 1, 1))])


def test_char_equality_mod_seven():
    # 1*1 = 2*4 mod 7, so x and z^2 share a character
    G = get_group("7:1,2,4")
    assert G.char_index((1, 0, 0)) == G.char_index((0, 0, 2))
    assert not any(G.characters[G.char_index((0, 0, 0))])


def test_klein_characters_have_order_two():
    G = get_group("2:1,1,0;2:1,0,1")
    for fp in G.characters:
        assert all(2 * v % G.R == 0 for v in fp)


@given(e1=st.tuples(EXP, EXP, EXP), e2=st.tuples(EXP, EXP, EXP))
def test_char_of_monomial_is_additive(e1, e2):
    for spec in ("7:1,2,4", "2:1,1,0;2:1,0,1", "6:1,2,3"):
        G = get_group(spec)
        total = tuple(a + b for a, b in zip(e1, e2))
        fp1, fp2 = G.characters[G.char_index(e1)], G.characters[G.char_index(e2)]
        combined = tuple((a + b) % G.R for a, b in zip(fp1, fp2))
        assert G.characters[G.char_index(total)] == combined


def test_ages():
    G3 = get_group("3:1,1,1")
    assert G3.age((0, 0, 0)) == 0
    assert G3.age((1, 1, 1)) == 1
    assert G3.age((2, 2, 2)) == 2
    with pytest.raises(ValueError):
        G3.age((1, 0, 0))


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_age_range_and_involution(spec, order):
    G = get_group(spec)
    for g in G.elements:
        age = G.age(g)
        assert age in (0, 1, 2)
        if all(c != 0 for c in g):
            neg = tuple((-c) % G.R for c in g)
            assert age + G.age(neg) == 3
    assert G.age((0, 0, 0)) == 0


def test_junior_elements_of_seven():
    G = get_group("7:1,2,4")
    juniors = G.junior_elements()
    assert len(juniors) == 3
    assert set(juniors) == {(1, 2, 4), (2, 4, 1), (4, 1, 2)}


def test_junior_of_involution():
    G = get_group("2:1,1,0")
    assert G.junior_elements() == ((1, 1, 0),)
    assert G.age((1, 1, 0)) == 1


@st.composite
def small_specs(draw):
    """Valid specs whose common exponent R is at most 12: cyclic, cyclic with a zero weight, or of two or three generators."""
    R = draw(st.integers(min_value=2, max_value=12))
    shape = draw(st.sampled_from(["cyclic", "zero weight", "two", "three"]))
    count = {"two": 2, "three": 3}.get(shape, 1)
    chunks = []
    for _ in range(count):
        r = R if count == 1 else draw(st.sampled_from([d for d in range(2, R + 1) if R % d == 0]))
        w1 = draw(st.integers(min_value=1 if shape == "zero weight" else 0, max_value=r - 1))
        w2 = r - w1 if shape == "zero weight" else draw(st.integers(min_value=0, max_value=r - 1))
        chunks.append((r, w1, w2, (-w1 - w2) % r))
    assume(any(w1 or w2 for _, w1, w2, _ in chunks))
    return ";".join(f"{r}:{w1},{w2},{w3}" for r, w1, w2, w3 in chunks)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_characters_match_fingerprints_and_full_scan(data):
    G = AbelianGroup(GroupSpec.parse(data.draw(small_specs())))
    R = G.R
    exponent = st.integers(min_value=-R, max_value=2 * R - 1)
    for e in data.draw(st.lists(st.tuples(exponent, exponent, exponent), min_size=1, max_size=40)):
        assert G.characters[G.char_index(e)] == fingerprint(G, e)
    fingerprints, exponents = character_scan(G)
    assert list(G.characters) == fingerprints
    assert list(G.char_exponents) == exponents
    # the row-shift product table and the axis indices against key addition
    char_add, axis_index = character_table_by_keys(G)
    assert [list(row) for row in G.char_add] == char_add
    assert [list(row) for row in G._axis_index] == axis_index
    # the McKay arrows are the rows of the characters of x, y and z
    assert [list(row) for row in G.arrows] == [char_add[axis[1]] for axis in axis_index]


@pytest.mark.parametrize(
    "spec,golden",
    [
        ("3:1,2,0;3:0,1,2", "group_3-1-2-0_3-0-1-2.json"),
        ("13:1,3,9", "group_13-1-3-9.json"),
        # ages 0, 1 and 2 all occur
        ("6:1,5,0;6:0,1,5", "group_6-1-5-0_6-0-1-5.json"),
    ],
)
def test_group_json_matches_golden(spec, golden, tmp_path):
    out = tmp_path / "group.json"
    assert main(["group", "--group", spec, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
