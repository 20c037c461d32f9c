from itertools import combinations

import pytest

from _oracles import hom_dim_dense
from conftest import SUITE_3D, get_fixed_points, get_group
from ghilb.ggraph import mono_lcm, mono_mul
from ghilb.homcalc import hom_constraints, hom_dim, hom_matrix

# The dense oracle's reach: it solves a system over every monomial of degree
# up to 3|G|, so it stays at orders up to 10
ORACLE_SPECS = [spec for spec, order in SUITE_3D if order <= 10] + [
    "6:1,5,0",
    "3:1,2,0;3:0,1,2",
]


def test_hom_matrix_involution_frozen():
    G = get_group("2:1,1,0")
    assert hom_matrix(G, get_fixed_points("2:1,1,0")) == [[3, 1], [1, 3]]


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_hom_matrix_is_two_i_plus_j(spec, order):
    G = get_group(spec)
    fps = get_fixed_points(spec)
    mat = hom_matrix(G, fps)
    for i in range(order):
        for j in range(order):
            assert mat[i][j] == (3 if i == j else 1)
            assert mat[i][j] == mat[j][i]


@pytest.mark.parametrize("spec", ["7:1,2,4", "3:1,2,0;3:0,1,2"])
def test_hom_constraints_match_staircase_membership(spec):
    # the rows on every ordered pair equal those of the staircase rule: the
    # image (L/g) m(g), m(g) found by scanning gamma for g's character,
    # survives exactly when it lies in gamma, and two survivors coincide
    G = get_group(spec)
    fps = get_fixed_points(spec)
    for source in fps:
        for target in fps:
            gens = source.ideal.gens
            staircase = set(target.gamma)
            match = [
                next(m for m in target.gamma if G.char_index(m) == G.char_index(g)) for g in gens
            ]
            want = []
            for i, j in combinations(range(len(gens)), 2):
                lcm = mono_lcm(gens[i], gens[j])
                images = [
                    mono_mul(match[k], tuple(a - b for a, b in zip(lcm, gens[k]))) for k in (i, j)
                ]
                lives = [k for k, u in zip((i, j), images) if u in staircase]
                if len(lives) == 2:
                    assert images[0] == images[1]
                    want.append((i, 1, j, -1))
                elif lives:
                    want.append((lives[0], 1, lives[0], 0))
            assert hom_constraints(G, source, target) == want


def _classes_from_rows(gens, rows):
    """Replay the syzygy rows with a fresh union-find, for inspection.

    A row (i, 1, j, -1) joins generators i and j, and a row (i, 1, i, 0)
    zeroes generator i; no other row may occur.
    """
    parent = list(range(len(gens)))
    zero = [False] * len(gens)

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, a, j, b in rows:
        if i != j:
            assert (a, b) == (1, -1), (i, a, j, b)
            gi, hi = find(i), find(j)
            if gi != hi:
                parent[hi] = gi
                zero[gi] = zero[gi] or zero[hi]
        else:
            assert (a, b) == (1, 0), (i, a, j, b)
            zero[find(i)] = True
    classes: dict = {}
    for i, g in enumerate(gens):
        classes.setdefault(find(i), []).append(g)
    return {tuple(sorted(v)): zero[root] for root, v in classes.items()}


def test_diagonal_class_structure_order_seven():
    # on the diagonal the three pure powers survive as free scalars and the
    # mixed generators are all forced to zero
    G = get_group("7:1,2,4")
    gg = get_fixed_points("7:1,2,4")[0]
    assert hom_dim(G, gg, gg) == 3
    classes = _classes_from_rows(gg.ideal.gens, hom_constraints(G, gg, gg))
    free = [gens for gens, is_zero in classes.items() if not is_zero]
    assert len(free) == 3
    for gens in free:
        assert len(gens) == 1
        assert sorted(gens[0], reverse=True)[1:] == [0, 0]  # a pure power


def test_xyz_scalar_dies_off_diagonal():
    G = get_group("7:1,2,4")
    fps = get_fixed_points("7:1,2,4")
    for source, target in ((fps[0], fps[1]), (fps[2], fps[5])):
        if (1, 1, 1) not in source.ideal.gens:
            continue
        assert hom_dim(G, source, target) == 1
        classes = _classes_from_rows(source.ideal.gens, hom_constraints(G, source, target))
        for gens, is_zero in classes.items():
            if (1, 1, 1) in gens:
                assert is_zero


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_dense_oracle_agrees_on_all_pairs(spec):
    G = get_group(spec)
    fps = get_fixed_points(spec)
    for source in fps:
        for target in fps:
            assert hom_dim(G, source, target) == hom_dim_dense(G, source, target)


def test_zero_marking_is_order_independent():
    # replaying the constraints in any order yields the same free-class count,
    # on every ordered pair; 13:1,3,9 is above the dense oracle's reach
    import random

    for spec in ("7:1,2,4", "3:1,2,0;3:0,1,2", "13:1,3,9"):
        G = get_group(spec)
        fps = get_fixed_points(spec)
        for source in fps:
            for target in fps:
                rows = hom_constraints(G, source, target)
                expected = hom_dim(G, source, target)
                rng = random.Random(99)
                for _ in range(10):
                    rng.shuffle(rows)
                    classes = _classes_from_rows(source.ideal.gens, rows)
                    free = sum(1 for is_zero in classes.values() if not is_zero)
                    assert free == expected
