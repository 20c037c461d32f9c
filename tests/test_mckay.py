from math import comb

import pytest

from _oracles import kernel_dense, rank_dense
from conftest import SUITE_3D, get_group
from ghilb.mckay import intersection_matrix, mckay_matrices, quiver_dot


def test_involution_tensor_matrix():
    # z fixes both characters, x and y swap them
    _, a1, _, _ = mckay_matrices(get_group("2:1,1,0"))
    assert a1 == [[1, 2], [2, 1]]


def test_seven_quiver_structure():
    # character index of x^l y^m z^n is l + 2m + 4n mod 7, so vertex k
    # receives arrows from k-1, k-2, k-4
    G = get_group("7:1,2,4")
    _, a1, _, _ = mckay_matrices(G)
    for k in range(7):
        for l in range(7):
            expected = sum(1 for t in (1, 2, 4) if (l + t) % 7 == k)
            assert a1[k][l] == expected


# SUITE_3D and every group of the CI verify smoke: the report does not
# check these identities, which hold by construction
@pytest.mark.parametrize(
    "spec,order",
    SUITE_3D
    + [
        ("13:1,3,9", 13),
        ("6:1,5,0", 6),
        ("3:1,2,0;3:0,1,2", 9),
        ("37:1,10,26", 37),
        ("53:1,4,48", 53),
        ("10:1,9,0", 10),
        ("16:1,3,12", 16),
        ("4:1,3,0;4:0,1,3", 16),
    ],
)
def test_wedge_identities(spec, order):
    G = get_group(spec)
    a0, a1, a2, a3 = mckay_matrices(G)
    ident = [[int(i == j) for j in range(order)] for i in range(order)]
    assert a0 == ident
    assert a3 == ident
    assert a2 == [list(row) for row in zip(*a1)]
    for i, mat in enumerate((a0, a1, a2, a3)):
        for row in mat:
            assert sum(row) == comb(3, i)
        for col in zip(*mat):
            assert sum(col) == comb(3, i)


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_alternating_sum_rows_vanish(spec, order):
    a0, a1, a2, a3 = mckay_matrices(get_group(spec))
    for k in range(order):
        row = [a0[k][l] - a1[k][l] + a2[k][l] - a3[k][l] for l in range(order)]
        assert sum(row) == 0


def test_intersection_matrix_frozen_cases():
    # 1/3(1,1,1): all three coordinates shift by the same character
    assert intersection_matrix(mckay_matrices(get_group("3:1,1,1"))) == [
        [0, 3, -3],
        [-3, 0, 3],
        [3, -3, 0],
    ]
    # 1/2(1,1,0): a1 is symmetric, so the pairing vanishes
    assert intersection_matrix(mckay_matrices(get_group("2:1,1,0"))) == [[0, 0], [0, 0]]


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_intersection_matrix_antisymmetric(spec, order):
    mat = intersection_matrix(mckay_matrices(get_group(spec)))
    for i in range(order):
        for j in range(order):
            assert mat[i][j] == -mat[j][i]


def test_quiver_dot_counts():
    G = get_group("7:1,2,4")
    dot = quiver_dot(G, mckay_matrices(G))
    assert dot.startswith("digraph mckay {")
    assert dot.count("[label=") == 7
    assert dot.count("->") == 21
    G = get_group("2:1,1,0")
    dot2 = quiver_dot(G, mckay_matrices(G))
    assert dot2.count("->") == 6


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_quiver_arrow_count_is_three_per_vertex(spec, order):
    G = get_group(spec)
    assert quiver_dot(G, mckay_matrices(G)).count("->") == 3 * order


def cartan_2d(r):
    """3I - a1 of r:1,r-1,0, the SL2 group 1/r(1, r-1) acting trivially on z.

    chi_z is trivial, so a1 = I + P + P^-1 and 3I - a1 = 2I - (P + P^-1),
    the Cartan matrix 2I - a of the SL2 case.
    """
    _, a1, _, _ = mckay_matrices(get_group(f"{r}:1,{r - 1},0"))
    return [[3 * (k == l) - a1[k][l] for l in range(r)] for k in range(r)]


def test_cartan_2d_frozen():
    assert cartan_2d(2) == [[2, -2], [-2, 2]]
    assert cartan_2d(3) == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


@pytest.mark.parametrize("r", range(2, 11))
def test_cartan_2d_affine_properties(r):
    mat = cartan_2d(r)
    assert mat == [list(row) for row in zip(*mat)]
    for row in mat:
        assert sum(row) == 0
    # diagonally dominant with nonnegative diagonal, hence PSD
    for i, row in enumerate(mat):
        assert row[i] >= sum(abs(x) for j, x in enumerate(row) if j != i)
    # kernel is exactly the all-ones line
    assert rank_dense(mat) == r - 1
    kernel = kernel_dense(mat)
    assert len(kernel) == 1
    vec = kernel[0]
    assert all(x == vec[0] for x in vec)
