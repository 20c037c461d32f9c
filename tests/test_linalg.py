"""The sparse rank kernel, the two-term basis and the 3x3 closed forms against dense references."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dense_two_term, rank_dense
from conftest import get_charts, get_group
from ghilb import linalg
from ghilb.koszul import build_rep, koszul_differentials, sample_chart_points
from ghilb.verify import seeded_rng

# rank_sparse takes rows of nonzero ints; _sparse drops the zeros
ENTRY = st.integers(min_value=-4, max_value=4)
INT3 = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
    min_size=3,
    max_size=3,
)


def _sparse(mat):
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


@st.composite
def sparse_matrices(draw):
    nrows = draw(st.integers(min_value=0, max_value=9))
    ncols = draw(st.integers(min_value=1, max_value=9))
    # mostly zeros, as in the Koszul differentials
    cell = st.one_of(st.just(0), st.just(0), st.just(0), ENTRY)
    mat = [[draw(cell) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        # a dependent row with integer weights, so that content division matters
        s, t = draw(ENTRY), draw(ENTRY)
        mat.append([s * x + t * y for x, y in zip(mat[0], mat[1])])
    return mat, ncols


@st.composite
def stacked_generalized_permutations(draw):
    """A p x q block matrix whose blocks are zero or n x n generalized permutations."""
    n = draw(st.integers(min_value=1, max_value=5))
    p = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.integers(min_value=1, max_value=3))
    mat = [[0] * (q * n) for _ in range(p * n)]
    for bi in range(p):
        for bj in range(q):
            if not draw(st.booleans()):
                continue
            perm = draw(st.permutations(range(n)))
            for col, row in enumerate(perm):
                mat[bi * n + row][bj * n + col] = draw(ENTRY)
    # repeated rows and columns make rank deficiency common
    if draw(st.booleans()) and mat:
        mat.append([2 * x for x in mat[0]])
    return mat, q * n


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(sparse_matrices(), stacked_generalized_permutations()))
def test_rank_sparse_equals_dense_reference(case):
    mat, ncols = case
    expected = rank_dense(mat)
    assert linalg.rank_sparse(_sparse(mat), ncols) == expected
    assert linalg.rank_sparse(_sparse(list(zip(*mat))) if mat else [], len(mat)) == expected
    assert linalg.rank_dense(mat) == expected


def test_rank_sparse_keeps_the_input_rows():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2}, {1: 3}]
    snapshot = [dict(row) for row in rows]
    assert linalg.rank_sparse(rows, 2) == 2
    assert rows == snapshot


def _leibniz(m):
    total = 0
    for perm in permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        total += sign * m[0][perm[0]] * m[1][perm[1]] * m[2][perm[2]]
    return total


@given(m=INT3)
def test_det3_and_adjugate3(m):
    det = linalg.det3(m)
    assert det == _leibniz(m)
    adj = linalg.adjugate3(m)
    product = [[sum(adj[i][k] * m[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert product == [[det * int(i == j) for j in range(3)] for i in range(3)]


def test_rows_are_scaled_to_primitive_integer_rows():
    assert linalg._primitive({0: 4, 1: 24}) == {0: 1, 1: 6}
    assert linalg._primitive({3: -6, 5: 9}) == {3: -2, 5: 3}
    assert linalg._primitive({3: 4}) == {3: 1}
    assert linalg._primitive({3: -4}) == {3: -1}
    # a primitive row of nonzero ints is not copied
    row = {0: 1, 2: -1, 4: 2}
    assert linalg._primitive(row) is row


def _two_term_checked(rows, ncols):
    """two_term_basis(rows, ncols), after checking it against rank_dense: as
    many rows as the rank, and the chosen rows independent.  Rows are flat
    (u, a, v, b)."""
    basis = linalg.two_term_basis(rows, ncols)
    mat = dense_two_term(rows, ncols)
    assert len(basis) == rank_dense(mat)
    assert rank_dense([mat[i] for i in basis]) == len(basis)
    return basis


def test_two_term_basis_one_term_rows():
    # a repeated one-term row is dependent, whichever of its two slots holds
    # the term; a row into a column forced to zero still counts when its
    # other column is free; two terms on one column are one term, and two
    # zero terms no term
    rows = [(0, 3, 0, 0), (1, 0, 0, 2), (2, -1, 2, 0), (1, 0, 2, 0), (1, 5, 2, 1), (1, 3, 1, 4)]
    assert _two_term_checked(rows, 3) == [0, 2, 4]


def test_two_term_basis_cycle_whose_ratios_agree():
    # x1 = x0 / 2, x2 = x1 / 3, and x2 = x0 / 6 closes the cycle consistently
    rows = [(0, 1, 1, -2), (1, 1, 2, -3), (0, 1, 2, -6)]
    assert _two_term_checked(rows, 3) == [0, 1]


def test_two_term_basis_cycle_whose_ratios_disagree():
    # x2 = x0 / 5 contradicts the path, forcing the component to zero; a
    # one-term row on it afterwards is dependent
    rows = [(0, 1, 1, -2), (1, 1, 2, -3), (0, 1, 2, -5), (1, 4, 1, 0), (0, 6, 2, -1)]
    assert _two_term_checked(rows, 3) == [0, 1, 2]


def test_two_term_basis_bridge_between_forced_components():
    # {0, 1} is forced by a one-term row, {2, 3} by a cycle of ratio -1; the
    # bridge between them is dependent, a bridge to a free column is not
    rows = [(0, 1, 1, 1), (1, 2, 1, 0), (2, 1, 3, -1), (2, 1, 3, 1), (0, 4, 3, 7), (3, 1, 4, -1)]
    assert _two_term_checked(rows, 5) == [0, 1, 2, 3, 5]


# Two components x1 = -x0 and x3 = -x2, joined by x3 = -x1, so that x3 hangs
# two links below the root and its ratio is read along a path of -1's.
UNIT_PATH = [(0, 1, 1, 1), (2, 1, 3, 1), (1, 1, 3, 1)]


def test_two_term_basis_unit_cycle_of_product_minus_one_is_forced():
    # the path gives x3 = x0; the row x3 + x0 closes a cycle whose ratios
    # multiply to -1, so x0 = -x0 and the component is forced to zero: the
    # row counts, and a one-term row on the component afterwards does not
    rows = UNIT_PATH + [(3, 1, 0, 1), (0, 1, 0, 0)]
    assert _two_term_checked(rows, 4) == [0, 1, 2, 3]


def test_two_term_basis_unit_cycle_of_product_plus_one_is_not_forced():
    # the row x3 - x0 closes a cycle whose ratios multiply to +1: it holds on
    # the path's kernel, so it does not count, and a one-term row still does
    rows = UNIT_PATH + [(3, 1, 0, -1), (0, 1, 0, 0)]
    assert _two_term_checked(rows, 4) == [0, 1, 2, 4]


def test_two_term_basis_refuses_a_three_term_row():
    with pytest.raises(ValueError, match="at most two terms"):
        linalg.two_term_basis([(0, 1, 0, 0), (0, 1, 1, 1, 2, 1)], 3)


def test_two_term_basis_on_the_coinciding_columns_of_a_zero_weight():
    # z acts on 6:1,5,0 by the scalar nu on its own line, so each z-row of a
    # module's pair complex with itself is (c, nu, c, -nu) up to scale, on one
    # column, and sums to no term
    G = get_group("6:1,5,0")
    for k, chart in enumerate(get_charts("6:1,5,0")):
        (point,) = sample_chart_points(1, seeded_rng(5, k))
        rep = build_rep(chart, point)
        cx = koszul_differentials(G, rep, rep)
        n = G.order
        assert sum(1 for u, a, v, b in cx.d3 if u == v and a + b == 0) == n
        assert len(_two_term_checked(cx.d3, n)) == n - 1
        assert len(_two_term_checked(cx.d1, n)) == n - 1


def test_two_term_basis_on_every_fixed_point_pair_of_a_zero_weight():
    # on 6:1,5,0 the z-rows of d3 and the z-columns of d1 put both their
    # terms on one column (u == v), at every ordered pair of fixed points
    spec = "6:1,5,0"
    G = get_group(spec)
    n = G.order
    reps = [build_rep(chart, (0, 0, 0)) for chart in get_charts(spec)]
    for rep_i in reps:
        for rep_j in reps:
            cx = koszul_differentials(G, rep_i, rep_j)
            for rows in (cx.d3, cx.d1):
                assert sum(1 for u, _, v, _ in rows if u == v) == n
                _two_term_checked(rows, n)


@st.composite
def two_term_rows(draw):
    """Flat rows (u, a, v, b) on few columns, so that cycles and forced
    components are common; few distinct values and scaled copies of an
    earlier row make consistent cycles common too, and zero terms and
    coinciding columns (u == v) occur."""
    ncols = draw(st.integers(min_value=2, max_value=6))
    column = st.integers(0, ncols - 1)
    value = st.sampled_from((1, -1, 2, -3, 3, -2, 0))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        u, a, v, b = draw(column), draw(value), draw(column), draw(value)
        if rows and draw(st.booleans()):
            scale = draw(value.filter(bool))
            u, a, v, b = draw(st.sampled_from(rows))
            a, b = scale * a, scale * b
        rows.append((u, a, v, b))
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(case=two_term_rows())
def test_two_term_basis_equals_dense_reference(case):
    _two_term_checked(*case)
