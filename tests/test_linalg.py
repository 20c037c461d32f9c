"""The sparse rank kernel and the 3x3 closed forms against dense references."""

from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import rank_dense
from ghilb import linalg
from ghilb.toric import inverse_transpose

ENTRY = st.one_of(
    st.just(0),
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
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
        # a dependent row with fractional weights, so that row scaling matters
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
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2}, {1: Fraction(1, 3)}]
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


@given(m=INT3)
def test_inverse_transpose_is_the_dual_basis(m):
    if linalg.det3(m) == 0:
        return
    dual = inverse_transpose(m)
    for i in range(3):
        for j in range(3):
            assert sum(Fraction(a) * b for a, b in zip(dual[i], m[j])) == int(i == j)


def test_rows_are_scaled_to_primitive_integer_rows():
    assert linalg._primitive({0: Fraction(2, 3), 1: 4, 2: 0}) == {0: 1, 1: 6}
    assert linalg._primitive({3: -6, 5: 9}) == {3: -2, 5: 3}
    assert linalg._primitive({}) == {}
