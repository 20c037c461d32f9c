from dataclasses import replace
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    all_b_invertible,
    build_rep_fractions,
    dense_differentials,
    dense_matrices,
    dense_two_term,
    homology_full_ranks,
    krylov_dim,
    mat_mul,
    module_from_dense,
    rank_dense,
    rewrite_matrices,
    support_check_walk,
    verify_adhm,
    wedge_differentials,
)
from conftest import SUITE_3D, get_charts, get_cones, get_fixed_points, get_group
from ghilb import verify
from ghilb.ggraph import MonomialIdeal
from ghilb.groups import AbelianGroup, GroupSpec
from ghilb.toric import ChartError
from ghilb.verify import betti_table, seeded_rng
from ghilb.koszul import (
    WEDGE_PAIRS,
    build_rep,
    chart,
    cpxnil_differentials,
    cpxnil_homology,
    koszul_differentials,
    koszul_homology,
    sample_chart_points,
)

SMALL_SPECS = ["2:1,1,0", "3:1,1,1", "5:1,2,2", "2:1,1,0;2:1,0,1"]
CLOSED_FORM_SPECS = [spec for spec, _ in SUITE_3D] + [
    "13:1,3,9",
    "3:1,2,0;3:0,1,2",
    "6:1,5,0;6:0,1,5",
    "19:1,7,11",
]


def _on_character_lines(gg, mats):
    """Matrices on the staircase basis of gg, reindexed so that row and
    column c belong to the staircase monomial of character c."""
    order = [gg.gamma.index(m) for m in gg.by_char]
    return tuple(tuple(tuple(mat[r][c] for c in order) for r in order) for mat in mats)


def _rep_at(spec, fp_index, coords):
    return get_group(spec), build_rep(get_charts(spec)[fp_index], coords)


def test_involution_chart_matrices_frozen():
    # gamma = {1, x}, on the lines of characters 0 and 1: x*x = lambda,
    # y = mu*x, z = nu
    spec = "2:1,1,0"
    x_index = next(
        k for k, gg in enumerate(get_fixed_points(spec)) if (1, 0, 0) in gg.gamma
    )
    lam, mu, nu = -2, 5, 3
    G, rep = _rep_at(spec, x_index, (lam, mu, nu))
    b, _ = dense_matrices(rep)
    assert b[0] == ((0, lam), (1, 0))
    assert b[1] == ((0, lam * mu), (mu, 0))
    assert b[2] == ((nu, 0), (0, nu))
    assert verify_adhm(rep)


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS)
def test_closed_form_matches_rewriting(spec):
    # one seeded point per chart, under every pattern of zeroed coordinates
    G = get_group(spec)
    for k, gg in enumerate(get_fixed_points(spec)):
        cone = get_cones(spec)[k]
        (point,) = sample_chart_points(1, seeded_rng(41, k))
        for mask in range(8):
            coords = tuple(0 if mask >> i & 1 else c for i, c in enumerate(point))
            rep = build_rep(get_charts(spec)[k], coords)
            want = _on_character_lines(gg, rewrite_matrices(G, gg, coords, cone))
            assert dense_matrices(rep)[0] == want, (k, coords)


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS)
def test_cone_of_another_fixed_point_is_refused(spec):
    G = get_group(spec)
    cones = get_cones(spec)
    for k, gg in enumerate(get_fixed_points(spec)):
        for j, cone in enumerate(cones):
            if j != k:
                with pytest.raises(ChartError, match="not this staircase's chart"):
                    chart(G, gg, cone)


def test_fixed_point_rep_is_staircase_truncation():
    for spec in SMALL_SPECS:
        for k, gg in enumerate(get_fixed_points(spec)):
            rep = build_rep(get_charts(spec)[k], (0, 0, 0))
            b, _ = dense_matrices(rep)
            index = {m: c for c, m in enumerate(gg.by_char)}
            for alpha in range(3):
                for mono, col in index.items():
                    up = list(mono)
                    up[alpha] += 1
                    up = tuple(up)
                    column = [b[alpha][row][col] for row in range(len(gg.gamma))]
                    if up in index:
                        assert column[index[up]] == 1
                        assert sum(1 for x in column if x) == 1
                    else:
                        assert not any(column)
            assert verify_adhm(rep)


def test_zero_coordinates_recover_fixed_point():
    G, rep = _rep_at("3:1,1,1", 0, (0, 0, 0))
    fixed = build_rep(get_charts("3:1,1,1")[0], (0, 0, 0))
    assert dense_matrices(rep) == dense_matrices(fixed)


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_random_chart_points_satisfy_adhm(spec):
    G = get_group(spec)
    for k, chart_k in enumerate(get_charts(spec)):
        rng = seeded_rng(17, k)
        for point in sample_chart_points(3, rng):
            rep = build_rep(chart_k, point)
            assert verify_adhm(rep)
            assert krylov_dim(rep) == G.order


def test_corrupted_rep_fails():
    G, rep = _rep_at("3:1,1,1", 1, (1, 2, 3))
    assert verify_adhm(rep)
    b, _ = dense_matrices(rep)
    b1 = [list(row) for row in b[0]]
    b1[0][0] += 1
    # B1 moves line 0 to the line of x's character, so this entry is off its
    # arrow: no module of G at all
    assert module_from_dense(rep, (b1, b[1], b[2])) is None
    # the same entry added on the column's own line instead
    b1[0][0] -= 1
    row = next(r for r in range(3) if b1[r][0])
    b1[row][0] += 1
    corrupted = module_from_dense(rep, (b1, b[1], b[2]))
    assert not verify_adhm(corrupted)


def test_cyclicity_fails_without_seed_reachability():
    # zeroing all matrices kills the Krylov span
    G, rep = _rep_at("2:1,1,0", 0, (1, 1, 1))
    n = G.order
    zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    hollow = module_from_dense(rep, (zero, zero, zero))
    assert krylov_dim(hollow) == 1
    assert not verify_adhm(hollow)


def test_nil_complex_exact_at_invertible_points():
    for spec in SMALL_SPECS:
        for k, chart_k in enumerate(get_charts(spec)):
            rng = seeded_rng(23, k)
            point = sample_chart_points(1, rng)[0]
            rep = build_rep(chart_k, point)
            assert all_b_invertible(rep)
            assert cpxnil_homology(rep) == (0, 0, 0, 0)


def test_nil_complex_at_fixed_point():
    rep = build_rep(get_charts("3:1,1,1")[0], (0, 0, 0))
    assert not all_b_invertible(rep)
    h3, h2, h1, h0 = cpxnil_homology(rep)
    assert (h3, h2, h1, h0) != (0, 0, 0, 0)
    assert h3 - h2 + h1 - h0 == 0


def test_nil_complex_transpose_symmetry():
    G, rep = _rep_at("3:1,1,1", 0, (0, 0, 0))
    n = G.order
    d3, d2, d1 = dense_differentials(cpxnil_differentials(rep))
    r3, r2, r1 = (rank_dense(d) for d in (d3, d2, d1))
    t3, t2, t1 = (rank_dense(list(zip(*d))) for d in (d3, d2, d1))
    assert (r3, r2, r1) == (t3, t2, t1)
    h = cpxnil_homology(rep)
    # homology of the transposed complex, read off the same ranks
    transposed = (n - r1, 3 * n - r1 - r2, 3 * n - r2 - r3, n - r3)
    assert transposed == tuple(reversed(h))


def test_differentials_compose_to_zero():
    G, rep = _rep_at("2:1,1,0;2:1,0,1", 2, (2, 3, 5))
    d3, d2, d1 = dense_differentials(cpxnil_differentials(rep))
    assert not any(any(row) for row in mat_mul(d2, d3))
    assert not any(any(row) for row in mat_mul(d1, d2))
    other = build_rep(get_charts("2:1,1,0;2:1,0,1")[0], (0, 0, 0))
    k3, k2, k1 = dense_differentials(koszul_differentials(G, rep, other))
    assert not any(any(row) for row in mat_mul(k2, k3))
    assert not any(any(row) for row in mat_mul(k1, k2))


def test_chart_point_against_itself_with_a_zero_weight():
    # z has the trivial character and acts as the scalar nu, so each z-row of
    # the pair complex meets one column from both modules: nu - nu must cancel
    spec = "6:1,5,0"
    G = get_group(spec)
    for k, chart_k in enumerate(get_charts(spec)):
        (point,) = sample_chart_points(1, seeded_rng(5, k))
        rep = build_rep(chart_k, point)
        assert koszul_homology(G, rep, rep) == (1, 3, 3, 1)
        k3, k2, k1 = dense_differentials(koszul_differentials(G, rep, rep))
        assert not any(any(row) for row in mat_mul(k2, k3))
        assert not any(any(row) for row in mat_mul(k1, k2))


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_koszul_homology_fixed_pairs(spec):
    G = get_group(spec)
    reps = [build_rep(c, (0, 0, 0)) for c in get_charts(spec)]
    table = {}
    for i, rep1 in enumerate(reps):
        for j, rep2 in enumerate(reps):
            h = koszul_homology(G, rep1, rep2)
            table[(i, j)] = h
            assert h == ((1, 3, 3, 1) if i == j else (0, 0, 0, 0))
            h3, h2, h1, h0 = h
            assert h3 - h2 + h1 - h0 == 0
    for (i, j), h in table.items():
        assert h[2] == table[(j, i)][1]  # h1(i,j) = h2(j,i)


def test_same_chart_distinct_points_are_exact():
    for spec in ("2:1,1,0", "3:1,1,1"):
        G = get_group(spec)
        for k, chart_k in enumerate(get_charts(spec)):
            rng = seeded_rng(31, k)
            p1, p2 = sample_chart_points(2, rng)
            assert p1 != p2
            rep1 = build_rep(chart_k, p1)
            rep2 = build_rep(chart_k, p2)
            assert koszul_homology(G, rep1, rep2) == (0, 0, 0, 0)


def _involution_x_rep(coords):
    spec = "2:1,1,0"
    x_index = next(
        k for k, gg in enumerate(get_fixed_points(spec)) if (1, 0, 0) in gg.gamma
    )
    return _rep_at(spec, x_index, coords)


def test_support_check_rational_spectrum_case():
    # lambda = 4 gave a split characteristic polynomial to the retired orbit check
    G, rep = _involution_x_rep((4, 1, 1))
    assert support_check_walk(G, rep)


def test_support_check_irrational_spectrum_case():
    # lambda = 2 has irrational eigenvalues +-sqrt(2); the retired orbit
    # check could only skip it
    G, rep = _involution_x_rep((2, 1, 1))
    assert support_check_walk(G, rep)


@pytest.mark.parametrize("spec,order", SUITE_3D)
def test_support_check_decides_chart_samples_and_fixed_points(spec, order):
    G = get_group(spec)
    for k, chart_k in enumerate(get_charts(spec)):
        assert not support_check_walk(G, build_rep(chart_k, (0, 0, 0)))
        for point in sample_chart_points(5, seeded_rng(0, k)):
            assert support_check_walk(G, build_rep(chart_k, point))


def _rescaled(rep, alpha, col, factor):
    """The module with the one nonzero entry of column col of B_alpha scaled."""
    mats = [[list(row) for row in mat] for mat in dense_matrices(rep)[0]]
    row = next(r for r in range(rep.group.order) if mats[alpha][r][col])
    mats[alpha][row][col] *= factor
    return module_from_dense(rep, mats)


@pytest.mark.parametrize("spec", ["2:1,1,0", "3:1,1,1", "7:1,2,4", "2:1,1,0;2:1,0,1"])
def test_support_check_fails_on_one_rescaled_coefficient(spec):
    G = get_group(spec)
    point = sample_chart_points(1, seeded_rng(3))[0]
    rep = build_rep(get_charts(spec)[0], point)
    assert support_check_walk(G, rep)
    for alpha in range(3):
        for col in range(G.order):
            for factor in (2, -1, 0):
                assert not support_check_walk(G, _rescaled(rep, alpha, col, factor))


@pytest.mark.parametrize("spec", ["3:1,1,1", "6:1,5,0", "2:1,1,0;2:1,0,1"])
def test_module_from_dense_refuses_an_entry_off_its_arrow(spec):
    # each coefficient moved, in turn, to every other row of its column:
    # an entry off its McKay arrow, which no module of G can carry
    G, rep = _rep_at(spec, 0, (1, 2, 3))
    n = G.order
    mats = [[list(row) for row in mat] for mat in dense_matrices(rep)[0]]
    assert dense_matrices(module_from_dense(rep, mats)) == dense_matrices(rep)
    for alpha in range(3):
        for col in range(n):
            row = next(r for r in range(n) if mats[alpha][r][col])
            for wrong in range(n):
                if wrong != row:
                    moved = [[list(r) for r in mat] for mat in mats]
                    moved[alpha][wrong][col], moved[alpha][row][col] = moved[alpha][row][col], 0
                    assert module_from_dense(rep, moved) is None, (alpha, col, wrong)


def test_pair_complex_refuses_modules_of_another_group():
    # both modules are read on the character lines of G, so a module of any
    # other group, even of the same order or of the same spec rebuilt, is
    # refused in either argument order
    G, rep = _rep_at("3:1,1,1", 0, (1, 2, 3))
    fresh = AbelianGroup(GroupSpec.parse("3:1,1,1"))
    others = [
        build_rep(get_charts("3:1,2,0")[0], (0, 0, 0)),
        build_rep(chart(fresh, get_fixed_points("3:1,1,1")[0], get_cones("3:1,1,1")[0]), (0, 0, 0)),
    ]
    for other in others:
        assert other.group is not G and other.group.order == G.order
        for pair in ((rep, other), (other, rep)):
            with pytest.raises(ValueError, match="both modules must be modules of this group"):
                koszul_differentials(G, *pair)
            with pytest.raises(ValueError, match="both modules must be modules of this group"):
                koszul_homology(G, *pair)


def test_all_pairs_at_order_nineteen():
    spec = "19:1,7,11"
    G = get_group(spec)
    reps = [build_rep(c, (0, 0, 0)) for c in get_charts(spec)]
    table = {}
    for i, rep1 in enumerate(reps):
        for j, rep2 in enumerate(reps):
            table[(i, j)] = koszul_homology(G, rep1, rep2)
    assert len(table) == 361
    for (i, j), h in table.items():
        assert h == ((1, 3, 3, 1) if i == j else (0, 0, 0, 0))
        assert h[2] == table[(j, i)][1]


def test_non_commuting_module_is_refused():
    # one coefficient of B1 changed on its own line: the module stays on its
    # character lines, but its B's no longer commute, so neither complex
    # squares to zero
    G, rep = _rep_at("3:1,1,1", 1, (1, 2, 3))
    b, _ = dense_matrices(rep)
    b1 = [list(row) for row in b[0]]
    row = next(r for r in range(3) if b1[r][0])
    b1[row][0] += 1
    broken = module_from_dense(rep, (b1, b[1], b[2]))
    assert not broken.commutes
    assert not verify_adhm(broken)
    for pair in ((broken, rep), (rep, broken)):
        with pytest.raises(RuntimeError, match="do not commute"):
            koszul_homology(G, *pair)
    with pytest.raises(RuntimeError, match="do not commute"):
        cpxnil_homology(broken)


HOMOLOGY_SPECS = ["2:1,1,0", "3:1,1,1", "5:1,2,2", "6:1,5,0", "7:1,2,4", "2:1,1,0;2:1,0,1"]
VALUE = st.sampled_from((1, -1, 2, -2, 3))


@st.composite
def planted_modules(draw, spec):
    """A module of spec at a fixed point or a chart point with some
    coordinates zero, with planted changes that keep it commuting: a diagonal
    change of basis, which rescales every coefficient on its own, and a
    scalar on each B, zero among them, which drops ranks.  Each scalar
    carries the product of the diagonal, so that every coefficient stays
    an int."""
    charts = get_charts(spec)
    chart_k = charts[draw(st.integers(0, len(charts) - 1))]
    coords = draw(st.tuples(*[st.one_of(st.just(0), VALUE)] * 3))
    rep = build_rep(chart_k, coords)
    n = chart_k.group.order
    diagonal = draw(st.lists(VALUE, min_size=n, max_size=n))
    unit = prod(diagonal)
    scales = draw(st.tuples(*[st.one_of(st.just(1), st.just(0), VALUE)] * 3))
    mats = [
        [
            [scale * unit * diagonal[r] * x / diagonal[c] for c, x in enumerate(row)]
            for r, row in enumerate(mat)
        ]
        for mat, scale in zip(dense_matrices(rep)[0], scales)
    ]
    planted = module_from_dense(rep, mats)
    assert planted.commutes
    return planted


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reduced_homology_matches_full_ranks(data):
    spec = data.draw(st.sampled_from(HOMOLOGY_SPECS))
    G = get_group(spec)
    rep1, rep2 = data.draw(planted_modules(spec)), data.draw(planted_modules(spec))
    for a, b in ((rep1, rep2), (rep2, rep1), (rep1, rep1)):
        assert koszul_homology(G, a, b) == homology_full_ranks(koszul_differentials(G, a, b))
    assert cpxnil_homology(rep1) == homology_full_ranks(cpxnil_differentials(rep1))
    assert cpxnil_homology(rep1) == homology_full_ranks(wedge_differentials(rep1))


@pytest.mark.parametrize("spec", ["7:1,2,4", "6:1,5,0", "3:1,2,0;3:0,1,2"])
def test_reduced_homology_matches_full_ranks_on_the_pairs_verify_ranks(spec):
    # every ordered pair of fixed points, every chart's seeded sample pair
    # (seed 0, as verify draws it) and every fixed point's wedge complex
    G = get_group(spec)
    charts = get_charts(spec)
    reps = [build_rep(chart_k, (0, 0, 0)) for chart_k in charts]
    pairs = [(a, b) for a in reps for b in reps]
    for k, chart_k in enumerate(charts):
        pairs.append(tuple(build_rep(chart_k, p) for p in sample_chart_points(2, seeded_rng(0, k))))
    for a, b in pairs:
        assert koszul_homology(G, a, b) == homology_full_ranks(koszul_differentials(G, a, b))
    for rep in reps:
        assert cpxnil_homology(rep) == homology_full_ranks(wedge_differentials(rep))


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS)
def test_wedge_homology_at_fixed_points_is_the_betti_table(spec):
    for gg, chart_k in zip(get_fixed_points(spec), get_charts(spec)):
        assert cpxnil_homology(build_rep(chart_k, (0, 0, 0))) == betti_table(gg)


def test_fixed_point_betti_names_planted_defects():
    spec = "13:1,3,9"
    fps = list(get_fixed_points(spec))
    reps = [build_rep(c, (0, 0, 0)) for c in get_charts(spec)]
    check = verify._fixed_point_betti_check(fps, reps)
    assert check["pass"] and check["details"] == {"failures": [], "checked": 13, "total": 13}
    tables = [betti_table(gg) for gg in fps]
    # a generator dropped from the ideal of fixed point k
    k = next(k for k, gg in enumerate(fps) if len(gg.ideal.gens) > 3)
    dropped = list(fps)
    dropped[k] = replace(fps[k], ideal=MonomialIdeal(fps[k].ideal.gens[1:]))
    check = verify._fixed_point_betti_check(dropped, reps)
    assert not check["pass"]
    assert [f["fixed_point"] for f in check["details"]["failures"]] == [k]
    # the modules of two fixed points with different Betti tables swapped
    j = next(j for j in range(len(fps)) if tables[j] != tables[k])
    swapped = list(reps)
    swapped[j], swapped[k] = reps[k], reps[j]
    check = verify._fixed_point_betti_check(fps, swapped)
    assert [f["fixed_point"] for f in check["details"]["failures"]] == sorted((j, k))


COORD = st.sampled_from((1, -1, 2, -2, 3, -4, 5))
ROUTE_SPECS = HOMOLOGY_SPECS + ["3:1,2,0;3:0,1,2"]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_int_modules_match_the_fraction_route(data):
    # modules at chart points with some coordinates zero, on int
    # coefficients from power tables and through the Fraction oracle: the
    # same matrices and the same decisions; the pair complexes also mix the
    # two routes
    spec = data.draw(st.sampled_from(ROUTE_SPECS))
    G, charts = get_group(spec), get_charts(spec)
    pairs = []
    for _ in range(2):
        chart_k = charts[data.draw(st.integers(0, len(charts) - 1))]
        coords = data.draw(st.tuples(*[st.one_of(st.just(0), COORD)] * 3))
        pairs.append((build_rep(chart_k, coords), build_rep_fractions(chart_k, coords)))
    for rep, oracle in pairs:
        assert all(type(c) is int for cs in rep.coeffs for c in cs)
        assert dense_matrices(rep) == dense_matrices(oracle)
        assert rep.commutes == oracle.commutes
        assert verify_adhm(rep) == verify_adhm(oracle)
        assert cpxnil_homology(rep) == cpxnil_homology(oracle)
    (rep1, oracle1), (rep2, oracle2) = pairs
    for a, b, ref_a, ref_b in (
        (rep1, rep2, oracle1, oracle2),
        (rep2, rep1, oracle2, oracle1),
        (rep1, oracle2, oracle1, oracle2),
        (oracle2, rep1, oracle2, oracle1),
        (rep1, oracle1, oracle1, oracle1),
    ):
        assert koszul_homology(G, a, b) == koszul_homology(G, ref_a, ref_b)


@pytest.mark.parametrize("spec", ["2:1,1,0;2:1,0,1", "3:1,2,0;3:0,1,2", "7:1,2,4"])
def test_pair_differentials_are_scalar_multiples_of_the_fraction_route(spec):
    # each differential equals the Fraction route's, its multiple by 1: for
    # two samples of one chart, for a sample against a fixed point, and in
    # both orders
    G = get_group(spec)
    points = [(2, -3, 4), (-5, 6, 2), (0, 0, 0)]
    for k, chart_k in enumerate(get_charts(spec)):
        reps = [(build_rep(chart_k, p), build_rep_fractions(chart_k, p)) for p in points]
        for first, second in ((0, 1), (1, 0), (0, 2), (2, 1)):
            (a, ref_a), (b, ref_b) = reps[first], reps[second]
            got = dense_differentials(koszul_differentials(G, a, b))
            want = dense_differentials(koszul_differentials(G, ref_a, ref_b))
            assert got == want, (k, points[first], points[second])


# Serre duality on the pair complex: s_alpha, for alpha = x, y, z, is the sign
# between row (alpha, c) of d3 and the column of d1 that mirrors it.  Written
# out here, not read from koszul.WEDGE_SIGNS, so that a fault there shows.
DUALITY_SIGNS = (-1, 1, -1)


def _assert_serre_dual(G, rep_i, rep_j):
    """Row (alpha, c) of d3(i, j) is s_alpha times column (p, c + chi_alpha) of
    d1(j, i), where p is the wedge pair without alpha and s = DUALITY_SIGNS:
    the complex of (j, i) is the dual of that of (i, j), read backwards."""
    n, shift = G.order, G.arrows
    d3 = koszul_differentials(G, rep_i, rep_j).d3
    d1 = koszul_differentials(G, rep_j, rep_i).d1
    for alpha, sign in enumerate(DUALITY_SIGNS):
        p = WEDGE_PAIRS.index(tuple(beta for beta in range(3) if beta != alpha))
        for c in range(n):
            (row,) = dense_two_term([d3[alpha * n + c]], n)
            (column,) = dense_two_term([d1[p * n + shift[alpha][c]]], n)
            assert row == [sign * x for x in column], (alpha, c)


@pytest.mark.parametrize("spec", ["7:1,2,4", "3:1,2,0;3:0,1,2", "6:1,5,0"])
def test_pair_complex_is_serre_dual_at_fixed_points(spec):
    # every ordered pair; 6:1,5,0 has a zero weight, where the two entries of
    # a z-row of d3 fall on one column
    G = get_group(spec)
    reps = [build_rep(c, (0, 0, 0)) for c in get_charts(spec)]
    for rep_i in reps:
        for rep_j in reps:
            _assert_serre_dual(G, rep_i, rep_j)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pair_complex_is_serre_dual_at_chart_samples(data):
    # two chart points, some coordinates zero
    spec = data.draw(st.sampled_from(ROUTE_SPECS))
    G, charts = get_group(spec), get_charts(spec)
    reps = []
    for _ in range(2):
        chart_k = charts[data.draw(st.integers(0, len(charts) - 1))]
        coords = data.draw(st.tuples(*[st.one_of(st.just(0), COORD)] * 3))
        reps.append(build_rep(chart_k, coords))
    _assert_serre_dual(G, *reps)
    _assert_serre_dual(G, *reversed(reps))
