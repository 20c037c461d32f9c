"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Suite groups: 1/2(1,1,0), 1/3(1,1,1), 1/5(1,2,2), 1/6(1,2,3), 1/7(1,2,4),
1/11(1,2,8), the Klein four-group, and, for the SL2 case, 1/r(1,r-1,0) for
r = 2..10.
All checks are exact; the only tolerances are the stated runtime budgets.
"""

import time
from math import comb

from _oracles import (
    all_b_invertible,
    count_identity_value,
    hom_dim_dense,
    hook_staircases,
    krylov_dim,
    primitive_in_n,
    verify_adhm,
)
from conftest import SUITE_3D, get_charts, get_cones, get_fixed_points, get_group
from ghilb import ggraph, linalg, toric
from ghilb.groups import AbelianGroup, GroupSpec
from ghilb.homcalc import hom_dim, hom_matrix
from ghilb.koszul import (
    build_rep,
    cpxnil_homology,
    koszul_homology,
    sample_chart_points,
)
from ghilb.mckay import intersection_matrix, mckay_matrices
from ghilb.verify import seeded_rng


def report(number: int, ok: bool, message: str) -> None:
    print(f"ACCEPTANCE criterion {number}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {number} failed: {message}"


def test_criterion_1_enumeration_matches_oracle():
    started = time.monotonic()
    checked = []
    for spec, order in SUITE_3D:
        G = AbelianGroup(GroupSpec.parse(spec))  # fresh, so the timing is honest
        fps = ggraph.enumerate_fixed_points(G)
        oracle = ggraph.brute_force_fixed_points(G)
        assert [gg.to_json() for gg in fps] == [gg.to_json() for gg in oracle]
        assert len(fps) == order
        checked.append(spec)
    elapsed = time.monotonic() - started
    report(
        1,
        elapsed < 60.0,
        f"enumeration = oracle with count |G| on {len(checked)} groups in {elapsed:.2f}s",
    )


def test_criterion_2_classification():
    total = 0
    for spec, order in SUITE_3D:
        for gg in get_fixed_points(spec):
            a, b, c, d, e, f = gg.params
            alpha, beta, gamma = gg.ideal.pure_power_exponents()
            delta = 1 if gg.kind == "A" else 0
            assert gg.kind in ("A", "B")
            assert (alpha, beta, gamma) == (a + d - delta, b + e - delta, c + f - delta)
            assert count_identity_value(gg.kind, gg.params) == order
            total += 1
    report(2, True, f"{total} fixed points classified with consistent axes and counts")


def test_criterion_3_hom_matrix_and_oracle():
    for spec, order in SUITE_3D:
        G = get_group(spec)
        fps = get_fixed_points(spec)
        mat = hom_matrix(G, fps)
        expected = [[3 if i == j else 1 for j in range(order)] for i in range(order)]
        assert mat == expected, f"hom matrix wrong for {spec}"
    oracle_pairs = 0
    for spec, order in SUITE_3D:
        if order > 10:
            continue
        G = get_group(spec)
        fps = get_fixed_points(spec)
        for src in fps:
            for tgt in fps:
                assert hom_dim(G, src, tgt) == hom_dim_dense(G, src, tgt)
                oracle_pairs += 1
    report(3, True, f"hom matrix = 2I+J on all groups; oracle agrees on {oracle_pairs} pairs")


def test_criterion_4_koszul_homology():
    started = time.monotonic()
    pairs = 0
    for spec, order in SUITE_3D:
        G = get_group(spec)
        reps = [build_rep(c, (0, 0, 0)) for c in get_charts(spec)]
        table = {}
        for i, rep1 in enumerate(reps):
            for j, rep2 in enumerate(reps):
                h = koszul_homology(G, rep1, rep2)
                table[(i, j)] = h
                expected = (1, 3, 3, 1) if i == j else (0, 0, 0, 0)
                assert h == expected, f"{spec} pair ({i},{j}): {h} != {expected}"
                h3, h2, h1, h0 = h
                assert h3 - h2 + h1 - h0 == 0
                pairs += 1
        for (i, j), h in table.items():
            assert h[2] == table[(j, i)][1]
    elapsed = time.monotonic() - started
    report(4, elapsed < 300.0, f"{pairs} pairs exact with duality in {elapsed:.1f}s")


def test_criterion_5_smooth_crepant_fan():
    for spec, order in SUITE_3D:
        G = get_group(spec)
        cones = get_cones(spec)
        for cone in cones:
            det = linalg.det3([list(v) for v in cone.dual_gens])
            assert abs(det) == order
            for ray in cone.rays:
                assert primitive_in_n(G, ray)
                assert all(x >= 0 for x in ray)
                assert sum(ray) == G.R
        fan = toric.build_fan(G, cones)  # raises on ray-set/facet failure
        # rays are held as R*ray: the coordinate rays as R*e_i, the junior
        # rays as the age-one group elements themselves
        R = G.R
        coordinate = {(R, 0, 0), (0, R, 0), (0, 0, R)}
        assert set(fan.rays) == coordinate | set(G.junior_elements())
    report(5, True, "all charts smooth, all rays crepant, fans consistent")


def test_criterion_6_tensor_identities():
    for spec, order in SUITE_3D:
        G = get_group(spec)
        a0, a1, a2, a3 = mckay_matrices(G)
        ident = [[int(i == j) for j in range(order)] for i in range(order)]
        assert a0 == ident and a3 == ident
        assert a2 == [list(row) for row in zip(*a1)]
        for i, mat in enumerate((a0, a1, a2, a3)):
            assert all(sum(row) == comb(3, i) for row in mat)
            assert all(sum(col) == comb(3, i) for col in zip(*mat))
        inter = intersection_matrix((a0, a1, a2, a3))
        assert all(
            inter[i][j] == -inter[j][i] for i in range(order) for j in range(order)
        )
    report(6, True, "a2 = a1^T, a0 = a3 = I, sums C(3,i), pairing antisymmetric")


def test_criterion_7_two_dimensional_mckay():
    # 1/r(1,r-1,0) is the SL2 group 1/r(1,r-1) acting trivially on z: its
    # fixed points are the r hooks in z = 0, and as chi_z is trivial,
    # 3I - a1 = 2I - a is the Cartan matrix of the SL2 case
    for r in range(2, 11):
        G = get_group(f"{r}:1,{r - 1},0")
        fps = ggraph.enumerate_fixed_points(G)
        assert [gg.gamma for gg in fps] == hook_staircases(r)
        _, a1, _, _ = mckay_matrices(G)
        mat = [[3 * (k == l) - a1[k][l] for l in range(r)] for k in range(r)]
        expected = [
            [
                2 * (k == l) - ((k - l) % r == 1) - ((l - k) % r == 1)
                if r > 2
                else (2 if k == l else -2)
                for l in range(r)
            ]
            for k in range(r)
        ]
        assert mat == expected, f"cartan matrix wrong for r={r}"
    report(7, True, "1/r(1,r-1,0): r hook fixed points, 3I - a1 = affine A_(r-1), r = 2..10")


def test_criterion_8_adhm_at_fixed_and_chart_points():
    points_checked = 0
    exact_nil = 0
    for spec, order in SUITE_3D:
        for k, chart in enumerate(get_charts(spec)):
            rep = build_rep(chart, (0, 0, 0))
            assert verify_adhm(rep), f"{spec} fixed point {k}: ADHM failed"
            assert krylov_dim(rep) == order
            rng = seeded_rng(608, k)
            for point in sample_chart_points(5, rng):
                rep = build_rep(chart, point)
                assert verify_adhm(rep), f"{spec} point {point}: ADHM failed"
                points_checked += 1
                if all_b_invertible(rep):
                    assert cpxnil_homology(rep) == (0, 0, 0, 0)
                    exact_nil += 1
    report(
        8,
        points_checked >= 5 * sum(order for _, order in SUITE_3D),
        f"ADHM exact at {points_checked} chart points; "
        f"{exact_nil} invertible points with exact wedge complex",
    )
