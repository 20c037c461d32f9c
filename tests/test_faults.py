"""Faults in the pair complex that no rank reads, caught by chart_samples' d∘d check.

No rank reads the wedge signs of d1: each sign multiplies whole columns,
which changes neither a rank nor the columns two_term_basis keeps.  A d1
column that loses a term, or a wrong sign where d2 merges two terms on the
trivial character of x or y, may leave every rank as it was too.  Each such
fault is planted here and must make chart_samples fail at seeds 0-4 on every
census group up to order 16 where the planted code runs, by a record of the
first nonzero cell of d2 d3 or d1 d2.
"""

import inspect

import pytest

from _census import specs
from _oracles import dense_differentials, mat_mul
from conftest import get_charts, get_group
from ghilb import koszul, verify

REAL = koszul.koszul_differentials
TRIVIAL_MERGE = "v1, v4 = v1 + v4, 0"


def _d1_first_column_without_its_second_term(G, rep1, rep2):
    cx = REAL(G, rep1, rep2)
    u, a, v, _ = cx.d1[0]
    return cx._replace(d1=[(u, a, v, 0), *cx.d1[1:]])


def _wrong_sign_in_the_trivial_merge():
    """koszul_differentials rebuilt from its source with v1 - v4 where it merges v1 + v4."""
    source = inspect.getsource(REAL)
    assert source.count(TRIVIAL_MERGE) == 1
    namespace = dict(vars(koszul))
    exec(source.replace(TRIVIAL_MERGE, "v1, v4 = v1 - v4, 0"), namespace)
    return namespace["koszul_differentials"]


def _trivial_on_x_or_y(spec):
    # the merge runs for the pairs (x, y) and (x, z) when x is trivial, and (y, z) when y is
    return any(all(g[axis] == 0 for g in get_group(spec).elements) for axis in (0, 1))


# Every sign triple but (1, -1, 1) and its negation, which is still a complex
WRONG_SIGNS = [(1, 1, 1), (-1, -1, -1), (1, -1, -1), (-1, 1, 1), (-1, -1, 1), (1, 1, -1)]
FAULTS = [
    *(pytest.param("WEDGE_SIGNS", s, specs(16), id="signs(%d,%d,%d)" % s) for s in WRONG_SIGNS),
    pytest.param(
        "koszul_differentials",
        _d1_first_column_without_its_second_term,
        specs(16),
        id="d1-first-column",
    ),
    pytest.param(
        "koszul_differentials",
        _wrong_sign_in_the_trivial_merge(),
        [spec for spec in specs(16) if _trivial_on_x_or_y(spec)],
        id="trivial-merge",
    ),
]


def _dense_first_nonzero(cx):
    """The first nonzero cell of d2 d3, else of d1 d2, from dense products."""
    d3, d2, d1 = dense_differentials(cx)
    for name, product in (("d2*d3", mat_mul(d2, d3)), ("d1*d2", mat_mul(d1, d2))):
        for i, row in enumerate(product):
            for j, x in enumerate(row):
                if x:
                    return name, [i, j], x
    return None


@pytest.mark.parametrize("name,value,where", FAULTS)
def test_a_planted_complex_fault_fails_chart_samples_at_every_seed(monkeypatch, name, value, where):
    monkeypatch.setattr(koszul, name, value)
    assert len(where) in (92, 30)  # every spec, or the 30 with x or y trivial
    for spec in where:
        charts = get_charts(spec)
        for seed in range(5):
            check = verify._chart_samples_check(charts, seed)
            products = [f for f in check["details"]["failures"] if f["sample"] == [0, 1]]
            assert not check["pass"] and products, (spec, seed)
            for record in products:
                (product,) = set(record["found"]) - {"cell"}
                assert record["expected"] == {product: 0, "cell": record["found"]["cell"]}


@pytest.mark.parametrize("name,value,where", FAULTS)
def test_the_named_cell_is_the_first_nonzero_one(monkeypatch, name, value, where):
    # on the first chart of the first few groups, against the dense products
    # (the cell of d2 d3 in row order, then that of d1 d2) and on the correct
    # complex, which squares to zero
    for spec in where[:6]:
        chart = get_charts(spec)[0]
        reps = [koszul.build_rep(chart, p) for p in koszul.sample_chart_points(2, verify.seeded_rng(0))]
        cx = koszul.koszul_differentials(chart.group, *reps)
        assert koszul.square_defect(cx) is None
        assert _dense_first_nonzero(cx) is None
        monkeypatch.setattr(koszul, name, value)
        cx = koszul.koszul_differentials(chart.group, *reps)
        assert koszul.square_defect(cx) == _dense_first_nonzero(cx)
        monkeypatch.undo()


def test_a_square_defect_is_named_in_the_report(monkeypatch):
    monkeypatch.setattr(koszul, "WEDGE_SIGNS", (1, 1, 1))
    report = verify.verification_report(get_group("7:1,2,4"), seed=0)
    checks = {c["name"]: c for c in report["checks"]}
    assert [name for name, c in checks.items() if c["status"] == "fail"] == ["chart_samples"]
    assert checks["chart_samples"]["details"]["failures"][0] == {
        "fixed_point": 0,
        "sample": [0, 1],
        "found": {"d1*d2": 60, "cell": [0, 0]},
        "expected": {"d1*d2": 0, "cell": [0, 0]},
    }
