import json
from dataclasses import replace
from pathlib import Path

import pytest

from _oracles import count_identity_value
from conftest import get_charts, get_fixed_points, get_group
from ghilb import ggraph, homcalc, koszul, mckay, verify
from ghilb.cli import console_main, main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_command(capsys):
    code, out, _ = run(capsys, "group", "--group", "7:1,2,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 7
    assert len(payload["junior_elements"]) == 3
    assert payload["ages"]["[1, 2, 4]"] == "1"


def test_group_command_invalid_spec_exits_two(capsys):
    code, out, err = run(capsys, "group", "--group", "4:1,1,1")
    assert code == 2
    assert "error" in err


def test_quiver_command(capsys, tmp_path):
    dot_path = tmp_path / "q.dot"
    code, out, _ = run(capsys, "quiver", "--group", "2:1,1,0", "--dot", str(dot_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["matrices"]["a1"] == [[1, 2], [2, 1]]
    assert payload["intersection"] == [[0, 0], [0, 0]]
    assert dot_path.read_text().startswith("digraph mckay {")


def test_quiver_builds_its_matrices_once(capsys, monkeypatch):
    calls = []
    real = mckay.mckay_matrices
    monkeypatch.setattr(mckay, "mckay_matrices", lambda G: calls.append(G) or real(G))
    assert run(capsys, "quiver", "--group", "7:1,2,4")[0] == 0
    assert len(calls) == 1


def test_fixed_points_command(capsys):
    # 32:1,12,19 is at the oracle cap, so the oracle runs on it too
    for spec, order in (("2:1,1,0;2:1,0,1", 4), ("32:1,12,19", 32)):
        code, out, _ = run(capsys, "fixed-points", "--group", spec)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == order
        assert payload["oracle_agreement"] is True


def test_fan_command(capsys):
    code, out, _ = run(capsys, "fan", "--group", "3:1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cones"]) == 3
    assert ["1/3", "1/3", "1/3"] in payload["rays"]
    assert all(flag["smooth"] and flag["crepant"] for flag in payload["charts"])


# Orders about 100: a return to scanning [0, R)^3 or the full parameter box
# makes these take minutes instead of about a second.
@pytest.mark.parametrize("spec", ["101:1,2,98", "10:1,3,6;10:0,1,9"])
def test_fan_command_at_order_one_hundred(capsys, spec):
    code, out, _ = run(capsys, "fan", "--group", spec)
    assert code == 0
    payload = json.loads(out)
    G = get_group(spec)
    assert len(payload["charts"]) == len(payload["cones"]) == G.order
    assert all(flag["smooth"] and flag["crepant"] for flag in payload["charts"])
    assert len(payload["rays"]) == 3 + len(G.junior_elements())


@pytest.mark.parametrize("spec", ["7:1,2,4", "3:1,1,1"])
def test_verify_command_passes(capsys, spec):
    code, out, err = run(capsys, "verify", "--group", spec)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert "PASS" in err


def test_verify_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "verify", "--group", "2:1,1,0", "--seed", "3", "--out", str(a))[0] == 0
    assert run(capsys, "verify", "--group", "2:1,1,0", "--seed", "3", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "spec,golden",
    # 6:1,5,0 has a zero weight: x_3 * m has m's character, so the pair
    # complexes' rows merge coinciding columns; the 3x3 group has two
    # generators
    [
        ("7:1,2,4", "verify_7-1-2-4_seed0.json"),
        ("6:1,5,0", "verify_6-1-5-0_seed0.json"),
        ("3:1,2,0;3:0,1,2", "verify_3-1-2-0_3-0-1-2_seed0.json"),
    ],
)
def test_verify_json_matches_golden(capsys, spec, golden, tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--group", spec, "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_out_file_written(capsys, tmp_path):
    path = tmp_path / "group.json"
    code, out, _ = run(capsys, "group", "--group", "3:1,1,1", "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["order"] == 3


def test_verify_with_no_work_is_never_ok(capsys, monkeypatch):
    # an enumeration that finds no fixed point fails the count, and leaves
    # every check over fixed points with nothing to check: empty, not ok
    monkeypatch.setattr(ggraph, "enumerate_fixed_points", lambda G: [])
    code, out, err = run(capsys, "verify", "--group", "7:1,2,4")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["fixed_point_count"]["status"] == "fail"
    lines = {line.split()[1]: line.split()[0] for line in err.splitlines() if line.startswith("  ")}
    for name in (
        "charts_smooth_crepant",
        "hom_matrix",
        "koszul_pairs",
        "fixed_point_betti",
        "chart_samples",
    ):
        assert checks[name]["details"] == {"checked": 0, "total": 0, "failures": []}
        assert checks[name]["status"] == lines[name] == "empty"


def test_skipped_oracle_is_not_ok(capsys):
    spec = "33:1,4,28"  # the least cyclic order above the oracle cap
    assert get_group(spec).order == ggraph.ORACLE_CAP + 1
    code, out, err = run(capsys, "verify", "--group", spec)
    assert code == 0
    skipped = f"group order {ggraph.ORACLE_CAP + 1} above the oracle cap"
    assert f"  skip  oracle_agreement [skipped: {skipped}]" in err
    oracle = next(c for c in json.loads(out)["checks"] if c["name"] == "oracle_agreement")
    assert oracle["status"] == "skip"
    assert oracle["details"] == {}


def test_bad_spec_exits_two(capsys):
    code, out, err = run(capsys, "verify", "--group", "7:1,2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_internal_fault_exits_three(capsys, monkeypatch):
    from ghilb import toric

    def singular(G, gg, owner):
        raise ValueError("matrix is singular")

    monkeypatch.setattr(toric, "chart_cone", singular)
    with pytest.raises(ValueError, match="matrix is singular"):
        main(["fan", "--group", "3:1,1,1"])
    assert capsys.readouterr().out == ""
    code = console_main(["fan", "--group", "3:1,1,1"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out) == {
        "error": {"type": "ValueError", "message": "matrix is singular", "layer": "toric.layers"}
    }
    assert captured.err == "internal error: ValueError: matrix is singular\n"


def test_internal_fault_names_its_layer(capsys, monkeypatch):
    # the fault is raised in a helper of toric.chart_cone, outside the
    # package; the innermost frame in the package is chart_cone itself
    from ghilb import toric

    def broken(dual_gens, R):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(toric, "dual_rays", broken)
    for command in ("fan", "verify"):
        code = console_main([command, "--group", "7:1,2,4"])
        record = json.loads(capsys.readouterr().out)
        assert code == 3
        assert record["error"] == {
            "type": "ZeroDivisionError",
            "message": "planted",
            "layer": "toric.chart_cone",
        }
        assert list(record) == ["error"]


def test_oracle_revalidation_fault_names_the_oracle(capsys, monkeypatch):
    # is_ggraph rejects every staircase, so the enumeration finds none and
    # the oracle's first staircase fails revalidation in the oracle itself
    monkeypatch.setattr(ggraph, "is_ggraph", lambda G, ideal: None)
    code = console_main(["fixed-points", "--group", "7:1,2,4"])
    record = json.loads(capsys.readouterr().out)
    assert code == 3
    assert record["error"]["type"] == "RuntimeError"
    assert "failed revalidation" in record["error"]["message"]
    assert record["error"]["layer"] == "ggraph.brute_force_fixed_points"


def test_console_main_keeps_the_other_exit_codes(capsys):
    assert console_main(["group", "--group", "7:1,2,4"]) == 0
    assert console_main(["verify", "--group", "7:1,2"]) == 2


@pytest.mark.parametrize("flag", ["--dot", "--out"])
def test_unwritable_output_path_exits_two(capsys, tmp_path, flag):
    path = tmp_path / "missing" / "q.out"
    code = console_main(["quiver", "--group", "2:1,1,0", flag, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "q.out" in captured.err


@pytest.mark.parametrize(
    "command,flag",
    [
        ("group", "--samples"),
        ("group", "--oracle-cap"),
        ("quiver", "--max-pairs"),
        ("fan", "--oracle-cap"),
        ("fixed-points", "--samples"),
        ("fan", "--dot"),
        ("verify", "--samples"),
        ("verify", "--max-pairs"),
        ("verify", "--oracle-cap"),
        ("fixed-points", "--oracle-cap"),
    ],
)
def test_options_a_command_does_not_read_are_refused(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--group", "7:1,2,4", flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["fixed-points", "--group", "7:1,2,4"], "fixed-points_7-1-2-4.json"),
        # above the oracle cap: no oracle_agreement key
        (["fixed-points", "--group", "33:1,4,28"], "fixed-points_33-1-4-28.json"),
        (["fan", "--group", "13:1,3,9"], "fan_13-1-3-9.json"),
        (["fan", "--group", "3:1,2,0;3:0,1,2"], "fan_3-1-2-0_3-0-1-2.json"),
        (["fan", "--group", "37:1,10,26"], "fan_37-1-10-26.json"),
        (["fan", "--group", "6:1,5,0;6:0,1,5"], "fan_6-1-5-0_6-0-1-5.json"),
        # a fan-large order: 16 junior rays, each written as c/R from R*ray
        (["fan", "--group", "33:1,4,28"], "fan_33-1-4-28.json"),
    ],
)
def test_fixed_points_and_fan_json_match_golden(capsys, argv, golden, tmp_path):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("spec,tag", [("7:1,2,4", "7-1-2-4"), ("3:1,2,0;3:0,1,2", "3-1-2-0_3-0-1-2")])
def test_quiver_json_and_dot_match_golden(capsys, spec, tag, tmp_path):
    out, dot = tmp_path / "quiver.json", tmp_path / "quiver.dot"
    assert main(["quiver", "--group", spec, "--out", str(out), "--dot", str(dot)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"quiver_{tag}.json").read_bytes()
    assert dot.read_bytes() == (GOLDEN / f"quiver_{tag}.dot").read_bytes()


PLANTED_AT = 2


def _plant_chart_error(monkeypatch):
    from ghilb import toric

    real = toric.chart_cone

    def planted(G, gg, owner):
        if owner == PLANTED_AT:
            raise toric.ChartError(f"planted fault at fixed point {owner}")
        return real(G, gg, owner=owner)

    monkeypatch.setattr(toric, "chart_cone", planted)


def _plant_fan_error(monkeypatch):
    from ghilb import toric

    def planted(G, cones):
        raise toric.FanError("planted fan fault", details={"facets": {"r1|r2": {"cones": [0]}}})

    monkeypatch.setattr(toric, "build_fan", planted)


def test_fan_reports_a_failed_chart(capsys, monkeypatch):
    _plant_chart_error(monkeypatch)
    code, out, _ = run(capsys, "fan", "--group", "7:1,2,4")
    assert code == 1
    payload = json.loads(out)
    assert payload["charts"][PLANTED_AT] == {
        "fixed_point": PLANTED_AT,
        "smooth": False,
        "error": f"planted fault at fixed point {PLANTED_AT}",
    }
    assert sum(1 for flag in payload["charts"] if flag["smooth"]) == 6
    assert "rays" not in payload and "fan_error" not in payload


def test_verify_reports_a_failed_chart(capsys, monkeypatch):
    _plant_chart_error(monkeypatch)
    code, out, err = run(capsys, "verify", "--group", "7:1,2,4")
    assert code == 1
    report = json.loads(out)
    checks = {c["name"]: c for c in report["checks"]}
    charts = checks["charts_smooth_crepant"]
    assert charts["status"] == "fail"
    assert charts["details"] == {
        "checked": 7,
        "total": 7,
        "failures": [{"fixed_point": PLANTED_AT, "error": f"planted fault at fixed point {PLANTED_AT}"}],
    }
    assert checks["fan"]["details"] == {"error": "charts failed; fan not assembled"}
    assert checks["koszul_pairs"]["details"] == {"error": "charts failed; homology not computed"}
    assert checks["chart_samples"]["details"] == {"error": "charts failed; samples not computed"}
    assert all(checks[name]["status"] == "fail" for name in ("fan", "koszul_pairs", "chart_samples"))
    assert "fan" not in report
    assert "first failing check: charts_smooth_crepant" in err


def test_fan_reports_a_fan_error(capsys, monkeypatch):
    _plant_fan_error(monkeypatch)
    code, out, _ = run(capsys, "fan", "--group", "7:1,2,4")
    assert code == 1
    payload = json.loads(out)
    assert payload["fan_error"] == {"message": "planted fan fault", "facets": {"r1|r2": {"cones": [0]}}}
    assert all(flag["smooth"] for flag in payload["charts"])
    assert "rays" not in payload


def test_verify_reports_a_fan_error(capsys, monkeypatch):
    _plant_fan_error(monkeypatch)
    code, out, _ = run(capsys, "verify", "--group", "7:1,2,4")
    assert code == 1
    report = json.loads(out)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["fan"]["details"] == {"error": "planted fan fault", "facets": {"r1|r2": {"cones": [0]}}}
    assert checks["fan"]["status"] == "fail"
    assert checks["charts_smooth_crepant"]["pass"] is True
    assert checks["koszul_pairs"]["pass"] is True
    assert "fan" not in report


def test_verify_reports_a_failed_chart_table(capsys, monkeypatch):
    # the cone is built, but koszul.chart finds an arrow exponent that is
    # not a nonnegative integer: a failed check, not an internal fault
    from ghilb import koszul, toric

    real = koszul.chart

    def planted(G, gg, cone):
        if cone.owner == PLANTED_AT:
            raise toric.ChartError(f"planted chart-table fault at fixed point {cone.owner}")
        return real(G, gg, cone)

    monkeypatch.setattr(koszul, "chart", planted)
    code = console_main(["verify", "--group", "7:1,2,4"])
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads(captured.out)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["charts_smooth_crepant"]["details"] == {
        "checked": 7,
        "total": 7,
        "failures": [
            {"fixed_point": PLANTED_AT, "error": f"planted chart-table fault at fixed point {PLANTED_AT}"}
        ],
    }
    assert checks["fan"] == {"name": "fan", "pass": True, "details": {}, "status": "ok"}
    assert "fan" in report
    for name, what in (
        ("koszul_pairs", "homology not computed"),
        ("fixed_point_betti", "Betti tables not computed"),
        ("chart_samples", "samples not computed"),
    ):
        assert checks[name]["details"] == {"error": f"charts failed; {what}"}
        assert checks[name]["status"] == "fail"
    assert "first failing check: charts_smooth_crepant" in captured.err


SPEC = "7:1,2,4"


def _planted_failures(capsys, monkeypatch, module, name, wrong):
    """Run verify on SPEC with module.name answering wrong(*args) where it is not None.

    Returns the details of every check; the run must fail (exit 1).
    """
    real = getattr(module, name)

    def planted(*args):
        answer = wrong(*args)
        return real(*args) if answer is None else answer

    monkeypatch.setattr(module, name, planted)
    code, out, _ = run(capsys, "verify", "--group", SPEC)
    assert code == 1
    return {c["name"]: c["details"] for c in json.loads(out)["checks"]}


def test_a_failed_koszul_pair_is_named(capsys, monkeypatch):
    reps = [koszul.build_rep(chart, (0, 0, 0)) for chart in get_charts(SPEC)]
    planted = [(reps[0], reps[5]), (reps[1], reps[4])]
    details = _planted_failures(
        capsys,
        monkeypatch,
        koszul,
        "koszul_homology",
        lambda G, a, b: (0, 0, 1, 0) if (a, b) in planted else None,
    )
    # (4, 1) and (5, 0) are not ranked: their h is the planted h of (1, 4)
    # and (0, 5) reversed, and the records come out sorted by pair
    assert details["koszul_pairs"] == {
        "checked": 49,
        "total": 49,
        "failures": [
            {"pair": [0, 5], "found": [0, 0, 1, 0], "expected": [0, 0, 0, 0]},
            {"pair": [1, 4], "found": [0, 0, 1, 0], "expected": [0, 0, 0, 0]},
            {"pair": [4, 1], "found": [0, 1, 0, 0], "expected": [0, 0, 0, 0]},
            {"pair": [5, 0], "found": [0, 1, 0, 0], "expected": [0, 0, 0, 0]},
        ],
    }


def test_each_unordered_fixed_point_pair_is_ranked_once(capsys, monkeypatch):
    # the 28 pairs (i, j) with i <= j are ranked, in order, and each (j, i)
    # is read as its reverse
    reps = [koszul.build_rep(chart, (0, 0, 0)) for chart in get_charts(SPEC)]
    real = koszul.koszul_homology
    ranked = []

    def spy(G, a, b):
        if a in reps:  # not a pair of chart samples
            ranked.append((reps.index(a), reps.index(b)))
        return real(G, a, b)

    monkeypatch.setattr(koszul, "koszul_homology", spy)
    code, out, _ = run(capsys, "verify", "--group", SPEC)
    assert code == 0
    assert ranked == [(i, j) for i in range(7) for j in range(i, 7)]
    checks = {c["name"]: c["details"] for c in json.loads(out)["checks"]}
    assert checks["koszul_pairs"] == {"checked": 49, "total": 49, "failures": []}


def test_betti_check_counts_the_fixed_points_enumerated(capsys, monkeypatch):
    # an enumeration that misses a fixed point fails the count and the
    # oracle, and the Betti check checks all of the six it is given
    real = ggraph.enumerate_fixed_points
    monkeypatch.setattr(ggraph, "enumerate_fixed_points", lambda G: real(G)[1:])
    code, out, _ = run(capsys, "verify", "--group", SPEC)
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["fixed_point_count"]["details"] == {"count": 6, "expected": 7}
    assert checks["oracle_agreement"]["pass"] is False
    assert checks["fixed_point_betti"]["details"] == {"checked": 6, "total": 6, "failures": []}
    assert checks["fixed_point_betti"]["status"] == "ok"


# The chart error of a corrupted character table: an exponent c/R written
# as a reduced fraction.
TABLE_ERRORS = {
    "7:1,2,4": "x_0 * (0, 0, 0) has exponent 3/7 on coordinate 0 of the chart of fixed point 2",
    "13:1,3,9": "x_0 * (0, 0, 0) has exponent -6/13 on coordinate 1 of the chart of fixed point 2",
}


@pytest.mark.parametrize("spec", ["7:1,2,4", "13:1,3,9"])
def test_a_corrupted_character_table_is_named(capsys, monkeypatch, spec):
    # fixed point 2 with the monomials of characters 1 and 2 swapped in its
    # table: its chart and every Hom entry into it read that table, so both
    # checks name it, and no other fixed point; the chart's record gives the
    # arrow, the exponent and the coordinate where it breaks
    real = ggraph.enumerate_fixed_points

    def planted(G):
        fps = real(G)
        table = list(fps[2].by_char)
        table[1], table[2] = table[2], table[1]
        fps[2] = replace(fps[2], by_char=tuple(table))
        return fps

    monkeypatch.setattr(ggraph, "enumerate_fixed_points", planted)
    code, out, _ = run(capsys, "verify", "--group", spec)
    assert code == 1
    checks = {c["name"]: c["details"] for c in json.loads(out)["checks"]}
    assert checks["charts_smooth_crepant"]["failures"] == [
        {"fixed_point": 2, "error": f"{TABLE_ERRORS[spec]}; the cone is not this staircase's chart"}
    ]
    pairs = [f["pair"] for f in checks["hom_matrix"]["failures"]]
    assert pairs and all(2 in pair for pair in pairs)


def test_a_failed_hom_entry_is_named(capsys, monkeypatch):
    # hom_matrix reads each source's syzygies once, not through hom_dim, so
    # the wrong entry is planted in its matrix
    real = homcalc.hom_matrix

    def wrong(G, fps):
        matrix = real(G, fps)
        matrix[2][5] = 2
        return matrix

    details = _planted_failures(capsys, monkeypatch, homcalc, "hom_matrix", wrong)
    assert details["hom_matrix"] == {
        "checked": 49,
        "total": 49,
        "failures": [{"pair": [2, 5], "found": 2, "expected": 1}],
    }


def _raised(table, s, i):
    """The chart table with exponent i of slot s raised by 1, and top with it."""
    exponents = [list(e) for e in table.exponents]
    exponents[s][i] += 1
    top = tuple(max(e[j] for e in exponents) for j in range(3))
    return table._replace(exponents=tuple(map(tuple, exponents)), top=top)


def _exponent_plus_one(table):
    """The chart table with its first nonzero exponent raised by 1 on the first coordinate.

    The module at the fixed point keeps every coefficient, since that
    exponent was already positive, but at a chart point with first
    coordinate other than 0 or 1 the B's no longer commute.
    """
    return _raised(table, next(s for s, e in enumerate(table.exponents) if any(e)), 0)


def test_a_failed_chart_sample_is_named(capsys, monkeypatch):
    # a commutation fault in the chart of fixed point 3: both of its samples
    # are named and their pair is not ranked, so the run fails (exit 1)
    # instead of stopping in the homology; the fixed-point checks pass
    real = koszul.chart
    details = _planted_failures(
        capsys,
        monkeypatch,
        koszul,
        "chart",
        lambda G, gg, cone: _exponent_plus_one(real(G, gg, cone)) if cone.owner == 3 else None,
    )
    assert details["chart_samples"] == {
        "checked": 7,
        "total": 7,
        "failures": [
            {"fixed_point": 3, "sample": s, "found": {"commutes": False}, "expected": {"commutes": True}}
            for s in (0, 1)
        ],
    }
    assert not details["koszul_pairs"]["failures"] and not details["fixed_point_betti"]["failures"]


def _largest_exponent_plus_one(table):
    """The chart table with its first largest exponent raised by 1."""
    largest = max(map(max, table.exponents))
    s, i = next((s, e.index(largest)) for s, e in enumerate(table.exponents) if largest in e)
    return _raised(table, s, i)


@pytest.mark.parametrize("spec", ["7:1,2,4", "13:1,3,9", "11:1,2,8"])
def test_a_raised_chart_exponent_is_named_at_every_fixed_point_and_seed(spec):
    # no sample coordinate has modulus 1, so no power of it hides the
    # raised exponent: the samples of that chart name it on every draw
    charts = get_charts(spec)
    for k in range(len(charts)):
        planted = list(charts)
        planted[k] = _largest_exponent_plus_one(charts[k])
        for seed in range(5):
            failures = verify._chart_samples_check(planted, seed)["details"]["failures"]
            assert failures and {f["fixed_point"] for f in failures} == {k}, (k, seed)


def test_chart_samples_are_distinct_integer_points(capsys):
    # 200 of the 1000 points force repeated draws, which are drawn again
    for seed in range(3):
        points = koszul.sample_chart_points(200, verify.seeded_rng(seed))
        assert len(set(points)) == len(points) == 200
        assert all(len(point) == 3 for point in points)
        assert all(type(x) is int and 2 <= abs(x) <= 6 for point in points for x in point)
        assert points == koszul.sample_chart_points(200, verify.seeded_rng(seed))
    code, out, _ = run(capsys, "verify", "--group", SPEC)
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["chart_samples"]["details"] == {"checked": 7, "total": 7, "failures": []}


def _misclassified(monkeypatch, capsys, fault):
    """verify on SPEC with classify's parameters passed through fault; the chart check's details."""
    real = ggraph.classify

    def planted(G, by_char, exponents):
        kind, params = real(G, by_char, exponents)
        return kind, fault(params)

    return _planted_failures(capsys, monkeypatch, ggraph, "classify", planted)["charts_smooth_crepant"]


def test_a_failed_count_identity_is_named(capsys, monkeypatch):
    # a + 1 changes the counting identity's value by b + c + e - 2 (kind A)
    # or b + c + e - 1 (kind B), never 0: every fixed point fails it, and
    # the chart determinant, which is that identity, names every one
    def a_plus_one(params):
        a, b, c, d, e, f = params
        return (a + 1, b, c, d, e, f)

    details = _misclassified(monkeypatch, capsys, a_plus_one)
    assert details["checked"] == details["total"] == 7
    assert [record["fixed_point"] for record in details["failures"]] == list(range(7))


def test_swapped_parameters_are_named_where_they_break_the_count_identity(capsys, monkeypatch):
    # swapping b and f changes the identity's value by (b - f)(a + c - d - e):
    # every fixed point where that is not 0 must be named
    def b_f_swapped(params):
        a, b, c, d, e, f = params
        return (a, f, c, d, e, b)

    broken = [
        k
        for k, gg in enumerate(get_fixed_points(SPEC))
        if count_identity_value(gg.kind, b_f_swapped(gg.params)) != 7
    ]
    assert broken
    details = _misclassified(monkeypatch, capsys, b_f_swapped)
    assert set(broken) <= {record["fixed_point"] for record in details["failures"]}


def _rescaled_arrow(rep):
    """x from line 0 doubled: from line 0, x then y and y then x no longer agree."""
    x, y, z = rep.coeffs
    return replace(rep, coeffs=([2 * x[0], *x[1:]], y, z))


def _cut_socle_line(rep):
    """Every arrow into the line of the socle monomial yz set to 0.

    No arrow leaves a socle line at a fixed point, so the B's still commute,
    but the cyclic span misses that line.
    """
    line = rep.group.char_index((0, 1, 1))
    coeffs = tuple(
        [0 if target == line else v for v, target in zip(cs, shift)]
        for cs, shift in zip(rep.coeffs, rep.group.arrows)
    )
    return replace(rep, coeffs=coeffs)


def _plant_fixed_point_module(monkeypatch, fault):
    """koszul.build_rep, but with fault applied to the module of fixed point PLANTED_AT."""
    target = koszul.build_rep(get_charts(SPEC)[PLANTED_AT], (0, 0, 0))
    real = koszul.build_rep

    def planted(chart, coords):
        rep = real(chart, coords)
        return fault(rep) if rep == target else rep

    monkeypatch.setattr(koszul, "build_rep", planted)


def test_a_faulty_fixed_point_module_is_stopped(capsys, monkeypatch):
    # the module of fixed point 2 (staircase 1, x, y, z, xy, xz, yz) built
    # wrong: homology refuses a module whose B's do not commute, and the
    # Betti check catches one whose cyclic span misses a line
    argv = ["verify", "--group", SPEC]
    _plant_fixed_point_module(monkeypatch, _rescaled_arrow)
    assert console_main(argv) == 3
    assert json.loads(capsys.readouterr().out)["error"]["layer"] == "koszul._require_commuting"

    monkeypatch.undo()
    _plant_fixed_point_module(monkeypatch, _cut_socle_line)
    assert console_main(argv) == 1
    checks = {c["name"]: c["details"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["fixed_point_betti"]["failures"] == [
        {"fixed_point": PLANTED_AT, "found": [3, 8, 7, 2], "expected": [3, 6, 4, 1]}
    ]
