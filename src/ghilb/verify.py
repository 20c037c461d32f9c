"""One-shot verification suite for a single group.

The report holds eight checks, in this order: fixed_point_count,
oracle_agreement (the enumeration against the brute-force oracle, which
ggraph.oracle_agreement runs only up to ggraph.ORACLE_CAP and skips
above it), charts_smooth_crepant, fan, hom_matrix, koszul_pairs (exact
homology over the fixed-point pairs), fixed_point_betti and chart_samples.
The counting identity of each fixed point is the signed determinant check
of its chart cone (toric.chart_cone), so charts_smooth_crepant names a
fixed point that fails it.  Of the pairs (i, j) and (j, i), only (i, j)
with i <= j is ranked: Serre duality makes (j, i)'s homology the reversed
tuple, and it is reported and counted in checked as a pair of its own
(_koszul_pairs_check).
The wedge complex of each fixed-point module must have the Betti table of
the enumerated ideal as its homology (fixed_point_betti).  Each chart
draws one pair of distinct integer sample points, whose pair complex must
be exact (chart_samples).
What holds by construction is not checked: the identities of the wedge
matrices (tests/test_mckay.py pins them), and the ADHM relations and
support on one free orbit of the modules at fixed and sample points
(_chart_samples_check).

The five checks over many objects (charts_smooth_crepant, hom_matrix,
koszul_pairs, fixed_point_betti, chart_samples) share one details form,
{"checked", "total", "failures"}: how many objects were checked out of how
many, and one record per failing object only.  A record names its object
(fixed_point k, pair [i, j], and for a chart sample also sample s, or
[0, 1] for the pair of samples) with the value "found" and the value
"expected", or for a chart with the "error" that rejected its cone or its
table.  The number of fixed points is written
once, as the count of fixed_point_count; oracle_agreement's details are
{"oracle": the number the oracle found}, or {} when it is skipped above
the cap.

Every check carries a "status" of ok, fail, skip or empty; a check that did
no work is "empty" or "skip", never "ok", and "pass" still says only
whether it failed.  The JSON report is the source of truth; the
human-readable rendering is derived from it.  For a fixed seed the report
is byte-identical across runs.
"""

from __future__ import annotations

import random

from . import ggraph, homcalc, koszul, toric
from .groups import COORD_EXPONENTS, AbelianGroup

HOM_DIAGONAL = 3
HOM_OFF_DIAGONAL = 1
KOSZUL_EQUAL = (1, 3, 3, 1)
KOSZUL_DISTINCT = (0, 0, 0, 0)


def seeded_rng(*parts: int) -> random.Random:
    """Deterministic RNG from a sequence of integers, stable across platforms."""
    value = 0
    for part in parts:
        value = value * 1000003 + part + 1
    return random.Random(value)


def verification_report(G: AbelianGroup, *, seed: int) -> dict:
    checks: list[dict] = []
    report = {
        "group": {
            "order": G.order,
            "exponent": G.R,
            "elements": [list(g) for g in G.elements],
            "junior_elements": [list(g) for g in G.junior_elements()],
        },
        "seed": seed,
        "checks": checks,
    }

    fps = ggraph.enumerate_fixed_points(G)
    checks.append(
        {
            "name": "fixed_point_count",
            "pass": len(fps) == G.order,
            "details": {"count": len(fps), "expected": G.order},
        }
    )

    agreement = ggraph.oracle_agreement(G, fps)
    if agreement is None:
        skipped = f"group order {G.order} above the oracle cap"
        checks.append({"name": "oracle_agreement", "pass": True, "skipped": skipped, "details": {}})
    else:
        agree, found = agreement
        checks.append({"name": "oracle_agreement", "pass": agree, "details": {"oracle": found}})

    layers = toric.layers(G, fps)
    errors = dict(layers.cone_errors)
    charts = {}
    for cone in layers.cones:
        try:
            charts[cone.owner] = koszul.chart(G, fps[cone.owner], cone)
        except toric.ChartError as exc:
            errors[cone.owner] = str(exc)
    failures = [{"fixed_point": k, "error": errors[k]} for k in sorted(errors)]
    checks.append(_per_object("charts_smooth_crepant", len(fps), len(fps), failures))

    if layers.cone_errors:
        checks.append(_charts_failed("fan", "fan not assembled"))
    else:
        error = layers.fan_error
        details = {} if error is None else {"error": str(error), **error.details}
        checks.append({"name": "fan", "pass": error is None, "details": details})

    hom = homcalc.hom_matrix(G, fps)
    failures = []
    for i, row in enumerate(hom):
        for j, dim in enumerate(row):
            expected = HOM_DIAGONAL if i == j else HOM_OFF_DIAGONAL
            _compare(failures, dim, expected, pair=[i, j])
    checks.append(_per_object("hom_matrix", len(fps) ** 2, len(fps) ** 2, failures))

    if errors:
        charts = reps = None
    else:
        charts = [charts[k] for k in range(len(fps))]
        reps = [koszul.build_rep(chart, (0, 0, 0)) for chart in charts]
    checks.append(_koszul_pairs_check(G, reps))
    checks.append(_fixed_point_betti_check(fps, reps))
    checks.append(_chart_samples_check(charts, seed))
    for check in checks:
        check["status"] = _status(check)

    report["fixed_points"] = [gg.to_json() for gg in fps]
    if layers.fan is not None:
        report["fan"] = layers.fan.to_json()
    report["pass"] = all(c["pass"] for c in checks)
    return report


def _per_object(name: str, checked: int, total: int, failures: list[dict]) -> dict:
    """A check over many objects: how many were checked, and only those that failed."""
    return {
        "name": name,
        "pass": not failures,
        "details": {"checked": checked, "total": total, "failures": failures},
    }


def _compare(failures: list[dict], found, expected, **obj) -> None:
    """Record a failure naming its object when found differs from expected."""
    if found != expected:
        failures.append({**obj, "found": found, "expected": expected})


def _charts_failed(name: str, what: str) -> dict:
    return {"name": name, "pass": False, "details": {"error": f"charts failed; {what}"}}


def _status(check: dict) -> str:
    """fail, skip, empty or ok; a check that did no work is never ok."""
    if not check["pass"]:
        return "fail"
    if check.get("skipped"):
        return "skip"
    if check["details"].get("checked") == 0:
        return "empty"
    return "ok"


def _koszul_pairs_check(G, reps) -> dict:
    """Homology of all |G|^2 ordered fixed-point pairs.

    By Serre duality the (j, i) complex is the signed transpose of the
    (i, j) complex (Lambda^k V* is Lambda^(3-k) V, det being trivial on G
    in SL3), so h(j, i) is h(i, j) reversed: (i, j) with i <= j is ranked,
    and (j, i) is read as its reverse.  Both count in checked, and each
    fails as its own object.
    """
    if reps is None:
        return _charts_failed("koszul_pairs", "homology not computed")
    failures: list[dict] = []
    for i in range(len(reps)):
        for j in range(i, len(reps)):
            h = list(koszul.koszul_homology(G, reps[i], reps[j]))
            expected = list(KOSZUL_EQUAL if i == j else KOSZUL_DISTINCT)
            _compare(failures, h, expected, pair=[i, j])
            if i != j:
                _compare(failures, h[::-1], expected, pair=[j, i])
    failures.sort(key=lambda record: record["pair"])
    return _per_object("koszul_pairs", len(reps) ** 2, len(reps) ** 2, failures)


def betti_table(gg: ggraph.GGraph) -> tuple[int, int, int, int]:
    """(socle, beta2, beta1, 1): the Betti numbers of O/I read off the staircase.

    The socle counts the staircase monomials m with xm, ym and zm all in the
    ideal, beta1 is the number of minimal generators, and the alternating sum
    of the Betti numbers of a finite-length quotient vanishes.
    """
    socle = sum(
        1
        for m in gg.gamma
        if all(gg.ideal.contains(ggraph.mono_mul(m, step)) for step in COORD_EXPONENTS)
    )
    beta1 = len(gg.ideal.gens)
    return (socle, beta1 + socle - 1, beta1, 1)


def _fixed_point_betti_check(fps, reps) -> dict:
    """The wedge complex of each fixed-point module against its ideal's Betti table.

    At a fixed point that complex is the Koszul complex of O/I, so its
    homology is the Betti table; the modules are read off the chart cones
    and the tables off the enumerated ideals.
    """
    if reps is None:
        return _charts_failed("fixed_point_betti", "Betti tables not computed")
    failures: list[dict] = []
    for k, (gg, rep) in enumerate(zip(fps, reps)):
        _compare(failures, list(koszul.cpxnil_homology(rep)), list(betti_table(gg)), fixed_point=k)
    return _per_object("fixed_point_betti", len(fps), len(fps), failures)


def _chart_samples_check(charts, seed) -> dict:
    """One seeded pair of sample points per chart, whose pair complex must be exact.

    The ADHM relations and, at nonzero coordinates, support on one free
    G-orbit hold by construction at fixed and sample points alike: a
    chart's arrow exponents add along paths, so x_alpha x_beta and x_beta
    x_alpha give one coefficient and every cycle product is a monomial in
    the coordinates.  A fixed-point module built wrong anyway is refused by
    the homology or fails fixed_point_betti.  A sample module whose B's do
    not commute is a failure naming its sample, and its pair is not ranked.
    The two points of a pair are distinct (koszul.sample_chart_points), so
    every chart is checked.
    """
    if charts is None:
        return _charts_failed("chart_samples", "samples not computed")
    failures: list[dict] = []
    for k, chart in enumerate(charts):
        points = koszul.sample_chart_points(2, seeded_rng(seed, k))
        reps = [koszul.build_rep(chart, coords) for coords in points]
        for s, rep in enumerate(reps):
            _compare(failures, {"commutes": rep.commutes}, {"commutes": True}, fixed_point=k, sample=s)
        if all(rep.commutes for rep in reps):
            h = koszul.koszul_homology(chart.group, reps[0], reps[1])
            _compare(failures, list(h), list(KOSZUL_DISTINCT), fixed_point=k, sample=[0, 1])
    return _per_object("chart_samples", len(charts), len(charts), failures)


def render_report(report: dict) -> str:
    """Human-readable rendering of the JSON report."""
    lines = [
        f"group of order {report['group']['order']} "
        f"(exponent {report['group']['exponent']}), seed {report['seed']}"
    ]
    for check in report["checks"]:
        details = check["details"]
        counts = f" ({details['checked']}/{details['total']})" if "checked" in details else ""
        note = f" [skipped: {check['skipped']}]" if check.get("skipped") else ""
        lines.append(f"  {check['status']:<5} {check['name']}{counts}{note}")
        if not check["pass"]:
            lines.append(f"       {check['details']}")
    lines.append("PASS" if report["pass"] else "FAIL")
    return "\n".join(lines)


def first_failure(report: dict) -> str | None:
    for check in report["checks"]:
        if not check["pass"]:
            return check["name"]
    return None
