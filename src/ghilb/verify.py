"""One-shot verification suite for a single group.

Runs enumeration against the brute-force oracle, classification and counting
identities, the toric smoothness/crepancy/fan checks, the Hom matrix, and
exact homology over all fixed-point pairs plus seeded chart samples.  The
wedge complex of each fixed-point module must have the Betti table of the
enumerated ideal as its homology (fixed_point_betti).  Each chart sample is
checked for the ADHM-style relations and, through koszul.support_check,
support on one free orbit (the per-fixed-point "support" count); a pair of
samples from one chart must have an exact pair complex (same_chart_h).
The oracle, Betti, pair and sample checks carry "checked"/"total" counts.
Every check carries a "status" of ok, fail, skip or empty; a check that did
no work is "empty" or "skip", never "ok", and "pass" still says only
whether it failed.  The JSON report is the source of truth; the
human-readable rendering is derived from it.  For a fixed seed the report
is byte-identical across runs.
"""

from __future__ import annotations

import random

from . import ggraph, homcalc, koszul, mckay, toric
from .groups import AbelianGroup

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


def verification_report(
    G: AbelianGroup,
    *,
    oracle_cap: int,
    samples: int,
    seed: int,
    max_pairs: int | None,
) -> dict:
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

    if G.order <= oracle_cap:
        agree, found = ggraph.oracle_agreement(G, fps, oracle_cap)
        checks.append(
            {
                "name": "oracle_agreement",
                "pass": agree,
                "details": {
                    "enumerated": len(fps),
                    "oracle": found,
                    "checked": len(fps),
                    "total": len(fps),
                },
            }
        )
    else:
        checks.append(
            {
                "name": "oracle_agreement",
                "pass": True,
                "skipped": f"group order {G.order} above oracle cap {oracle_cap}",
                "details": {"checked": 0, "total": len(fps)},
            }
        )

    bad_counts = [k for k, gg in enumerate(fps) if not ggraph.verify_count_identity(gg)]
    checks.append(
        {
            "name": "count_identity",
            "pass": not bad_counts,
            "details": {"failing_fixed_points": bad_counts},
        }
    )

    layers = toric.layers(G, fps)
    checks.append(
        {
            "name": "charts_smooth_crepant",
            "pass": not layers.cone_errors,
            "details": {
                "errors": [{"fixed_point": k, "error": e} for k, e in layers.cone_errors.items()],
                "cones": len(layers.cones),
            },
        }
    )

    fan_json = None if layers.fan is None else layers.fan.to_json()
    if layers.cone_errors:
        fan_details = {"error": "charts failed; fan not assembled"}
    elif layers.fan_error is not None:
        fan_details = {"error": str(layers.fan_error), **layers.fan_error.details}
    else:
        fan_details = fan_json
    checks.append({"name": "fan", "pass": fan_json is not None, "details": fan_details})

    hom = homcalc.hom_matrix(G, fps)
    hom_expected = [
        [HOM_DIAGONAL if i == j else HOM_OFF_DIAGONAL for j in range(len(fps))]
        for i in range(len(fps))
    ]
    checks.append(
        {
            "name": "hom_matrix",
            "pass": hom == hom_expected,
            "details": {"matrix": hom},
        }
    )

    a0, a1, a2, a3 = mckay.mckay_matrices(G)
    n = G.order
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    tensor_ok = (
        a0 == ident
        and a3 == ident
        and a2 == [[a1[l][k] for l in range(n)] for k in range(n)]
        and all(sum(row) == 3 for row in a1)
        and all(sum(col) == 3 for col in zip(*a1))
    )
    checks.append({"name": "tensor_matrices", "pass": tensor_ok, "details": {}})

    charts = reps = None
    if not layers.cone_errors:
        charts = [koszul.chart(G, gg, cone) for gg, cone in zip(fps, layers.cones)]
        reps = [koszul.build_rep(chart, (0, 0, 0)) for chart in charts]
    checks.append(_koszul_pairs_check(G, reps, seed, max_pairs))
    checks.append(_fixed_point_betti_check(G, fps, reps))
    checks.append(_chart_samples_check(G, charts, reps, samples, seed))
    for check in checks:
        check["status"] = _status(check)

    report["fixed_points"] = [gg.to_json() for gg in fps]
    if fan_json is not None:
        report["fan"] = fan_json
    report["pass"] = all(c["pass"] for c in checks)
    return report


def _status(check: dict) -> str:
    """fail, skip, empty or ok; a check that did no work is never ok."""
    if not check["pass"]:
        return "fail"
    if check.get("skipped"):
        return "skip"
    if check["details"].get("checked") == 0:
        return "empty"
    return "ok"


def _koszul_pairs_check(G, reps, seed, max_pairs) -> dict:
    if reps is None:
        return {
            "name": "koszul_pairs",
            "pass": False,
            "details": {"error": "charts failed; homology not computed"},
        }
    ordered = [(i, j) for i in range(len(reps)) for j in range(len(reps))]
    if max_pairs is not None and len(ordered) > max_pairs:
        rng = seeded_rng(seed, 101)
        ordered = sorted(rng.sample(ordered, max_pairs))
    pair_reports = []
    ok = True
    for i, j in ordered:
        h = koszul.koszul_homology(G, reps[i], reps[j])
        expected = KOSZUL_EQUAL if i == j else KOSZUL_DISTINCT
        rep = koszul.pair_report(i, j, h, expected)
        pair_reports.append(rep)
        ok = ok and rep["pass"]
    return {
        "name": "koszul_pairs",
        "pass": ok,
        "details": {
            "pairs": pair_reports,
            "checked": len(ordered),
            "total": len(reps) ** 2,
        },
    }


def betti_table(gg: ggraph.GGraph) -> tuple[int, int, int, int]:
    """(socle, beta2, beta1, 1): the Betti numbers of O/I read off the staircase.

    The socle counts the staircase monomials m with xm, ym and zm all outside
    it, beta1 is the number of minimal generators, and the alternating sum of
    the Betti numbers of a finite-length quotient vanishes.
    """
    staircase = set(gg.gamma)
    socle = sum(
        1
        for m in gg.gamma
        if not any(ggraph.mono_mul(m, step) in staircase for step in mckay.COORD_EXPONENTS)
    )
    beta1 = len(gg.ideal.gens)
    return (socle, beta1 + socle - 1, beta1, 1)


def _fixed_point_betti_check(G, fps, reps) -> dict:
    """The wedge complex of each fixed-point module against its ideal's Betti table.

    At a fixed point that complex is the Koszul complex of O/I, so its
    homology is the Betti table; the modules are read off the chart cones
    and the tables off the enumerated ideals.
    """
    if reps is None:
        return {
            "name": "fixed_point_betti",
            "pass": False,
            "details": {"error": "charts failed; Betti tables not computed"},
        }
    failures = []
    for k, (gg, rep) in enumerate(zip(fps, reps)):
        h, expected = koszul.cpxnil_homology(rep), betti_table(gg)
        if h != expected:
            failures.append({"fixed_point": k, "h": list(h), "expected": list(expected)})
    return {
        "name": "fixed_point_betti",
        "pass": not failures,
        "details": {"failures": failures, "checked": len(reps), "total": G.order},
    }


def _chart_samples_check(G, charts, fixed_reps, samples, seed) -> dict:
    if fixed_reps is None:
        return {
            "name": "chart_samples",
            "pass": False,
            "details": {"error": "charts failed; samples not computed"},
        }
    ok = True
    details = []
    checked = 0
    for k, (fixed_rep, chart) in enumerate(zip(fixed_reps, charts)):
        rng = seeded_rng(seed, k)
        points = koszul.sample_chart_points(samples, rng)
        entry = {
            "fixed_point": k,
            "adhm_pass": 0,
            "support": 0,
            "same_chart_h": None,
        }
        if not koszul.verify_adhm(fixed_rep):
            ok = False
            entry["fixed_point_adhm"] = False
        reps = []
        for coords in points:
            checked += 1
            rep = koszul.build_rep(chart, coords)
            reps.append(rep)
            if koszul.verify_adhm(rep):
                entry["adhm_pass"] += 1
            else:
                ok = False
            if koszul.support_check(G, rep):
                entry["support"] += 1
            else:
                ok = False
        if len(reps) >= 2 and reps[0].coords != reps[1].coords:
            h = koszul.koszul_homology(G, reps[0], reps[1])
            entry["same_chart_h"] = list(h)
            if h != KOSZUL_DISTINCT:
                ok = False
        details.append(entry)
    return {
        "name": "chart_samples",
        "pass": ok,
        "details": {
            "per_fixed_point": details,
            "checked": checked,
            "total": samples * len(fixed_reps),
        },
    }


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
