"""Command-line front end.

Subcommands: group, quiver, fixed-points, fan, verify.  All outputs are
UTF-8 JSON on stdout (plus optional files), except the quiver DOT source
which can be written separately.  Exit codes: 0 success, 1 verification
failure, 2 input error (a bad group spec or option, or an output path that
cannot be written), 3 internal fault (any other exception, reported as a
JSON record {"error": {"type", "message", "layer"}}, where layer names the
innermost function of the traceback that lies in this package, as
module.function, e.g. "toric.chart_cone").

Each subcommand's parser registers the options it takes, with their
defaults, and refuses any other; a command reads the parsed options.
fixed-points and verify run the brute-force oracle up to the fixed group
order ggraph.ORACLE_CAP, which ggraph.oracle_agreement alone compares with.

``main`` is the in-process entry: it returns 0, 1 or 2 and lets an internal
fault propagate, so a caller that embeds the CLI sees the exception itself.
``console_main`` is the process entry (the ``ghilb`` script and ``python -m
ghilb.cli``); it turns such a fault into exit 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from . import ggraph, mckay, toric, verify
from .groups import AbelianGroup, GroupSpec, GroupSpecError


def _group(options: argparse.Namespace) -> AbelianGroup:
    return AbelianGroup(GroupSpec.parse(options.group))


def cmd_group(options: argparse.Namespace) -> tuple[int, dict]:
    G = _group(options)
    payload = {
        "order": G.order,
        "exponent": G.R,
        "elements": [list(g) for g in G.elements],
        "characters": [
            {"index": k, "exponent": list(G.char_exponents[k]), "fingerprint": list(fp)}
            for k, fp in enumerate(G.characters)
        ],
        "ages": {str(list(g)): str(G.age(g)) for g in G.elements},
        "junior_elements": [list(g) for g in G.junior_elements()],
    }
    return 0, payload


def cmd_quiver(options: argparse.Namespace) -> tuple[int, dict]:
    G = _group(options)
    matrices = mckay.mckay_matrices(G)
    payload = {
        "matrices": dict(zip(("a0", "a1", "a2", "a3"), matrices)),
        "intersection": mckay.intersection_matrix(matrices),
        "dot": mckay.quiver_dot(G, matrices),
    }
    return 0, payload


def cmd_fixed_points(options: argparse.Namespace) -> tuple[int, dict]:
    G = _group(options)
    fps = ggraph.enumerate_fixed_points(G)
    payload = {
        "count": len(fps),
        "fixed_points": [gg.to_json() for gg in fps],
    }
    agreement = ggraph.oracle_agreement(G, fps)
    if agreement is None:
        return 0, payload
    agree, _ = agreement
    payload["oracle_agreement"] = agree
    return int(not agree), payload


def cmd_fan(options: argparse.Namespace) -> tuple[int, dict]:
    G = _group(options)
    fps = ggraph.enumerate_fixed_points(G)
    layers = toric.layers(G, fps)
    charts = [{"fixed_point": k, "smooth": True, "crepant": True} for k in range(len(fps))]
    for k, error in layers.cone_errors.items():
        charts[k] = {"fixed_point": k, "smooth": False, "error": error}
    payload: dict = {"charts": charts}
    if layers.fan is not None:
        payload.update(layers.fan.to_json())
    if layers.fan_error is not None:
        payload["fan_error"] = {"message": str(layers.fan_error), **layers.fan_error.details}
    return int(layers.fan is None), payload


def cmd_verify(options: argparse.Namespace) -> tuple[int, dict]:
    G = _group(options)
    report = verify.verification_report(G, seed=options.seed)
    print(verify.render_report(report), file=sys.stderr)
    code = 0 if report["pass"] else 1
    if code:
        failing = verify.first_failure(report)
        print(f"first failing check: {failing}", file=sys.stderr)
    return code, report


COMMANDS = {
    "group": cmd_group,
    "quiver": cmd_quiver,
    "fixed-points": cmd_fixed_points,
    "fan": cmd_fan,
    "verify": cmd_verify,
}


@cache  # built on first use, so importing this module stays cheap
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghilb",
        description=(
            "Exact fixed points, McKay quiver, and crepant toric resolution "
            "data for a finite abelian subgroup of SL3 given by diagonal "
            "generators, e.g. '7:1,2,4' or '2:1,1,0;2:1,0,1'."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("group", "elements, characters, ages, junior elements"),
        ("quiver", "tensor matrices and DOT quiver"),
        ("fixed-points", "enumerate and classify the torus-fixed ideals"),
        ("fan", "chart cones and the glued fan with smooth/crepant flags"),
        ("verify", "run the full verification suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--group", required=True, help="generator spec r:w1,w2,w3[;...]")
        p.add_argument("--out", help="write the JSON payload to this path")
        p.add_argument("--seed", type=int, default=0)
        if name == "quiver":
            p.add_argument("--dot", help="also write the DOT source here")
    return parser


def _input_error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def main(argv: list[str] | None = None) -> int:
    options = build_parser().parse_args(argv)
    try:
        code, payload = COMMANDS[options.command](options)
    except GroupSpecError as exc:
        return _input_error(exc)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    dot = getattr(options, "dot", None)  # only quiver takes --dot
    try:
        if dot:
            _write(dot, payload["dot"] + "\n")
        if options.out:
            _write(options.out, text)
    except OSError as exc:
        return _input_error(exc)
    if not options.out:
        sys.stdout.write(text)
    return code


PACKAGE_DIR = Path(__file__).resolve().parent


def fault_layer(exc: BaseException) -> str | None:
    """module.function of the innermost traceback frame in this package, or None.

    Frames are matched by their source file, so the answer is the same when
    this module runs as ``__main__``.
    """
    layer = None
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        path = Path(code.co_filename)
        if path.resolve().parent == PACKAGE_DIR:
            layer = f"{path.stem}.{code.co_name}"
        tb = tb.tb_next
    return layer


def console_main(argv: list[str] | None = None) -> int:
    """``main`` with an internal fault reported as exit 3 and a JSON record."""
    try:
        return main(argv)
    except Exception as exc:  # the input was valid, so the fault is ours
        record = {
            "error": {"type": type(exc).__name__, "message": str(exc), "layer": fault_layer(exc)}
        }
        sys.stdout.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(console_main())
