"""Benchmark of the ghilb pipeline on seeded group specs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-samples --seed 1 --seconds 55 --trace 0

The workload's specs are drawn from the seed (see workloads.py) and run
through ``ghilb.cli.main`` in this process, one operation at a time, in
passes over the whole spec list.  Passes repeat until the next one would end
after ``--seconds``; there are always at least two, so that every operation
is repeated and its JSON can be compared byte for byte.

With ``--trace 0`` the last line of stdout is a JSON result with the
end-to-end metrics; ``wall_s`` and ``cpu_s`` sum each operation's median
time across passes.  With ``--trace 1`` untraced and traced passes alternate
and the result carries the per-layer metrics instead.  The lines before it
are a readable summary.  Spans of traced passes are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_STARTS = 11
MODULES = ("__init__", "cli", "ggraph", "groups", "homcalc", "koszul", "linalg", "mckay", "toric", "verify")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "koszul.homology_s": "s",
    "koszul.homology_calls": "count",
    "linalg.rank_s": "s",
    "linalg.rank_calls": "count",
    "linalg.rank_cells": "count",
    "linalg.rank_nonzero_ratio": "ratio",
    "koszul.orbit_s": "s",
    "koszul.orbit_calls": "count",
    "koszul.orbit_decisive_ratio": "ratio",
    "linalg.charpoly_s": "s",
    "koszul.cpxnil_s": "s",
    "koszul.adhm_s": "s",
    "koszul.build_rep_s": "s",
    "ggraph.enumerate_s": "s",
    "ggraph.fixed_points": "count",
    "groups.build_s": "s",
    "groups.calls": "count",
    "toric.lattices_s": "s",
    "linalg.hnf_s": "s",
    "ggraph.oracle_s": "s",
    "ggraph.oracle_calls": "count",
    "toric.chart_cone_s": "s",
    "toric.build_fan_s": "s",
    "toric.cones": "count",
    "linalg.det_s": "s",
    "homcalc.hom_matrix_s": "s",
    "homcalc.hom_dim_calls": "count",
    "mckay.matrices_s": "s",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    **{f"src.lines.{name}": "lines" for name in MODULES},
    "src.lines.total": "lines",
}

# Per-layer ratios, as (numerator counter, denominator counter).
RATIOS = {
    "linalg.rank_nonzero_ratio": ("linalg.rank_nonzero", "linalg.rank_cells"),
    "koszul.orbit_decisive_ratio": ("koszul.orbit_pass", "koszul.orbit_calls"),
}


def load_program():
    """Import ghilb from this checkout's sources, never from an installed copy."""
    if not (SRC / "ghilb" / "__init__.py").is_file():
        raise SystemExit(f"error: no ghilb sources under {SRC}; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ghilb.cli

    if Path(ghilb.cli.__file__).resolve().parent != SRC / "ghilb":
        raise SystemExit(f"error: imported ghilb from {ghilb.cli.__file__}, not from {SRC}")
    return ghilb.cli


def setup_seconds() -> float:
    """Median time for a fresh interpreter to finish ``import ghilb.cli``.

    One start is made first and discarded, so that compiled bytecode exists
    as it does for a user's second and later runs.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import ghilb.cli"],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def run_operation(cli, argv: list[str]) -> tuple[int | None, str]:
    """Run one CLI operation in process; returns (exit code, stdout).

    An exception escaping the CLI is reported and returned as exit code None,
    so that it counts as a failed operation instead of ending the run.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        return None, traceback.format_exc()
    return code, out.getvalue()


class Run:
    """The passes of one benchmark run and the failures they found."""

    def __init__(self, cli, workload: str, seed: int, specs: list) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.specs = specs
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self) -> list[tuple[float, float]]:
        """Run every spec once; returns the (wall, CPU) seconds of each operation."""
        gc.collect()
        results, times = [], []
        for spec in self.specs:
            argv = workloads.argv(self.workload, spec, self.seed)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            results.append(run_operation(self.cli, argv))
            times.append((time.perf_counter() - wall0, time.process_time() - cpu0))
        for spec, (code, text) in zip(self.specs, results):
            self.attempted += 1
            problem = workloads.check_output(self.workload, spec, code, text)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if problem is None and self.digests.setdefault(spec.text, digest) != digest:
                problem = "JSON differs from an earlier run of the same spec and seed"
            if problem is not None:
                self.failures.append(f"{spec.text}: {problem}")
        return times


def median_pass(passes: list[list[tuple[float, float]]], column: int) -> float:
    """Sum over the operations of each one's median time across passes (0 wall, 1 CPU)."""
    return sum(statistics.median(p[i][column] for p in passes) for i in range(len(passes[0])))


def source_lines() -> dict[str, int]:
    package = SRC / "ghilb"
    lines = {}
    for name in MODULES:
        path = package / f"{name}.py"
        lines[f"src.lines.{name}"] = len(path.read_text().splitlines()) if path.is_file() else 0
    lines["src.lines.total"] = sum(len(p.read_text().splitlines()) for p in package.rglob("*.py"))
    return lines


def layer_metrics(tracer: tracing.Tracer, passes: int, overhead: float) -> dict[str, float]:
    """Per-layer values per traced pass, keyed as in PER_LAYER."""
    values: dict[str, float] = {}
    self_times = tracer.self_times()
    for name, unit in PER_LAYER.items():
        if name in RATIOS:
            num, den = RATIOS[name]
            values[name] = tracer.counts[num] / tracer.counts[den] if tracer.counts[den] else 0.0
        elif unit == "s":
            values[name] = self_times.get(name, 0.0) / passes
        elif unit == "count":
            values[name] = tracer.counts[name] / passes
    values["trace.overhead_s"] = overhead
    values.update(source_lines())
    return values


def measure(cli, workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, list[float], dict]:
    """Run passes for about ``seconds``; returns the run, the wall time of each pass and the metrics."""
    specs = workloads.generate(workload, seed)
    setup = None if trace else setup_seconds()
    run = Run(cli, workload, seed, specs)
    tracer = tracing.Tracer()
    passes: dict[bool, list] = {False: [], True: []}
    pass_walls: list[float] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes[False]) > len(passes[True])
        if traced:
            tracer.install()
        try:
            times = run.run_pass()
        finally:
            tracer.uninstall()
        passes[traced].append(times)
        pass_walls.append(sum(w for w, _ in times))
        if len(pass_walls) >= 2 and time.perf_counter() - start + pass_walls[-1] > seconds:
            break

    wall = median_pass(passes[False], 0)
    if trace:
        values = layer_metrics(tracer, len(passes[True]), median_pass(passes[True], 0) - wall)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.json")
    else:
        values = {
            "setup_s": setup,
            "wall_s": wall,
            "cpu_s": median_pass(passes[False], 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    return run, pass_walls, {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    run, pass_walls, metrics = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    failed = len(run.failures)
    for failure in run.failures[:10]:
        print(f"failed: {failure}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(pass_walls)} passes over {', '.join(spec.text for spec in run.specs)}")
    print(f"  {'pass wall times':30} {' '.join(f'{w:.3f}' for w in pass_walls)} s")
    for name, metric in metrics.items():
        print(f"  {name:30} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'fail_ratio':30} {failed / run.attempted:>14.6g} ratio ({failed} of {run.attempted} operations failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
