"""The census (_census.py): its counts and specs, the report on every group up to order 16, and
the benchmark's groups among its classes."""

import sys
from collections import Counter
from pathlib import Path
from types import ModuleType

import pytest

from _census import classes, key, specs
from conftest import get_group
from ghilb.verify import verification_report

WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads.py"


def test_census_counts_and_specs():
    per_order = Counter(c.order for c in classes(40))
    assert [per_order[n] for n in range(2, 11)] == [1, 2, 3, 2, 3, 3, 5, 4, 4]
    assert [len(classes(n)) for n in (16, 24, 40)] == [62, 124, 304]
    # the SL2 group of each order 2-40, with its trivial axis on x, y and z
    assert sum(len(c.specs) == 3 for c in classes(40)) == 39
    assert [len(specs(n)) for n in (16, 40)] == [92, 382]
    # the package's closure of each spec is the census's own lattice
    for c in classes(40):
        for spec in c.specs:
            G = get_group(spec)
            assert (G.order, G.R, key(G.elements)) == (c.order, c.R, c.key), spec


@pytest.mark.parametrize("spec", specs(16))
def test_census_group_passes_every_check(spec):
    report = verification_report(get_group(spec), seed=0)
    assert report["pass"] is True
    assert {c["status"] for c in report["checks"]} == {"ok"}, report["checks"]


def test_benchmark_groups_are_census_classes(monkeypatch):
    # perfbench/workloads.py is read, not imported, so that nothing is written beside it
    workloads = ModuleType("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), workloads.__dict__)
    groups = {
        spec.text: get_group(spec.text)
        for name in workloads.WORKLOADS
        for seed in range(10)
        for spec in workloads.generate(name, seed)
    }
    census = {(c.R, c.key) for c in classes(max(G.order for G in groups.values()))}
    for text, G in groups.items():
        assert (G.R, key(G.elements)) in census, text
