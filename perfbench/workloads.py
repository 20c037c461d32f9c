"""Seeded workloads: which group specs each workload runs, and how its outputs are checked.

A workload is a fixed list of slots.  Each slot fixes the shape of one spec
(cyclic, non-isolated cyclic or two-generator) and its group order; the
seed draws the weights.  Fixing the orders keeps the work of one pass
nearly the same from seed to seed, so that the spread between seeds stays
well inside the metric bounds, while the weights, and with them the
staircases, charts and matrices, change with the seed.

The benchmark computes group orders and junior elements itself, by closure
of the generators, so that the checks do not trust the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import lcm

# Each slot is (shape, group order, generator orders for two-generator slots).
# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: dict[str, dict] = {
    "verify-samples": {
        # The orbit check's cost per chart sample has a heavy tail (a divisor
        # search) that thins out as the order grows, hence orders 11 and 13.
        # The 3x3 group is the only one of its order and shape, and the
        # order-6 zero-weight slot is 6:1,5,0 up to a permutation.
        "command": ["verify"],
        "orders": (5, 13),
        "slots": [
            ("cyclic", 13, None),
            ("cyclic", 11, None),
            ("two-generator", 9, (3, 3)),
            ("non-isolated", 6, None),
        ],
    },
    "fan-large": {
        "command": ["fan"],
        "orders": (25, 41),
        "slots": [
            ("cyclic", 29, None),
            ("cyclic", 31, None),
            ("cyclic", 33, None),
            ("cyclic", 37, None),
            ("two-generator", 36, (6, 6)),
        ],
    },
}

MAX_DRAWS = 10_000


class SpecError(ValueError):
    """A workload slot for which no valid spec can be drawn."""


@dataclass(frozen=True)
class Spec:
    """One generated group spec, with the facts the output checks need."""

    text: str
    order: int
    junior: int


def closure(gens: list[tuple[int, tuple[int, int, int]]]) -> tuple[int, set]:
    """Exponent R and the elements, as weight triples mod R, of the group generated."""
    R = lcm(*(r for r, _ in gens))
    scaled = [tuple(w * (R // r) % R for w in ws) for r, ws in gens]
    elems = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    while frontier:
        cur = frontier.pop()
        for g in scaled:
            nxt = tuple((c + w) % R for c, w in zip(cur, g))
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    return R, elems


def spec_text(gens) -> str:
    return ";".join(f"{r}:{a},{b},{c}" for r, (a, b, c) in gens)


def _sl3_weights(rng: random.Random, r: int, zero_ok: bool) -> tuple[int, int, int]:
    a = rng.randrange(r)
    b = rng.randrange(r)
    ws = (a, b, (-a - b) % r)
    if not zero_ok and 0 in ws:
        return (0, 0, 0)
    return ws


def _candidate(rng: random.Random, shape: str, order: int, gen_orders):
    if shape == "cyclic":
        return [(order, _sl3_weights(rng, order, zero_ok=False))]
    if shape == "non-isolated":
        a = rng.randrange(1, order)
        ws = [a, order - a, 0]
        rng.shuffle(ws)
        return [(order, tuple(ws))]
    if shape == "two-generator":
        return [(r, _sl3_weights(rng, r, zero_ok=True)) for r in gen_orders]
    raise SpecError(f"unknown slot shape {shape!r}")


def draw_spec(rng: random.Random, shape: str, order: int, gen_orders, orders: tuple[int, int]) -> Spec:
    """Draw a valid SL3 spec of the slot's shape whose generated group has the slot's order.

    The slot's order must be nontrivial and inside the workload's range, and a
    draw is kept only if the group it generates has exactly that order, so
    trivial and out-of-range groups are rejected by their order as generated,
    not by r.  A two-generator draw must also not be cyclic.
    """
    lo, hi = orders
    if not (1 < order and lo <= order <= hi):
        raise SpecError(f"slot order {order} lies outside the workload range {lo}-{hi}")
    for _ in range(MAX_DRAWS):
        gens = _candidate(rng, shape, order, gen_orders)
        R, elems = closure(gens)
        if len(elems) != order or (shape == "two-generator" and order == R):
            continue
        junior = sum(1 for g in elems if sum(g) == R)
        return Spec(spec_text(gens), order, junior)
    raise SpecError(f"no {shape} spec of order {order} found in {MAX_DRAWS} draws")


def generate(workload: str, seed: int) -> list[Spec]:
    """The specs of one workload for one seed; the same seed gives the same specs."""
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    return [draw_spec(rng, shape, order, gens, wl["orders"]) for shape, order, gens in wl["slots"]]


def argv(workload: str, spec: Spec, seed: int) -> list[str]:
    """Command line for one operation; the program sees only the spec and the seed."""
    command = WORKLOADS[workload]["command"]
    return [command[0], "--group", spec.text, "--seed", str(seed), *command[1:]]


def check_output(workload: str, spec: Spec, code: int | None, text: str) -> str | None:
    """None if the output of one operation is correct, else what is wrong with it.

    ``code`` is None when the operation raised; ``text`` is then the traceback.
    """
    if code is None:
        return f"raised {text.strip().splitlines()[-1]}"
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if WORKLOADS[workload]["command"][0] == "verify":
        if payload.get("pass") is not True:
            return "verify report does not pass"
        if payload.get("group", {}).get("order") != spec.order:
            return f"report gives order {payload.get('group', {}).get('order')}, expected {spec.order}"
        return None
    charts = payload.get("charts", [])
    if len(charts) != spec.order:
        return f"{len(charts)} charts, expected |G| = {spec.order}"
    if not all(c.get("smooth") and c.get("crepant") for c in charts):
        return "a chart is not smooth and crepant"
    rays = payload.get("rays", [])
    if len(rays) != 3 + spec.junior:
        return f"{len(rays)} rays, expected 3 + {spec.junior} junior elements"
    return None

