"""Every diagonal abelian subgroup of SL3 up to an order, one per class under permuting coordinates.

A group of exponent R is a lattice L between (RZ)^2 and Z^2 in the plane v1 + v2 + v3 = 0 mod R,
read on (v1, v2), with Hermite normal form (a, 0), (b, d): a and d divide R, 0 <= b < a, and a
divides (R / d) b.  L / (RZ)^2 has order R^2 / (a d), and exponent R when gcd(a, b, d) = 1.  A
class is keyed by its least sorted element tuple over the permutations of coordinates.  A class
with a trivial axis (an SL2 group) is listed with that axis on x, y and z, since which terms of
the Koszul differentials merge depends on it.  Stdlib only, so that it runs under python -S.
"""

from functools import cache
from itertools import permutations
from math import gcd
from typing import NamedTuple


class Class(NamedTuple):
    order: int
    R: int
    key: tuple
    specs: tuple[str, ...]


def key(elements) -> tuple:
    return min(tuple(sorted(tuple(e[i] for i in p) for e in elements)) for p in permutations(range(3)))


def spec(elements, R: int) -> str:
    """Its least element of order R and, unless that is enough, the least generating the rest."""
    gens = [min(e for e in elements if gcd(R, *e) == 1)]
    span = {tuple(k * x % R for x in gens[0]) for k in range(R)}
    if len(span) < len(elements):
        index = range(1, len(elements) // R)
        gens.append(min(e for e in elements if all(tuple(k * x % R for x in e) not in span for k in index)))
    return ";".join(f"{R // gcd(R, *g)}:" + ",".join(str(x // gcd(R, *g)) for x in g) for g in gens)


@cache
def classes(max_order: int) -> tuple[Class, ...]:
    keys = set()
    for R in range(2, max_order + 1):
        divisors = [k for k in range(1, R + 1) if R % k == 0]
        for a, d in ((a, d) for a in divisors for d in divisors if R * R <= max_order * a * d):
            for b in (b for b in range(a) if R // d * b % a == 0 and gcd(a, b, d) == 1):
                pairs = [((i * a + j * b) % R, j * d % R) for i in range(R // a) for j in range(R // d)]
                keys.add((len(pairs), R, key([(u, v, -(u + v) % R) for u, v in pairs])))
    found = []
    for order, R, k in sorted(keys):
        axis = next((i for i in range(3) if not any(e[i] for e in k)), None)
        swaps = [{}] if axis is None else [{t: axis, axis: t} for t in range(3)]
        moved = [[tuple(e[swap.get(i, i)] for i in range(3)) for e in k] for swap in swaps]
        found.append(Class(order, R, k, tuple(spec(m, R) for m in moved)))
    return tuple(found)


def specs(max_order: int) -> list[str]:
    return [s for c in classes(max_order) for s in c.specs]
