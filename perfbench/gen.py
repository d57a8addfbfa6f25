"""Seeded inputs for the plane ladder: P2 blown up at r = 10, 17, 25 and 35 points.

The rungs and the number of curves of each shape on a rung are fixed; the
seed picks only which curves are listed, the Zariski divisors and the
sampler seeds.  Every curve is a class the package accepts for a plane
blow-up at general points:

* all exceptional curves ``E_i`` (square -1),
* lines ``L - E_i - E_j`` (square -1),
* conics ``2L - E_a - ... - E_e`` (square -1),
* on rungs r >= 17 a few (-2)-classes ``L - E_i - E_j - E_k``.  Their
  r-bound ``r >= 33/2`` holds there, so the input declares ``nu = 2`` and
  certificates occur at two threshold levels.
"""

from __future__ import annotations

import itertools
import random

RUNGS = (10, 17, 25, 35)

# Curves listed per rung besides the r exceptional curves: (lines, conics, (-2)-classes).
CURVE_MIX = {
    10: (24, 6, 0),
    17: (40, 8, 3),
    25: (48, 8, 4),
    35: (56, 8, 4),
}

# Zariski divisors per rung; listed curves added to each with small weights, and
# anchor curves added with the weight that puts them in the support.
DIVISORS_PER_RUNG = 2
DIVISOR_TERMS = 4
DIVISOR_ANCHORS = 2

P2_SURFACE = {
    "chi": 1,
    "kY_sq": 9,
    "gram_Y": [[1]],
    "k_Y": [-3],
    "a_Y": [1],
    "class": "P2",
    "pg": 0,
    "q": 0,
}


def _curve(r: int, degree: int, points: tuple[int, ...]) -> dict:
    """Record of ``degree*L - sum_{i in points} E_i``; points are 1-based."""
    coords = [degree] + [0] * r
    for i in points:
        coords[i] = -1
    self_int = degree * degree - len(points)
    genus = (degree - 1) * (degree - 2) // 2
    return {"coords": coords, "self_int": self_int, "genus": genus, "is_exceptional": False}


def _exceptional(r: int, i: int) -> dict:
    coords = [0] * (r + 1)
    coords[i] = 1
    return {"coords": coords, "self_int": -1, "genus": 0, "is_exceptional": True}


def plane_curves(r: int, rng: random.Random) -> list[dict]:
    lines, conics, minus_two = CURVE_MIX[r]
    points = range(1, r + 1)
    pairs = sorted(rng.sample(list(itertools.combinations(points, 2)), lines))
    conic_sets: set[tuple[int, ...]] = set()
    while len(conic_sets) < conics:
        conic_sets.add(tuple(sorted(rng.sample(points, 5))))
    triples: set[tuple[int, ...]] = set()
    while len(triples) < minus_two:
        triple = tuple(sorted(rng.sample(points, 3)))
        if not _meets_negatively(triple, pairs, conic_sets, triples):
            triples.add(triple)
    return (
        [_exceptional(r, i) for i in points]
        + [_curve(r, 1, p) for p in pairs]
        + [_curve(r, 2, p) for p in sorted(conic_sets)]
        + [_curve(r, 1, p) for p in sorted(triples)]
    )


def _meets_negatively(triple, pairs, conic_sets, triples) -> bool:
    """Whether ``L - E_i - E_j - E_k`` would meet a listed curve negatively.

    That happens for a listed line through two of its points, a conic through
    all three, or another (-2)-class sharing two points.  Distinct curves
    meet nonnegatively; keeping that true for the (-2)-classes keeps the
    Zariski support of every generated divisor negative definite.
    """
    points = set(triple)
    return (
        any(set(pair) <= points for pair in pairs)
        or any(points <= set(conic) for conic in conic_sets)
        or any(len(points & set(other)) >= 2 for other in triples)
    )


def _pairing(x: list[int], y: list[int]) -> int:
    """Intersection number on the plane blow-up: L^2 = 1, E_i^2 = -1."""
    return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))


def zariski_divisor(r: int, curves: list[dict], rng: random.Random) -> list[int]:
    """An ample-ish class plus a nonnegative combination of listed curves.

    The base ``d*L - sum E_i`` has d^2 > r, so it lies inside the positive
    cone.  A few listed curves are added with small weights, then each
    anchor curve is added with the weight that makes the divisor meet it
    negatively, so the last anchor is always in the support.
    """
    d = 1
    while d * d <= r:
        d += 1
    coords = [d] + [-1] * r
    listed = [c["coords"] for c in curves[r:]]
    for curve in rng.sample(listed, DIVISOR_TERMS):
        weight = rng.randint(1, 3)
        coords = [c + weight * v for c, v in zip(coords, curve)]
    for anchor in rng.sample(listed, DIVISOR_ANCHORS):
        excess = _pairing(coords, anchor) + rng.randint(1, 3)
        weight = max(0, -(-excess // -_pairing(anchor, anchor)))  # ceil(excess / -anchor^2)
        coords = [c + weight * v for c, v in zip(coords, anchor)]
    return coords


def plane_input(r: int, rng: random.Random) -> dict:
    curves = plane_curves(r, rng)
    doc = {"surface": dict(P2_SURFACE), "r": r, "curves": curves}
    if CURVE_MIX[r][2]:
        doc["nu"] = 2
        doc["pi"] = 0
    return doc


def ladder(seed: int) -> dict[int, dict]:
    """One generated input per rung, each with its Zariski divisors under ``divisors``."""
    out = {}
    for r in RUNGS:
        rng = random.Random(f"plane-ladder:{seed}:{r}")
        doc = plane_input(r, rng)
        doc["divisors"] = [
            zariski_divisor(r, doc["curves"], rng) for _ in range(DIVISORS_PER_RUNG)
        ]
        out[r] = doc
    return out
