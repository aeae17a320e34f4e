"""Negative sampling stratified by ontology distance from a patient's positives.

Four pools, ordered hardest to easiest to tell apart from a true term:

* difficult: siblings (a shared parent) and cousins (a shared grandparent but
  no shared parent) of some positive;
* medium: terms ``MEDIUM_RANGE`` (three to five) undirected edges from some
  positive, excluding that positive's ancestors and descendants;
* easy: lineal ancestors or descendants of some positive at
  ``EASY_MIN_LINEAGE`` (three) or more hops;
* implausible: terms sharing no ancestry within ``IMPLAUSIBLE_RADIUS`` (two)
  hops with any positive (both near-ancestor sets include the term itself).
  A term shares such an ancestor exactly when it lies at most two hops below
  some term at most two hops above a positive, so the pool is every term
  minus the two-hop descendants of the positives' two-hop ancestors: its
  cost grows with the neighbourhood of the positives, not with the ontology.

A term eligible for several pools lands in the strongest one. Pools never
contain positives or obsolete terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from ..errors import DataError, SamplingError
from ..ontology import Ontology

NEGATIVE_CLASSES = ("difficult", "medium", "easy", "implausible")

MEDIUM_RANGE = (3, 5)
EASY_MIN_LINEAGE = 3
IMPLAUSIBLE_RADIUS = 2


@dataclass(frozen=True)
class NegativePools:
    difficult: frozenset[str]
    medium: frozenset[str]
    easy: frozenset[str]
    implausible: frozenset[str]

    def as_dict(self) -> dict[str, frozenset[str]]:
        return {
            "difficult": self.difficult,
            "medium": self.medium,
            "easy": self.easy,
            "implausible": self.implausible,
        }


def negative_pools(o: Ontology, positives: Iterable[str]) -> NegativePools:
    pos = sorted(set(positives))
    if not pos:
        raise DataError("negative pools need at least one positive term")
    for p in pos:
        o.require(p)
    pos_set = set(pos)

    difficult: set[str] = set()
    medium: set[str] = set()
    easy: set[str] = set()
    lo, hi = MEDIUM_RANGE

    for p in pos:
        parents = set(o.parents(p))
        siblings = {c for par in parents for c in o.children(par)} - {p}
        grandparents = {g for par in parents for g in o.parents(par)}
        cousin_cands = {
            c for g in grandparents for mid in o.children(g) for c in o.children(mid)
        } - {p}
        cousins = {c for c in cousin_cands if not (set(o.parents(c)) & parents)}
        difficult |= siblings | cousins

        up = o.hops([p], "up")
        down = o.hops([p], "down")
        lineal = up.keys() | down.keys()
        for t, d in o.hops([p], "both", hi).items():
            if d >= lo and t not in lineal:
                medium.add(t)
        easy |= {t for t, d in up.items() if d >= EASY_MIN_LINEAGE}
        easy |= {t for t, d in down.items() if d >= EASY_MIN_LINEAGE}

    near_positives = o.hops(pos, "up", IMPLAUSIBLE_RADIUS)
    related = o.hops(near_positives, "down", IMPLAUSIBLE_RADIUS)
    implausible = set(o.non_obsolete_ids()).difference(related)

    difficult -= pos_set
    medium = medium - pos_set - difficult
    easy = easy - pos_set - difficult - medium
    implausible = implausible - difficult - medium - easy
    return NegativePools(
        difficult=frozenset(difficult),
        medium=frozenset(medium),
        easy=frozenset(easy),
        implausible=frozenset(implausible),
    )


def sample_negatives(
    pools: NegativePools,
    positives: Iterable[str],
    per_class_per_positive: int = 1,
    seed: int | str = 0,
) -> list[tuple[str, str]]:
    """Draw up to per_class_per_positive * |positives| terms from each pool.

    Sampling is uniform without replacement within each pool and deterministic
    for a fixed seed. Returns (term_id, class) pairs, pools in fixed order.
    """
    pos = sorted(set(positives))
    if not pos:
        raise DataError("sampling needs at least one positive term")
    if per_class_per_positive < 1:
        raise DataError("per_class_per_positive must be >= 1")
    by_class = pools.as_dict()
    if all(not by_class[c] for c in NEGATIVE_CLASSES):
        raise SamplingError("all negative pools are empty")
    rng = random.Random(f"{seed}")
    want = per_class_per_positive * len(pos)
    drawn: list[tuple[str, str]] = []
    for cls in NEGATIVE_CLASSES:
        pool = sorted(by_class[cls])
        take = min(want, len(pool))
        if take:
            drawn.extend((t, cls) for t in rng.sample(pool, take))
    return drawn
