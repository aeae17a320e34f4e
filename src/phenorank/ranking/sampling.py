"""Negative sampling stratified by ontology distance from a patient's positives.

Four pools, ordered hardest to easiest to tell apart from a true term:

* difficult: siblings (a shared parent) and cousins (a shared grandparent)
  of some positive;
* medium: terms ``MEDIUM_RANGE`` (three to five) undirected edges from some
  positive, excluding that positive's ancestors and descendants;
* easy: lineal ancestors or descendants of some positive at
  ``EASY_MIN_LINEAGE`` (three) or more hops;
* implausible: terms sharing no ancestry within ``IMPLAUSIBLE_RADIUS`` (two)
  hops with any positive (both near-ancestor sets include the term itself).
  A term shares such an ancestor exactly when it lies at most two hops below
  some term at most two hops above a positive, so the pool is every term
  minus the two-hop descendants of the positives' two-hop ancestors: the
  walks grow with the neighbourhood of the positives, not with the ontology.

A term eligible for several pools lands in the strongest one. Pools never
contain positives or obsolete terms.

``Ontology.hops`` walks every positive at once, one walk each. Each pool is
a boolean mask over dense ids (``Ontology.ids``) with the positives and the
stronger pools cleared, read off as an ascending array, so it lists its
terms in id order without sorting strings. ``sample_negatives`` draws
positions in a pool and names only the drawn terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..errors import DataError, SamplingError
from ..ontology import Ontology

NEGATIVE_CLASSES = ("difficult", "medium", "easy", "implausible")

MEDIUM_RANGE = (3, 5)
EASY_MIN_LINEAGE = 3
IMPLAUSIBLE_RADIUS = 2


@dataclass(frozen=True, eq=False)
class NegativePools:
    """One patient's pools: class -> ascending dense ids into ``ids``, the
    ontology's ``Ontology.ids``."""

    ids: tuple[str, ...]
    dense: dict[str, np.ndarray]


def negative_pools(o: Ontology, positives: Iterable[str]) -> NegativePools:
    pos = o.dense_ids(sorted(set(positives)))
    if not len(pos):
        raise DataError("negative pools need at least one positive term")
    n = len(o.ids)
    # One walk per positive: key ``k * n + t`` is term t in positive k's walk.
    walks = np.arange(len(pos)) * n + pos
    lo, hi = MEDIUM_RANGE
    up, up_hops = o.hops(walks, "up")
    down, down_hops = o.hops(walks, "down")
    near, near_hops = o.hops(walks, "both", hi)
    lineal = np.zeros(len(pos) * n, dtype=bool)
    lineal[up] = lineal[down] = True
    parents = o.parent_rows(pos)[0]
    cousins = o.child_rows(o.child_rows(o.parent_rows(parents)[0])[0])[0]
    candidates = {
        "difficult": (o.child_rows(parents)[0], cousins),
        "medium": (near[(near_hops >= lo) & ~lineal[near]] % n,),
        "easy": (
            up[up_hops >= EASY_MIN_LINEAGE] % n,
            down[down_hops >= EASY_MIN_LINEAGE] % n,
        ),
    }
    taken = np.zeros(n, dtype=bool)
    taken[pos] = True
    dense = {}
    for cls, members in candidates.items():
        pool = np.zeros(n, dtype=bool)
        pool[np.concatenate(members)] = True
        dense[cls] = np.flatnonzero(pool & ~taken)
        taken |= pool
    near_positives = o.hops(pos, "up", IMPLAUSIBLE_RADIUS)[0]
    taken[o.hops(near_positives, "down", IMPLAUSIBLE_RADIUS)[0]] = True
    dense["implausible"] = np.flatnonzero(~taken)
    return NegativePools(ids=o.ids, dense=dense)


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
    if all(len(pools.dense[c]) == 0 for c in NEGATIVE_CLASSES):
        raise SamplingError("all negative pools are empty")
    rng = random.Random(f"{seed}")
    want = per_class_per_positive * len(pos)
    drawn: list[tuple[str, str]] = []
    for cls in NEGATIVE_CLASSES:
        pool = pools.dense[cls]
        take = min(want, len(pool))
        if take:
            # random.sample reads only the population's length and the drawn
            # positions, so drawing positions draws the terms sampling the
            # sorted pool would.
            drawn.extend(
                (pools.ids[pool[j]], cls) for j in rng.sample(range(len(pool)), take)
            )
    return drawn
