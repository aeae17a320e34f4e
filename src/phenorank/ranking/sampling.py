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

Every pool is a union over the positives, so the walks depend on the term
alone. ``pool_walks`` walks a set of terms at once, one keyed ``Ontology.hops``
walk per term, and keeps one row per term over the dense ids
(``Ontology.ids``): the strongest pool each walk puts each term in.
``pool_blocks`` walks a cohort a block of patients at a time, each distinct
positive of the block once, with the block cut so that its rows stay within
``POOL_BLOCK_CELLS`` cells. A patient's pools are then read off the
cellwise maximum of its positives' rows, as ascending arrays, so each lists
its terms in id order without sorting strings. ``sample_negatives`` draws
positions in a pool and names only the drawn terms.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import DataError, SamplingError
from ..ontology import Ontology

NEGATIVE_CLASSES = ("difficult", "medium", "easy", "implausible")

MEDIUM_RANGE = (3, 5)
EASY_MIN_LINEAGE = 3
IMPLAUSIBLE_RADIUS = 2

# The most (walk, term) cells one block's walks hold: 4 MiB of rows, and
# each ``hops`` call's seen mask is as large.
POOL_BLOCK_CELLS = 1 << 22

# A cell of ``PoolWalks.rows``: the strongest pool a walk puts a term in, or
# RELATED for a term within two hops below one of the walk's two-hop
# ancestors (never implausible) that is in no other pool, or NONE.
_NONE, _RELATED, _EASY, _MEDIUM, _DIFFICULT = range(5)
_LEVELS = tuple(zip(NEGATIVE_CLASSES, (_DIFFICULT, _MEDIUM, _EASY, _NONE)))


@dataclass(frozen=True, eq=False)
class NegativePools:
    """One patient's pools: class -> ascending dense ids into ``ids``, the
    ontology's ``Ontology.ids``."""

    ids: tuple[str, ...]
    dense: dict[str, np.ndarray]


@dataclass(frozen=True, eq=False)
class PoolWalks:
    """The walks of a set of terms: ``terms``, their ascending dense ids, and
    ``rows``, one int8 row of cells over the dense ids per term."""

    terms: np.ndarray
    rows: np.ndarray


def pool_walks(o: Ontology, terms: np.ndarray) -> PoolWalks:
    """Walk each of ``terms``, ascending distinct dense ids, for its pools.

    The last write to a cell is the strongest pool the walk puts its term in:
    related terms first, then medium, easy and difficult ones.
    """
    n = len(o.ids)
    # One walk per term: key ``k * n + t`` is term t in walk k.
    walks = np.arange(len(terms)) * n + terms
    lo, hi = MEDIUM_RANGE
    rows = np.zeros(len(terms) * n, dtype=np.int8)

    def hop(keys: np.ndarray, edges) -> np.ndarray:
        """The parents or children (``edges``) of each keyed term, in its walk."""
        near, size = edges(keys % n)
        return np.repeat(keys - keys % n, size) + near

    up, up_hops = o.hops(walks, "up")
    near_ancestors = up[up_hops <= IMPLAUSIBLE_RADIUS]
    rows[o.hops(near_ancestors, "down", IMPLAUSIBLE_RADIUS)[0]] = _RELATED
    near, near_hops = o.hops(walks, "both", hi)
    rows[near[near_hops >= lo]] = _MEDIUM
    # Easy after medium clears the medium cells of the walk's own ancestors and
    # descendants: a lineal term three or more hops away is easy, and a nearer
    # one is never three undirected hops away.
    rows[up[up_hops >= EASY_MIN_LINEAGE]] = _EASY
    down, down_hops = o.hops(walks, "down")
    rows[down[down_hops >= EASY_MIN_LINEAGE]] = _EASY
    parents = hop(walks, o.parent_rows)
    rows[hop(parents, o.child_rows)] = _DIFFICULT
    cousins = hop(hop(hop(parents, o.parent_rows), o.child_rows), o.child_rows)
    rows[cousins] = _DIFFICULT
    return PoolWalks(terms=terms, rows=rows.reshape(len(terms), n))


def pool_blocks(o: Ontology, positive_sets: Sequence[Iterable[str]]) -> Iterator[PoolWalks]:
    """The walks of each of ``positive_sets`` in turn, a block of consecutive
    sets at a time: each of a block's distinct live terms is walked once, and
    they times ``len(o.ids)`` stay within ``POOL_BLOCK_CELLS`` unless one set
    alone exceeds it. Unknown and obsolete ids are left out, so that
    ``negative_pools`` names them."""
    n = len(o.ids)
    sets = [{t for t in s if t in o.dense} for s in positive_sets]
    start = 0
    while start < len(sets):
        terms, end = set(), start
        while end < len(sets):
            new = sets[end] - terms
            if end > start and (len(terms) + len(new)) * n > POOL_BLOCK_CELLS:
                break
            terms |= new
            end += 1
        # No name holds a block's walks once its last set is served, so they
        # are freed before the next block's are computed.
        yield from itertools.repeat(pool_walks(o, o.dense_ids(sorted(terms))), end - start)
        start = end


def negative_pools(
    o: Ontology, positives: Iterable[str], walks: PoolWalks | None = None
) -> NegativePools:
    """One patient's pools, from the rows of its positives in ``walks``: those
    of a block that holds them, or by default the positives' own."""
    pos = o.dense_ids(sorted(set(positives)))
    if not len(pos):
        raise DataError("negative pools need at least one positive term")
    if walks is None:
        walks = pool_walks(o, pos)
    at = np.searchsorted(walks.terms, pos)
    if not np.array_equal(walks.terms.take(at, mode="clip"), pos):
        raise ValueError("the walks hold no row for some positive")
    level = walks.rows[at].max(axis=0)
    level[pos] = _RELATED  # in no pool
    return NegativePools(
        ids=o.ids, dense={cls: np.flatnonzero(level == v) for cls, v in _LEVELS}
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
