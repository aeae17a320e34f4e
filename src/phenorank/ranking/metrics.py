"""Average precision at a cutoff, computed per patient and averaged."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DataError
from .features import Instances


def ap_at_k(ranked_relevance: Sequence[int], total_relevant: int, k: int) -> float:
    """AP@k = (1/min(R, k)) * sum over the first k ranks of precision@i * rel(i).

    ``ranked_relevance`` holds 0/1 relevance in rank order; ``total_relevant``
    is R, the number of relevant items overall (ranked or not).
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if total_relevant < 1:
        raise DataError("ap_at_k needs at least one relevant item")
    hits = 0
    acc = 0.0
    for i, rel in enumerate(ranked_relevance[:k], start=1):
        if rel:
            hits += 1
            acc += hits / i
    return acc / min(total_relevant, k)


def map_at_k(model, instances: Instances, k: int = 30) -> float:
    """``map_scorer(instances, k)`` of ``model``'s scores of ``instances``."""
    return map_scorer(instances, k)(model.score(instances.X))


def map_scorer(instances: Instances, k: int = 30):
    """``scores -> MAP@k`` over the patients of ``instances``, candidates
    sorted by score, best first, then by term id. Every patient must have a
    positive. The patients are prepared once, for callers that score the same
    instances many times, such as a boosting run scoring its validation set."""
    if not instances.by_patient:
        raise DataError("map_at_k needs at least one patient")
    # The tie-break key: each term id's rank among all of the set's.
    _, term_rank = np.unique(instances.term_ids, return_inverse=True)
    patients = []
    for pid, rows in instances.by_patient:
        labels = instances.labels[rows]
        r = int(labels.sum())
        if r == 0:
            raise DataError(f"patient {pid} has no positive instance")
        patients.append((rows, term_rank[rows], labels, r))

    def score(scores: np.ndarray) -> float:
        if scores.shape != (len(instances),):
            raise DataError("score array does not align with instances")
        total = 0.0
        for rows, ranks, labels, r in patients:
            # By score, best first, then by term id; lexsort is stable.
            order = np.lexsort((ranks, -scores[rows]))
            total += ap_at_k(labels[order[:k]].tolist(), r, k)
        return total / len(patients)

    return score
