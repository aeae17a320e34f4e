"""Average precision at a cutoff, computed per patient and averaged."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DataError


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


def map_at_k(model_or_scores, instances, k: int = 30) -> float:
    """Mean AP@k over patients, candidates sorted by score then term id.

    ``model_or_scores`` is either a RankModel or a score array aligned with
    ``instances``. Every patient must contribute at least one positive.
    """
    if hasattr(model_or_scores, "score"):
        feats = np.vstack([inst.features for inst in instances])
        scores = model_or_scores.score(feats)
    else:
        scores = np.asarray(model_or_scores, dtype=np.float64)
        if scores.shape[0] != len(instances):
            raise DataError("score array does not align with instances")
    return map_scorer(instances, k)(scores)


def map_scorer(instances, k: int = 30):
    """``scores -> map_at_k(scores, instances, k)``, with patients grouped once.

    For callers that score the same instances many times, such as a boosting
    run scoring its validation cohort every round.
    """
    groups: dict[str, list[int]] = {}
    for i, inst in enumerate(instances):
        groups.setdefault(inst.patient_id, []).append(i)
    if not groups:
        raise DataError("map_at_k needs at least one patient")
    patients = []
    for pid in sorted(groups):
        idxs = groups[pid]
        labels = [instances[i].label for i in idxs]
        r = sum(labels)
        if r == 0:
            raise DataError(f"patient {pid} has no positive instance")
        # The tie-break key: each term id's rank among the patient's.
        _, term_rank = np.unique([instances[i].term_id for i in idxs], return_inverse=True)
        patients.append((np.asarray(idxs), term_rank, np.asarray(labels), r))

    def score(scores) -> float:
        total = 0.0
        for idxs, term_rank, labels, r in patients:
            # By score, best first, then by term id; lexsort is stable.
            order = np.lexsort((term_rank, -scores[idxs]))
            total += ap_at_k(labels[order[:k]].tolist(), r, k)
        return total / len(patients)

    return score
