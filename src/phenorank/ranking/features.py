"""Feature matrices and training instances for the rankers.

One instance is a (patient, term) pair. Its feature row is the patient's
columns followed by the term's row of ``annotations.feature_table``. A set of
instances is held as columns (``Instances``): one feature matrix, joined once
from the patients' blocks, beside patient, term, label and class arrays. Each
patient's negatives are drawn from its pools (``sampling.negative_pools``),
read off the walks of its block of patients (``sampling.pool_blocks``), so
a term shared by the patients of a block is walked once. Patient
demographics one-hot encode against categories fixed at schema-build time from
the training cohort; unseen categories at inference fall into the reserved
unknown slot.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..annotations import FEATURE_NAMES
from ..corpus import Patient
from ..errors import ConfigError, DataError
from ..ontology import Ontology
from ..rows import Row
from .sampling import negative_pools, pool_blocks, sample_negatives

UNKNOWN_CATEGORY = "unknown"

_SEX_SLOTS = ("female", "male", "other")


@dataclass(frozen=True)
class FeatureSchema(Row):
    """Ordered feature layout shared by training, scoring, and serialization."""

    symptom_categories: tuple[str, ...]
    names: tuple[str, ...]

    @classmethod
    def for_cohort(cls, cohort: Sequence[Patient]) -> "FeatureSchema":
        cats = sorted({p.symptom_category for p in cohort} - {UNKNOWN_CATEGORY})
        cats.append(UNKNOWN_CATEGORY)
        return cls.standard(tuple(cats))

    @classmethod
    def standard(cls, symptom_categories: tuple[str, ...]) -> "FeatureSchema":
        if UNKNOWN_CATEGORY not in symptom_categories:
            raise ConfigError("symptom categories must reserve an unknown slot")
        names = (
            "age_years",
            *(f"sex:{s}" for s in _SEX_SLOTS),
            *(f"symptom_category:{c}" for c in symptom_categories),
            *FEATURE_NAMES,
        )
        return cls(symptom_categories=tuple(symptom_categories), names=names)

    @property
    def dimension(self) -> int:
        return len(self.names)

    def matrix(self, patient: Patient, term_rows: np.ndarray) -> np.ndarray:
        """One feature row per row of ``term_rows`` (rows of ``feature_table``):
        the patient's columns, then the term's."""
        cats = self.symptom_categories
        out = np.zeros((len(term_rows), self.dimension), dtype=np.float64)
        out[:, 0] = patient.age_years
        sex_idx = (
            _SEX_SLOTS.index(patient.sex) if patient.sex in _SEX_SLOTS[:2] else 2
        )
        out[:, 1 + sex_idx] = 1.0
        cat = (
            patient.symptom_category
            if patient.symptom_category in cats
            else UNKNOWN_CATEGORY
        )
        out[:, 4 + cats.index(cat)] = 1.0
        out[:, 4 + len(cats) :] = term_rows
        return out


Bucket = tuple[np.ndarray, np.ndarray, np.ndarray]

# Pairs per chunk of buckets that ``models.pairwise_pass`` computes at once.
# A chunk's arrays (at most 256 KiB of margins, unless one bucket is larger)
# stay in cache and come from malloc's heap: a larger array is mapped afresh
# on each pass, and its page faults cost more than the sigmoid.
_CHUNK_PAIRS = 32_768


@dataclass(frozen=True)
class PairIndex:
    """The (positive, negative) pairs of one training set.

    Patients are numbered in sorted id order and grouped by their
    (positives, negatives) shape. Each bucket holds the patient numbers
    (``slots``, shape ``(G,)``) and their stacked instance indices (``pos``,
    ``(G, P)``; ``neg``, ``(G, N)``), so one numpy expression covers every
    patient of that shape. ``chunks`` holds the buckets in runs of about
    ``_CHUNK_PAIRS`` pairs. ``dropped`` counts patients without both labels;
    they contribute no pair.
    """

    chunks: tuple[tuple[Bucket, ...], ...]
    patients: int
    pairs: int
    dropped: int


@dataclass(frozen=True, eq=False)
class Instances:
    """Row ``i`` of ``X`` is the features of patient ``patient_ids[i]`` and
    term ``term_ids[i]``; ``classes`` holds each negative's pool class,
    ``"none"`` for positives. The grouping and pairs are built once per set."""

    X: np.ndarray
    patient_ids: np.ndarray
    term_ids: np.ndarray
    labels: np.ndarray
    classes: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def by_patient(self) -> tuple[tuple[str, np.ndarray], ...]:
        """``(patient id, row indices)`` of each patient, patients in sorted id
        order, rows in their order."""
        ids, inverse = np.unique(self.patient_ids, return_inverse=True)
        rows = np.argsort(inverse, kind="stable")
        bounds = np.cumsum(np.bincount(inverse, minlength=len(ids)))[:-1]
        return tuple(zip(ids.tolist(), np.split(rows, bounds)))

    @functools.cached_property
    def pairs(self) -> PairIndex:
        return pair_index(self)


def pair_index(instances: Instances) -> PairIndex:
    """Group the training pairs of ``instances`` by patient shape."""
    kept = []
    for _, rows in instances.by_patient:
        positive = instances.labels[rows] != 0
        pos, neg = rows[positive], rows[~positive]
        if len(pos) and len(neg):
            kept.append((pos, neg))
    shapes: dict[tuple[int, int], list[int]] = {}
    for slot, (pos, neg) in enumerate(kept):
        shapes.setdefault((len(pos), len(neg)), []).append(slot)
    chunks: list[tuple[Bucket, ...]] = []
    chunk: list[Bucket] = []
    size = 0
    for slots in shapes.values():
        pos = np.asarray([kept[s][0] for s in slots], dtype=np.int64)
        neg = np.asarray([kept[s][1] for s in slots], dtype=np.int64)
        chunk.append((np.asarray(slots, dtype=np.int64), pos, neg))
        size += pos.size * neg.shape[1]
        if size >= _CHUNK_PAIRS:
            chunks.append(tuple(chunk))
            chunk, size = [], 0
    if chunk:
        chunks.append(tuple(chunk))
    return PairIndex(
        chunks=tuple(chunks),
        patients=len(kept),
        pairs=sum(len(pos) * len(neg) for pos, neg in kept),
        dropped=len(instances.by_patient) - len(kept),
    )


def build_instances(
    cohort: Sequence[Patient],
    o: Ontology,
    table: np.ndarray,
    schema: FeatureSchema,
    seed: int,
    per_class_per_positive: int = 1,
) -> Instances:
    """Positives plus per-pool sampled negatives for every patient, patients
    in sorted id order.

    ``table`` is ``annotations.feature_table`` of ``o``. The negative stream
    for a patient is named by the patient id, so instances do not depend on
    cohort order or on which other patients are present.
    """
    blocks = [np.empty((0, schema.dimension))]  # an empty cohort's matrix
    rows: list[tuple[str, str, int, str]] = []
    patients = sorted(cohort, key=lambda p: p.patient_id)
    walks = pool_blocks(o, [p.curated_terms for p in patients])
    for patient in patients:
        positives = sorted(patient.curated_terms)
        if not positives:
            raise DataError(f"patient {patient.patient_id} has no curated terms")
        pools = negative_pools(o, positives, next(walks))
        negatives = sample_negatives(
            pools,
            positives,
            per_class_per_positive=per_class_per_positive,
            seed=f"{seed}:negatives:{patient.patient_id}",
        )
        pid = patient.patient_id
        labelled = [(pid, tid, 1, "none") for tid in positives]
        labelled += [(pid, tid, 0, cls) for tid, cls in negatives]
        blocks.append(schema.matrix(patient, table[o.dense_ids(r[1] for r in labelled)]))
        rows += labelled
    columns = zip(*rows) if rows else [()] * 4
    return Instances(np.concatenate(blocks), *(np.array(c) for c in columns))


def split_cohort(
    cohort: Sequence[Patient], ratio: float = 0.8, seed: int = 0
) -> tuple[list[Patient], list[Patient]]:
    """Patient-level shuffle split; both sides are non-empty and disjoint."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split ratio must be in (0, 1), got {ratio}")
    if len(cohort) < 5:
        raise DataError("cohort too small to split (need >= 5 patients)")
    ordered = sorted(cohort, key=lambda p: p.patient_id)
    rng = random.Random(f"{seed}:split")
    rng.shuffle(ordered)
    n_train = int(round(ratio * len(ordered)))
    n_train = min(max(n_train, 1), len(ordered) - 1)
    train = sorted(ordered[:n_train], key=lambda p: p.patient_id)
    val = sorted(ordered[n_train:], key=lambda p: p.patient_id)
    return train, val
