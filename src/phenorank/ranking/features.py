"""Feature matrices and training instances for the rankers.

One instance is a (patient, term) pair. Its feature row is the patient's
columns followed by the term's row of ``annotations.feature_table``. Each
patient's negatives are drawn from its pools (``sampling.negative_pools``),
read off the walks of its block of patients (``sampling.pool_blocks``), so
a term shared by the patients of a block is walked once. Patient
demographics one-hot encode against categories fixed at schema-build time from
the training cohort; unseen categories at inference fall into the reserved
unknown slot.
"""

from __future__ import annotations

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


@dataclass
class RankingInstance:
    patient_id: str
    term_id: str
    label: int
    negative_class: str  # "none" for positives
    features: np.ndarray


def build_instances(
    cohort: Sequence[Patient],
    o: Ontology,
    table: np.ndarray,
    schema: FeatureSchema,
    seed: int,
    per_class_per_positive: int = 1,
) -> list[RankingInstance]:
    """Positives plus per-pool sampled negatives for every patient.

    ``table`` is ``annotations.feature_table`` of ``o``. The negative stream
    for a patient is named by the patient id, so instances do not depend on
    cohort order or on which other patients are present.
    """
    instances: list[RankingInstance] = []
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
        labelled = [(tid, 1, "none") for tid in positives]
        labelled += [(tid, 0, cls) for tid, cls in negatives]
        block = schema.matrix(patient, table[o.dense_ids(t for t, _, _ in labelled)])
        instances.extend(
            RankingInstance(patient.patient_id, tid, label, cls, row)
            for (tid, label, cls), row in zip(labelled, block)
        )
    return instances


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
