"""Feature vectors and training instances for the rankers.

One instance is a (patient, term) pair. Patient demographics one-hot encode
against categories fixed at schema-build time from the training cohort; unseen
categories at inference fall into the reserved unknown slot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..annotations import AnnotationKB, TermFeatureRow, feature_table
from ..corpus import Patient
from ..errors import ConfigError, DataError
from ..ontology import Ontology, OntologyStats
from .sampling import negative_pools, sample_negatives

UNKNOWN_CATEGORY = "unknown"

_SEX_SLOTS = ("female", "male", "other")

_TERM_FEATURE_NAMES = (
    "ic",
    "gene_count",
    "gene_fraction",
    "disease_count",
    "disease_fraction",
    "idf_omim",
    "idf_orphanet",
)


@dataclass(frozen=True)
class FeatureSchema:
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
            *_TERM_FEATURE_NAMES,
        )
        return cls(symptom_categories=tuple(symptom_categories), names=names)

    @property
    def dimension(self) -> int:
        return len(self.names)

    def vector(self, patient: Patient, row: TermFeatureRow) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        vec[0] = patient.age_years
        sex_idx = (
            _SEX_SLOTS.index(patient.sex) if patient.sex in _SEX_SLOTS[:2] else 2
        )
        vec[1 + sex_idx] = 1.0
        cats = self.symptom_categories
        cat = (
            patient.symptom_category
            if patient.symptom_category in cats
            else UNKNOWN_CATEGORY
        )
        vec[4 + cats.index(cat)] = 1.0
        base = 4 + len(cats)
        vec[base : base + 7] = (
            row.ic,
            row.gene_count,
            row.gene_fraction,
            row.disease_count,
            row.disease_fraction,
            row.idf_omim,
            row.idf_orphanet,
        )
        return vec

    def to_dict(self) -> dict:
        return {
            "symptomCategories": list(self.symptom_categories),
            "names": list(self.names),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSchema":
        return cls(
            symptom_categories=tuple(d["symptomCategories"]),
            names=tuple(d["names"]),
        )


@dataclass
class RankingInstance:
    patient_id: str
    term_id: str
    label: int
    negative_class: str  # "none" for positives
    features: np.ndarray


def term_feature_map(
    o: Ontology, s: OntologyStats, kb: AnnotationKB
) -> dict[str, TermFeatureRow]:
    return {row.term_id: row for row in feature_table(o, s, kb)}


def build_instances(
    cohort: Sequence[Patient],
    o: Ontology,
    s: OntologyStats,
    kb: AnnotationKB,
    seed: int,
    schema: FeatureSchema | None = None,
    per_class_per_positive: int = 1,
    term_features: dict[str, TermFeatureRow] | None = None,
) -> list[RankingInstance]:
    """Positives plus per-pool sampled negatives for every patient.

    The negative stream for a patient is named by the patient id, so instances
    do not depend on cohort order or on which other patients are present.
    """
    schema = schema or FeatureSchema.for_cohort(cohort)
    rows = term_features if term_features is not None else term_feature_map(o, s, kb)
    instances: list[RankingInstance] = []
    for patient in sorted(cohort, key=lambda p: p.patient_id):
        positives = sorted(patient.curated_terms)
        if not positives:
            raise DataError(f"patient {patient.patient_id} has no curated terms")
        for tid in positives:
            o.require(tid)
        pools = negative_pools(o, positives)
        negatives = sample_negatives(
            pools,
            positives,
            per_class_per_positive=per_class_per_positive,
            seed=f"{seed}:negatives:{patient.patient_id}",
        )
        for tid in positives:
            instances.append(
                RankingInstance(
                    patient_id=patient.patient_id,
                    term_id=tid,
                    label=1,
                    negative_class="none",
                    features=schema.vector(patient, rows[tid]),
                )
            )
        for tid, cls in negatives:
            instances.append(
                RankingInstance(
                    patient_id=patient.patient_id,
                    term_id=tid,
                    label=0,
                    negative_class=cls,
                    features=schema.vector(patient, rows[tid]),
                )
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
