"""Learning-to-rank prioritization of candidate phenotype terms."""

from .features import (
    FeatureSchema,
    RankingInstance,
    build_instances,
    split_cohort,
)
from .metrics import ap_at_k, map_at_k
from .models import (
    RankModel,
    TrainingMeta,
    rank_terms,
    select_model,
    train_boosted,
    train_pairwise_linear,
)
from .sampling import NegativePools, negative_pools, sample_negatives

__all__ = [
    "FeatureSchema",
    "NegativePools",
    "RankModel",
    "RankingInstance",
    "TrainingMeta",
    "ap_at_k",
    "build_instances",
    "map_at_k",
    "negative_pools",
    "rank_terms",
    "sample_negatives",
    "select_model",
    "split_cohort",
    "train_boosted",
    "train_pairwise_linear",
]
