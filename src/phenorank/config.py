"""Pipeline configuration: a small YAML file resolved into typed sections
with defaults, plus a stable digest of the seed and of each settings section,
from which every artifact's lineage records the parts it depends on. Each
value is decoded by its field's annotation through ``rows.decode``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import rows
from .errors import ConfigError, DataError

EXTRACTION_BACKENDS = ("gazetteer", "remote")
SELECTOR_KINDS = ("threshold", "remote")
MODEL_CHOICES = ("linear", "boosted", "select")


@dataclass(frozen=True)
class PathsConfig:
    ontology: str = ""
    disease_annotations: str = ""
    gene_annotations: str = ""
    workdir: str = "work"


@dataclass(frozen=True)
class CohortConfig:
    size: int = 20
    max_terms: int = 40
    distractors_per_patient: int = 6

    def validate(self):
        if self.size < 1:
            raise ConfigError("cohort.size must be >= 1")
        if self.max_terms < 1:
            raise ConfigError("cohort.max_terms must be >= 1")
        if self.distractors_per_patient < 0:
            raise ConfigError("cohort.distractors_per_patient must be >= 0")


@dataclass(frozen=True)
class ChunkingConfig:
    max_chars: int = 4026

    def validate(self):
        if self.max_chars < 1:
            raise ConfigError("chunking.max_chars must be >= 1")


@dataclass(frozen=True)
class ExtractionConfig:
    backend: str = "gazetteer"
    concurrency: int = 1
    endpoint_url: str = ""
    model_name: str = ""
    api_key_env_var: str = ""
    temperature: float = 0.0
    timeout: float = 30.0
    max_retries: int = 2

    def validate(self):
        if self.backend not in EXTRACTION_BACKENDS:
            raise ConfigError(
                f"extraction.backend must be one of {EXTRACTION_BACKENDS}, "
                f"got {self.backend!r}"
            )
        if self.concurrency < 1:
            raise ConfigError("extraction.concurrency must be >= 1")


@dataclass(frozen=True)
class StandardizationConfig:
    tau: float = 0.35
    top_k: int = 10
    selector: str = "threshold"

    def validate(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError("standardization.tau must be in [0, 1]")
        if self.top_k < 1:
            raise ConfigError("standardization.top_k must be >= 1")
        if self.selector not in SELECTOR_KINDS:
            raise ConfigError(
                f"standardization.selector must be one of {SELECTOR_KINDS}, "
                f"got {self.selector!r}"
            )


@dataclass(frozen=True)
class TrainingConfig:
    model: str = "select"
    split_ratio: float = 0.8
    per_class_per_positive: int = 1
    linear_learning_rate: float = 0.05
    linear_epochs: int = 200
    linear_l2: float = 1e-4
    boosted_learning_rate: float = 0.1
    boosted_rounds: int = 100
    boosted_max_depth: int = 3
    boosted_min_leaf: int = 1
    boosted_l1: float = 0.0
    boosted_l2: float = 1.0
    boosted_patience: int = 10

    def validate(self):
        if self.model not in MODEL_CHOICES:
            raise ConfigError(
                f"training.model must be one of {MODEL_CHOICES}, got {self.model!r}"
            )
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("training.split_ratio must be in (0, 1)")
        if self.per_class_per_positive < 1:
            raise ConfigError("training.per_class_per_positive must be >= 1")
        if self.linear_epochs < 0:
            raise ConfigError("training.linear_epochs must be >= 0")
        if self.boosted_rounds < 1:
            raise ConfigError("training.boosted_rounds must be >= 1")
        if self.boosted_max_depth < 1:
            raise ConfigError("training.boosted_max_depth must be >= 1")
        if self.boosted_min_leaf < 1:
            raise ConfigError("training.boosted_min_leaf must be >= 1")
        if self.boosted_patience < 1:
            raise ConfigError("training.boosted_patience must be >= 1")
        for name in ("linear_learning_rate", "boosted_learning_rate"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"training.{name} must be > 0")
        for name in ("linear_l2", "boosted_l1", "boosted_l2"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"training.{name} must be >= 0")


@dataclass(frozen=True)
class EvaluationConfig:
    cutoffs: tuple[int, ...] = (10, 20, 30, 40, 50)
    bootstrap_iterations: int = 1000

    def validate(self):
        if not self.cutoffs or any(k < 1 for k in self.cutoffs):
            raise ConfigError("evaluation.cutoffs must be positive")
        if list(self.cutoffs) != sorted(set(self.cutoffs)):
            raise ConfigError("evaluation.cutoffs must be strictly increasing")
        if self.bootstrap_iterations < 1:
            raise ConfigError("evaluation.bootstrap_iterations must be >= 1")


_SECTIONS = {
    "paths": PathsConfig,
    "cohort": CohortConfig,
    "chunking": ChunkingConfig,
    "extraction": ExtractionConfig,
    "standardization": StandardizationConfig,
    "training": TrainingConfig,
    "evaluation": EvaluationConfig,
}


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    paths: PathsConfig = PathsConfig()
    cohort: CohortConfig = CohortConfig()
    chunking: ChunkingConfig = ChunkingConfig()
    extraction: ExtractionConfig = ExtractionConfig()
    standardization: StandardizationConfig = StandardizationConfig()
    training: TrainingConfig = TrainingConfig()
    evaluation: EvaluationConfig = EvaluationConfig()

    def validate(self):
        # Seeds feed numpy's SeedSequence, which takes no negative int.
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in _SECTIONS:
            section = getattr(self, name)
            if hasattr(section, "validate"):
                section.validate()
        remote = "remote" in (self.extraction.backend, self.standardization.selector)
        if remote and not self.extraction.endpoint_url:
            raise ConfigError(
                "extraction.endpoint_url required for a remote backend or selector"
            )


def _names(keys: set) -> list:
    """Unknown keys in a stable order; YAML keys may mix types (``{1: 2, x: 3}``)."""
    return sorted(keys, key=lambda k: (str(k), repr(k)))


def _build_section(name: str, cls, data) -> object:
    if not isinstance(data, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    types = typing.get_type_hints(cls)
    unknown = _names(set(data) - set(types))
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {unknown}")
    return cls(**{key: rows.decode(types[key], v, (name, key)) for key, v in data.items()})


def config_from_dict(data: dict, seed: int | None = None) -> PipelineConfig:
    """The validated config ``data`` describes, with ``seed``, when given, in
    place of its own."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    unknown = _names(set(data) - set(_SECTIONS) - {"seed"})
    if unknown:
        raise ConfigError(f"unknown configuration sections: {unknown}")
    # Each value is decoded by the row codec; a wrong JSON type names the setting.
    try:
        kwargs = {"seed": rows.decode(int, data.get("seed", 0), ("seed",))}
        if seed is not None:
            kwargs["seed"] = seed
        for name, cls in _SECTIONS.items():
            if name in data:
                kwargs[name] = _build_section(name, cls, data[name])
    except DataError as e:
        raise ConfigError(str(e)) from e
    cfg = PipelineConfig(**kwargs)
    cfg.validate()
    return cfg


def load_config(path: str | Path, seed: int | None = None) -> PipelineConfig:
    from .pipeline import decode_text  # pipeline imports this module

    try:
        text = decode_text(Path(path).read_bytes(), path)
    except OSError as e:
        raise ConfigError(f"cannot read configuration {path}: {e}") from e
    except DataError as e:
        raise ConfigError(str(e)) from e
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML in {path}: {e}") from e
    if data is None:
        data = {}
    return config_from_dict(data, seed)


def config_digests(cfg: PipelineConfig) -> dict[str, str]:
    """The sha256 of the seed and of each settings section, keyed by name;
    not ``paths``, which says where files are, not what they hold, nor the
    worker count ``extraction.concurrency``, which cannot change a byte."""
    doc = dataclasses.asdict(cfg)
    del doc["paths"], doc["extraction"]["concurrency"]
    canon = {k: json.dumps(v, sort_keys=True, separators=(",", ":")) for k, v in doc.items()}
    return {k: hashlib.sha256(v.encode("utf-8")).hexdigest() for k, v in canon.items()}
