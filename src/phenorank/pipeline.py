"""End-to-end pipeline steps over a shared work directory.

``ingest`` is the one step that reads the input files. It writes the parsed
inputs to ``inputs.npz``, and every later step restores them from there,
after checking that the input files it depends on still have the sha256 that
ingest recorded. Every other artifact is JSONL whose first line is a meta
record embedding the configuration hash and seed it was produced under.
Report-producing steps refuse artifacts from a different configuration
unless forced. Writes are atomic (temp file then rename) so an interrupted
step never leaves a half-written artifact behind.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import logging
import os
import uuid
import zipfile
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np

from . import annotations, corpus, evaluation, extraction, ontology, standardization
from .config import PipelineConfig, config_hash
from .errors import ConfigError, DataError, StructuralError
from .ranking import (
    FeatureSchema,
    RankModel,
    build_instances,
    rank_terms,
    select_model,
    split_cohort,
    train_boosted,
    train_pairwise_linear,
)
from .ranking.models import pair_index

logger = logging.getLogger(__name__)

T = TypeVar("T")

ARTIFACT_VERSION = 1
SNAPSHOT_VERSION = 1

# The input files, named by their ``paths`` field.
ONTOLOGY = "ontology"
DISEASES = "disease_annotations"
GENES = "gene_annotations"

INPUTS_FILE = "inputs.npz"
COHORT_FILE = "cohort.jsonl"
NOTES_FILE = "notes.jsonl"
CHUNKS_FILE = "chunks.jsonl"
MENTIONS_FILE = "mentions.jsonl"
STANDARDIZED_FILE = "standardized.jsonl"
TRACE_FILE = "standardize_trace.jsonl"
MODEL_FILE = "model.json"
RANKINGS_FILE = "rankings.jsonl"
EVAL_REPORT = "report_evaluation.json"
EVAL_CSV = "report_evaluation.csv"
ABLATION_REPORT = "report_ablation.json"
ABLATION_CSV = "report_ablation.csv"
PERMTEST_REPORT = "report_permutation.json"
PERMTEST_CSV = "report_permutation.csv"


def workdir(cfg: PipelineConfig) -> Path:
    path = Path(cfg.paths.workdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _atomic_write(path: Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    # A unique temp name per call, so concurrent writers never share one;
    # open(..., "x") creates it with the mode a plain write gives.
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def _meta(cfg: PipelineConfig, step: str, **extra) -> dict:
    meta = {
        "step": step,
        "configHash": config_hash(cfg),
        "seed": cfg.seed,
        "version": ARTIFACT_VERSION,
    }
    meta.update(extra)
    return meta


def write_jsonl(path: Path, meta: dict, rows: Iterable[dict]) -> None:
    lines = [json.dumps({"__meta__": meta}, sort_keys=True)]
    lines.extend(json.dumps(row, sort_keys=True) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def read_jsonl(path: Path) -> tuple[dict, list[dict]]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read artifact {path}: {e}") from e
    meta: dict | None = None
    rows: list[dict] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path} line {lineno}: invalid JSON ({e.msg})") from e
        if meta is None:
            if not isinstance(obj, dict) or "__meta__" not in obj:
                raise StructuralError(f"{path} does not start with a meta line")
            obj = obj["__meta__"]
        if not isinstance(obj, dict):
            raise StructuralError(f"{path} line {lineno}: not a JSON object")
        if meta is None:
            meta = obj
        else:
            rows.append(obj)
    if meta is None:
        raise StructuralError(f"{path} is empty")
    return meta, rows


def check_artifact(meta: dict, cfg: PipelineConfig, label: str, force: bool) -> None:
    """Refuse artifacts produced under a different configuration.

    With force the mismatch is logged and the artifact used as-is.
    """
    expected = config_hash(cfg)
    found = meta.get("configHash")
    if found == expected:
        return
    message = (
        f"{label} was produced under configuration {str(found)[:12]}, "
        f"active configuration is {expected[:12]}"
    )
    if force:
        logger.warning("%s (forced, continuing)", message)
        return
    raise ConfigError(message + "; rerun the producing step or pass force")


# -- shared loading ----------------------------------------------------------------


def load_ontology(cfg: PipelineConfig) -> ontology.Ontology:
    path = Path(cfg.paths.ontology)
    if not cfg.paths.ontology:
        raise ConfigError("paths.ontology is not set")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read ontology {path}: {e}") from e
    if path.suffix.lower() == ".json":
        return ontology.parse_ontology_json(text)
    return ontology.parse_obo(text)


def load_kb(cfg: PipelineConfig, o: ontology.Ontology) -> annotations.AnnotationKB:
    if not cfg.paths.disease_annotations or not cfg.paths.gene_annotations:
        raise ConfigError("paths.disease_annotations and paths.gene_annotations required")
    try:
        disease_text = Path(cfg.paths.disease_annotations).read_text(encoding="utf-8")
        gene_text = Path(cfg.paths.gene_annotations).read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read annotations: {e}") from e
    return annotations.load_annotations(disease_text, gene_text, o)


def load_inputs(
    cfg: PipelineConfig,
) -> tuple[ontology.Ontology, annotations.AnnotationKB, ontology.OntologyStats]:
    """Parse the ontology and annotations and derive the IC statistics."""
    o = load_ontology(cfg)
    kb = load_kb(cfg, o)
    return o, kb, ontology.compute_stats(o, kb)


def _input_digest(cfg: PipelineConfig, field: str) -> str:
    """The sha256 of the input file that ``cfg.paths.<field>`` names."""
    name = getattr(cfg.paths, field)
    if not name:
        raise ConfigError(f"paths.{field} is not set")
    try:
        data = Path(name).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read {name}: {e}") from e
    return hashlib.sha256(data).hexdigest()


def _write_snapshot(
    path: Path,
    o: ontology.Ontology,
    s: ontology.OntologyStats,
    kb: annotations.AnnotationKB,
    table: np.ndarray,
    digests: dict[str, str],
) -> None:
    meta = {
        "version": SNAPSHOT_VERSION,
        "sha256": digests,
        "totalDiseases": s.total_diseases,
        "diseaseTotals": kb.disease_totals,
        "totalGenes": kb.total_genes,
    }
    buf = io.BytesIO()
    # Members are written under ZipInfo's fixed 1980 timestamp, so the same
    # inputs give the same bytes.
    np.savez(
        buf,
        meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), np.uint8),
        **o.to_arrays(),
        ic=s.ic,
        annot_count=s.annot_count,
        features=table,
    )
    _atomic_write_bytes(path, buf.getvalue())


@dataclasses.dataclass(frozen=True)
class Snapshot:
    """The parsed inputs as ``ingest`` wrote them."""

    digests: dict[str, str]  # sha256 per input file, keyed by its ``paths`` field
    ontology: ontology.Ontology
    stats: ontology.OntologyStats
    table: np.ndarray  # annotations.feature_table of the ontology


def _restore(path: Path) -> Snapshot:
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    meta = json.loads(ontology.array_member(arrays, "meta", np.uint8).tobytes())
    if meta["version"] != SNAPSHOT_VERSION:
        raise ValueError(f"format version {meta['version']!r}, not {SNAPSHOT_VERSION}")
    digests, total = meta["sha256"], meta["totalDiseases"]
    if not isinstance(digests, dict) or type(total) is not int:
        raise ValueError("malformed meta member")
    o = ontology.Ontology.from_arrays(arrays)
    n = len(o.ids)
    ic = ontology.array_member(arrays, "ic", np.float64, n)
    counts = ontology.array_member(arrays, "annot_count", np.int64, n)
    table = arrays["features"]
    if table.dtype != np.float64 or table.shape != (n, len(annotations.FEATURE_NAMES)):
        raise ValueError(f"features: {table.dtype} array of shape {table.shape}")
    stats = ontology.OntologyStats(annot_count=counts, total_diseases=total, ic=ic)
    return Snapshot(digests, o, stats, table)


def load_snapshot(cfg: PipelineConfig, *inputs: str) -> Snapshot:
    """The inputs ``ingest`` parsed, restored from the work directory.

    ``inputs`` are the ``paths`` fields of the input files the calling step
    depends on; each must still have the sha256 ingest recorded, or the
    snapshot is stale (ConfigError; force does not apply, since the inputs
    are not an artifact of this configuration). A missing or damaged snapshot
    is a DataError.
    """
    path = workdir(cfg) / INPUTS_FILE
    # Every way a missing, truncated or inconsistent file fails; zipfile raises
    # NotImplementedError, a RuntimeError, for an unknown compression method.
    try:
        snap = _restore(path)
    except (
        OSError,
        EOFError,
        RuntimeError,
        zipfile.BadZipFile,
        KeyError,
        TypeError,
        ValueError,
        DataError,
    ) as e:
        raise DataError(f"cannot read input snapshot {path} ({e!r}); run ingest") from e
    for field in inputs:
        if snap.digests.get(field) != _input_digest(cfg, field):
            name = getattr(cfg.paths, field)
            raise ConfigError(f"{name} changed since ingest wrote {path}; rerun ingest")
    return snap


def _read_artifact(
    cfg: PipelineConfig, name: str, decode: Callable[[dict], T], force: bool | None = None
) -> list[T]:
    """The decoded rows of one work-directory artifact.

    Unless force is None, the artifact's configHash is checked first (see
    check_artifact); steps that only consume an artifact pass None. A row
    missing a field ``decode`` reads is a DataError naming the artifact.
    """
    path = workdir(cfg) / name
    meta, rows = read_jsonl(path)
    if force is not None:
        check_artifact(meta, cfg, name, force)
    try:
        return [decode(row) for row in rows]
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: row with a missing or malformed field ({e!r})") from e


def _load_cohort(
    cfg: PipelineConfig, force: bool | None = None
) -> list[corpus.Patient]:
    return _read_artifact(cfg, COHORT_FILE, corpus.Patient.from_dict, force)


def _load_gold(cfg: PipelineConfig, force: bool) -> dict[str, set[str]]:
    return {p.patient_id: set(p.curated_terms) for p in _load_cohort(cfg, force)}


def _provenance(cfg: PipelineConfig, **extra) -> dict:
    prov = {"configHash": config_hash(cfg), "seed": cfg.seed}
    prov.update(extra)
    return prov


# -- steps -------------------------------------------------------------------------


def step_ingest(cfg: PipelineConfig) -> dict:
    """Parse and validate the inputs; write the snapshot the later steps read."""
    # Hashed before they are parsed: a file edited in between then reads as
    # stale to the later steps, never as fresh.
    digests = {field: _input_digest(cfg, field) for field in (ONTOLOGY, DISEASES, GENES)}
    o, kb, s = load_inputs(cfg)
    table = annotations.feature_table(o, s, kb)
    _write_snapshot(workdir(cfg) / INPUTS_FILE, o, s, kb, table, digests)
    return {
        "terms": len(o.ids),
        "obsolete": sum(1 for t in o.terms.values() if t.obsolete),
        "diseases": {src: kb.disease_totals.get(src, 0) for src in annotations.DISEASE_SOURCES},
        "genes": kb.total_genes,
        "featureRows": len(table),
    }


def _distractor_pool(
    o: ontology.Ontology, s: ontology.OntologyStats, size: int
) -> list[str]:
    # Common, well-annotated terms make realistic non-gold findings: most
    # annotated first, ties in id order, since ``o.ids`` is sorted.
    order = np.argsort(-s.annot_count, kind="stable")[: size + 1].tolist()
    return [o.ids[i] for i in order if o.ids[i] != o.root][:size]


def step_synth(cfg: PipelineConfig) -> dict:
    """Generate the synthetic cohort and narrative notes."""
    snap = load_snapshot(cfg, ONTOLOGY, DISEASES)
    o, s = snap.ontology, snap.stats
    cohort = corpus.synth_cohort(
        o, cfg.cohort.size, cfg.seed, max_terms=cfg.cohort.max_terms
    )
    per_patient = cfg.cohort.distractors_per_patient
    pool = _distractor_pool(o, s, per_patient + 4) if per_patient else []
    notes = []
    for patient in cohort:
        distractors = tuple(
            t for t in pool if t not in patient.curated_terms
        )[:per_patient]
        _, note = corpus.synth_narrative(patient, o, cfg.seed, distractors)
        notes.append(note)
    wd = workdir(cfg)
    write_jsonl(wd / COHORT_FILE, _meta(cfg, "synth"), (p.to_dict() for p in cohort))
    write_jsonl(wd / NOTES_FILE, _meta(cfg, "synth"), (n.to_dict() for n in notes))
    return {"patients": len(cohort), "notes": len(notes)}


def step_chunk(cfg: PipelineConfig) -> dict:
    """Split notes into sentence-preserving chunks."""
    notes = _read_artifact(cfg, NOTES_FILE, corpus.ClinicalNote.from_dict)
    chunks: list[corpus.NoteChunk] = []
    for note in notes:
        chunks.extend(corpus.chunk_note(note, cfg.chunking.max_chars))
    write_jsonl(
        workdir(cfg) / CHUNKS_FILE, _meta(cfg, "chunk"), (c.to_dict() for c in chunks)
    )
    return {"notes": len(notes), "chunks": len(chunks)}


def step_extract(cfg: PipelineConfig, concurrency: int | None = None) -> dict:
    """Extract phenotype mentions from every chunk.

    ``concurrency`` overrides ``extraction.concurrency``, which the
    configuration hash leaves out.
    """
    settings = cfg.extraction
    if concurrency is not None:
        settings = dataclasses.replace(settings, concurrency=concurrency)
        settings.validate()
    chunks = _read_artifact(cfg, CHUNKS_FILE, corpus.NoteChunk.from_dict)
    if cfg.extraction.backend == "remote":
        extraction.verify_credentials(cfg.extraction)
        template = extraction.DEFAULT_PROMPT_TEMPLATE

        def backend(chunk):
            return extraction.remote_extract(cfg.extraction, template, chunk)

    else:
        backend = extraction.Gazetteer(load_snapshot(cfg, ONTOLOGY).ontology).extract

    result = extraction.extract_corpus(
        chunks, backend, concurrency_limit=settings.concurrency
    )
    failures = [{"chunkId": f.chunk_id, "error": f.error} for f in result.failures]
    rows = (
        {
            "patientId": pid,
            "mentions": [m.to_dict() for m in result.mentions_by_patient[pid]],
        }
        for pid in sorted(result.mentions_by_patient)
    )
    write_jsonl(
        workdir(cfg) / MENTIONS_FILE,
        _meta(cfg, "extract", backend=cfg.extraction.backend, failures=failures),
        rows,
    )
    total = sum(len(v) for v in result.mentions_by_patient.values())
    return {
        "chunks": len(chunks),
        "mentions": total,
        "patients": len(result.mentions_by_patient),
        "failures": len(failures),
    }


def _mentions_row(row: dict) -> tuple[str, list[extraction.Mention]]:
    return row["patientId"], [extraction.Mention.from_dict(m) for m in row["mentions"]]


def _load_mentions(
    cfg: PipelineConfig, force: bool | None = None
) -> dict[str, list[extraction.Mention]]:
    return dict(_read_artifact(cfg, MENTIONS_FILE, _mentions_row, force))


def step_standardize(cfg: PipelineConfig) -> dict:
    """Resolve mentions to ontology terms."""
    if cfg.standardization.selector == "remote":
        extraction.verify_credentials(cfg.extraction)
        selector = standardization.RemoteSelector(cfg.extraction)
    else:
        selector = standardization.ThresholdSelector(cfg.standardization.tau)
    o = load_snapshot(cfg, ONTOLOGY).ontology
    mentions = _load_mentions(cfg)
    index = standardization.build_index(o)
    result = standardization.standardize_corpus(
        mentions, o, index, selector, k=cfg.standardization.top_k
    )
    wd = workdir(cfg)
    write_jsonl(
        wd / STANDARDIZED_FILE,
        _meta(cfg, "standardize", selector=selector.name),
        (
            {"patientId": pid, "terms": result.terms_by_patient[pid]}
            for pid in sorted(result.terms_by_patient)
        ),
    )
    write_jsonl(
        wd / TRACE_FILE,
        _meta(cfg, "standardize", selector=selector.name),
        (t.to_dict() for t in result.trace),
    )
    resolved = sum(1 for t in result.trace if t.resolved is not None)
    return {
        "mentions": len(result.trace),
        "resolved": resolved,
        "patients": len(result.terms_by_patient),
    }


def _terms_row(row: dict) -> tuple[str, list[str]]:
    return row["patientId"], list(row["terms"])


def _load_term_lists(
    cfg: PipelineConfig, name: str, force: bool | None = None
) -> dict[str, list[str]]:
    """Per-patient term lists of the standardized or the rankings artifact."""
    return dict(_read_artifact(cfg, name, _terms_row, force))


def step_train(cfg: PipelineConfig) -> dict:
    """Fit the ranking model on the synthetic cohort."""
    snap = load_snapshot(cfg, ONTOLOGY, DISEASES, GENES)
    o, table = snap.ontology, snap.table
    cohort = _load_cohort(cfg)
    train_patients, val_patients = split_cohort(
        cohort, ratio=cfg.training.split_ratio, seed=cfg.seed
    )
    schema = FeatureSchema.for_cohort(cohort)
    tr = cfg.training
    per_class = tr.per_class_per_positive
    train_inst = build_instances(train_patients, o, table, schema, cfg.seed, per_class)
    val_inst = build_instances(val_patients, o, table, schema, cfg.seed, per_class)
    if tr.model == "linear":
        model = train_pairwise_linear(train_inst, tr, schema=schema, seed=cfg.seed)
    elif tr.model == "boosted":
        model = train_boosted(
            train_inst, tr, validation=val_inst, schema=schema, seed=cfg.seed
        )
    else:
        linear = train_pairwise_linear(train_inst, tr, schema=schema, seed=cfg.seed)
        boosted = train_boosted(
            train_inst, tr, validation=val_inst, schema=schema, seed=cfg.seed
        )
        model = select_model([linear, boosted], val_inst)
    doc = json.loads(model.to_json())
    doc["configHash"] = config_hash(cfg)
    _atomic_write(
        workdir(cfg) / MODEL_FILE, json.dumps(doc, sort_keys=True, indent=2) + "\n"
    )
    pairs = pair_index(train_inst)
    return {
        "kind": model.kind,
        "trainInstances": len(train_inst),
        "valInstances": len(val_inst),
        "trainPairs": pairs.pairs,
        "droppedPatients": pairs.dropped,
        "validationMap30": model.meta.validation_map30,
    }


def load_model(cfg: PipelineConfig) -> RankModel:
    path = workdir(cfg) / MODEL_FILE
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read model {path}: {e}") from e
    try:
        return RankModel.from_json(text)
    except (DataError, AttributeError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: not a readable model ({e!r})") from e


def step_rank(cfg: PipelineConfig, out: str | None = None) -> dict:
    """Order each patient's standardized terms by model score.

    With ``out`` the rankings are also exported there as plain JSONL.
    """
    snap = load_snapshot(cfg, ONTOLOGY, DISEASES, GENES)
    o, table = snap.ontology, snap.table
    cohort = {p.patient_id: p for p in _load_cohort(cfg)}
    standardized = _load_term_lists(cfg, STANDARDIZED_FILE)
    model = load_model(cfg)
    rows = []
    for pid in sorted(standardized):
        patient = cohort.get(pid)
        if patient is None:
            raise DataError(f"standardized terms for unknown patient {pid}")
        ranked = rank_terms(model, patient, standardized[pid], o, table)
        rows.append(
            {
                "patientId": pid,
                "terms": [t for t, _ in ranked],
                "scores": [score for _, score in ranked],
            }
        )
    write_jsonl(
        workdir(cfg) / RANKINGS_FILE, _meta(cfg, "rank", model=model.kind), rows
    )
    summary = {"patients": len(rows)}
    if out is not None:
        rankings = {row["patientId"]: row["terms"] for row in rows}
        try:
            _atomic_write(Path(out), evaluation.export_ranking(rankings))
        except OSError as e:
            raise DataError(f"cannot write rankings export {out}: {e}") from e
        summary["exported"] = out
    return summary


def step_evaluate(
    cfg: PipelineConfig, force: bool = False, external: str | None = None
) -> dict:
    """Score rankings against the cohort gold standard.

    The rankings are the pipeline's own artifact, or with ``external`` a
    rankings JSONL from elsewhere, whose invalid rows are skipped and counted.
    """
    snap = load_snapshot(cfg, ONTOLOGY, DISEASES)
    o, s = snap.ontology, snap.stats
    if external is None:
        rankings = _load_term_lists(cfg, RANKINGS_FILE, force)
        configuration = "prioritized"
        provenance = _provenance(cfg, artifact=RANKINGS_FILE)
    else:
        try:
            text = Path(external).read_text(encoding="utf-8")
        except OSError as e:
            raise DataError(f"cannot read external rankings {external}: {e}") from e
        imported = evaluation.import_external_ranking(text, o)
        for problem in imported.errors:
            logger.warning("external rankings: %s", problem)
        rankings = imported.rankings
        configuration = "external"
        provenance = {"configHash": config_hash(cfg), "source": external}
    report = evaluation.evaluate_cohort(
        rankings,
        _load_gold(cfg, force),
        o,
        s,
        cfg.evaluation,
        cfg.seed,
        configuration=configuration,
        provenance=provenance,
    )
    wd = workdir(cfg)
    _atomic_write(wd / EVAL_REPORT, report.to_json())
    _atomic_write(wd / EVAL_CSV, evaluation.report_csv([report]))
    summary = {
        "patients": report.cohort_size,
        "report": str(wd / EVAL_REPORT),
        "warnings": report.warnings,
    }
    if external is not None:
        summary["skippedRows"] = len(imported.errors)
    return summary


def step_ablate(cfg: PipelineConfig, force: bool = False) -> dict:
    """Evaluate the pipeline cut after each module."""
    snap = load_snapshot(cfg, ONTOLOGY, DISEASES)
    o, s = snap.ontology, snap.stats
    reports = evaluation.ablation_run(
        _load_mentions(cfg, force),
        _load_term_lists(cfg, STANDARDIZED_FILE, force),
        _load_term_lists(cfg, RANKINGS_FILE, force),
        _load_gold(cfg, force),
        o,
        s,
        cfg.evaluation,
        cfg.seed,
        provenance=_provenance(cfg),
    )
    wd = workdir(cfg)
    doc = {"reports": [r.to_dict() for r in reports]}
    _atomic_write(wd / ABLATION_REPORT, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    _atomic_write(wd / ABLATION_CSV, evaluation.report_csv(reports))
    return {
        "stages": [r.configuration for r in reports],
        "report": str(wd / ABLATION_REPORT),
        "warnings": {r.configuration: r.warnings for r in reports},
    }


def step_permtest(cfg: PipelineConfig, force: bool = False) -> dict:
    """Compare rankings against the exact mean over all orders of their terms."""
    snap = load_snapshot(cfg, ONTOLOGY, DISEASES)
    o, s = snap.ontology, snap.stats
    report = evaluation.permutation_delta(
        _load_term_lists(cfg, RANKINGS_FILE, force),
        _load_gold(cfg, force),
        o,
        s,
        cfg.evaluation,
        cfg.seed,
        provenance=_provenance(cfg, artifact=RANKINGS_FILE),
    )
    wd = workdir(cfg)
    _atomic_write(wd / PERMTEST_REPORT, report.to_json())
    _atomic_write(wd / PERMTEST_CSV, evaluation.report_csv([report]))
    return {
        "patients": report.cohort_size,
        "report": str(wd / PERMTEST_REPORT),
        "warnings": report.warnings,
    }


# The pipeline in run order, declared once: the CLI builds one subcommand per
# entry, named by the entry and described by the step's docstring.
STEPS = (
    ("ingest", step_ingest),
    ("synth", step_synth),
    ("chunk", step_chunk),
    ("extract", step_extract),
    ("standardize", step_standardize),
    ("train", step_train),
    ("rank", step_rank),
    ("evaluate", step_evaluate),
    ("ablate", step_ablate),
    ("permtest", step_permtest),
)
