"""End-to-end pipeline steps over a shared work directory.

``ingest`` is the one step that parses the input files (``read_input``): it
reads each once, parses those bytes, and writes the parsed inputs and the
sha256 of the bytes to ``inputs.npz``; a later step restores each part it uses
from there once the input files that part comes from still have that sha256.
``decode_text`` is the one place a file's bytes become text (inputs, JSONL
artifacts, the model, external rankings and the config file), so a byte that
is not UTF-8 is an error naming the file. Every other artifact carries a
lineage record (``Lineage``): the config sections and input files it depends
on and the sha256 of the bytes its step decoded of each work-directory file.
A step checks the record of every artifact it reads and refuses a stale one.
In a JSONL artifact the record sits in the first, meta line; each later line
is a row of the artifact's type in ``rows``, and a missing or wrong-typed
field is a DataError naming the file, the line and the field. Writes are
atomic (temp file then rename) so an interrupted step never leaves a
half-written artifact behind.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import logging
import os
import uuid
import weakref
import zipfile
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np

from . import annotations, corpus, evaluation, extraction, ontology, standardization
from .config import PipelineConfig, config_digests
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
from .rows import PatientTerms, Row

logger = logging.getLogger(__name__)

R = TypeVar("R", bound=Row)

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


def write_jsonl(path: Path, meta: dict, rows: Iterable[dict]) -> None:
    lines = [json.dumps({"__meta__": meta}, sort_keys=True)]
    lines.extend(json.dumps(row, sort_keys=True) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _read_bytes(path: Path, what: str) -> bytes:
    try:
        return path.read_bytes()
    except OSError as e:
        raise DataError(f"cannot read {what} {path}: {e}") from e


def decode_text(data: bytes, path: str | Path) -> str:
    """The text of ``data``, the bytes of file ``path``: the one place a file's
    bytes become text. A byte that is not UTF-8 is a DataError naming the file
    and the byte's offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: byte {e.start} is not UTF-8 ({e.reason})") from e


def read_input(cfg: PipelineConfig, field: str) -> bytes:
    """The bytes of the input file that ``cfg.paths.<field>`` names."""
    name = getattr(cfg.paths, field)
    if not name:
        raise ConfigError(f"paths.{field} is not set")
    return _read_bytes(Path(name), "input file")


def read_jsonl(
    path: Path, row_type: type[R] | None = None, data: bytes | None = None
) -> tuple[dict, list]:
    """The meta record and rows of a JSONL artifact, decoded as ``row_type`` if
    given; from ``data``, the file's bytes, when the caller has read them."""
    text = decode_text(_read_bytes(path, "artifact") if data is None else data, path)
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
        except RecursionError:
            raise DataError(f"{path} line {lineno}: JSON nested too deeply to decode") from None
        if meta is None:
            if not isinstance(obj, dict) or "__meta__" not in obj:
                raise StructuralError(f"{path} does not start with a meta line")
            obj = obj["__meta__"]
        if not isinstance(obj, dict):
            raise StructuralError(f"{path} line {lineno}: not a JSON object")
        if meta is None:
            meta = obj
        else:
            try:
                rows.append(obj if row_type is None else row_type.from_dict(obj))
            except DataError as e:
                raise DataError(f"{path} line {lineno}: {e}") from e
    if meta is None:
        raise StructuralError(f"{path} is empty")
    return meta, rows


# -- the input snapshot ------------------------------------------------------------


def _write_snapshot(
    path: Path,
    o: ontology.Ontology,
    s: ontology.OntologyStats,
    table: np.ndarray,
    digests: dict[str, str],
) -> None:
    meta = {"version": SNAPSHOT_VERSION, "sha256": digests, "totalDiseases": s.total_diseases}
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


# The input files, by ``paths`` field, that each snapshot part comes from.
PART_INPUTS = {
    "ontology": (ONTOLOGY,),
    "stats": (ONTOLOGY, DISEASES),
    "table": (ONTOLOGY, DISEASES, GENES),
}


@contextlib.contextmanager
def _reading_snapshot(path: Path):
    # Every way a missing, truncated or inconsistent snapshot fails; zipfile
    # raises NotImplementedError, a RuntimeError, for an unknown compression.
    try:
        yield
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


class Snapshot:
    """The parsed inputs as ``ingest`` wrote them, read through one open file.

    ``digests`` holds the sha256 ingest recorded for each input file, by
    ``paths`` field. A part is restored when first used, once the input files
    it comes from (``PART_INPUTS``) still have those digests (a ConfigError if
    not); ``used`` holds the digests so checked."""

    def __init__(self, cfg: PipelineConfig, path: Path, npz):
        # Closed with the snapshot, even one an exception's traceback holds.
        weakref.finalize(self, npz.close)
        meta = json.loads(ontology.array_member(npz, "meta", np.uint8).tobytes())
        if meta["version"] != SNAPSHOT_VERSION:
            raise ValueError(f"format version {meta['version']!r}, not {SNAPSHOT_VERSION}")
        if not isinstance(meta["sha256"], dict) or type(meta["totalDiseases"]) is not int:
            raise ValueError("malformed meta member")
        self.digests, self._total_diseases = meta["sha256"], meta["totalDiseases"]
        self.used: dict[str, str] = {}
        self._cfg, self._path, self._npz = cfg, path, npz

    def _check(self, part: str) -> None:
        for field in PART_INPUTS[part]:
            if field not in self.used:
                digest = hashlib.sha256(read_input(self._cfg, field)).hexdigest()
                if self.digests.get(field) != digest:
                    name = getattr(self._cfg.paths, field)
                    raise ConfigError(
                        f"{name} changed since ingest wrote {self._path}; rerun ingest"
                    )
                self.used[field] = self.digests[field]

    @functools.cached_property
    def ontology(self) -> ontology.Ontology:
        self._check("ontology")
        with _reading_snapshot(self._path):
            return ontology.Ontology.from_arrays(self._npz)

    @functools.cached_property
    def stats(self) -> ontology.OntologyStats:
        self._check("stats")
        n = len(self.ontology.ids)
        with _reading_snapshot(self._path):
            ic = ontology.array_member(self._npz, "ic", np.float64, n)
            counts = ontology.array_member(self._npz, "annot_count", np.int64, n)
        return ontology.OntologyStats(counts, self._total_diseases, ic)

    @functools.cached_property
    def table(self) -> np.ndarray:  # annotations.feature_table of the ontology
        self._check("table")
        shape = (len(self.ontology.ids), len(annotations.FEATURE_NAMES))
        with _reading_snapshot(self._path):
            table = self._npz["features"]
            if table.dtype != np.float64 or table.shape != shape:
                raise ValueError(f"features: {table.dtype} array of shape {table.shape}")
        return table


def load_snapshot(cfg: PipelineConfig) -> Snapshot:
    """The inputs ``ingest`` parsed; a missing or damaged snapshot is a DataError."""
    path = workdir(cfg) / INPUTS_FILE
    with _reading_snapshot(path):
        return Snapshot(cfg, path, np.load(path, allow_pickle=False))


class Lineage:
    """One run of a step: the artifacts it read, each checked, and the lineage
    record of the artifacts it writes.

    The record names the step and holds three maps of sha256 digests:
    ``config``, of each config part the artifact depends on (the seed, the
    step's own sections and those recorded by all it read; see
    ``config.config_digests``); ``inputs``, of each input file it depends on
    (those of the snapshot parts the step used and those recorded by all it
    read), as ingest recorded them; ``reads``, of the bytes the step decoded
    of each work-directory file it read (never ``inputs.npz``: ``inputs``
    stands for it). An artifact is refused (ConfigError naming it, what
    changed and the step to rerun) unless every digest it records is current,
    each file it read passing the same check first; a file it read that is
    gone has changed. A record that names a step other than the one that
    writes its file (``Step.writes``), or lacks the digest of the seed, of a
    section that step declares, of a file it always reads (``Step.reads``) or
    of an input file of a part it always restores (``Step.parts``), is
    refused as if it were missing.
    """

    def __init__(self, cfg: PipelineConfig, step: str):
        self.step, self.wd = step, workdir(cfg)
        self.snapshot = load_snapshot(cfg)
        self.current = {**self.snapshot.digests, **config_digests(cfg)}
        self.config = {part: self.current[part] for part in DECLARED[step]}
        self.inputs: dict[str, str] = {}
        self.reads: dict[str, str] = {}
        self._digests: dict[str, str | None] = {}
        self._decoded: dict[str, bytes] = {}

    def load(self, name: str) -> bytes:
        """The bytes of work-directory file ``name``; ``digest`` hashes them."""
        data = self._decoded[name] = _read_bytes(self.wd / name, "artifact")
        return data

    def read(self, *artifacts: tuple[str, type[Row]]) -> list[list]:
        """The rows of each ``(name, row type)`` JSONL artifact, all decoded
        before any is checked: a damaged one is a DataError, not a stale
        record of the artifacts built from it."""
        rows = [read_jsonl(self.wd / n, t, self.load(n))[1] for n, t in artifacts]
        for name, _ in artifacts:
            self.reads[name] = self.digest(name)
        return rows

    def digest(self, name: str) -> str | None:
        """The sha256 of the work-directory file ``name``, once its lineage holds."""
        if name not in self._digests:
            self._digests[name] = None  # a record that cycles back here never holds
            path = self.wd / Path(name).name  # a record names work-directory files only
            data = self._decoded.pop(name, None)
            if data is None:
                if not path.is_file():
                    return None  # gone since a record named it: that record is stale
                data = _read_bytes(path, "artifact")
            jsonl = name.endswith(".jsonl")
            text = decode_text(data.partition(b"\n")[0] if jsonl else data, path)
            try:
                doc = json.loads(text)
                lineage = (doc["__meta__"] if jsonl else doc)["lineage"]
                step = lineage["step"]
                parts = [lineage[part].items() for part in ("reads", "config", "inputs")]
                # A record must name the step that writes its file and hold
                # each config part and file that step depends on, or a
                # deleted part would hide a change.
                valid = (
                    WRITER.get(path.name) == step
                    and set(DECLARED[step]) <= lineage["config"].keys()
                    and set(READS[step]) <= lineage["reads"].keys()
                    and INPUTS[step] <= lineage["inputs"].keys()
                )
            # RecursionError: a meta line nested too deeply to decode.
            except (ValueError, LookupError, TypeError, AttributeError, RecursionError):
                valid = False
            if not valid:
                raise ConfigError(
                    f"{name} has no valid lineage record; rerun the step that writes it"
                )
            # The files it read first, so an error names the earliest stale one.
            now = {**self.current, **{k: self.digest(k) for k, _ in parts[0]}}
            if stale := sorted(k for items in parts for k, v in items if now.get(k) != v):
                raise ConfigError(
                    f"{name} is stale: {', '.join(stale)} changed since {step} wrote it;"
                    f" rerun {step}"
                )
            self.config.update(lineage["config"])
            self.inputs.update(lineage["inputs"])
            self._digests[name] = hashlib.sha256(data).hexdigest()
        return self._digests[name]

    def record(self) -> dict:
        inputs = {**self.inputs, **self.snapshot.used}
        return dict(step=self.step, config=self.config, inputs=inputs, reads=self.reads)

    def meta(self, **extra) -> dict:
        """The meta line of a JSONL artifact the step writes."""
        return {"lineage": self.record(), "version": ARTIFACT_VERSION, **extra}


def _by_patient(rows: list, attr: str) -> dict:
    return {row.patient_id: getattr(row, attr) for row in rows}


# -- steps -------------------------------------------------------------------------


def step_ingest(cfg: PipelineConfig) -> dict:
    """Parse and validate the inputs; write the snapshot the later steps read."""
    # Each file is read once; the snapshot records the sha256 of the bytes
    # parsed. The table comes from all three.
    data = {field: read_input(cfg, field) for field in PART_INPUTS["table"]}
    text = {field: decode_text(b, getattr(cfg.paths, field)) for field, b in data.items()}
    if Path(cfg.paths.ontology).suffix.lower() == ".json":
        o = ontology.parse_ontology_json(text[ONTOLOGY])
    else:
        o = ontology.parse_obo(text[ONTOLOGY])
    kb = annotations.load_annotations(text[DISEASES], text[GENES], o)
    s = ontology.compute_stats(o, kb)
    table = annotations.feature_table(o, s, kb)
    digests = {field: hashlib.sha256(b).hexdigest() for field, b in data.items()}
    _write_snapshot(workdir(cfg) / INPUTS_FILE, o, s, table, digests)
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
    run = Lineage(cfg, "synth")
    o, s = run.snapshot.ontology, run.snapshot.stats
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
    write_jsonl(run.wd / COHORT_FILE, run.meta(), (p.to_dict() for p in cohort))
    write_jsonl(run.wd / NOTES_FILE, run.meta(), (n.to_dict() for n in notes))
    return {"patients": len(cohort), "notes": len(notes)}


def step_chunk(cfg: PipelineConfig) -> dict:
    """Split notes into sentence-preserving chunks."""
    run = Lineage(cfg, "chunk")
    (notes,) = run.read((NOTES_FILE, corpus.ClinicalNote))
    chunks: list[corpus.NoteChunk] = []
    for note in notes:
        chunks.extend(corpus.chunk_note(note, cfg.chunking.max_chars))
    write_jsonl(run.wd / CHUNKS_FILE, run.meta(), (c.to_dict() for c in chunks))
    return {"notes": len(notes), "chunks": len(chunks)}


def step_extract(cfg: PipelineConfig, concurrency: int | None = None) -> dict:
    """Extract phenotype mentions from every chunk.

    ``concurrency`` overrides ``extraction.concurrency``, which no lineage
    record holds.
    """
    settings = cfg.extraction
    if concurrency is not None:
        settings = dataclasses.replace(settings, concurrency=concurrency)
        settings.validate()
    run = Lineage(cfg, "extract")
    (chunks,) = run.read((CHUNKS_FILE, corpus.NoteChunk))
    if cfg.extraction.backend == "remote":
        extraction.verify_credentials(cfg.extraction)
        template = extraction.DEFAULT_PROMPT_TEMPLATE

        def backend(chunk):
            return extraction.remote_extract(cfg.extraction, template, chunk)

    else:
        backend = extraction.Gazetteer(run.snapshot.ontology).extract

    result = extraction.extract_corpus(
        chunks, backend, concurrency_limit=settings.concurrency
    )
    failures = [f.to_dict() for f in result.failures]
    rows = (
        extraction.PatientMentions(pid, mentions).to_dict()
        for pid, mentions in sorted(result.mentions_by_patient.items())
    )
    write_jsonl(
        run.wd / MENTIONS_FILE,
        run.meta(backend=cfg.extraction.backend, failures=failures),
        rows,
    )
    total = sum(len(v) for v in result.mentions_by_patient.values())
    return {
        "chunks": len(chunks),
        "mentions": total,
        "patients": len(result.mentions_by_patient),
        "failures": len(failures),
    }


def step_standardize(cfg: PipelineConfig) -> dict:
    """Resolve mentions to ontology terms."""
    if cfg.standardization.selector == "remote":
        extraction.verify_credentials(cfg.extraction)
        selector = standardization.RemoteSelector(cfg.extraction)
    else:
        selector = standardization.ThresholdSelector(cfg.standardization.tau)
    run = Lineage(cfg, "standardize")
    o = run.snapshot.ontology
    (mentions,) = run.read((MENTIONS_FILE, extraction.PatientMentions))
    index = standardization.build_index(o)
    result = standardization.standardize_corpus(
        _by_patient(mentions, "mentions"), o, index, selector, k=cfg.standardization.top_k
    )
    write_jsonl(
        run.wd / STANDARDIZED_FILE,
        run.meta(selector=selector.name),
        (
            PatientTerms(pid, terms).to_dict()
            for pid, terms in sorted(result.terms_by_patient.items())
        ),
    )
    write_jsonl(
        run.wd / TRACE_FILE,
        run.meta(selector=selector.name),
        (t.to_dict() for t in result.trace),
    )
    resolved = sum(1 for t in result.trace if t.resolved is not None)
    return {
        "mentions": len(result.trace),
        "resolved": resolved,
        "patients": len(result.terms_by_patient),
    }


def step_train(cfg: PipelineConfig) -> dict:
    """Fit the ranking model on the synthetic cohort."""
    run = Lineage(cfg, "train")
    o, table = run.snapshot.ontology, run.snapshot.table
    (cohort,) = run.read((COHORT_FILE, corpus.Patient))
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
    doc = {**model.to_dict(), "lineage": run.record()}
    _atomic_write(run.wd / MODEL_FILE, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return {
        "kind": model.kind,
        "trainInstances": len(train_inst),
        "valInstances": len(val_inst),
        "trainPairs": train_inst.pairs.pairs,
        "droppedPatients": train_inst.pairs.dropped,
        "validationMap30": model.meta.validation_map30,
    }


def load_model(run: Lineage) -> RankModel:
    """The trained model, decoded and then checked as ``Lineage.read`` checks;
    a wrong type or value is a DataError naming the file and the field."""
    path = run.wd / MODEL_FILE
    text = decode_text(run.load(MODEL_FILE), path)
    try:
        model = RankModel.from_json(text)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e
    run.reads[MODEL_FILE] = run.digest(MODEL_FILE)
    return model


def step_rank(cfg: PipelineConfig, out: str | None = None) -> dict:
    """Order each patient's standardized terms by model score.

    With ``out`` the rankings are also exported there as plain JSONL.
    """
    run = Lineage(cfg, "rank")
    o, table = run.snapshot.ontology, run.snapshot.table
    patients, standardized = run.read(
        (COHORT_FILE, corpus.Patient), (STANDARDIZED_FILE, PatientTerms)
    )
    cohort = {p.patient_id: p for p in patients}
    model = load_model(run)
    rankings: dict[str, list[str]] = {}
    rows = []
    for pid, terms in sorted(_by_patient(standardized, "terms").items()):
        patient = cohort.get(pid)
        if patient is None:
            raise DataError(
                f"{STANDARDIZED_FILE} has terms for patient {pid!r}, "
                f"who has no row in {COHORT_FILE}"
            )
        ranked = rank_terms(model, patient, terms, o, table)
        rankings[pid] = [t for t, _ in ranked]
        scores = [score for _, score in ranked]
        rows.append({**PatientTerms(pid, rankings[pid]).to_dict(), "scores": scores})
    write_jsonl(run.wd / RANKINGS_FILE, run.meta(model=model.kind), rows)
    summary = {"patients": len(rows)}
    if out is not None:
        try:
            _atomic_write(Path(out), evaluation.export_ranking(rankings))
        except OSError as e:
            raise DataError(f"cannot write rankings export {out}: {e}") from e
        summary["exported"] = out
    return summary


def step_evaluate(cfg: PipelineConfig, external: str | None = None) -> dict:
    """Score rankings against the cohort gold standard.

    The rankings are the pipeline's own artifact, or with ``external`` a
    rankings JSONL from elsewhere, whose invalid rows are skipped and counted.
    """
    run = Lineage(cfg, "evaluate")
    o, s = run.snapshot.ontology, run.snapshot.stats
    if external is None:
        ranked, cohort = run.read((RANKINGS_FILE, PatientTerms), (COHORT_FILE, corpus.Patient))
        rankings = _by_patient(ranked, "terms")
        configuration, provenance = "prioritized", run.record()
    else:
        data = _read_bytes(Path(external), "external rankings")
        imported = evaluation.import_external_ranking(decode_text(data, external), o)
        for problem in imported.errors:
            logger.warning("external rankings: %s", problem)
        rankings = imported.rankings
        (cohort,) = run.read((COHORT_FILE, corpus.Patient))
        source = hashlib.sha256(data).hexdigest()
        configuration, provenance = "external", {**run.record(), "source": source}
    report = evaluation.evaluate_cohort(
        rankings,
        _by_patient(cohort, "curated_terms"),
        o,
        s,
        cfg.evaluation,
        cfg.seed,
        configuration=configuration,
        provenance=provenance,
    )
    _atomic_write(run.wd / EVAL_REPORT, report.to_json())
    _atomic_write(run.wd / EVAL_CSV, evaluation.report_csv([report]))
    summary = {
        "patients": report.cohort_size,
        "report": str(run.wd / EVAL_REPORT),
        "warnings": report.warnings,
    }
    if external is not None:
        summary["skippedRows"] = len(imported.errors)
    return summary


def step_ablate(cfg: PipelineConfig) -> dict:
    """Evaluate the pipeline cut after each module."""
    run = Lineage(cfg, "ablate")
    o, s = run.snapshot.ontology, run.snapshot.stats
    mentions, standardized, ranked, cohort = run.read(
        (MENTIONS_FILE, extraction.PatientMentions),
        (STANDARDIZED_FILE, PatientTerms),
        (RANKINGS_FILE, PatientTerms),
        (COHORT_FILE, corpus.Patient),
    )
    reports = evaluation.ablation_run(
        _by_patient(mentions, "mentions"),
        _by_patient(standardized, "terms"),
        _by_patient(ranked, "terms"),
        _by_patient(cohort, "curated_terms"),
        o,
        s,
        cfg.evaluation,
        cfg.seed,
        provenance=run.record(),
    )
    doc = {"reports": [r.to_dict() for r in reports]}
    path = run.wd / ABLATION_REPORT
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    _atomic_write(run.wd / ABLATION_CSV, evaluation.report_csv(reports))
    return {
        "stages": [r.configuration for r in reports],
        "report": str(path),
        "warnings": {r.configuration: r.warnings for r in reports},
    }


def step_permtest(cfg: PipelineConfig) -> dict:
    """Compare rankings against the exact mean over all orders of their terms."""
    run = Lineage(cfg, "permtest")
    o, s = run.snapshot.ontology, run.snapshot.stats
    ranked, cohort = run.read((RANKINGS_FILE, PatientTerms), (COHORT_FILE, corpus.Patient))
    report = evaluation.permutation_delta(
        _by_patient(ranked, "terms"),
        _by_patient(cohort, "curated_terms"),
        o,
        s,
        cfg.evaluation,
        cfg.seed,
        provenance=run.record(),
    )
    _atomic_write(run.wd / PERMTEST_REPORT, report.to_json())
    _atomic_write(run.wd / PERMTEST_CSV, evaluation.report_csv([report]))
    return {
        "patients": report.cohort_size,
        "report": str(run.wd / PERMTEST_REPORT),
        "warnings": report.warnings,
    }


@dataclasses.dataclass(frozen=True)
class Step:
    """A row of ``STEPS``: the step's name and function, the work-directory
    files it writes, the config sections it reads besides the seed, the
    work-directory files it reads on every run, and the snapshot parts it
    restores on every run; the sections, the files and the parts' input
    files enter the lineage record of every artifact it writes."""

    name: str
    run: Callable[..., dict]
    writes: tuple[str, ...]
    sections: tuple[str, ...] = ()
    reads: tuple[str, ...] = ()
    parts: tuple[str, ...] = ()


# The pipeline in run order, declared once: the CLI builds one subcommand per
# row, named by the row and described by the step's docstring. ``paths`` and
# ``extraction.concurrency`` are in no step's sections (config_digests).
STEPS = (
    Step("ingest", step_ingest, (INPUTS_FILE,)),
    Step(
        "synth",
        step_synth,
        (COHORT_FILE, NOTES_FILE),
        ("cohort",),
        parts=("ontology", "stats"),
    ),
    Step("chunk", step_chunk, (CHUNKS_FILE,), ("chunking",), (NOTES_FILE,)),
    # A remote extract restores no part.
    Step("extract", step_extract, (MENTIONS_FILE,), ("extraction",), (CHUNKS_FILE,)),
    Step(
        "standardize",
        step_standardize,
        (STANDARDIZED_FILE, TRACE_FILE),
        ("standardization", "extraction"),
        (MENTIONS_FILE,),
        ("ontology",),
    ),
    Step(
        "train",
        step_train,
        (MODEL_FILE,),
        ("training",),
        (COHORT_FILE,),
        ("ontology", "table"),
    ),
    Step(
        "rank",
        step_rank,
        (RANKINGS_FILE,),
        reads=(COHORT_FILE, STANDARDIZED_FILE, MODEL_FILE),
        parts=("ontology", "table"),
    ),
    # With --external, evaluate reads no rankings.jsonl.
    Step(
        "evaluate",
        step_evaluate,
        (EVAL_REPORT, EVAL_CSV),
        ("evaluation",),
        (COHORT_FILE,),
        ("ontology", "stats"),
    ),
    Step(
        "ablate",
        step_ablate,
        (ABLATION_REPORT, ABLATION_CSV),
        ("evaluation",),
        (MENTIONS_FILE, STANDARDIZED_FILE, RANKINGS_FILE, COHORT_FILE),
        ("ontology", "stats"),
    ),
    Step(
        "permtest",
        step_permtest,
        (PERMTEST_REPORT, PERMTEST_CSV),
        ("evaluation",),
        (RANKINGS_FILE, COHORT_FILE),
        ("ontology", "stats"),
    ),
)

# The config parts each step itself records: the seed and its sections.
DECLARED = {step.name: ("seed", *step.sections) for step in STEPS}
# The work-directory files each step reads on every run.
READS = {step.name: step.reads for step in STEPS}
# The input files, by ``paths`` field, of the parts each step restores on every run.
INPUTS = {step.name: {f for part in step.parts for f in PART_INPUTS[part]} for step in STEPS}
# The step that writes each work-directory file.
WRITER = {name: step.name for step in STEPS for name in step.writes}
