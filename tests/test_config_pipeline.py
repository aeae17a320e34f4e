import collections
import dataclasses
import hashlib
import json
import os
import re
import sys
import threading
import typing

import numpy as np
import pytest
import yaml

import helpers
from phenorank import annotations, corpus, ontology, pipeline
from phenorank.annotations import feature_table
from phenorank.config import (
    PipelineConfig,
    config_digests,
    config_from_dict,
    load_config,
)
from phenorank.errors import (
    ConfigError,
    CredentialError,
    DataError,
    StructuralError,
)
from phenorank.ranking import FeatureSchema, build_instances, split_cohort


def write_workspace(root, seed=11, **section_overrides):
    """Materialize ontology and annotation files plus a runnable config."""
    (root / "ontology.json").write_text(
        helpers.ontology_to_json(helpers.layered_ontology()), encoding="utf-8"
    )
    disease, gene = helpers.layered_annotation_text()
    (root / "disease.tsv").write_text(disease, encoding="utf-8")
    (root / "gene.tsv").write_text(gene, encoding="utf-8")
    data = {
        "seed": seed,
        "paths": {
            "ontology": str(root / "ontology.json"),
            "disease_annotations": str(root / "disease.tsv"),
            "gene_annotations": str(root / "gene.tsv"),
            "workdir": str(root / "work"),
        },
        "cohort": {"size": 12, "max_terms": 8, "distractors_per_patient": 3},
        "training": {"model": "linear", "linear_epochs": 60},
        "evaluation": {
            "cutoffs": [10, 20],
            "bootstrap_iterations": 40,
        },
    }
    for section, overrides in section_overrides.items():
        data.setdefault(section, {}).update(overrides)
    return config_from_dict(data)


class TestConfigLoading:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("", encoding="utf-8")
        cfg = load_config(path)
        assert cfg == PipelineConfig()
        assert cfg.seed == 0
        assert cfg.cohort.size == 20
        assert cfg.evaluation.cutoffs == (10, 20, 30, 40, 50)

    def test_values_load_and_coerce(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            yaml.safe_dump(
                {
                    "seed": 7,
                    "cohort": {"size": 50},
                    "standardization": {"tau": 1},
                    "evaluation": {"cutoffs": [5, 15]},
                }
            ),
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg.seed == 7
        assert cfg.cohort.size == 50
        assert cfg.standardization.tau == 1.0
        assert isinstance(cfg.standardization.tau, float)
        assert cfg.evaluation.cutoffs == (5, 15)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration sections"):
            config_from_dict({"cohorts": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"cohort": {"sizes": 10}})

    def test_unknown_keys_of_mixed_types_named_in_order(self):
        with pytest.raises(ConfigError, match=r"\['1', 1, 'x'\]"):
            config_from_dict({"cohort": {"x": 3, "1": 4, 1: 2}})
        with pytest.raises(ConfigError, match=r"\[2.5, None, 'x'\]"):
            config_from_dict({None: 1, "x": 2, 2.5: 3})

    @pytest.mark.parametrize(
        "data,hint",
        [
            ({"seed": "x"}, "seed"),
            ({"seed": True}, "seed"),
            ({"cohort": {"size": "big"}}, "cohort.size"),
            ({"cohort": {"size": True}}, "cohort.size"),
            ({"standardization": {"tau": "high"}}, "standardization.tau"),
            ({"extraction": {"backend": 3}}, "extraction.backend"),
            ({"evaluation": {"cutoffs": [10, "x"]}}, "evaluation.cutoffs"),
            ({"evaluation": {"cutoffs": 10}}, "evaluation.cutoffs"),
        ],
    )
    def test_type_errors(self, data, hint):
        with pytest.raises(ConfigError, match=hint.replace(".", r"\.")):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"standardization": {"tau": 2.0}},
            {"evaluation": {"cutoffs": [20, 10]}},
            {"extraction": {"backend": "other"}},
            {"extraction": {"concurrency": 0}},
            {"extraction": {"backend": "remote"}},
            {"training": {"split_ratio": 1.0}},
            {"training": {"model": "other"}},
            {"evaluation": {"cutoffs": []}},
            {"evaluation": {"cutoffs": [0, 5]}},
            {"evaluation": {"cutoffs": [5, 5]}},
            {"evaluation": {"bootstrap_iterations": 0}},
            {"cohort": {"size": 0}},
            {"training": {"linear_epochs": -1}},
            {"training": {"boosted_rounds": 0}},
            {"training": {"boosted_max_depth": 0}},
            {"standardization": {"selector": "remote"}},
            {"training": {"boosted_min_leaf": 0}},
            {"training": {"boosted_l1": -0.1}},
            {"training": {"boosted_l2": -1.0}},
            {"training": {"linear_l2": -1e-4}},
            {"training": {"linear_learning_rate": 0.0}},
            {"training": {"boosted_learning_rate": -0.1}},
            {"training": {"boosted_patience": 0}},
            {"training": {"boosted_patience": -3}},
        ],
    )
    def test_section_validation(self, data):
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("cohort: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(path)



# One value of each JSON type, by the name an error gives the type.
JSON_VALUES = {
    "a string": "x",
    "an integer": 7,
    "a number": 7.5,
    "a boolean": True,
    "null": None,
    "an array": ["x"],
    "an object": {"k": 7},
}
# The JSON types each setting type accepts; an array of integers takes none of
# the values above.
ACCEPTED = {str: {"a string"}, int: {"an integer"}, float: {"an integer", "a number"}}


def every_setting():
    """(section or None, key, type) of the seed and of every section field."""
    for name, tp in typing.get_type_hints(PipelineConfig).items():
        if dataclasses.is_dataclass(tp):
            for key, field_type in typing.get_type_hints(tp).items():
                yield name, key, field_type
        else:
            yield None, name, tp


SETTINGS = list(every_setting())


@pytest.mark.parametrize(
    "section, key, tp",
    SETTINGS,
    ids=[key if section is None else f"{section}.{key}" for section, key, _ in SETTINGS],
)
def test_every_setting_names_itself_for_each_wrong_json_type(section, key, tp):
    where = key if section is None else f"{section}.{key}"
    for kind, value in JSON_VALUES.items():
        if kind in ACCEPTED.get(tp, ()):
            continue
        data = {key: value} if section is None else {section: {key: value}}
        with pytest.raises(ConfigError, match=f"^field '{re.escape(where)}[\\['].* is "):
            config_from_dict(data)


class TestConfigHash:
    """``config_digests``: one sha256 for the seed and for each settings section."""

    def test_pinned_digests(self):
        assert config_digests(PipelineConfig()) == {
            "seed": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
            "cohort": "444c99bf8240f19831fa7f4849cf7381df9f44f782b05498875bad05be386c0c",
            "chunking": "1894e647ff55adf26078271519830c1d258f71b794a6a2e05472c27e1b8bdfe8",
            "extraction": "db9dc7b238760b9217c3b4e0a2392cff3ada74bb150d643e9d809d24b30acc4c",
            "standardization": "134b4af85d9bae9cefff2062b3af8c483b5966c44fad79b59e13a093840dd648",
            "training": "51a19b97401a8929e247bf2a4e72b5fc6cac51155206d79f0d1200e55e719d05",
            "evaluation": "b467260dd31ddcb201bda2b91a218f79d781bc0ccb2c098c99053c2464957253",
        }
        other = config_from_dict(
            {
                "seed": 7,
                "cohort": {"size": 30},
                "extraction": {
                    "backend": "remote",
                    "endpoint_url": "http://localhost:9/x",
                    "concurrency": 4,
                    "timeout": 5,
                },
                "standardization": {"tau": 1},
                "training": {"model": "boosted", "boosted_rounds": 30},
                "evaluation": {"cutoffs": [5, 15]},
            }
        )
        assert config_digests(other) == {
            "seed": "7902699be42c8a8e46fbbb4501726517e86b22c56a189f7625a6da49081b2451",
            "cohort": "4eea41d0409d5cb6dff085c929e7ec858f29d108543f796dccff909552a9910d",
            "chunking": "1894e647ff55adf26078271519830c1d258f71b794a6a2e05472c27e1b8bdfe8",
            "extraction": "7f0de04cba5f75865524664cb8ddc0edf9017be3f14db5ae769cff619884a1ee",
            "standardization": "6cf991f5c2668a170a9a079e8ce168b2e4d8a8d3f3d895be925dfe2664b2e1c7",
            "training": "62489c56030fa2934be42b5afd222bb5480473208cfa457aeec172fd3bd2afb6",
            "evaluation": "ece7b35047e750c46bf93f3cd9dbbdcb76eaa810dd0fdc19d53bf8ce950c4f99",
        }

    def test_stable_and_hex(self):
        a = config_digests(config_from_dict({"seed": 3}))
        assert a == config_digests(config_from_dict({"seed": 3}))
        assert set(a) == {
            "seed", "cohort", "chunking", "extraction", "standardization", "training",
            "evaluation",
        }
        for digest in a.values():
            assert len(digest) == 64
            int(digest, 16)

    def test_sensitive_to_values(self):
        base = config_digests(config_from_dict({}))
        for data, part in [
            ({"seed": 1}, "seed"),
            ({"cohort": {"size": 21}}, "cohort"),
            ({"evaluation": {"bootstrap_iterations": 200}}, "evaluation"),
        ]:
            other = config_digests(config_from_dict(data))
            assert {k for k in base if base[k] != other[k]} == {part}
        moved = config_digests(config_from_dict({"paths": {"workdir": "elsewhere"}}))
        assert moved == base

    def test_concurrency_does_not_change_hash(self):
        one = config_from_dict({"extraction": {"concurrency": 1}})
        eight = config_from_dict({"extraction": {"concurrency": 8}})
        assert config_digests(one) == config_digests(eight)


class TestArtifactIO:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        meta_in = {"lineage": {"step": "demo"}, "note": "x", "version": 1}
        pipeline.write_jsonl(path, meta_in, [{"b": 2}, {"a": 1}])
        meta, rows = pipeline.read_jsonl(path)
        assert meta == meta_in
        assert rows == [{"b": 2}, {"a": 1}]
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert json.loads(first)["__meta__"]["lineage"]["step"] == "demo"
        assert not list(tmp_path.glob("*.tmp"))

    def test_atomic_write_concurrent_writers(self, tmp_path):
        path = tmp_path / "artifact.json"
        texts = [f"writer {i}\n" * 50 for i in range(4)]
        errors = []

        def writer(text):
            for _ in range(200):
                try:
                    pipeline._atomic_write(path, text)
                except OSError as e:
                    errors.append(e)

        threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert path.read_text(encoding="utf-8") in texts
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_atomic_write_keeps_default_file_mode(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x", encoding="utf-8")
        path = tmp_path / "artifact.json"
        pipeline._atomic_write(path, "x")
        assert path.stat().st_mode == plain.stat().st_mode

    def test_atomic_write_failure_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        with pytest.raises(UnicodeEncodeError):
            pipeline._atomic_write(path, "lone surrogate \ud800")
        assert list(tmp_path.iterdir()) == []

    def test_missing_meta_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n', encoding="utf-8")
        with pytest.raises(StructuralError, match="meta line"):
            pipeline.read_jsonl(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(StructuralError, match="empty"):
            pipeline.read_jsonl(path)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"__meta__": {}}\n{broken\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            pipeline.read_jsonl(path)

    def test_nested_too_deeply_names_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        deep = "[" * 10**5 + "]" * 10**5
        path.write_text(f'{{"__meta__": {{}}}}\n{{"k": {deep}}}\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2: JSON nested too deeply"):
            pipeline.read_jsonl(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            pipeline.read_jsonl(tmp_path / "absent.jsonl")


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One full pipeline run on a small deterministic workspace."""
    root = tmp_path_factory.mktemp("chain")
    cfg = write_workspace(root)
    summaries = {step.name: step.run(cfg) for step in pipeline.STEPS}
    return cfg, summaries


class TestPipelineChain:
    def test_ingest_artifacts(self, chain):
        _, summaries = chain
        assert summaries["ingest"]["terms"] == 169
        assert summaries["ingest"]["obsolete"] == 0
        assert summaries["ingest"]["diseases"] == {"omim": 128, "orphanet": 64}
        assert summaries["ingest"]["genes"] == 128
        assert summaries["ingest"]["featureRows"] == 169

    def test_synth_artifacts(self, chain):
        cfg, summaries = chain
        wd = pipeline.workdir(cfg)
        assert summaries["synth"]["patients"] == 12
        meta, cohort_rows = pipeline.read_jsonl(wd / pipeline.COHORT_FILE)
        digests = config_digests(cfg)
        assert meta["lineage"] == {
            "step": "synth",
            "config": {part: digests[part] for part in ("seed", "cohort")},
            "inputs": {
                field: helpers.file_digest(getattr(cfg.paths, field))
                for field in (pipeline.ONTOLOGY, pipeline.DISEASES)
            },
            "reads": {},
        }
        assert len(cohort_rows) == 12
        assert [r["patientId"] for r in cohort_rows] == [
            f"P{i:04d}" for i in range(1, 13)
        ]
        assert all(1 <= len(r["curatedTerms"]) <= 8 for r in cohort_rows)
        _, note_rows = pipeline.read_jsonl(wd / pipeline.NOTES_FILE)
        assert len(note_rows) == 12

    def test_chunks_cover_notes(self, chain):
        cfg, _ = chain
        wd = pipeline.workdir(cfg)
        _, note_rows = pipeline.read_jsonl(wd / pipeline.NOTES_FILE)
        _, chunk_rows = pipeline.read_jsonl(wd / pipeline.CHUNKS_FILE)
        assert all(len(r["text"]) <= cfg.chunking.max_chars for r in chunk_rows)
        by_note = {}
        for row in chunk_rows:
            by_note.setdefault(row["noteId"], []).append(row)
        for note in note_rows:
            parts = sorted(by_note[note["noteId"]], key=lambda r: r["startOffset"])
            assert "".join(p["text"] for p in parts) == note["text"]

    def test_extract_finds_all_curated_names(self, chain):
        cfg, summaries = chain
        wd = pipeline.workdir(cfg)
        assert summaries["extract"]["failures"] == 0
        assert summaries["extract"]["patients"] == 12
        o, _, _ = helpers.parse_inputs(cfg.paths)
        _, cohort_rows = pipeline.read_jsonl(wd / pipeline.COHORT_FILE)
        _, mention_rows = pipeline.read_jsonl(wd / pipeline.MENTIONS_FILE)
        surfaces = {
            r["patientId"]: {m["surface"].lower() for m in r["mentions"]}
            for r in mention_rows
        }
        for row in cohort_rows:
            names = {o.terms[t].name.lower() for t in row["curatedTerms"]}
            assert names <= surfaces[row["patientId"]]

    def test_standardize_recovers_curated_terms(self, chain):
        cfg, summaries = chain
        wd = pipeline.workdir(cfg)
        assert summaries["standardize"]["resolved"] > 0
        _, cohort_rows = pipeline.read_jsonl(wd / pipeline.COHORT_FILE)
        _, std_rows = pipeline.read_jsonl(wd / pipeline.STANDARDIZED_FILE)
        terms = {r["patientId"]: set(r["terms"]) for r in std_rows}
        for row in cohort_rows:
            assert set(row["curatedTerms"]) <= terms[row["patientId"]]
        assert (wd / pipeline.TRACE_FILE).exists()

    def test_train_writes_model(self, chain):
        cfg, summaries = chain
        wd = pipeline.workdir(cfg)
        assert summaries["train"]["kind"] == "pairwiseLinear"
        assert summaries["train"]["trainInstances"] > 0
        doc = json.loads((wd / pipeline.MODEL_FILE).read_text())
        assert doc["lineage"]["step"] == "train"
        assert sorted(doc["lineage"]["config"]) == ["cohort", "seed", "training"]
        assert list(doc["lineage"]["reads"]) == [pipeline.COHORT_FILE]
        model = pipeline.load_model(pipeline.Lineage(cfg, "rank"))
        assert model.kind == "pairwiseLinear"

    def test_train_counts_pairs_and_dropped_patients(self, chain):
        cfg, summaries = chain
        o, kb, s = helpers.parse_inputs(cfg.paths)
        _, cohort = pipeline.read_jsonl(
            pipeline.workdir(cfg) / pipeline.COHORT_FILE, corpus.Patient
        )
        train_patients, _ = split_cohort(
            cohort, ratio=cfg.training.split_ratio, seed=cfg.seed
        )
        instances = build_instances(
            train_patients,
            o,
            feature_table(o, s, kb),
            FeatureSchema.for_cohort(cohort),
            cfg.seed,
            per_class_per_positive=cfg.training.per_class_per_positive,
        )
        counts: dict[str, list[int]] = {}
        for inst in instances:
            counts.setdefault(inst.patient_id, [0, 0])[inst.label] += 1
        pairs = sum(neg * pos for neg, pos in counts.values())
        dropped = sum(1 for neg, pos in counts.values() if not (neg and pos))
        assert summaries["train"]["trainPairs"] == pairs > 0
        assert summaries["train"]["droppedPatients"] == dropped
        text = (pipeline.workdir(cfg) / pipeline.MODEL_FILE).read_text()
        assert "trainPairs" not in text
        assert "droppedPatients" not in text

    def test_rank_orders_standardized_terms(self, chain):
        cfg, summaries = chain
        wd = pipeline.workdir(cfg)
        assert summaries["rank"]["patients"] == 12
        _, std_rows = pipeline.read_jsonl(wd / pipeline.STANDARDIZED_FILE)
        _, rank_rows = pipeline.read_jsonl(wd / pipeline.RANKINGS_FILE)
        std = {r["patientId"]: set(r["terms"]) for r in std_rows}
        for row in rank_rows:
            assert set(row["terms"]) == std[row["patientId"]]
            scores = row["scores"]
            assert scores == sorted(scores, reverse=True)

    def test_evaluate_report(self, chain):
        cfg, summaries = chain
        wd = pipeline.workdir(cfg)
        doc = json.loads((wd / pipeline.EVAL_REPORT).read_text())
        assert doc["configuration"] == "prioritized"
        assert doc["cohortSize"] == 12
        lineage = doc["provenance"]
        assert lineage["step"] == "evaluate"
        assert lineage["config"] == config_digests(cfg)
        assert sorted(lineage["reads"]) == [pipeline.COHORT_FILE, pipeline.RANKINGS_FILE]
        assert [row["k"] for row in doc["rows"]] == [10, 20]
        csv_lines = (wd / pipeline.EVAL_CSV).read_text().splitlines()
        assert csv_lines[0].startswith("configuration,k,precision")
        assert len(csv_lines) == 3
        assert summaries["evaluate"]["warnings"] == doc["warnings"]

    def test_ablate_report(self, chain):
        cfg, summaries = chain
        wd = pipeline.workdir(cfg)
        doc = json.loads((wd / pipeline.ABLATION_REPORT).read_text())
        configs = [r["configuration"] for r in doc["reports"]]
        assert configs == list(pipeline.evaluation.ABLATION_STAGES)
        assert (wd / pipeline.ABLATION_CSV).exists()
        warnings = {r["configuration"]: r["warnings"] for r in doc["reports"]}
        assert summaries["ablate"]["warnings"] == warnings

    def test_permtest_report(self, chain):
        cfg, summaries = chain
        wd = pipeline.workdir(cfg)
        doc = json.loads((wd / pipeline.PERMTEST_REPORT).read_text())
        assert summaries["permtest"]["warnings"] == doc["warnings"]
        assert doc["configuration"] == "prioritized-vs-permuted"
        names = set(doc["rows"][0]["metrics"])
        assert names == {
            "delta_precision",
            "delta_recall",
            "delta_f1",
            "delta_lin_similarity",
        }

    def test_evaluate_refuses_stale_artifacts(self, chain):
        cfg, _ = chain
        stale = dataclasses.replace(cfg, seed=cfg.seed + 1)
        with pytest.raises(ConfigError, match="cohort.jsonl .*seed.*; rerun synth"):
            pipeline.step_evaluate(stale)

    def test_evaluate_external_rankings(self, chain, tmp_path):
        cfg, _ = chain
        wd = pipeline.workdir(cfg)
        _, rows = pipeline.read_jsonl(wd / pipeline.RANKINGS_FILE)
        lines = [
            json.dumps({"patientId": r["patientId"], "terms": r["terms"]})
            for r in rows
        ]
        external = tmp_path / "external.jsonl"
        external.write_text("\n".join(lines + ["{broken"]) + "\n", encoding="utf-8")
        summary = pipeline.step_evaluate(cfg, external=str(external))
        doc = json.loads((wd / pipeline.EVAL_REPORT).read_text())
        pipeline.step_evaluate(cfg)
        assert summary["patients"] == 12
        assert summary["skippedRows"] == 1
        assert doc["configuration"] == "external"
        assert doc["provenance"] == {
            "step": "evaluate",
            "config": {
                part: config_digests(cfg)[part]
                for part in ("seed", "cohort", "evaluation")
            },
            "inputs": {
                field: helpers.file_digest(getattr(cfg.paths, field))
                for field in (pipeline.ONTOLOGY, pipeline.DISEASES)
            },
            "reads": {
                pipeline.COHORT_FILE: hashlib.sha256(
                    (wd / pipeline.COHORT_FILE).read_bytes()
                ).hexdigest()
            },
            "source": hashlib.sha256(external.read_bytes()).hexdigest(),
        }

    def test_summary_shows_dropped_patients(self, chain, tmp_path):
        cfg, _ = chain
        _, rows = pipeline.read_jsonl(pipeline.workdir(cfg) / pipeline.RANKINGS_FILE)
        # The first gold patient has no row; one row names no gold patient.
        lines = [
            json.dumps({"patientId": r["patientId"], "terms": r["terms"]})
            for r in rows[1:]
        ]
        lines.append(json.dumps({"patientId": "PX", "terms": rows[0]["terms"]}))
        external = tmp_path / "external.jsonl"
        external.write_text("\n".join(lines) + "\n", encoding="utf-8")
        summary = pipeline.step_evaluate(cfg, external=str(external))
        pipeline.step_evaluate(cfg)
        assert summary["warnings"] == {"missingGold": 1, "emptyRanked": 1}

    @pytest.mark.parametrize("step", ["ablate", "permtest", "external"])
    def test_report_steps_refuse_stale_cohort(self, chain, tmp_path, step):
        cfg, _ = chain
        wd = pipeline.workdir(cfg)
        _, rows = pipeline.read_jsonl(wd / pipeline.RANKINGS_FILE)
        external = tmp_path / "external.jsonl"
        external.write_text(
            "".join(
                json.dumps({"patientId": r["patientId"], "terms": r["terms"]}) + "\n"
                for r in rows
            ),
            encoding="utf-8",
        )
        run = {
            "ablate": lambda: pipeline.step_ablate(cfg),
            "permtest": lambda: pipeline.step_permtest(cfg),
            "external": lambda: pipeline.step_evaluate(cfg, external=str(external)),
        }[step]
        cohort = wd / pipeline.COHORT_FILE
        original = cohort.read_bytes()
        meta, cohort_rows = pipeline.read_jsonl(cohort)
        meta["lineage"]["config"]["cohort"] = "0" * 64
        pipeline.write_jsonl(cohort, meta, cohort_rows)
        try:
            with pytest.raises(ConfigError, match="cohort.jsonl"):
                run()
        finally:
            cohort.write_bytes(original)

    def test_no_artifact_names_a_path(self, chain):
        # The config names every file by an absolute path under the workspace.
        cfg, _ = chain
        wd = pipeline.workdir(cfg)
        root = str(wd.parent).encode("utf-8")
        assert root in cfg.paths.ontology.encode("utf-8")
        for path in wd.iterdir():
            assert root not in path.read_bytes(), path.name

    def test_external_report_names_the_file_by_its_bytes(self, chain, tmp_path):
        # The same rankings from two directories: the report records their
        # sha256, so neither the bytes nor any work file depend on the path.
        cfg, _ = chain
        wd = pipeline.workdir(cfg)
        _, rows = pipeline.read_jsonl(wd / pipeline.RANKINGS_FILE)
        text = "".join(
            json.dumps({"patientId": r["patientId"], "terms": r["terms"]}) + "\n"
            for r in rows
        )
        roots = [str(root).encode("utf-8") for root in (wd.parent, tmp_path)]
        names = (pipeline.EVAL_REPORT, pipeline.EVAL_CSV)
        reports = []
        for where in ("a", "b/c"):
            external = tmp_path / where / "rankings.jsonl"
            external.parent.mkdir(parents=True)
            external.write_text(text, encoding="utf-8")
            pipeline.step_evaluate(cfg, external=str(external))
            reports.append([(wd / name).read_bytes() for name in names])
            for path in wd.iterdir():
                assert not any(root in path.read_bytes() for root in roots), path.name
        pipeline.step_evaluate(cfg)
        assert reports[0] == reports[1]
        source = json.loads(reports[0][0])["provenance"]["source"]
        assert source == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_records_hash_the_bytes_the_step_decoded(self, chain, monkeypatch):
        # Each artifact is replaced by other bytes of the same lineage right
        # after the step decodes it: the records still name the decoded bytes.
        cfg, _ = chain
        wd = pipeline.workdir(cfg)
        names = (pipeline.MODEL_FILE, pipeline.RANKINGS_FILE)
        original = {name: (wd / name).read_bytes() for name in names}
        decoded = {name: hashlib.sha256(data).hexdigest() for name, data in original.items()}

        def replace(name):
            pipeline._atomic_write_bytes(wd / name, original[name] + b"\n")

        read_jsonl, from_json = pipeline.read_jsonl, pipeline.RankModel.from_json

        def read_then_replace(path, *args, **kwargs):
            got = read_jsonl(path, *args, **kwargs)
            if path.name == pipeline.RANKINGS_FILE:
                replace(path.name)
            return got

        def decode_then_replace(text):
            model = from_json(text)
            replace(pipeline.MODEL_FILE)
            return model

        try:
            with monkeypatch.context() as mp:
                mp.setattr(pipeline.RankModel, "from_json", staticmethod(decode_then_replace))
                pipeline.step_rank(cfg)
            meta, _ = pipeline.read_jsonl(wd / pipeline.RANKINGS_FILE)
            assert meta["lineage"]["reads"][pipeline.MODEL_FILE] == decoded[pipeline.MODEL_FILE]
            ranked = (wd / pipeline.RANKINGS_FILE).read_bytes()
            assert ranked == original[pipeline.RANKINGS_FILE]
            (wd / pipeline.MODEL_FILE).write_bytes(original[pipeline.MODEL_FILE])
            with monkeypatch.context() as mp:
                mp.setattr(pipeline, "read_jsonl", read_then_replace)
                pipeline.step_evaluate(cfg)
            reads = json.loads((wd / pipeline.EVAL_REPORT).read_text())["provenance"]["reads"]
            assert reads[pipeline.RANKINGS_FILE] == decoded[pipeline.RANKINGS_FILE]
        finally:
            for name in names:
                (wd / name).write_bytes(original[name])
            pipeline.step_evaluate(cfg)

    def test_evaluate_external_missing_file(self, chain, tmp_path):
        cfg, _ = chain
        with pytest.raises(DataError, match="cannot read external rankings"):
            pipeline.step_evaluate(cfg, external=str(tmp_path / "absent.jsonl"))

    def test_rerun_is_byte_identical(self, chain):
        cfg, _ = chain
        wd = pipeline.workdir(cfg)
        watched = [
            pipeline.MENTIONS_FILE,
            pipeline.STANDARDIZED_FILE,
            pipeline.MODEL_FILE,
            pipeline.RANKINGS_FILE,
            pipeline.EVAL_REPORT,
            pipeline.EVAL_CSV,
        ]
        before = {name: (wd / name).read_bytes() for name in watched}
        pipeline.step_extract(cfg)
        pipeline.step_standardize(cfg)
        pipeline.step_train(cfg)
        pipeline.step_rank(cfg)
        pipeline.step_evaluate(cfg)
        after = {name: (wd / name).read_bytes() for name in watched}
        assert before == after

    def test_concurrency_does_not_change_artifacts(self, chain):
        cfg, _ = chain
        wd = pipeline.workdir(cfg)
        watched = [pipeline.MENTIONS_FILE, pipeline.EVAL_REPORT]
        before = {name: (wd / name).read_bytes() for name in watched}
        wide = dataclasses.replace(
            cfg, extraction=dataclasses.replace(cfg.extraction, concurrency=4)
        )
        pipeline.step_extract(wide)
        pipeline.step_standardize(wide)
        pipeline.step_train(wide)
        pipeline.step_rank(wide)
        pipeline.step_evaluate(wide)
        after = {name: (wd / name).read_bytes() for name in watched}
        assert before == after


# The parsers and the passes over the parsed inputs; only ingest may call them.
INPUT_PASSES = (
    (ontology, "parse_ontology_json"),
    (annotations, "load_annotations"),
    (ontology, "compute_stats"),
    (annotations, "feature_table"),
    (ontology, "propagate_counts"),
)


def _counting(calls, attr, fn):
    def counted(*args, **kwargs):
        calls[attr] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.fixture(scope="module")
def step_run(tmp_path_factory):
    """Calls per step of each ``INPUT_PASSES`` function over one pipeline run,
    the names of the work-directory files each step created, those each
    step's lineage records read, and the input files of the snapshot parts
    each step restored."""
    calls = collections.Counter()
    per_step, written, read, used = {}, {}, {}, {}
    record = pipeline.Lineage.record

    def recording(run):
        read[run.step] = set(run.reads)
        used[run.step] = set(run.snapshot.used)
        return record(run)

    with pytest.MonkeyPatch.context() as mp:
        for module, attr in INPUT_PASSES:
            original = getattr(module, attr)
            # ``from .ontology import propagate_counts`` copies the reference.
            for name, mod in list(sys.modules.items()):
                if name.startswith("phenorank") and getattr(mod, attr, None) is original:
                    mp.setattr(mod, attr, _counting(calls, attr, original))
        mp.setattr(pipeline.Lineage, "record", recording)
        cfg = write_workspace(tmp_path_factory.mktemp("calls"))
        wd = pipeline.workdir(cfg)
        for step in pipeline.STEPS:
            calls.clear()
            before = set(os.listdir(wd))
            step.run(cfg)
            per_step[step.name] = dict(calls)
            written[step.name] = set(os.listdir(wd)) - before
    counts = {
        attr: {name: got.get(attr, 0) for name, got in per_step.items()}
        for _, attr in INPUT_PASSES
    }
    return counts, written, read, used


@pytest.fixture(scope="module")
def step_calls(step_run):
    return step_run[0]


def test_each_step_writes_the_files_its_row_names(step_run):
    # ``Lineage.digest`` refuses a record whose step is not its file's writer.
    assert step_run[1] == {step.name: set(step.writes) for step in pipeline.STEPS}


def test_each_step_declares_the_files_it_reads(step_run):
    # ``Lineage.digest`` refuses a record without a file its step declares,
    # so a read left undeclared could be deleted from a record unnoticed.
    declared = {s.name: set(s.reads) for s in pipeline.STEPS if s.name != "ingest"}
    declared["evaluate"].add(pipeline.RANKINGS_FILE)  # not read with --external
    assert step_run[2] == declared


def test_each_step_declares_the_parts_it_restores(step_run):
    # ``Lineage.digest`` refuses a record without an input file of a part its
    # step declares, so an undeclared part's files could be deleted unnoticed.
    declared = {s.name: pipeline.INPUTS[s.name] for s in pipeline.STEPS if s.name != "ingest"}
    declared["extract"] |= set(pipeline.PART_INPUTS["ontology"])  # not with a remote backend
    assert step_run[3] == declared


def test_propagation_runs_only_where_its_counts_are_read(step_calls):
    # Two walks, both in ingest: the disease rows once for the pooled and the
    # per-source counts, the gene rows once; the later steps restore the
    # results from its snapshot.
    assert step_calls["propagate_counts"] == {
        "ingest": 2, "synth": 0, "chunk": 0, "extract": 0, "standardize": 0,
        "train": 0, "rank": 0, "evaluate": 0, "ablate": 0, "permtest": 0,
    }


@pytest.mark.parametrize("attr", [attr for _, attr in INPUT_PASSES[:4]])
def test_only_ingest_parses_the_inputs(step_calls, attr):
    assert step_calls[attr] == {s.name: int(s.name == "ingest") for s in pipeline.STEPS}


class TestTrainComputesWhatItWrites:
    """Training reads gradients and validation MAP@30, never the loss, and
    ``model.json`` holds no loss history."""

    @pytest.mark.parametrize("model", ["select", "linear", "boosted"])
    def test_no_loss_computed_or_written(self, tmp_path, monkeypatch, model):
        cfg = write_workspace(tmp_path, training={"model": model})
        for step in pipeline.STEPS[:5]:
            step.run(cfg)
        calls = []
        logaddexp = np.logaddexp

        def counted(*args, **kwargs):
            calls.append(args)
            return logaddexp(*args, **kwargs)

        monkeypatch.setattr(np, "logaddexp", counted)
        pipeline.step_train(cfg)
        text = (pipeline.workdir(cfg) / pipeline.MODEL_FILE).read_text()
        assert calls == []
        assert "trainLossHistory" not in text


def test_steps_that_read_no_name_build_no_term_record(tmp_path, monkeypatch):
    # A restored ontology builds its records only when ``terms`` is read, and
    # reads term names from its strings.
    cfg = write_workspace(tmp_path)
    built = collections.Counter()
    record = ontology.TermRecord

    def counted(*args, **kwargs):
        built[step.name] += 1
        return record(*args, **kwargs)

    monkeypatch.setattr(ontology, "TermRecord", counted)
    for step in pipeline.STEPS:
        step.run(cfg)
    # Parsing builds records, and so do the gazetteer and the index, which
    # read synonyms; synth's notes and ablate's exact-name stage read names.
    nameless = {"synth", "train", "rank", "evaluate", "permtest", "ablate"}
    assert {name: built[name] for name in nameless if built[name]} == {}


def test_external_evaluation_builds_no_term_record(tmp_path, monkeypatch):
    # ``import_external_ranking`` checks term ids against the dense index.
    cfg = write_workspace(tmp_path)
    for step in pipeline.STEPS[:6]:
        step.run(cfg)
    exported = tmp_path / "exported.jsonl"
    pipeline.step_rank(cfg, out=str(exported))
    lines = exported.read_text(encoding="utf-8").splitlines()
    lines.append(json.dumps({"patientId": "X1", "terms": ["HP:0009997"]}))
    external = tmp_path / "external.jsonl"
    external.write_text("\n".join(lines) + "\n", encoding="utf-8")
    built = []
    record = ontology.TermRecord
    monkeypatch.setattr(ontology, "TermRecord", lambda *a, **k: built.append(1) or record(*a, **k))
    summary = pipeline.step_evaluate(cfg, external=str(external))
    assert summary["skippedRows"] == 1
    assert summary["patients"] == len(lines) - 1
    assert built == []


class TestPipelineGuards:
    def test_steps_fail_cleanly_without_artifacts(self, tmp_path):
        cfg = write_workspace(tmp_path)
        with pytest.raises(DataError, match="cannot read"):
            pipeline.step_chunk(cfg)
        with pytest.raises(DataError, match="cannot read"):
            pipeline.step_evaluate(cfg)

    def test_remote_selector_missing_credential_aborts_standardize(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("PHENORANK_MISSING_KEY", raising=False)
        cfg = write_workspace(
            tmp_path,
            extraction={
                "endpoint_url": "http://127.0.0.1:9/unused",
                "api_key_env_var": "PHENORANK_MISSING_KEY",
            },
            standardization={"selector": "remote"},
        )
        pipeline.step_ingest(cfg)
        pipeline.step_synth(cfg)
        pipeline.step_chunk(cfg)
        pipeline.step_extract(cfg)
        with pytest.raises(CredentialError, match="PHENORANK_MISSING_KEY"):
            pipeline.step_standardize(cfg)
        assert not (pipeline.workdir(cfg) / pipeline.STANDARDIZED_FILE).exists()

    @pytest.mark.parametrize(
        "field", [pipeline.ONTOLOGY, pipeline.DISEASES, pipeline.GENES]
    )
    def test_ingest_requires_each_input_path(self, tmp_path, field):
        cfg = write_workspace(tmp_path)
        bare = dataclasses.replace(cfg, paths=dataclasses.replace(cfg.paths, **{field: ""}))
        with pytest.raises(ConfigError, match=f"paths.{field} is not set"):
            pipeline.step_ingest(bare)

    def test_obo_suffix_routes_to_obo_parser(self, tmp_path):
        obo = tmp_path / "mini.obo"
        obo.write_text(
            "[Term]\nid: HP:0000001\nname: Root\n\n"
            "[Term]\nid: HP:0000002\nname: Child\nis_a: HP:0000001\n",
            encoding="utf-8",
        )
        (tmp_path / "disease.tsv").write_text(
            "HP:0000002\tOMIM:1\tomim\nHP:0000002\tORPHA:1\torphanet\n", encoding="utf-8"
        )
        (tmp_path / "gene.tsv").write_text("HP:0000002\tG1\n", encoding="utf-8")
        cfg = config_from_dict(
            {
                "paths": {
                    "ontology": str(obo),
                    "disease_annotations": str(tmp_path / "disease.tsv"),
                    "gene_annotations": str(tmp_path / "gene.tsv"),
                    "workdir": str(tmp_path / "work"),
                }
            }
        )
        pipeline.step_ingest(cfg)
        o = pipeline.load_snapshot(cfg).ontology
        assert o.root == "HP:0000001"
