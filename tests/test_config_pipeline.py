import collections
import dataclasses
import json
import logging
import sys
import threading

import pytest
import yaml

import helpers
from phenorank import annotations, ontology, pipeline
from phenorank.annotations import feature_table
from phenorank.config import (
    PipelineConfig,
    config_from_dict,
    config_hash,
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

    def test_to_dict_is_json_serializable(self):
        cfg = config_from_dict({"evaluation": {"cutoffs": [1, 2]}})
        doc = cfg.to_dict()
        json.dumps(doc)
        assert doc["evaluation"]["cutoffs"] == [1, 2]


class TestConfigHash:
    def test_stable_and_hex(self):
        a = config_from_dict({"seed": 3})
        b = config_from_dict({"seed": 3})
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 64
        int(config_hash(a), 16)

    def test_sensitive_to_values(self):
        base = config_from_dict({})
        assert config_hash(base) != config_hash(config_from_dict({"seed": 1}))
        assert config_hash(base) != config_hash(
            config_from_dict({"cohort": {"size": 21}})
        )

    def test_concurrency_does_not_change_hash(self):
        one = config_from_dict({"extraction": {"concurrency": 1}})
        eight = config_from_dict({"extraction": {"concurrency": 8}})
        assert config_hash(one) == config_hash(eight)


class TestArtifactIO:
    def test_write_read_round_trip(self, tmp_path):
        cfg = PipelineConfig()
        path = tmp_path / "rows.jsonl"
        meta_in = pipeline._meta(cfg, "demo", note="x")
        pipeline.write_jsonl(path, meta_in, [{"b": 2}, {"a": 1}])
        meta, rows = pipeline.read_jsonl(path)
        assert meta == meta_in
        assert meta["step"] == "demo"
        assert meta["configHash"] == config_hash(cfg)
        assert meta["version"] == pipeline.ARTIFACT_VERSION
        assert rows == [{"b": 2}, {"a": 1}]
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert json.loads(first)["__meta__"]["step"] == "demo"
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

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            pipeline.read_jsonl(tmp_path / "absent.jsonl")

    def test_check_artifact_accepts_matching(self):
        cfg = PipelineConfig()
        pipeline.check_artifact(
            {"configHash": config_hash(cfg)}, cfg, "demo", force=False
        )

    def test_check_artifact_rejects_mismatch(self):
        cfg = PipelineConfig()
        with pytest.raises(ConfigError, match="pass force"):
            pipeline.check_artifact(
                {"configHash": "0" * 64}, cfg, "demo", force=False
            )

    def test_check_artifact_force_warns_and_continues(self, caplog):
        cfg = PipelineConfig()
        with caplog.at_level(logging.WARNING, logger="phenorank.pipeline"):
            pipeline.check_artifact(
                {"configHash": "0" * 64}, cfg, "demo", force=True
            )
        assert any("forced" in rec.message for rec in caplog.records)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One full pipeline run on a small deterministic workspace."""
    root = tmp_path_factory.mktemp("chain")
    cfg = write_workspace(root)
    summaries = {name: step(cfg) for name, step in pipeline.STEPS}
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
        assert meta["configHash"] == config_hash(cfg)
        assert meta["seed"] == cfg.seed
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
        o = pipeline.load_ontology(cfg)
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
        assert doc["configHash"] == config_hash(cfg)
        model = pipeline.load_model(cfg)
        assert model.kind == "pairwiseLinear"

    def test_train_counts_pairs_and_dropped_patients(self, chain):
        cfg, summaries = chain
        o, kb, s = pipeline.load_inputs(cfg)
        cohort = pipeline._load_cohort(cfg)
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
        assert doc["provenance"]["configHash"] == config_hash(cfg)
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
        with pytest.raises(ConfigError, match="pass force"):
            pipeline.step_evaluate(stale)

    def test_force_overrides_stale_check(self, chain, tmp_path):
        cfg, _ = chain
        wd = pipeline.workdir(cfg)
        before = (wd / pipeline.EVAL_REPORT).read_bytes()
        stale = dataclasses.replace(cfg, seed=cfg.seed + 1)
        summary = pipeline.step_evaluate(stale, force=True)
        assert summary["patients"] == 12
        (wd / pipeline.EVAL_REPORT).write_bytes(before)
        pipeline.step_evaluate(cfg)

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
            "configHash": config_hash(cfg),
            "source": str(external),
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
        pipeline.write_jsonl(cohort, {**meta, "configHash": "0" * 64}, cohort_rows)
        try:
            with pytest.raises(ConfigError, match="cohort.jsonl"):
                run()
        finally:
            cohort.write_bytes(original)

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
def step_calls(tmp_path_factory):
    """Calls per step of each ``INPUT_PASSES`` function over one pipeline run."""
    calls = collections.Counter()
    per_step = {}
    with pytest.MonkeyPatch.context() as mp:
        for module, attr in INPUT_PASSES:
            original = getattr(module, attr)
            # ``from .ontology import propagate_counts`` copies the reference.
            for name, mod in list(sys.modules.items()):
                if name.startswith("phenorank") and getattr(mod, attr, None) is original:
                    mp.setattr(mod, attr, _counting(calls, attr, original))
        cfg = write_workspace(tmp_path_factory.mktemp("calls"))
        for name, step in pipeline.STEPS:
            calls.clear()
            step(cfg)
            per_step[name] = dict(calls)
    return {
        attr: {name: got.get(attr, 0) for name, got in per_step.items()}
        for _, attr in INPUT_PASSES
    }


def test_propagation_runs_only_where_its_counts_are_read(step_calls):
    # The pooled pass for IC, the two per-source passes and the gene pass all
    # run in ingest; the later steps restore the results from its snapshot.
    assert step_calls["propagate_counts"] == {
        "ingest": 4, "synth": 0, "chunk": 0, "extract": 0, "standardize": 0,
        "train": 0, "rank": 0, "evaluate": 0, "ablate": 0, "permtest": 0,
    }


@pytest.mark.parametrize("attr", [attr for _, attr in INPUT_PASSES[:4]])
def test_only_ingest_parses_the_inputs(step_calls, attr):
    assert step_calls[attr] == {name: int(name == "ingest") for name, _ in pipeline.STEPS}


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

    def test_load_ontology_requires_path(self):
        cfg = PipelineConfig()
        with pytest.raises(ConfigError):
            pipeline.load_ontology(cfg)

    def test_load_kb_requires_paths(self, tmp_path):
        cfg = write_workspace(tmp_path)
        o = pipeline.load_ontology(cfg)
        bare = dataclasses.replace(
            cfg, paths=dataclasses.replace(cfg.paths, gene_annotations="")
        )
        with pytest.raises(ConfigError):
            pipeline.load_kb(bare, o)

    def test_obo_suffix_routes_to_obo_parser(self, tmp_path):
        obo = tmp_path / "mini.obo"
        obo.write_text(
            "[Term]\nid: HP:0000001\nname: Root\n\n"
            "[Term]\nid: HP:0000002\nname: Child\nis_a: HP:0000001\n",
            encoding="utf-8",
        )
        cfg = config_from_dict({"paths": {"ontology": str(obo)}})
        o = pipeline.load_ontology(cfg)
        assert o.root == "HP:0000001"
