import ast
import collections
import copy
import functools
import importlib.util
import io
import json
import operator
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import helpers
import phenorank
from phenorank import pipeline
from phenorank.cli import main
from phenorank.ranking import models

STEP_NAMES = [step.name for step in pipeline.STEPS]


def write_cli_workspace(root, seed=11, extraction=None):
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
    if extraction:
        data["extraction"] = extraction
    path = root / "phenorank.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    return root, str(write_cli_workspace(root))


def invoke(cfg_path, *args, env=None):
    return CliRunner().invoke(main, ["-c", cfg_path, *args], env=env)


def stdout_json(result):
    return json.loads(result.stdout)


def stderr_error(result):
    return json.loads(result.stderr.strip().splitlines()[-1])["error"]


def run_fresh(probe, *args, **kwargs):
    """``probe`` run by a fresh interpreter that imports this phenorank: this
    one already holds scipy and numpy.ma through the test oracles."""
    src = str(Path(phenorank.__file__).resolve().parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        **kwargs,
    )


def test_cli_import_loads_neither_scipy_nor_requests():
    probe = (
        "import sys, phenorank.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'requests'}))"
    )
    assert run_fresh(probe).stdout.strip() == "[]"


# The options each subcommand takes beyond the group's and its --help.
STEP_FLAGS = {
    "extract": ["--concurrency"],
    "rank": ["--out"],
    "evaluate": ["--external"],
}


def test_subcommands_are_the_pipeline_steps():
    names = STEP_NAMES
    assert list(main.commands) == names
    for step in pipeline.STEPS:
        name = step.name
        result = CliRunner().invoke(main, [name, "--help"])
        assert result.exit_code == 0, result.output
        assert step.run.__doc__.splitlines()[0] in result.output
        flags = [o for p in main.commands[name].params for o in p.opts]
        assert flags == STEP_FLAGS.get(name, [])
        assert all(flag in result.output for flag in [*flags, "--help"])
    # The benchmark runs its own copy of the step order; a renamed or
    # reordered step must fail here rather than in the benchmark.
    run_py = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    bench_steps = next(
        ast.literal_eval(node.value)
        for node in ast.parse(run_py.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["STEPS"]
    )
    assert list(bench_steps) == names


class TestWalkthrough:
    def test_all_steps_in_order(self, ws):
        _, cfg_path = ws
        for step in STEP_NAMES:
            result = invoke(cfg_path, step)
            assert result.exit_code == 0, f"{step}: {result.stderr}"
            summary = stdout_json(result)
            assert isinstance(summary, dict) and summary

    def test_rank_out_exports_plain_jsonl(self, ws, tmp_path):
        root, cfg_path = ws
        out = tmp_path / "rankings_export.jsonl"
        result = invoke(cfg_path, "rank", "--out", str(out))
        assert result.exit_code == 0
        assert stdout_json(result)["exported"] == str(out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 12
        first = json.loads(lines[0])
        assert set(first) == {"patientId", "terms"}

    def test_rank_out_into_missing_directory_exits_3(self, ws, tmp_path):
        root, cfg_path = ws
        rankings = root / "work" / pipeline.RANKINGS_FILE
        rankings.unlink()
        out = tmp_path / "absent" / "rankings_export.jsonl"
        result = invoke(cfg_path, "rank", "--out", str(out))
        assert result.exit_code == 3
        err = stderr_error(result)
        assert err["type"] == "DataError"
        assert str(out) in err["message"]
        assert rankings.exists()

    def test_evaluate_external_rankings(self, ws, tmp_path):
        root, cfg_path = ws
        _, cohort_rows = pipeline.read_jsonl(
            root / "work" / pipeline.COHORT_FILE
        )
        lines = [
            json.dumps(
                {
                    "patientId": row["patientId"],
                    "terms": sorted(row["curatedTerms"]),
                }
            )
            for row in cohort_rows
        ]
        lines.append("{broken")
        external = tmp_path / "external.jsonl"
        external.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = invoke(cfg_path, "evaluate", "--external", str(external))
        assert result.exit_code == 0
        summary = stdout_json(result)
        assert summary["patients"] == 12
        assert summary["skippedRows"] == 1
        report = json.loads((root / "work" / pipeline.EVAL_REPORT).read_text())
        assert report["configuration"] == "external"
        invoke(cfg_path, "evaluate")

    def test_seed_override_makes_every_artifact_stale(self, ws):
        # The seed is in every lineage record, and no flag accepts a stale artifact.
        _, cfg_path = ws
        for step in STEP_NAMES[2:]:
            stale = invoke(cfg_path, "--seed", "99", step)
            assert stale.exit_code == 2, step
            err = stderr_error(stale)
            assert err["type"] == "ConfigError"
            assert "seed" in err["message"] and "rerun synth" in err["message"]
        assert "No such option" in invoke(cfg_path, "evaluate", "--force").stderr

    def test_negative_seed_exits_2(self, ws, tmp_path):
        # Seeds are non-negative (``streams.stream_key`` refuses a negative
        # one), so no step may start with one, whether the flag or the file
        # sets it.
        _, cfg_path = ws
        for step in ("ingest", "evaluate"):
            result = invoke(cfg_path, "--seed", "-1", step)
            assert result.exit_code == 2, step
            err = stderr_error(result)
            assert err == {"type": "ConfigError", "message": "seed must be >= 0"}
        own = str(write_cli_workspace(tmp_path, seed=-1))
        assert stderr_error(invoke(own, "ingest"))["message"] == "seed must be >= 0"
        assert invoke(own, "--seed", "0", "ingest").exit_code == 0

    def test_verbose_logs_to_stderr_only(self, ws):
        _, cfg_path = ws
        result = invoke(cfg_path, "-v", "ingest")
        assert result.exit_code == 0
        stdout_json(result)


class TestErrorReporting:
    def test_missing_config_exits_2(self, tmp_path):
        result = invoke(str(tmp_path / "absent.yaml"), "ingest")
        assert result.exit_code == 2
        err = stderr_error(result)
        assert err["type"] == "ConfigError"
        assert "cannot read" in err["message"]
        assert result.stdout == ""

    def test_invalid_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("cohort:\n  size: big\n", encoding="utf-8")
        result = invoke(str(path), "synth")
        assert result.exit_code == 2
        assert stderr_error(result)["type"] == "ConfigError"

    def test_removed_permutations_key_exits_2(self, tmp_path):
        # The permutation baseline is exact, so a sample count is no longer a
        # setting; a config that still sets one fails naming the key.
        path = tmp_path / "old.yaml"
        path.write_text("evaluation:\n  permutations: 200\n", encoding="utf-8")
        result = invoke(str(path), "permtest")
        assert result.exit_code == 2
        err = stderr_error(result)
        assert err["type"] == "ConfigError"
        assert "'permutations'" in err["message"]
        assert "'evaluation'" in err["message"]

    @pytest.mark.parametrize(
        "text", ["cohort:\n  1: 2\n  x: 3\n", "1: 2\nx: 3\n"], ids=["section", "root"]
    )
    def test_unknown_keys_of_mixed_types_exit_2(self, tmp_path, text):
        # YAML keys need not be strings; naming them must not compare an int
        # with a str.
        path = tmp_path / "mixed.yaml"
        path.write_text(text, encoding="utf-8")
        result = invoke(str(path), "ingest")
        assert result.exit_code == 2
        err = stderr_error(result)
        assert err["type"] == "ConfigError"
        assert "[1, 'x']" in err["message"]

    def test_missing_artifact_exits_3(self, tmp_path):
        cfg_path = write_cli_workspace(tmp_path)
        result = invoke(str(cfg_path), "chunk")
        assert result.exit_code == 3
        err = stderr_error(result)
        assert err["type"] == "DataError"

    def test_missing_external_rankings_exits_3(self, tmp_path):
        cfg_path = write_cli_workspace(tmp_path)
        assert invoke(str(cfg_path), "ingest").exit_code == 0
        result = invoke(
            str(cfg_path), "evaluate", "--external", str(tmp_path / "absent.jsonl")
        )
        assert result.exit_code == 3
        err = stderr_error(result)
        assert err["type"] == "DataError"
        assert "cannot read external rankings" in err["message"]

    def test_unreadable_ontology_exits_3(self, tmp_path):
        cfg_path = write_cli_workspace(tmp_path)
        (tmp_path / "ontology.json").unlink()
        result = invoke(str(cfg_path), "ingest")
        assert result.exit_code == 3


class TestNonUtf8Bytes:
    """A byte that is not UTF-8 in any file read from outside the program, or in
    an artifact, is a JSON error naming the file, never a traceback."""

    @staticmethod
    def assert_names(result, code, path):
        assert result.exit_code == code, result.output
        assert "Traceback" not in result.stderr
        err = stderr_error(result)
        assert err["type"] == ("ConfigError" if code == 2 else "DataError")
        assert str(path) in err["message"] and "not UTF-8" in err["message"]

    def test_config_file_exits_2(self, tmp_path):
        cfg_path = write_cli_workspace(tmp_path)
        with open(cfg_path, "ab") as f:
            f.write(b"# \xff\n")
        self.assert_names(invoke(str(cfg_path), "ingest"), 2, cfg_path)

    @pytest.mark.parametrize("name", ["ontology.json", "disease.tsv", "gene.tsv"])
    def test_input_file_exits_3_at_ingest(self, tmp_path, name):
        cfg_path = write_cli_workspace(tmp_path)
        with open(tmp_path / name, "ab") as f:
            f.write(b"\xff")
        self.assert_names(invoke(str(cfg_path), "ingest"), 3, tmp_path / name)

    def test_artifact_exits_3(self, tmp_path):
        cfg_path = str(write_cli_workspace(tmp_path))
        for step in ("ingest", "synth"):
            assert invoke(cfg_path, step).exit_code == 0
        notes = tmp_path / "work" / pipeline.NOTES_FILE
        with open(notes, "ab") as f:
            f.write(b"\xff\n")
        self.assert_names(invoke(cfg_path, "chunk"), 3, notes)

    def test_external_rankings_exit_3(self, tmp_path):
        cfg_path = str(write_cli_workspace(tmp_path))
        assert invoke(cfg_path, "ingest").exit_code == 0
        external = tmp_path / "external.jsonl"
        external.write_bytes(b"\xff")
        self.assert_names(invoke(cfg_path, "evaluate", "--external", str(external)), 3, external)


def _mutated_row(path, keys, value):
    """Set ``row[keys...]`` to ``value`` in the first row (line 2) of an artifact."""
    meta_line, first, *rest = path.read_text(encoding="utf-8").splitlines()
    row = target = json.loads(first)
    *parents, last = keys
    for key in parents:
        target = target[key]
    target[last] = value
    text = "\n".join([meta_line, json.dumps(row), *rest]) + "\n"
    path.write_text(text, encoding="utf-8")


# (artifact, field, wrong JSON value, consuming step). Each of these once ended
# its step with a traceback (TypeError, AttributeError or KeyError), or was
# misread: curatedTerms null as an empty gold set, terms as an object's keys or
# a string's characters, ageYears "7" or true as a number.
WRONG_TYPES = [
    (pipeline.NOTES_FILE, ("text",), {"k": 7}, "chunk"),
    (pipeline.NOTES_FILE, ("text",), 7, "chunk"),
    (pipeline.CHUNKS_FILE, ("chunkId",), 7, "extract"),
    (pipeline.CHUNKS_FILE, ("patientId",), [7], "extract"),
    (pipeline.MENTIONS_FILE, ("patientId",), None, "standardize"),
    (pipeline.MENTIONS_FILE, ("mentions", 0, "surface"), 7, "ablate"),
    (pipeline.COHORT_FILE, ("patientId",), 7, "evaluate"),
    (pipeline.COHORT_FILE, ("patientId",), {"k": 7}, "rank"),
    (pipeline.COHORT_FILE, ("symptomCategory",), None, "train"),
    (pipeline.COHORT_FILE, ("curatedTerms",), None, "evaluate"),
    (pipeline.COHORT_FILE, ("ageYears",), "7", "train"),
    (pipeline.COHORT_FILE, ("ageYears",), True, "train"),
    (pipeline.STANDARDIZED_FILE, ("patientId",), 7, "rank"),
    (pipeline.STANDARDIZED_FILE, ("terms",), "HP:0000001", "rank"),
    (pipeline.RANKINGS_FILE, ("patientId",), [7], "permtest"),
    (pipeline.RANKINGS_FILE, ("terms",), {"k": 7}, "permtest"),
    (pipeline.RANKINGS_FILE, ("terms",), "HP:0000001", "evaluate"),
]


class TestMalformedArtifacts:
    """A damaged artifact exits 3 with a JSON error naming it, never a traceback."""

    @pytest.fixture(scope="class")
    def ranked(self, tmp_path_factory):
        """A workspace run through rank, its files named relative to it, so a
        copy is a workspace of its own."""
        root = tmp_path_factory.mktemp("ranked")
        cfg_path = write_cli_workspace(root)
        data = yaml.safe_load(cfg_path.read_text(encoding="utf-8"))
        data["paths"] = {k: Path(v).name for k, v in data["paths"].items()}
        cfg_path.write_text(yaml.safe_dump(data), encoding="utf-8")
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(root)
            for step in STEP_NAMES[:7]:  # ingest ... rank
                assert invoke(cfg_path.name, step).exit_code == 0
        return root

    @pytest.fixture
    def copied(self, ranked, tmp_path, monkeypatch):
        """A copy of the ranked workspace, free to damage, as the working directory."""
        shutil.copytree(ranked, tmp_path / "ws")
        monkeypatch.chdir(tmp_path / "ws")
        return "phenorank.yaml", tmp_path / "ws" / "work"

    def test_meta_value_not_an_object(self, copied):
        cfg_path, work = copied
        (work / pipeline.RANKINGS_FILE).write_text('{"__meta__": []}\n', encoding="utf-8")
        result = invoke(cfg_path, "evaluate")
        assert result.exit_code == 3
        err = stderr_error(result)
        assert err["type"] == "StructuralError"
        assert pipeline.RANKINGS_FILE in err["message"]
        assert "line 1" in err["message"]

    def test_row_not_an_object(self, copied):
        cfg_path, work = copied
        meta_line = (work / pipeline.COHORT_FILE).read_text().splitlines()[0]
        (work / pipeline.RANKINGS_FILE).write_text(
            meta_line + "\n[1, 2]\n", encoding="utf-8"
        )
        result = invoke(cfg_path, "evaluate")
        assert result.exit_code == 3
        err = stderr_error(result)
        assert err["type"] == "StructuralError"
        assert pipeline.RANKINGS_FILE in err["message"]
        assert "line 2" in err["message"]

    def test_row_missing_a_field(self, copied):
        cfg_path, work = copied
        path = work / pipeline.COHORT_FILE
        meta_line, *rows = path.read_text().splitlines()
        first = json.loads(rows[0])
        del first["ageYears"]
        rows[0] = json.dumps(first)
        path.write_text("\n".join([meta_line, *rows]) + "\n", encoding="utf-8")
        result = invoke(cfg_path, "train")
        assert result.exit_code == 3
        err = stderr_error(result)
        assert err["type"] == "DataError"
        assert pipeline.COHORT_FILE in err["message"]
        assert "'ageYears' is missing" in err["message"]

    @pytest.mark.parametrize("line", [1, 2], ids=["meta", "row"])
    def test_line_nested_too_deeply(self, copied, line):
        # Deeper than the interpreter's recursion limit: a data error naming
        # the file and line, not a RecursionError.
        cfg_path, work = copied
        path = work / pipeline.COHORT_FILE
        lines = path.read_text().splitlines()
        deep = "[" * 10**5 + "]" * 10**5
        lines[line - 1] = lines[line - 1].replace('{"', f'{{"deep": {deep}, "', 1)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = invoke(cfg_path, "rank")
        assert result.exit_code == 3, result.output
        err = stderr_error(result)
        assert err["type"] == "DataError"
        assert f"{pipeline.COHORT_FILE} line {line}" in err["message"]

    @pytest.mark.parametrize(
        "artifact, keys, value, step",
        WRONG_TYPES,
        ids=[f"{a}-{k[-1]}-{type(v).__name__}-{s}" for a, k, v, s in WRONG_TYPES],
    )
    def test_wrong_json_type(self, copied, artifact, keys, value, step):
        cfg_path, work = copied
        _mutated_row(work / artifact, keys, value)
        result = invoke(cfg_path, step)
        assert result.exit_code == 3, result.output
        err = stderr_error(result)
        assert err["type"] == "DataError"
        field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]
        assert f"{artifact} line 2: field {field!r} is " in err["message"]


class TestDamagedModel:
    """A model file that does not hold a model exits 3 naming the file."""

    @pytest.fixture(scope="class")
    def standardized(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("model")
        cfg_path = str(write_cli_workspace(root))
        for step in ("ingest", "synth", "chunk", "extract", "standardize", "train"):
            assert invoke(cfg_path, step).exit_code == 0
        work = root / "work"
        return cfg_path, work, (work / pipeline.MODEL_FILE).read_text(encoding="utf-8")

    def rank_with_model(self, standardized, text):
        cfg_path, work, _ = standardized
        (work / pipeline.MODEL_FILE).write_text(text, encoding="utf-8")
        result = invoke(cfg_path, "rank")
        assert result.exit_code == 3
        err = stderr_error(result)
        assert err["type"] == "DataError"
        assert pipeline.MODEL_FILE in err["message"]

    def test_not_an_object(self, standardized):
        self.rank_with_model(standardized, "[1]\n")

    def test_not_json(self, standardized):
        self.rank_with_model(standardized, "pairwiseLinear\n")

    def test_missing_kind(self, standardized):
        self.rank_with_model(standardized, '{"formatVersion": 1}\n')

    def test_feature_names_disagree_with_categories(self, standardized):
        doc = json.loads(standardized[2])
        doc["schema"]["names"] = doc["schema"]["names"][:3]
        self.rank_with_model(standardized, json.dumps(doc))

    @pytest.mark.parametrize("decoder", ["json", "codec"])
    def test_nested_too_deeply(self, standardized, decoder):
        # A JSON document deeper than the interpreter's recursion limit, or a
        # tree the codec would decode past it: an error, not a RecursionError.
        doc = json.loads(standardized[2])
        if decoder == "json":
            deep = "[" * 10**5 + "]" * 10**5
            text = json.dumps(doc).replace('"kind"', f'"deep": {deep}, "kind"')
        else:
            tree = '{"leaf": 0.0}'
            for _ in range(600):
                split = '{"feature": 0, "threshold": 0.0, "right": {"leaf": 0.0}, "left": '
                tree = split + tree + "}"
            params = {"trees": ["@"], "learning_rate": 0.1, "max_depth": 3, "l1": 0.0, "l2": 1.0}
            doc.update(kind="boostedTrees", params=params)
            text = json.dumps(doc).replace('"@"', tree)
        self.rank_with_model(standardized, text)


def test_concurrency_flag_is_validated_like_the_config(tmp_path):
    cfg_path = str(write_cli_workspace(tmp_path))
    for step in ("ingest", "synth", "chunk"):
        assert invoke(cfg_path, step).exit_code == 0
    result = invoke(cfg_path, "extract", "--concurrency", "0")
    assert result.exit_code == 2
    err = stderr_error(result)
    assert err["type"] == "ConfigError"
    assert "extraction.concurrency" in err["message"]
    assert not (tmp_path / "work" / pipeline.MENTIONS_FILE).exists()


def test_gene_file_is_read_only_by_the_feature_steps(tmp_path):
    cfg_path = str(write_cli_workspace(tmp_path))
    for step in STEP_NAMES:
        result = invoke(cfg_path, step)
        assert result.exit_code == 0, f"{step}: {result.stderr}"
    work = tmp_path / "work"
    reports = [
        pipeline.EVAL_REPORT, pipeline.EVAL_CSV,
        pipeline.ABLATION_REPORT, pipeline.ABLATION_CSV,
        pipeline.PERMTEST_REPORT, pipeline.PERMTEST_CSV,
    ]
    before = {name: (work / name).read_bytes() for name in reports}
    (tmp_path / "gene.tsv").unlink()
    for step in ("evaluate", "ablate", "permtest"):
        result = invoke(cfg_path, step)
        assert result.exit_code == 0, f"{step}: {result.stderr}"
    assert {name: (work / name).read_bytes() for name in reports} == before
    root = helpers.layered_ids()[0]
    (tmp_path / "gene.tsv").write_text(f"{root}\tg1\tstray\n", encoding="utf-8")
    result = invoke(cfg_path, "ingest")
    assert result.exit_code == 3, result.stderr
    err = stderr_error(result)
    assert err["type"] == "ParseError"
    assert "gene annotations line 1" in err["message"]
    # The snapshot still holds the old gene file's table, so the feature
    # steps refuse it rather than use it.
    for step in ("train", "rank"):
        result = invoke(cfg_path, step)
        assert result.exit_code == 2, f"{step}: {result.stderr}"
        err = stderr_error(result)
        assert err["type"] == "ConfigError"
        assert "gene.tsv" in err["message"] and "rerun ingest" in err["message"]


def _resaved(good: bytes, **members) -> bytes:
    """The snapshot ``good`` with ``members`` replaced, saved again."""
    with np.load(io.BytesIO(good)) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays.update(members)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _wrong_version(good: bytes) -> bytes:
    meta = json.loads(np.load(io.BytesIO(good))["meta"].tobytes())
    meta["version"] += 1
    return _resaved(good, meta=np.frombuffer(json.dumps(meta).encode(), np.uint8))


def _object_member(good: bytes) -> bytes:
    return _resaved(good, ic=np.array([None], dtype=object))


def _closure_out_of_range(good: bytes) -> bytes:
    closure = np.load(io.BytesIO(good))["closure"].copy()
    closure[0] = closure.max() + 1
    return _resaved(good, closure=closure)


SNAPSHOT_DAMAGE = {
    "missing": None,
    "truncated": lambda good: good[: len(good) // 2],
    "wrong-version": _wrong_version,
    "object-dtype": _object_member,
    "closure-out-of-range": _closure_out_of_range,
}

# The steps that depend on each input file; ingest reads all three, chunk none.
STALE_STEPS = {
    "ontology.json": {
        "synth", "extract", "standardize", "train", "rank", "evaluate", "ablate", "permtest",
    },
    "disease.tsv": {"synth", "train", "rank", "evaluate", "ablate", "permtest"},
    "gene.tsv": {"train", "rank"},
}


class TestInputSnapshot:
    """A damaged snapshot exits 3; an input edited since ingest exits 2."""

    @pytest.fixture(scope="class")
    def ran(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("snapshot")
        cfg_path = str(write_cli_workspace(root))
        for step in STEP_NAMES:
            assert invoke(cfg_path, step).exit_code == 0
        return root, cfg_path

    @pytest.mark.parametrize("damage", sorted(SNAPSHOT_DAMAGE))
    def test_damaged_snapshot_exits_3(self, ran, damage):
        root, cfg_path = ran
        path = root / "work" / pipeline.INPUTS_FILE
        good = path.read_bytes()
        try:
            if SNAPSHOT_DAMAGE[damage] is None:
                path.unlink()
            else:
                path.write_bytes(SNAPSHOT_DAMAGE[damage](good))
            result = invoke(cfg_path, "evaluate")
        finally:
            path.write_bytes(good)
        assert result.exit_code == 3, result.stderr
        err = stderr_error(result)
        assert err["type"] == "DataError"
        assert "run ingest" in err["message"]

    @pytest.mark.parametrize("name", sorted(STALE_STEPS))
    def test_stale_input_exits_2_in_exactly_its_steps(self, ran, name):
        root, cfg_path = ran
        path = root / name
        original = path.read_bytes()
        # Parses the same, hashes differently.
        path.write_bytes(original + b"\n")
        codes = {}
        try:
            for step in STEP_NAMES[1:]:
                result = invoke(cfg_path, step)
                codes[step] = result.exit_code
                if result.exit_code == 2:
                    err = stderr_error(result)
                    assert err["type"] == "ConfigError"
                    assert name in err["message"] and "rerun ingest" in err["message"]
        finally:
            path.write_bytes(original)
        assert codes == {
            step: 2 if step in STALE_STEPS[name] else 0 for step in STEP_NAMES[1:]
        }


def _fixture_config(**sections) -> dict:
    """The 30-patient config of a generated fixture workspace, with ``sections``
    merged into its own."""
    data = {
        "seed": 1,
        "paths": {
            "ontology": "ontology.json",
            "disease_annotations": "disease.tsv",
            "gene_annotations": "gene.tsv",
            "workdir": "work",
        },
        "cohort": {"size": 30},
        "training": {"boosted_rounds": 5, "boosted_patience": 5},
    }
    for name, values in sections.items():
        data[name] = {**data.get(name, {}), **values}
    return data


def _generated_workspace(root, steps):
    """The generated seed-1 fixture inputs in ``root``, run through ``steps``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("perfbench_generate", path)
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    generate.write_inputs("fixture", 1, root)
    (root / "phenorank.yaml").write_text(yaml.safe_dump(_fixture_config()))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for step in steps:
            assert invoke("phenorank.yaml", step).exit_code == 0, step
    return root


class TestTrainingBytes:
    """``model.json`` pinned for each ``training.model`` on the 30-patient
    generated fixture (seed 1, 5 rounds). Any change to what training computes
    or writes shows here as a new digest."""

    @pytest.fixture(scope="class")
    def standardized(self, tmp_path_factory):
        return _generated_workspace(tmp_path_factory.mktemp("bytes"), STEP_NAMES[:5])

    @pytest.mark.parametrize(
        "model, kind, digest",
        [
            (
                "select",
                "boostedTrees",
                "fdfcbc9a466fc33f91c5c99ddbea90ccab25ab62576c08436318969cbba25f84",
            ),
            (
                "linear",
                "pairwiseLinear",
                "1f73c1d5ee14a63302dfeb417fe14dbe5122ac1893c24355b20e33c0ae9a092e",
            ),
            (
                "boosted",
                "boostedTrees",
                "36ecb1403de7b61ed7e5efee57446a75fb1e17726ebf90261ef02cfa639b314d",
            ),
        ],
    )
    def test_model_bytes(self, standardized, tmp_path, monkeypatch, model, kind, digest):
        shutil.copytree(standardized, tmp_path / "ws")
        monkeypatch.chdir(tmp_path / "ws")
        Path("model.yaml").write_text(
            yaml.safe_dump(_fixture_config(training={"model": model}))
        )
        result = invoke("model.yaml", "train")
        assert result.exit_code == 0, result.output
        assert stdout_json(result)["kind"] == kind
        assert helpers.file_digest(Path("work") / pipeline.MODEL_FILE) == digest

    def test_linear_margins_reach_both_saturated_sides(
        self, standardized, tmp_path, monkeypatch
    ):
        # The linear pin covers the written sigmoid of saturated margins only
        # if this fixture's margins pass both bounds.
        shutil.copytree(standardized, tmp_path / "ws")
        monkeypatch.chdir(tmp_path / "ws")
        Path("model.yaml").write_text(
            yaml.safe_dump(_fixture_config(training={"model": "linear"}))
        )
        seen = []
        neg_margins = models._neg_margins

        def spy(scores, chunk):
            flat, blocks = neg_margins(scores, chunk)
            seen.append((flat.min(), flat.max()))
            return flat, blocks

        monkeypatch.setattr(models, "_neg_margins", spy)
        assert invoke("model.yaml", "train").exit_code == 0
        assert min(low for low, _ in seen) <= models._LOW
        assert max(high for _, high in seen) >= models._HIGH


# Each field of model.json (at any depth; array items are descended into)
# set to each of these, or deleted.
MUTANT_VALUES = (7, "7", True, None, [7], {"k": 7}, float("nan"))
DELETED = object()


def _mutants(doc, path=()):
    """``(path, value)`` of every one-field mutant of the JSON value ``doc``."""
    if isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _mutants(item, (*path, i))
    elif isinstance(doc, dict):
        for key, item in doc.items():
            for value in (*MUTANT_VALUES, DELETED):
                yield (*path, key), value
            yield from _mutants(item, (*path, key))


def _field(path) -> str:
    """``path`` as the codec names a field: ``params.trees[0].left``."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]


class TestModelMutants:
    """``rank`` on every one-field mutant of a boosted and a linear
    ``model.json`` exits 0, 2 or 3, never 1, and never writes a non-finite
    score; an exit 3 names the file and the field (for a deleted key, the field
    or the object that held it)."""

    @pytest.fixture(scope="class")
    def standardized(self, tmp_path_factory):
        return _generated_workspace(tmp_path_factory.mktemp("mutants"), STEP_NAMES[:5])

    @pytest.mark.parametrize("model", ["boosted", "linear"])
    def test_every_mutant_exits_0_2_or_3(self, standardized, tmp_path, monkeypatch, model):
        shutil.copytree(standardized, tmp_path / "ws")
        monkeypatch.chdir(tmp_path / "ws")
        Path("model.yaml").write_text(
            yaml.safe_dump(_fixture_config(training={"model": model}))
        )
        assert invoke("model.yaml", "train").exit_code == 0
        path = Path("work") / pipeline.MODEL_FILE
        good = json.loads(path.read_text())
        codes = collections.Counter()
        for keys, value in _mutants(good):
            doc = copy.deepcopy(good)
            *parents, last = keys
            target = functools.reduce(operator.getitem, parents, doc)
            if value is DELETED:
                del target[last]
            else:
                target[last] = value
            path.write_text(json.dumps(doc, sort_keys=True, indent=2))
            result = invoke("model.yaml", "rank")
            mutant = f"{_field(keys)} = {'deleted' if value is DELETED else value!r}"
            assert result.exit_code in (0, 2, 3), f"{mutant}: {result.output}"
            codes[result.exit_code] += 1
            if result.exit_code == 0:
                _, rows = pipeline.read_jsonl(Path("work") / pipeline.RANKINGS_FILE)
                assert all(np.isfinite(row["scores"]).all() for row in rows), mutant
            elif result.exit_code == 3:
                message = stderr_error(result)["message"]
                assert pipeline.MODEL_FILE in message, f"{mutant}: {message}"
                named = re.search(r"field '([^']*)'", message)
                assert named, f"{mutant}: {message}"
                fields = {_field(keys)} | ({_field(parents)} if value is DELETED else set())
                assert any(
                    named[1] == f or named[1].startswith((f"{f}.", f"{f}[")) for f in fields
                ), f"{mutant}: {message}"
        assert sum(codes.values()) == {"boosted": 520, "linear": 232}[model]
        assert set(codes) == {0, 2, 3}


class TestLineage:
    """Each step refuses an artifact that is stale for the slice of config,
    inputs and upstream files it was built from, and only such an artifact."""

    @pytest.fixture(scope="class")
    def done(self, tmp_path_factory):
        """A generated 30-patient fixture workspace run through all ten steps."""
        return _generated_workspace(tmp_path_factory.mktemp("lineage"), STEP_NAMES)

    @pytest.fixture
    def copied(self, done, tmp_path, monkeypatch):
        """A copy of the finished workspace, free to change, as the working directory."""
        shutil.copytree(done, tmp_path / "ws")
        monkeypatch.chdir(tmp_path / "ws")
        return tmp_path / "ws"

    def run(self, *args, **sections):
        if sections:
            Path("changed.yaml").write_text(yaml.safe_dump(_fixture_config(**sections)))
        return invoke("changed.yaml" if sections else "phenorank.yaml", *args)

    def refused(self, step, artifact, rerun, **sections):
        result = self.run(step, **sections)
        assert result.exit_code == 2, f"{step}: {result.output}"
        err = stderr_error(result)
        assert err["type"] == "ConfigError"
        assert artifact in err["message"] and f"rerun {rerun}" in err["message"]

    def test_cut_disease_file_then_ingest(self, copied):
        path = copied / "disease.tsv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:63]))
        assert self.run("ingest").exit_code == 0
        for step in ("train", "rank", "evaluate", "ablate", "permtest"):
            result = self.run(step)
            assert result.exit_code == 2, f"{step}: {result.output}"
            message = stderr_error(result)["message"]
            names = {pipeline.COHORT_FILE, pipeline.NOTES_FILE}
            assert any(name in message for name in names), message
            assert "disease_annotations" in message and "rerun synth" in message

    def test_report_steps_import_neither_numpy_ma_numpy_random_nor_scipy(self, copied):
        # ``np.quantile`` and ``np.unique`` import numpy.ma, the bootstrap
        # draws from its own stream, and train alone needs scipy. numpy < 2
        # imports numpy.ma and numpy.random with numpy itself, so only
        # modules that a bare ``import numpy`` leaves out count.
        probe = (
            "import sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "from phenorank.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "except SystemExit as e:\n"
            "    assert not e.code, e.code\n"
            "added = set(sys.modules) - before\n"
            "print(sorted(m for m in ('numpy.ma', 'numpy.random', 'scipy') if m in added))\n"
        )
        for step in ("ingest", "evaluate", "ablate", "permtest"):
            out = run_fresh(probe, step, cwd=copied)
            assert out.stdout.splitlines()[-1] == "[]", step

    def test_other_training_settings(self, copied):
        self.refused("rank", pipeline.MODEL_FILE, "train", training={"boosted_rounds": 4})

    def test_other_chunk_size(self, copied):
        self.refused("rank", pipeline.CHUNKS_FILE, "chunk", chunking={"max_chars": 300})
        assert self.run("train", chunking={"max_chars": 300}).exit_code == 0

    def test_mentions_edited_after_standardize(self, copied):
        path = copied / "work" / pipeline.MENTIONS_FILE
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        self.refused("rank", pipeline.STANDARDIZED_FILE, "standardize")

    def test_report_settings_leave_the_artifacts_current(self, copied):
        before = (copied / "work" / pipeline.EVAL_REPORT).read_bytes()
        result = self.run("evaluate", evaluation={"bootstrap_iterations": 200})
        assert result.exit_code == 0, result.output
        assert (copied / "work" / pipeline.EVAL_REPORT).read_bytes() != before

    def test_moved_workdir(self, copied):
        (copied / "work").rename(copied / "moved")
        result = self.run("permtest", paths={"workdir": "moved"})
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize(
        "artifact, step, lineage",
        [
            (pipeline.COHORT_FILE, "train", None),
            (pipeline.RANKINGS_FILE, "evaluate", None),
            (pipeline.MODEL_FILE, "rank", None),
            (pipeline.STANDARDIZED_FILE, "rank", 7),
            (pipeline.MODEL_FILE, "rank", {"step": "train", "config": []}),
        ],
    )
    def test_artifact_without_lineage(self, copied, artifact, step, lineage):
        path = copied / "work" / artifact
        if artifact == pipeline.MODEL_FILE:
            doc = json.loads(path.read_text())
            doc.pop("lineage", None)
            if lineage is not None:
                doc["lineage"] = lineage
            path.write_text(json.dumps(doc))
        else:
            meta, rows = pipeline.read_jsonl(path)
            meta.pop("lineage", None)
            if lineage is not None:
                meta["lineage"] = lineage
            pipeline.write_jsonl(path, meta, rows)
        self.refused(step, artifact, "the step that writes it")

    def test_meta_line_nested_too_deeply(self, copied):
        # rank reads mentions.jsonl only as the record of standardized.jsonl
        # names it: its meta line alone is decoded.
        path = copied / "work" / pipeline.MENTIONS_FILE
        _, *rows = path.read_text().splitlines()
        deep = "[" * 10**5 + "]" * 10**5
        meta_line = f'{{"__meta__": {{"lineage": {deep}}}}}'
        path.write_text("\n".join([meta_line, *rows]) + "\n", encoding="utf-8")
        self.refused("rank", pipeline.MENTIONS_FILE, "the step that writes it")

    def test_record_without_a_section_of_its_step(self, copied):
        # With the training digest deleted from its record, a model trained
        # under other settings would pass as current.
        path = copied / "work" / pipeline.MODEL_FILE
        doc = json.loads(path.read_text())
        del doc["lineage"]["config"]["training"]
        path.write_text(json.dumps(doc))
        rerun = "the step that writes it"
        self.refused("rank", pipeline.MODEL_FILE, rerun)
        self.refused("rank", pipeline.MODEL_FILE, rerun, training={"boosted_rounds": 4})

    def test_record_that_names_another_step(self, copied):
        # rank declares no config section, so a model record naming rank
        # needs no training digest; it must name train, which writes it.
        path = copied / "work" / pipeline.MODEL_FILE
        doc = json.loads(path.read_text())
        doc["lineage"]["step"] = "rank"
        del doc["lineage"]["config"]["training"]
        path.write_text(json.dumps(doc))
        rerun = "the step that writes it"
        self.refused("rank", pipeline.MODEL_FILE, rerun)
        self.refused("rank", pipeline.MODEL_FILE, rerun, training={"boosted_rounds": 4})

    @pytest.mark.parametrize(
        "artifact, read, step",
        [
            (pipeline.MODEL_FILE, pipeline.COHORT_FILE, "rank"),
            (pipeline.STANDARDIZED_FILE, pipeline.MENTIONS_FILE, "rank"),
            (pipeline.RANKINGS_FILE, pipeline.MODEL_FILE, "evaluate"),
        ],
    )
    def test_record_without_a_file_its_step_reads(self, copied, artifact, read, step):
        # With a file deleted from its record's reads, an artifact built from
        # another version of that file would pass as current.
        path = copied / "work" / artifact
        if artifact == pipeline.MODEL_FILE:
            doc = json.loads(path.read_text())
            del doc["lineage"]["reads"][read]
            path.write_text(json.dumps(doc))
        else:
            meta, rows = pipeline.read_jsonl(path)
            del meta["lineage"]["reads"][read]
            pipeline.write_jsonl(path, meta, rows)
        rerun = "the step that writes it"
        self.refused(step, f"{artifact} has no valid lineage record", rerun)

    @pytest.mark.parametrize(
        "artifact, field, step",
        [
            (pipeline.MODEL_FILE, "gene_annotations", "rank"),
            (pipeline.COHORT_FILE, "disease_annotations", "train"),
        ],
    )
    def test_record_without_an_input_of_its_step(self, copied, artifact, field, step):
        # With an input file deleted from its record's inputs, an artifact
        # built from another version of that file would pass as current.
        path = copied / "work" / artifact
        if artifact == pipeline.MODEL_FILE:
            doc = json.loads(path.read_text())
            del doc["lineage"]["inputs"][field]
            path.write_text(json.dumps(doc))
        else:
            meta, rows = pipeline.read_jsonl(path)
            del meta["lineage"]["inputs"][field]
            pipeline.write_jsonl(path, meta, rows)
        rerun = "the step that writes it"
        self.refused(step, f"{artifact} has no valid lineage record", rerun)

    @pytest.mark.parametrize("step", [7, None, [7], "report"], ids=repr)
    def test_record_that_names_no_step(self, copied, step):
        path = copied / "work" / pipeline.MODEL_FILE
        doc = json.loads(path.read_text())
        doc["lineage"]["step"] = step
        path.write_text(json.dumps(doc))
        self.refused("rank", pipeline.MODEL_FILE, "the step that writes it")

    def test_record_that_names_itself(self, copied):
        path = copied / "work" / pipeline.COHORT_FILE
        meta, rows = pipeline.read_jsonl(path)
        meta["lineage"]["reads"] = {pipeline.COHORT_FILE: "0" * 64}
        pipeline.write_jsonl(path, meta, rows)
        self.refused("train", f"{pipeline.COHORT_FILE} is stale", "synth")

    def test_unmatched_patient_names_both_artifacts(self, copied):
        _mutated_row(copied / "work" / pipeline.COHORT_FILE, ("patientId",), "7")
        self.refused("rank", pipeline.MODEL_FILE, "train")
        assert self.run("train").exit_code == 0
        result = self.run("rank")
        assert result.exit_code == 3, result.output
        err = stderr_error(result)
        assert err["type"] == "DataError"
        for name in (pipeline.STANDARDIZED_FILE, pipeline.COHORT_FILE, "P0001"):
            assert name in err["message"]


@pytest.fixture(scope="module")
def remote_ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliremote")
    base = write_cli_workspace(root)
    for step in ("ingest", "synth", "chunk"):
        assert invoke(str(base), step).exit_code == 0
    remote_cfg = write_cli_workspace(
        root,
        extraction={
            "backend": "remote",
            "endpoint_url": "http://127.0.0.1:9/v1/chat",
            "model_name": "test-model",
            "api_key_env_var": "PHENORANK_TEST_KEY",
            "max_retries": 0,
            "timeout": 2.0,
        },
    )
    return str(remote_cfg)


class TestRemoteBackendErrors:
    def test_unreachable_endpoint_reports_per_chunk_failures(self, remote_ws):
        # Transport failures stay per-chunk: the batch completes and the
        # failures land in the summary and artifact meta instead of aborting.
        result = invoke(
            remote_ws, "extract", env={"PHENORANK_TEST_KEY": "sk-cli-test"}
        )
        assert result.exit_code == 0
        summary = stdout_json(result)
        assert summary["failures"] == summary["chunks"] > 0
        assert summary["mentions"] == 0
        assert "sk-cli-test" not in result.stderr
        assert "sk-cli-test" not in result.stdout

    def test_missing_credential_exits_4(self, remote_ws):
        result = invoke(remote_ws, "extract", env={"PHENORANK_TEST_KEY": None})
        assert result.exit_code == 4
        err = stderr_error(result)
        assert err["type"] == "CredentialError"
        assert "PHENORANK_TEST_KEY" in err["message"]

    @pytest.mark.parametrize(
        "args", [("extract", "--backend", "gazetteer"), ("standardize", "--k", "5")]
    )
    def test_config_only_settings_have_no_flag(self, remote_ws, args):
        # Backend and top_k enter the lineage records, so only the config file
        # sets them; a flag would write artifacts whose records disown them.
        result = invoke(remote_ws, *args, env={"PHENORANK_TEST_KEY": "sk-cli-test"})
        assert result.exit_code == 2
        assert "No such option" in result.stderr
