"""Tests of the benchmark itself: inputs, metric names, and a smoke run.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import generate
import launch
import run

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bytes(shape: str, seed: int, out: Path) -> dict[str, bytes]:
    return {k: p.read_bytes() for k, p in generate.write_inputs(shape, seed, out).items()}


@pytest.mark.parametrize("shape", ["fixture", "hpo17k"])
def test_generator_same_seed_same_bytes(shape, tmp_path):
    assert _bytes(shape, 7, tmp_path / "a") == _bytes(shape, 7, tmp_path / "b")


def test_generator_seed_changes_hpo_scale_inputs(tmp_path):
    assert _bytes("hpo17k", 7, tmp_path / "a") != _bytes("hpo17k", 8, tmp_path / "b")


def test_hpo_scale_lexemes_embed_apart():
    terms, disease, gene = generate.hpo_scale_inputs(seed=103)
    assert len(terms) == 17_000
    lexemes = [x.lower() for t in terms for x in [t["name"], *t["synonyms"]]]
    # Equal word counts make "one lexeme inside another at word boundaries"
    # the same as "two lexemes equal".
    assert all(len(x.split()) == 3 for x in lexemes)
    assert len({generate.ngram_multiset(x) for x in lexemes}) == len(lexemes)
    with_synonym = sum(1 for t in terms if t["synonyms"])
    assert 0.45 < with_synonym / len(terms) < 0.55
    ids = {t["id"] for t in terms}
    assert all(p in ids for t in terms for p in t["is_a"])
    per_disease: dict[str, set[str]] = {}
    for row in disease.splitlines():
        term, dis, source = row.split("\t")
        if source == "omim":
            per_disease.setdefault(dis, set()).add(term)
    assert {len(v) for v in per_disease.values()} == {8}
    assert gene.count("\n") > 0


def test_fixture_shape():
    terms, disease, gene = generate.fixture_inputs()
    assert len(terms) == 169
    assert sum(1 for t in terms if not t["is_a"]) == 1
    assert all(len(t["synonyms"]) == 1 for t in terms)
    assert disease.count("\tomim") == 128 and disease.count("\torphanet") == 64
    assert gene.count("\n") == 128


def test_benchmark_metric_names_and_units():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT_RE.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in BENCHMARK["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    # Every traced metric is either a wrapped span, a counter or derived.
    spans = {name for _, _, name, _ in launch.LAYERS}
    for m in BENCHMARK["per_layer"]:
        name = m["name"]
        if name.endswith("_s") and not name.startswith(("cli.", "trace.", "machine.")):
            assert name[:-2] in spans, name


def test_self_times_subtract_children():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["inner", 5.0, 6.0, 0],
        ["leaf", 2.0, 3.0, 1],
    ]
    assert run.self_times(spans) == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_speed_probe_samples_even_an_instant_step():
    with run.SpeedProbe() as probe:
        pass
    assert probe.samples and probe.scale > 0
    step = run.StepRun("ingest", 2.0, 0, "", "", scale=probe.scale)
    assert step.time_s == 2.0 * probe.scale


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def test_smoke_run_on_tiny_cohort():
    proc = subprocess.run(
        [
            sys.executable,
            str(run.BENCH_DIR / "run.py"),
            "--workload",
            "fixture-200",
            "--seed",
            "5",
            "--seconds",
            "0",
            "--patients",
            "30",
        ],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 30
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["ok_share"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.BENCH_DIR, tmp_path / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "fixture-200",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert _last_json(proc.stdout) is None
