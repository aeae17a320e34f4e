"""Acceptance gate: ten checks covering the oracle suites, protocol
invariants, the seeded end-to-end reproduction, and determinism.

Each test prints exactly one PASS/FAIL line so the gate can be read off a
plain pytest -s run.
"""

import dataclasses
import random
import time

import numpy as np
import pytest

import helpers
from helpers import (
    _schema_stub,
    annotate_mentions,
    pairwise_linear_gradient,
    pairwise_loss_at,
    set_similarity,
    undirected_distances,
)
from phenorank import pipeline
from phenorank.annotations import load_annotations
from phenorank.config import config_from_dict
from phenorank.corpus import ClinicalNote, chunk_note, split_sentences, synth_cohort
from phenorank.config import EvaluationConfig
from phenorank.evaluation import evaluate_cohort
from phenorank.extraction import (
    parse_span_markup,
    strip_span_markup,
)
from phenorank.ontology import compute_stats, lin_similarity
from phenorank.ranking import (
    ap_at_k,
    map_at_k,
    negative_pools,
    sample_negatives,
    train_boosted,
    train_pairwise_linear,
)
from phenorank.standardization import build_index, retrieve


def _verdict(num, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[ACCEPTANCE {num:02d}] {title}: {status}{suffix}"
    print(line)
    assert ok, line


def _stats_for_random_dag(o):
    ids = o.non_obsolete_ids()
    disease = "\n".join(f"{t}\tD{i:04d}\tomim" for i, t in enumerate(ids)) + "\n"
    kb = load_annotations(disease, "", o)
    return compute_stats(o, kb)


def test_01_ontology_oracle_suite():
    t0 = time.monotonic()
    mismatches = 0
    pairs = 0
    for seed in range(20):
        o = helpers.random_ontology(seed, max_terms=50)
        s = _stats_for_random_dag(o)
        ids = o.non_obsolete_ids()
        ic = helpers.ic_by_term(o, s)
        lin = lin_similarity(o, s, ids, ids)
        distance = undirected_distances(o, ids)
        rng = random.Random(f"acceptance1:{seed}")
        for _ in range(1000):
            i = rng.randrange(len(ids))
            j = rng.randrange(len(ids))
            a, b = ids[i], ids[j]
            pairs += 1
            if helpers.mica(o, s, a, b) != helpers.bf_mica(o, ic, a, b):
                mismatches += 1
                continue
            want_lin = helpers.bf_lin(o, ic, a, b)
            if float(lin[i, j]).hex() != want_lin.hex():
                mismatches += 1
                continue
            if distance[i].get(b) != helpers.bf_undirected_distance(o, a, b):
                mismatches += 1
    elapsed = time.monotonic() - t0
    _verdict(
        1,
        "mica/lin/distance vs brute force on 20 random DAGs",
        mismatches == 0 and elapsed < 10.0,
        f"{pairs} pairs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_02_lin_properties_and_frozen_values(
    small, small_stats, layered, layered_stats, orphaned, orphaned_stats
):
    problems = []
    ids = small.non_obsolete_ids()
    lin = lin_similarity(small, small_stats, ids, ids)
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            sab = lin[i, j]
            sba = lin[j, i]
            if sab != sba:
                problems.append(f"asymmetry {a},{b}")
            if not 0.0 <= sab <= 1.0:
                problems.append(f"range {a},{b}: {sab}")
        if lin[i, i] != 1.0:
            problems.append(f"self {a}")
    for o, s in ((small, small_stats), (layered, layered_stats)):
        ic = helpers.ic_by_term(o, s)
        for tid in o.non_obsolete_ids():
            for parent in o.terms[tid].parents:
                if ic[parent] > ic[tid] + 1e-12:
                    problems.append(f"ic monotonicity {parent}->{tid}")
    checks = [
        (helpers.ic_by_term(small, small_stats)[helpers.A_ONE], 0.6931471805599453),
        (
            lin_similarity(small, small_stats, [helpers.A_LEAF], [helpers.A_TWO])[0, 0],
            0.2075187496394219,
        ),
        (
            set_similarity(
                small,
                small_stats,
                {helpers.A_ONE, helpers.B_ONE},
                {helpers.A_ONE},
            ),
            0.75,
        ),
        (helpers.ic_by_term(orphaned, orphaned_stats)[helpers.ORPHAN], 1.6094379124341003),
    ]
    for got, want in checks:
        if abs(got - want) > 1e-9:
            problems.append(f"frozen value {got} != {want}")
    if helpers.mica(small, small_stats, helpers.A_LEAF, helpers.A_TWO) != helpers.BRANCH_A:
        problems.append("mica(A_LEAF, A_TWO)")
    _verdict(
        2,
        "Lin properties and frozen toy values (1e-9)",
        not problems,
        problems[0] if problems else f"{len(ids) ** 2} pairs, 4 frozen values",
    )


def _random_note(rng, idx):
    words = [f"w{rng.randrange(500):03d}" for _ in range(rng.randint(3, 60))]
    sentences = []
    for _ in range(rng.randint(1, 80)):
        n = rng.randint(1, 14)
        body = " ".join(rng.choice(words) for _ in range(n))
        sentences.append(body + rng.choice([". ", "! ", "? ", ".\n", ".  "]))
    if rng.random() < 0.05:
        sentences.insert(rng.randrange(len(sentences)), "y" * rng.randint(4100, 9000))
    text = "".join(sentences).rstrip()
    return ClinicalNote(
        note_id=f"N{idx:04d}",
        patient_id=f"P{idx:04d}",
        note_type="progress",
        timestamp="2021-01-01",
        text=text,
    )


def test_03_chunker_on_random_notes():
    rng = random.Random("acceptance3")
    limit = 4026
    bad = 0
    for idx in range(1000):
        note = _random_note(rng, idx)
        chunks = chunk_note(note, max_chars=limit)
        if "".join(c.text for c in chunks) != note.text:
            bad += 1
            continue
        if any(len(c.text) > limit for c in chunks):
            bad += 1
            continue
        spans = [(off, off + len(s)) for s, off in split_sentences(note.text)]
        ends = {e for _, e in spans}
        for c in chunks[:-1]:
            b = c.end_offset
            if b in ends:
                continue
            holder = next(s for s in spans if s[0] <= b < s[1])
            if holder[1] - holder[0] <= limit:
                bad += 1
                break
    _verdict(
        3,
        "chunk limit, concatenation identity, sentence integrity on 1000 notes",
        bad == 0,
        f"{bad} violations",
    )


def _fuzz_text_and_spans(rng):
    alphabet = "abcdefg .,;\n"
    text = "".join(rng.choice(alphabet) for _ in range(rng.randint(10, 400)))
    spans = []
    at = 0
    while at < len(text) - 2 and len(spans) < 6:
        s = rng.randint(at, min(at + 40, len(text) - 2))
        e = rng.randint(s + 1, min(s + 25, len(text)))
        if rng.random() < 0.6:
            spans.append((s, e))
        at = e + 1
    return text, spans


def test_04_markup_round_trip_and_recovery():
    rng = random.Random("acceptance4")
    round_trip_bad = 0
    for _ in range(1000):
        text, spans = _fuzz_text_and_spans(rng)
        tagged = annotate_mentions(text, spans)
        if strip_span_markup(tagged) != text:
            round_trip_bad += 1
            continue
        parse = parse_span_markup(text, tagged)
        if parse.recovered:
            round_trip_bad += 1
            continue
        got = [(m.start, m.end) for m in parse.mentions]
        if got != sorted(spans):
            round_trip_bad += 1
            continue
        if any(text[m.start : m.end] != m.surface for m in parse.mentions):
            round_trip_bad += 1

    total_spans = 0
    salvaged = 0
    offsets_ok = True
    for idx in range(200):
        words = [f"token{idx:03d}x{j:02d}" for j in range(12)]
        if idx % 4 == 0:
            words[7] = words[3]  # duplicated surface still recovers
        text = " ".join(words)
        span_slots = [3, 5, 9]
        spans = []
        for slot in span_slots:
            start = len(" ".join(words[:slot])) + (1 if slot else 0)
            spans.append((start, start + len(words[slot])))
        tagged = annotate_mentions(text, spans)
        mutated = tagged.replace(words[0], "reworded", 1)
        parse = parse_span_markup(text, mutated)
        total_spans += len(spans)
        salvaged += len(parse.mentions)
        if not parse.recovered:
            offsets_ok = False
        for m in parse.mentions:
            if text[m.start : m.end] != m.surface:
                offsets_ok = False
    rate = salvaged / total_spans
    _verdict(
        4,
        "markup round trip (1000 fuzzed) and recovery salvage",
        round_trip_bad == 0 and offsets_ok and rate >= 0.95,
        f"{round_trip_bad} round-trip failures, salvage {rate:.3f}",
    )


def test_05_standardization_identity(clinical, layered):
    problems = []
    for o in (clinical, layered):
        index = build_index(o)
        for tid in o.non_obsolete_ids():
            name = o.terms[tid].name
            top = retrieve(index, name, k=3)
            if top[0][0] != tid or abs(top[0][1] - 1.0) > 1e-9:
                problems.append(f"{tid} {name!r} -> {top[0]}")
    index = build_index(clinical)
    got = retrieve(index, "near sighted", k=3)[0][0]
    if got != helpers.MYOPIA:
        problems.append(f"'near sighted' -> {got}")
    _verdict(
        5,
        "every term name standardizes to itself; 'near sighted' resolves",
        not problems,
        problems[0] if problems else "2 ontologies, exact identity",
    )


def test_06_negative_sampling_oracles():
    problems = []
    for seed in range(20):
        o = helpers.random_ontology(seed)
        ids = [t for t in o.non_obsolete_ids() if t != o.root]
        rng = random.Random(f"acceptance6:{seed}")
        positives = rng.sample(ids, rng.randint(1, min(3, len(ids))))
        pools = negative_pools(o, positives)
        want = helpers.bf_negative_pools(o, set(positives))
        got = {cls: set(p) for cls, p in helpers.pools_as_dict(pools).items()}
        if got != want:
            problems.append(f"seed {seed}: pool mismatch")
            continue
        if any(p for p in got.values() if p & set(positives)):
            problems.append(f"seed {seed}: positives leaked into a pool")
        try:
            first = sample_negatives(pools, positives, 2, seed=seed)
            second = sample_negatives(pools, positives, 2, seed=seed)
        except Exception as e:  # all pools empty is legitimate on tiny DAGs
            if "empty" in str(e):
                continue
            raise
        if first != second:
            problems.append(f"seed {seed}: sampling not deterministic")
        if any(t in set(positives) for t, _ in first):
            problems.append(f"seed {seed}: sampled a positive")
    _verdict(
        6,
        "negative pools vs brute force on 20 random DAGs",
        not problems,
        problems[0] if problems else "pools, determinism, disjointness",
    )


def test_07_ranker_correctness():
    problems = []
    instances = helpers.separable_instances(5, pos_per=2, neg_per=3, dim=6, seed=202)
    w = np.random.default_rng([202, 7]).normal(0.0, 0.5, 6)
    grad = pairwise_linear_gradient(instances, w, l2=0.01)
    eps = 1e-6
    for j in range(6):
        up, down = w.copy(), w.copy()
        up[j] += eps
        down[j] -= eps
        fd = (
            pairwise_loss_at(instances, up, l2=0.01)
            - pairwise_loss_at(instances, down, l2=0.01)
        ) / (2 * eps)
        rel = abs(grad[j] - fd) / max(1e-12, abs(fd))
        if rel >= 1e-5:
            problems.append(f"gradient component {j} rel err {rel:.2e}")

    t0 = time.monotonic()
    train = helpers.separable_instances(160, seed=7)
    val = helpers.separable_instances(40, seed=8)
    linear = train_pairwise_linear(train, schema=_schema_stub(6))
    boosted = train_boosted(train, validation=val, schema=_schema_stub(6))
    elapsed = time.monotonic() - t0
    if map_at_k(linear, val, k=30) != 1.0:
        problems.append("linear validation MAP@30 below 1.0")
    if map_at_k(boosted, val, k=30) != 1.0:
        problems.append("boosted validation MAP@30 below 1.0")
    if elapsed >= 60.0:
        problems.append(f"training took {elapsed:.1f}s")

    rng = random.Random("acceptance7-ap")
    for _ in range(1000):
        n = rng.randint(1, 40)
        rel_list = [rng.randint(0, 1) for _ in range(n)]
        total = max(1, sum(rel_list) + rng.randint(0, 5))
        k = rng.randint(1, 45)
        got = ap_at_k(rel_list, total, k)
        want = helpers.bf_ap_at_k(rel_list, total, k)
        if abs(got - want) > 1e-12:
            problems.append("ap_at_k oracle mismatch")
            break
    _verdict(
        7,
        "gradient check, separable-cohort MAP@30 = 1.0, AP@k oracle",
        not problems,
        problems[0] if problems else f"200 patients trained in {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_e2e")
    (root / "ontology.json").write_text(
        helpers.ontology_to_json(helpers.layered_ontology()), encoding="utf-8"
    )
    disease, gene = helpers.layered_annotation_text()
    (root / "disease.tsv").write_text(disease, encoding="utf-8")
    (root / "gene.tsv").write_text(gene, encoding="utf-8")
    cfg = config_from_dict(
        {
            "seed": 42,
            "paths": {
                "ontology": str(root / "ontology.json"),
                "disease_annotations": str(root / "disease.tsv"),
                "gene_annotations": str(root / "gene.tsv"),
                "workdir": str(root / "work"),
            },
            "cohort": {"size": 200},
        }
    )
    t0 = time.monotonic()
    pipeline.step_ingest(cfg)
    pipeline.step_synth(cfg)
    pipeline.step_chunk(cfg)
    pipeline.step_extract(cfg)
    pipeline.step_standardize(cfg)
    pipeline.step_train(cfg)
    pipeline.step_rank(cfg)
    pipeline.step_evaluate(cfg)
    pipeline.step_ablate(cfg)
    pipeline.step_permtest(cfg)
    elapsed = time.monotonic() - t0
    return cfg, elapsed


def _report_value(doc, k, metric):
    for row in doc["rows"]:
        if row["k"] == k:
            return row["metrics"][metric]
    raise KeyError(f"k={k}")


def test_08_end_to_end_synthetic_reproduction(e2e):
    import json

    cfg, elapsed = e2e
    wd = pipeline.workdir(cfg)
    problems = []

    _, cohort_rows = pipeline.read_jsonl(wd / pipeline.COHORT_FILE)
    _, std_rows = pipeline.read_jsonl(wd / pipeline.STANDARDIZED_FILE)
    std = {r["patientId"]: r["terms"] for r in std_rows}
    max_curated = max(len(r["curatedTerms"]) for r in cohort_rows)
    max_list = max(len(v) for v in std.values())
    for row in cohort_rows:
        if not set(row["curatedTerms"]) <= set(std[row["patientId"]]):
            problems.append(f"{row['patientId']} lost curated terms")
            break
    ablation = json.loads((wd / pipeline.ABLATION_REPORT).read_text())
    stage2 = next(
        r
        for r in ablation["reports"]
        if r["configuration"] == "extraction_standardization"
    )
    k_full = 50
    if not (max_curated <= k_full and max_list <= k_full):
        problems.append(f"cutoff 50 below list sizes ({max_curated}, {max_list})")
    recall = _report_value(stage2, k_full, "recall")["point"]
    if recall != 1.0:
        problems.append(f"pre-prioritization recall@{k_full} = {recall}")

    permtest = json.loads((wd / pipeline.PERMTEST_REPORT).read_text())
    delta = _report_value(permtest, 10, "delta_precision")
    if not (delta["point"] > 0.0 and delta["lo"] > 0.0):
        problems.append(
            f"delta precision@10 point {delta['point']:.4f} lo {delta['lo']:.4f}"
        )

    evaluation_doc = json.loads((wd / pipeline.EVAL_REPORT).read_text())
    cutoffs = [row["k"] for row in evaluation_doc["rows"]]
    precisions = [_report_value(evaluation_doc, k, "precision")["point"] for k in cutoffs]
    recalls = [_report_value(evaluation_doc, k, "recall")["point"] for k in cutoffs]
    if any(b > a + 1e-12 for a, b in zip(precisions, precisions[1:])):
        problems.append(f"precision not monotone down: {precisions}")
    if any(b < a - 1e-12 for a, b in zip(recalls, recalls[1:])):
        problems.append(f"recall not monotone up: {recalls}")
    if not precisions[0] > precisions[-1]:
        problems.append("precision flat between first and last cutoff")
    if not recalls[0] < recalls[-1]:
        problems.append("recall flat between first and last cutoff")

    if elapsed >= 300.0:
        problems.append(f"pipeline took {elapsed:.0f}s")
    _verdict(
        8,
        "seeded 200-patient run: recall, permutation delta, monotone P/R",
        not problems,
        problems[0]
        if problems
        else (
            f"{elapsed:.0f}s, recall@50 1.0, dP@10 {delta['point']:.3f} "
            f"[lo {delta['lo']:.3f}]"
        ),
    )


def test_09_determinism(e2e):
    cfg, _ = e2e
    wd = pipeline.workdir(cfg)
    watched = [
        pipeline.MODEL_FILE,
        pipeline.RANKINGS_FILE,
        pipeline.EVAL_REPORT,
        pipeline.EVAL_CSV,
        pipeline.ABLATION_REPORT,
        pipeline.ABLATION_CSV,
        pipeline.PERMTEST_REPORT,
        pipeline.PERMTEST_CSV,
    ]
    before = {name: (wd / name).read_bytes() for name in watched}

    pipeline.step_ingest(cfg)
    pipeline.step_synth(cfg)
    pipeline.step_chunk(cfg)
    pipeline.step_extract(cfg)
    pipeline.step_standardize(cfg)
    pipeline.step_train(cfg)
    pipeline.step_rank(cfg)
    pipeline.step_evaluate(cfg)
    pipeline.step_ablate(cfg)
    pipeline.step_permtest(cfg)
    rerun = {name: (wd / name).read_bytes() for name in watched}
    rerun_identical = rerun == before

    wide = dataclasses.replace(
        cfg, extraction=dataclasses.replace(cfg.extraction, concurrency=8)
    )
    pipeline.step_extract(wide)
    pipeline.step_standardize(wide)
    pipeline.step_train(wide)
    pipeline.step_rank(wide)
    pipeline.step_evaluate(wide)
    pipeline.step_ablate(wide)
    pipeline.step_permtest(wide)
    concurrent = {name: (wd / name).read_bytes() for name in watched}
    concurrency_identical = concurrent == before

    _verdict(
        9,
        "byte-identical reports across reruns and concurrency limits",
        rerun_identical and concurrency_identical,
        f"rerun={rerun_identical}, concurrency8={concurrency_identical}",
    )


def test_10_bootstrap_sanity(layered, layered_stats):
    problems = []
    cfg = EvaluationConfig(cutoffs=(10,), bootstrap_iterations=1000)

    # every curated set fits inside the cutoff, so each patient scores the
    # same perfect value on every metric
    cohort = synth_cohort(layered, 12, seed=3, max_terms=8)
    constant = evaluate_cohort(
        {p.patient_id: sorted(p.curated_terms) for p in cohort},
        {p.patient_id: set(p.curated_terms) for p in cohort},
        layered,
        layered_stats,
        cfg,
    )
    for row in constant.rows:
        for name, stats in row["metrics"].items():
            if not stats["lo"] == stats["point"] == stats["hi"]:
                problems.append(f"non-degenerate CI for {name}")

    def width(n):
        cohort = synth_cohort(layered, n, seed=6)
        ranked = {}
        gold = {}
        for i, p in enumerate(cohort):
            gold[p.patient_id] = set(p.curated_terms)
            ranked[p.patient_id] = (
                sorted(p.curated_terms) if i % 2 == 0 else [layered.root]
            )
        report = evaluate_cohort(ranked, gold, layered, layered_stats, cfg)
        _, lo, hi = helpers.report_value(report, 10, "precision")
        return hi - lo

    w10, w100 = width(10), width(100)
    if not w100 < w10:
        problems.append(f"width at 100 ({w100:.3f}) not below width at 10 ({w10:.3f})")
    _verdict(
        10,
        "degenerate CI on constant cohort; CI narrows 10 -> 100 patients",
        not problems,
        problems[0] if problems else f"widths {w10:.3f} -> {w100:.3f}",
    )
