import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import set_similarity, topk_prf
from phenorank import evaluation, streams
from phenorank.config import EvaluationConfig
from phenorank.errors import ConfigError, DataError
from phenorank.evaluation import (
    ABLATION_STAGES,
    DELTA_METRIC_NAMES,
    METRIC_NAMES,
    ablation_run,
    evaluate_cohort,
    exact_name_terms,
    export_ranking,
    import_external_ranking,
    permutation_delta,
    report_csv,
)
from phenorank.extraction import Mention
from phenorank.ontology import Ontology, compute_stats, lin_similarity

A_ONE = helpers.A_ONE
A_TWO = helpers.A_TWO
A_LEAF = helpers.A_LEAF
B_ONE = helpers.B_ONE
ROOT = helpers.ROOT


def mention(surface, chunk="N1#c000"):
    return Mention(
        surface=surface, chunk_id=chunk, start=0, end=len(surface), extractor="test"
    )


def quick_cfg(cutoffs=(1, 2), iterations=50):
    return EvaluationConfig(cutoffs=cutoffs, bootstrap_iterations=iterations)


def report_array(report):
    """(K, metrics, 3) point, lo and hi of every metric at every cutoff."""
    return np.array(
        [
            [[m["point"], m["lo"], m["hi"]] for m in row["metrics"].values()]
            for row in report.rows
        ]
    )


def assert_reports_close(got, want, tol):
    assert got.to_dict() | {"rows": None} == want.to_dict() | {"rows": None}
    assert [row["k"] for row in got.rows] == [row["k"] for row in want.rows]
    np.testing.assert_allclose(report_array(got), report_array(want), rtol=0, atol=tol)


class TestConfigValidation:
    # EvaluationConfig is a plain dataclass; the evaluators validate it.
    BAD = EvaluationConfig(cutoffs=(2, 1))

    def test_evaluate_cohort(self, small, small_stats):
        with pytest.raises(ConfigError, match="strictly increasing"):
            evaluate_cohort(
                {"P1": [A_ONE]}, {"P1": {A_ONE}}, small, small_stats, self.BAD
            )

    def test_permutation_delta(self, small, small_stats):
        ranked = {"P1": [A_ONE, A_TWO]}
        with pytest.raises(ConfigError, match="strictly increasing"):
            permutation_delta(ranked, {"P1": {A_ONE}}, small, small_stats, self.BAD)

    def test_ablation_run(self, small, small_stats):
        with pytest.raises(ConfigError, match="strictly increasing"):
            ablation_run({}, {}, {}, {"P1": {A_ONE}}, small, small_stats, self.BAD)


class TestTopkPrf:
    def test_partial_overlap(self):
        p, r, f1 = topk_prf([A_ONE, B_ONE], {A_ONE, A_TWO}, k=5)
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(0.5)
        assert f1 == pytest.approx(0.5)

    def test_precision_denominator_is_min_of_k_and_length(self):
        p, _, _ = topk_prf([A_ONE], {A_ONE}, k=10)
        assert p == 1.0

    def test_zero_f1_when_no_hits(self):
        assert topk_prf([B_ONE], {A_ONE}, k=1) == (0.0, 0.0, 0.0)

    def test_empty_ranked_reports_zeros(self):
        assert topk_prf([], {A_ONE}, k=3) == (0.0, 0.0, 0.0)

    def test_guards(self):
        with pytest.raises(DataError):
            topk_prf([A_ONE], {A_ONE}, k=0)
        with pytest.raises(DataError):
            topk_prf([A_ONE], set(), k=1)


class TestLinCache:
    """The pair cache, the package's earlier evaluation path, as the kernel's
    oracle."""

    def test_matches_direct_similarity(self, small, small_stats):
        cache = helpers.LinCache(small, small_stats)
        want = lin_similarity(small, small_stats, [A_LEAF], [A_TWO])[0, 0]
        assert want == pytest.approx(0.2075187496394219, abs=1e-12)
        assert cache.lin(A_LEAF, A_TWO) == want
        assert cache.lin(A_TWO, A_LEAF) == want

    def test_matrix_layout(self, small, small_stats):
        M = lin_similarity(small, small_stats, [A_ONE, B_ONE], [A_ONE])
        assert M.shape == (2, 1)
        assert M[0, 0] == pytest.approx(1.0)
        assert M[1, 0] == pytest.approx(0.0)
        cached = helpers.LinCache(small, small_stats).matrix([A_ONE, B_ONE], [A_ONE])
        assert cached.tobytes() == M.tobytes()

    @pytest.mark.parametrize("name", ["small", "layered"])
    def test_reports_byte_equal_to_lin_cache_path(self, request, name, monkeypatch):
        o = request.getfixturevalue(name)
        s = request.getfixturevalue(f"{name}_stats")
        sizes = TestOneKernelMatchesLoops.SIZES[name]
        ranked, gold = random_cohort(o, 7, sizes)
        standardized = {pid: sorted(terms) for pid, terms in ranked.items()}
        mentions = {
            pid: [mention(o.terms[t].name) for t in terms[:6]]
            for pid, terms in ranked.items()
        }
        cfg = quick_cfg(cutoffs=TestOneKernelMatchesLoops.CUTOFFS, iterations=20)

        def reports():
            stages = ablation_run(mentions, standardized, ranked, gold, o, s, cfg, 3)
            return [
                evaluate_cohort(ranked, gold, o, s, cfg, 3).to_json(),
                permutation_delta(ranked, gold, o, s, cfg, 3).to_json(),
                *[r.to_json() for r in stages],
            ]

        got = reports()
        cache = helpers.LinCache(o, s)
        monkeypatch.setattr(
            evaluation, "lin_similarity", lambda o, s, rows, cols: cache.matrix(rows, cols)
        )
        assert got == reports()


class TestEvaluateCohort:
    def test_handcrafted_single_patient(self, small, small_stats):
        report = evaluate_cohort(
            {"P1": [A_ONE, B_ONE]},
            {"P1": {A_ONE}},
            small,
            small_stats,
            quick_cfg(),
        )
        assert report.configuration == "prioritized"
        assert report.cohort_size == 1
        p, _, _ = helpers.report_value(report, 1, "precision")
        assert p == pytest.approx(1.0)
        assert helpers.report_value(report, 1, "recall")[0] == pytest.approx(1.0)
        assert helpers.report_value(report, 1, "f1")[0] == pytest.approx(1.0)
        assert helpers.report_value(report, 1, "lin_similarity")[0] == pytest.approx(1.0)
        assert helpers.report_value(report, 1, "mean_fn")[0] == 0.0
        assert helpers.report_value(report, 1, "mean_fp")[0] == 0.0
        assert helpers.report_value(report, 2, "precision")[0] == pytest.approx(0.5)
        assert helpers.report_value(report, 2, "recall")[0] == pytest.approx(1.0)
        assert helpers.report_value(report, 2, "f1")[0] == pytest.approx(2 / 3)
        assert helpers.report_value(report, 2, "mean_fp")[0] == 1.0

    def test_similarity_uses_best_match_average(self, small, small_stats):
        report = evaluate_cohort(
            {"P1": [A_ONE, B_ONE]},
            {"P1": {A_ONE}},
            small,
            small_stats,
            quick_cfg(),
        )
        want = set_similarity(small, small_stats, {A_ONE, B_ONE}, {A_ONE})
        assert want == pytest.approx(0.75, abs=1e-12)
        assert helpers.report_value(report, 2, "lin_similarity")[0] == pytest.approx(want, abs=1e-12)

    def test_single_patient_ci_degenerates(self, small, small_stats):
        report = evaluate_cohort(
            {"P1": [A_ONE, B_ONE]},
            {"P1": {A_ONE}},
            small,
            small_stats,
            quick_cfg(),
        )
        for row in report.rows:
            for stats in row["metrics"].values():
                assert stats["lo"] == stats["point"] == stats["hi"]

    def test_missing_gold_excluded_and_counted(self, small, small_stats):
        report = evaluate_cohort(
            {"P1": [A_ONE], "P2": [B_ONE], "P3": [B_ONE]},
            {"P1": {A_ONE}, "P3": set()},
            small,
            small_stats,
            quick_cfg(cutoffs=(1,)),
        )
        assert report.cohort_size == 1
        assert report.warnings["missingGold"] == 2
        assert helpers.report_value(report, 1, "precision")[0] == pytest.approx(1.0)

    def test_empty_ranked_flagged_and_scores_zero(self, small, small_stats):
        report = evaluate_cohort(
            {"P1": [A_ONE], "P2": []},
            {"P1": {A_ONE}, "P2": {A_ONE}},
            small,
            small_stats,
            quick_cfg(cutoffs=(1,)),
        )
        assert report.warnings["emptyRanked"] == 1
        assert report.cohort_size == 2
        assert helpers.report_value(report, 1, "precision")[0] == pytest.approx(0.5)
        assert helpers.report_value(report, 1, "recall")[0] == pytest.approx(0.5)
        assert helpers.report_value(report, 1, "mean_fn")[0] == pytest.approx(0.5)

    def test_no_usable_patients_rejected(self, small, small_stats):
        with pytest.raises(DataError):
            evaluate_cohort(
                {"P1": [A_ONE]}, {"P9": {A_ONE}}, small, small_stats, quick_cfg()
            )

    def test_report_shape_and_json(self, small, small_stats):
        report = evaluate_cohort(
            {"P1": [A_ONE, B_ONE]},
            {"P1": {A_ONE}},
            small,
            small_stats,
            quick_cfg(),
            provenance={"configHash": "abc"},
        )
        assert report.metric_names() == list(METRIC_NAMES)
        text = report.to_json()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["cohortSize"] == 1
        assert doc["provenance"] == {"configHash": "abc"}
        assert [row["k"] for row in doc["rows"]] == [1, 2]
        with pytest.raises(KeyError):
            helpers.report_value(report, 99, "precision")


@pytest.mark.parametrize("evaluator", [evaluate_cohort, permutation_delta])
def test_no_patient_with_ranking_and_gold_rejected(evaluator, small, small_stats):
    ranked = {"P1": [A_ONE, A_TWO], "P2": [A_TWO, B_ONE]}
    gold = {"P1": set(), "P9": {A_ONE}}
    with pytest.raises(DataError, match="no patient has both"):
        evaluator(ranked, gold, small, small_stats, quick_cfg())


@pytest.mark.parametrize("evaluator", [evaluate_cohort, permutation_delta])
def test_gold_patient_without_ranking_row_scores_as_empty(
    evaluator, small, small_stats
):
    ranked = {"P1": [A_ONE], "P3": [B_ONE]}
    gold = {"P1": {A_ONE}, "P2": {B_ONE}}
    report = evaluator(ranked, gold, small, small_stats, quick_cfg(cutoffs=(1,)))
    assert report.cohort_size == 2
    assert report.warnings == {"missingGold": 1, "emptyRanked": 1}
    # An absent row reads exactly as an empty one.
    filled = evaluator(
        {**ranked, "P2": []}, gold, small, small_stats, quick_cfg(cutoffs=(1,))
    )
    assert report.to_json() == filled.to_json()
    if evaluator is evaluate_cohort:
        assert helpers.report_value(report, 1, "precision")[0] == pytest.approx(0.5)


@pytest.mark.parametrize("evaluator", [evaluate_cohort, permutation_delta])
def test_repeated_ranked_term_rejected(evaluator, small, small_stats):
    # Top-k counts assume k distinct terms; both evaluators refuse a repeat.
    ranked = {"P1": [A_ONE, A_ONE, B_ONE]}
    with pytest.raises(DataError, match="P1 ranks a term more than once"):
        evaluator(ranked, {"P1": {A_ONE}}, small, small_stats, quick_cfg())


class TestBootstrap:
    def test_constant_cohort_gives_degenerate_interval(self, small, small_stats):
        ranked = {f"P{i}": [A_ONE, B_ONE] for i in range(5)}
        gold = {f"P{i}": {A_ONE} for i in range(5)}
        report = evaluate_cohort(
            ranked, gold, small, small_stats, quick_cfg(iterations=200)
        )
        for row in report.rows:
            for stats in row["metrics"].values():
                assert stats["lo"] == stats["point"] == stats["hi"]

    def test_interval_narrows_with_cohort_size(self, small, small_stats):
        def width(n):
            ranked = {
                f"P{i:03d}": [A_ONE if i % 2 == 0 else B_ONE] for i in range(n)
            }
            gold = {f"P{i:03d}": {A_ONE} for i in range(n)}
            report = evaluate_cohort(
                ranked,
                gold,
                small,
                small_stats,
                quick_cfg(cutoffs=(1,), iterations=300),
            )
            _, lo, hi = helpers.report_value(report, 1, "precision")
            return hi - lo

        assert width(100) < width(10)

    def test_bootstrap_deterministic_for_seed(self, small, small_stats):
        ranked = {f"P{i}": [A_ONE if i % 2 else B_ONE] for i in range(8)}
        gold = {f"P{i}": {A_ONE} for i in range(8)}
        a = evaluate_cohort(ranked, gold, small, small_stats, quick_cfg(cutoffs=(1,)))
        b = evaluate_cohort(ranked, gold, small, small_stats, quick_cfg(cutoffs=(1,)))
        assert a.to_json() == b.to_json()

    def test_interval_bytes_are_pinned(self):
        # The stream's key, words, rejections, sums and percentiles together,
        # so a Python or numpy release that moved any of them fails here.
        per_patient = (np.arange(14.0).reshape(7, 1, 2) % 5) / 3
        lo, hi = evaluation._bootstrap_ci(per_patient, 40, 1)
        assert lo.astype("<f8").tobytes().hex() == "eaa00eeaa00ed23fa3355aa3355adb3f"
        assert hi.astype("<f8").tobytes().hex() == "48b9944bb994eb3fd88ffdd88ffdec3f"


def bootstrap_rows(data_seed, n, cutoffs, metrics):
    """(n, K, M) per-patient values like the reports': exact fractions, small
    counts and arbitrary floats, with repeats, so sums round and sorts tie."""
    rng = np.random.default_rng(data_seed)
    shape = (n, cutoffs, metrics)
    kind = rng.integers(0, 3, shape)
    values = np.select(
        [kind == 0, kind == 1],
        [rng.integers(0, 4, shape) / rng.integers(1, 8, shape), rng.integers(0, 9, shape)],
        rng.random(shape) * 10.0 ** rng.integers(-3, 3, shape),
    )
    return values[rng.integers(0, n, n)] if data_seed % 2 else values


_SEEDS = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(2, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**80),
)
_SMALL_OR_UP_TO_300 = st.one_of(st.integers(1, 3), st.integers(1, 300))


class TestBootstrapMatchesLoop:
    """The whole-array bootstrap against Python-int draws one index at a time,
    one ``mean`` per replicate and ``np.quantile``, bit for bit."""

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(
        seed=_SEEDS,
        n=_SMALL_OR_UP_TO_300,
        iterations=_SMALL_OR_UP_TO_300,
        cutoffs=st.integers(1, 5),
        metrics=st.sampled_from([len(METRIC_NAMES), len(DELTA_METRIC_NAMES)]),
        data_seed=st.integers(0, 2**16),
    )
    def test_bitwise(self, seed, n, iterations, cutoffs, metrics, data_seed):
        per_patient = bootstrap_rows(data_seed, n, cutoffs, metrics)
        got = evaluation._bootstrap_ci(per_patient, iterations, seed)
        want = helpers.loop_bootstrap_ci(per_patient, iterations, seed)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (cutoffs, metrics)
            assert g.tobytes() == w.tobytes()

    def test_blocks_of_replicates(self, monkeypatch):
        # Three blocks, the last one short, draw what one block would.
        per_patient = bootstrap_rows(7, 40, 2, len(METRIC_NAMES))
        monkeypatch.setattr(evaluation, "_BLOCK_DRAWS", 40 * 7)
        got = evaluation._bootstrap_ci(per_patient, 20, 5)
        want = helpers.loop_bootstrap_ci(per_patient, 20, 5)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_nan_column_reads_nan(self):
        per_patient = bootstrap_rows(4, 6, 1, len(DELTA_METRIC_NAMES))
        per_patient[2, 0, 1] = np.nan
        got = evaluation._bootstrap_ci(per_patient, 30, 3)
        want = helpers.loop_bootstrap_ci(per_patient, 30, 3)
        for g, w in zip(got, want):
            assert np.isnan(g[0, 1])
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("seed", [0, 9, 2**40])
    def test_rejected_draws_are_drawn_again(self, seed):
        # Near 2**31 almost half of all 32-bit draws fall in Lemire's rejection
        # zone, so most replicates' plain multiply-shift indices are wrong.
        n, count = 2**31 + 1, 3
        key = streams.stream_key(seed, "bootstrap")
        counters = [[i * n + j for j in range(count)] for i in range(4, 24)]
        got = streams.bounded(key, np.array(counters, dtype=np.uint64), n)
        want = [[helpers.loop_bounded(key, c, n) for c in row] for row in counters]
        plain = [
            [(helpers.loop_splitmix64(key, c) >> 32) * n >> 32 for c in row]
            for row in counters
        ]
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert plain != want

    def test_negative_seed_refused(self):
        per_patient = bootstrap_rows(1, 3, 1, len(METRIC_NAMES))
        with pytest.raises(ValueError, match="non-negative"):
            helpers.loop_bootstrap_ci(per_patient, 2, -1)
        with pytest.raises(ValueError, match="non-negative"):
            evaluation._bootstrap_ci(per_patient, 2, -1)


class TestPermutationDelta:
    def test_perfect_ranking_beats_permuted_baseline(self, small, small_stats):
        report = permutation_delta(
            {"P1": [A_ONE, B_ONE]},
            {"P1": {A_ONE}},
            small,
            small_stats,
            quick_cfg(),
        )
        assert report.configuration == "prioritized-vs-permuted"
        assert report.metric_names() == list(DELTA_METRIC_NAMES)
        # A random first term is the gold one half of the time.
        assert helpers.report_value(report, 1, "delta_precision")[0] == 0.5

    def test_full_list_cutoff_gives_zero_delta(self, small, small_stats):
        report = permutation_delta(
            {"P1": [A_ONE, B_ONE]},
            {"P1": {A_ONE}},
            small,
            small_stats,
            quick_cfg(),
        )
        for name in DELTA_METRIC_NAMES:
            point = helpers.report_value(report, 2, name)[0]
            assert point == 0.0 and not np.signbit(point)

    @pytest.mark.parametrize(
        "hits,n,gold_size", [(1, 3, 4), (2, 4, 3), (1, 5, 2), (4, 5, 5), (2, 2, 5)]
    )
    def test_cutoffs_past_the_list_give_exact_zeros(
        self, layered, layered_stats, hits, n, gold_size
    ):
        # For these counts 2 * hits / (n + gold) differs from the kernel's
        # 2pr / (p + r) in the last bit, so F1 must take the kernel's route.
        ids = sorted(layered.non_obsolete_ids())[5:]
        ranked = ids[:n]
        gold = set(ranked[:hits]) | set(ids[n : n + gold_size - hits])
        report = permutation_delta(
            {"P1": ranked}, {"P1": gold}, layered, layered_stats, quick_cfg((n, 50))
        )
        for row in report.rows:
            for stats in row["metrics"].values():
                for value in stats.values():
                    assert value == 0.0 and not np.signbit(value)

    def test_closed_form_is_the_mean_over_all_orders(self):
        # Lists of 2 to 7 terms with tied and zero Lin values: the kernel's
        # scores averaged over every order against the closed form.
        rng = np.random.default_rng(5)
        cutoffs = (1, 2, 3, 5, 7)
        for _ in range(200):
            n, gold = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            M = rng.choice([0.0, 0.25, 0.5, rng.random()], size=(n, gold))
            rel = (rng.random(n) < 0.4).astype(float)
            orders = np.array(list(itertools.permutations(range(n))))
            want = evaluation._cutoff_metrics(orders, rel, M, cutoffs)[0].mean(axis=0)
            got = evaluation._expected_metrics(rel, M, cutoffs)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_deterministic(self, small, small_stats):
        ranked = {"P1": [A_ONE, B_ONE], "P2": [B_ONE, A_TWO, A_ONE]}
        gold = {"P1": {A_ONE}, "P2": {A_ONE}}
        a = permutation_delta(ranked, gold, small, small_stats, quick_cfg())
        b = permutation_delta(ranked, gold, small, small_stats, quick_cfg())
        assert a.to_json() == b.to_json()

    def test_short_ranking_scores_zero_delta(self, small, small_stats):
        report = permutation_delta(
            {"P1": [A_ONE, B_ONE], "P2": [A_ONE], "P3": []},
            {"P1": {A_ONE}, "P2": {A_ONE}, "P3": {A_ONE}},
            small,
            small_stats,
            quick_cfg(),
        )
        assert report.cohort_size == 3
        assert report.warnings == {"missingGold": 0, "emptyRanked": 1}
        alone = permutation_delta(
            {"P1": [A_ONE, B_ONE]},
            {"P1": {A_ONE}},
            small,
            small_stats,
            quick_cfg(),
        )
        for name in DELTA_METRIC_NAMES:
            # P2 and P3 add zero rows, so the mean is a third of P1's delta.
            point = helpers.report_value(report, 1, name)[0]
            assert helpers.report_value(alone, 1, name)[0] != 0.0
            assert point == pytest.approx(helpers.report_value(alone, 1, name)[0] / 3, abs=1e-15)

    def test_missing_gold_counted(self, small, small_stats):
        report = permutation_delta(
            {"P1": [A_ONE, B_ONE], "P2": [A_ONE, B_ONE]},
            {"P1": {A_ONE}},
            small,
            small_stats,
            quick_cfg(),
        )
        assert report.warnings["missingGold"] == 1
        assert report.cohort_size == 1


def random_cohort(o, seed, sizes, gold_size=None):
    """One patient per list size; every second patient's gold avoids its list.

    Each gold set holds ``gold_size`` terms (4 when None), or the whole pool
    if that is smaller.
    """
    rng = np.random.default_rng(seed)
    gold_size = gold_size or 4
    ids = sorted(o.non_obsolete_ids())
    ranked, gold = {}, {}
    for i, n in enumerate(sizes):
        order = [ids[j] for j in rng.permutation(len(ids))]
        pool = order[n:] if i % 2 and n < len(ids) else order
        pid = f"P{i:03d}"
        ranked[pid] = order[:n]
        gold[pid] = set(rng.choice(pool, size=min(gold_size, len(pool)), replace=False))
    return ranked, gold


class TestOneKernelMatchesLoops:
    """The one-kernel evaluators against the cutoff-by-cutoff, draw-by-draw loops.

    Sizes cover empty lists, lists shorter than a cutoff, two terms, and lists
    longer than numpy's 128-element pairwise-summation block.
    """

    CUTOFFS = (1, 2, 5, 10, 30, 140, 160)
    SIZES = {"small": (0, 1, 2, 3, 5, 7), "layered": (0, 2, 9, 40, 130, 169)}

    def inputs(self, request, name, seed, gold_size=None):
        o = request.getfixturevalue(name)
        s = request.getfixturevalue(f"{name}_stats")
        return (*random_cohort(o, seed, self.SIZES[name], gold_size), o, s)

    @pytest.mark.parametrize("name", ["small", "layered"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_evaluate_cohort(self, request, name, seed):
        ranked, gold, o, s = self.inputs(request, name, seed)
        cfg = quick_cfg(cutoffs=self.CUTOFFS, iterations=20)
        got = evaluate_cohort(ranked, gold, o, s, cfg, seed)
        want = helpers.loop_evaluate_cohort(ranked, gold, o, s, cfg, seed)
        assert got.warnings["emptyRanked"] == 1
        assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("name", ["small", "layered"])
    @pytest.mark.parametrize("seed", [1, 200])
    @pytest.mark.parametrize("gold_size", [None, 1, 3])
    def test_permutation_delta(self, request, name, seed, gold_size):
        # The closed form against the mean over every order (lists of up to 7
        # terms) and against the same closed form in exact fractions. One gold
        # term makes the column half a single column.
        ranked, gold, o, s = self.inputs(request, name, seed, gold_size)
        cfg = quick_cfg(cutoffs=self.CUTOFFS, iterations=20)
        got = permutation_delta(ranked, gold, o, s, cfg, seed)
        assert got.warnings["emptyRanked"] == 1
        oracles = [helpers.fraction_permutation_delta]
        if name == "small":
            oracles.append(helpers.exhaustive_permutation_delta)
        for oracle in oracles:
            assert_reports_close(got, oracle(ranked, gold, o, s, cfg, seed), 1e-12)

    @pytest.mark.parametrize("name", ["small", "layered"])
    def test_permutation_delta_within_sampling_error(self, request, name):
        ranked, gold, o, s = self.inputs(request, name, 3)
        cfg = quick_cfg(cutoffs=self.CUTOFFS, iterations=20)
        got = report_array(permutation_delta(ranked, gold, o, s, cfg, 3))[:, :, 0]
        sampled, se = helpers.loop_permutation_delta(ranked, gold, o, s, cfg, 200, 3)
        want = report_array(sampled)[:, :, 0]
        assert (se > 0).any()
        assert np.all(np.abs(got - want) <= 5.0 * se + 1e-12)


class TestPermutationBaselineIgnoresOrder:
    """The baseline half of the delta, prioritized minus delta, is a property
    of the list's terms, not of their order."""

    def baseline(self, ranked, gold, o, s, cfg):
        prior = report_array(evaluate_cohort(ranked, gold, o, s, cfg))[:, :4, 0]
        delta = report_array(permutation_delta(ranked, gold, o, s, cfg))[:, :, 0]
        return prior, prior - delta

    def test_any_reordering_keeps_the_baseline(self, layered, layered_stats):
        ranked, gold = random_cohort(layered, 5, (2, 3, 9, 40, 130, 169))
        cfg = quick_cfg(cutoffs=TestOneKernelMatchesLoops.CUTOFFS, iterations=20)
        prior, want = self.baseline(ranked, gold, layered, layered_stats, cfg)
        rng = np.random.default_rng(8)
        reordered = [{pid: terms[::-1] for pid, terms in ranked.items()}] + [
            {pid: [t[j] for j in rng.permutation(len(t))] for pid, t in ranked.items()}
            for _ in range(3)
        ]
        for lists in reordered:
            moved, got = self.baseline(lists, gold, layered, layered_stats, cfg)
            assert not np.array_equal(moved, prior)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestExactNameTerms:
    def test_names_only_case_insensitive(self, small):
        out = exact_name_terms(
            {
                "P1": [
                    mention("alpha one"),
                    mention("ALPHA TWO"),
                    mention("First alpha"),
                    mention("no such finding"),
                    mention("Alpha one"),
                ]
            },
            small,
        )
        assert out == {"P1": [A_ONE, A_TWO]}

    def test_collision_keeps_smallest_id(self):
        terms = helpers.small_terms()
        terms["HP:0000007"] = helpers._term(
            "HP:0000007", "Shared finding", [helpers.ROOT]
        )
        terms["HP:0000005"] = helpers._term(
            "HP:0000005", "Shared finding", [helpers.ROOT]
        )
        o = Ontology(terms)
        out = exact_name_terms({"P1": [mention("shared finding")]}, o)
        assert out == {"P1": ["HP:0000005"]}

    def test_obsolete_names_never_match(self, small):
        out = exact_name_terms({"P1": [mention("obsolete finding")]}, small)
        assert out == {"P1": []}

    def test_restored_ontology_reads_names_without_records(self, layered):
        restored = Ontology.from_arrays(layered.to_arrays())
        surfaces = [mention(layered.terms[t].name.upper()) for t in layered.ids[::3]]
        surfaces.append(mention("not a term name"))
        mentions = {"P1": surfaces, "P2": surfaces[::-1]}
        want = exact_name_terms(mentions, layered)
        assert exact_name_terms(mentions, restored) == want
        assert want["P1"] == list(layered.ids[::3])
        assert "terms" not in vars(restored)


class TestAblation:
    def gold(self):
        return {"P1": {A_ONE}, "P2": {B_ONE}}

    def test_three_stages_in_order(self, small, small_stats):
        reports = ablation_run(
            {"P1": [mention("Alpha one")], "P2": [mention("Beta one")]},
            {"P1": [A_ONE, A_TWO], "P2": [B_ONE]},
            {"P1": [A_ONE, B_ONE], "P2": [B_ONE]},
            self.gold(),
            small,
            small_stats,
            quick_cfg(cutoffs=(1,)),
        )
        assert [r.configuration for r in reports] == list(ABLATION_STAGES)
        for r in reports:
            assert r.cohort_size == 2
            assert helpers.report_value(r, 1, "precision")[0] == pytest.approx(1.0)

    def test_stage_lists_differ_in_coverage(self, small, small_stats):
        # The surface form resolves only through standardization, so the
        # extraction-only stage misses what the later stages recover.
        reports = ablation_run(
            {"P1": [mention("first alpha")], "P2": [mention("Beta one")]},
            {"P1": [A_ONE], "P2": [B_ONE]},
            {"P1": [A_ONE], "P2": [B_ONE]},
            self.gold(),
            small,
            small_stats,
            quick_cfg(cutoffs=(1,)),
        )
        by_stage = {r.configuration: r for r in reports}
        assert helpers.report_value(by_stage["extraction_only"], 1, "recall")[0] == pytest.approx(0.5)
        assert helpers.report_value(by_stage["extraction_standardization"], 1, "recall")[
            0
        ] == pytest.approx(1.0)
        assert helpers.report_value(by_stage["full_pipeline"], 1, "recall")[0] == pytest.approx(1.0)

    def test_gold_patients_missing_from_stage_become_empty(self, small, small_stats):
        reports = ablation_run(
            {"P1": [mention("Alpha one")]},
            {"P1": [A_ONE]},
            {"P1": [A_ONE]},
            self.gold(),
            small,
            small_stats,
            quick_cfg(cutoffs=(1,)),
        )
        for r in reports:
            assert r.cohort_size == 2
            assert r.warnings["emptyRanked"] == 1


class TestExternalRankings:
    def test_import_flags_bad_rows_and_loads_good_ones(self, small):
        lines = [
            json.dumps({"patientId": "P1", "terms": [A_ONE, B_ONE, A_ONE]}),
            "{not json",
            json.dumps({"patientId": "P2"}),
            json.dumps({"patientId": "P1", "terms": [B_ONE]}),
            json.dumps({"patientId": "P3", "terms": [helpers.OBSOLETE]}),
            json.dumps({"patientId": "P4", "terms": ["HP:7777777"]}),
            "",
            json.dumps({"patientId": "P5", "terms": [A_TWO]}),
            "[1, 2]",
            "42",
            '"P1"',
            "null",
        ]
        result = import_external_ranking("\n".join(lines), small)
        assert result.rankings == {"P1": [A_ONE, B_ONE], "P5": [A_TWO]}
        assert len(result.errors) == 9
        assert "line 2" in result.errors[0]
        assert "line 3" in result.errors[1]
        assert "duplicate" in result.errors[2]
        assert "line 5" in result.errors[3]
        assert "line 6" in result.errors[4]
        assert result.errors[5:] == [
            f"line {n}: not an object" for n in (9, 10, 11, 12)
        ]

    def test_row_nested_too_deeply_is_invalid(self, small):
        deep = "[" * 10**5 + "]" * 10**5
        lines = [
            f'{{"patientId": "P1", "terms": {deep}}}',
            json.dumps({"patientId": "P2", "terms": [A_ONE]}),
        ]
        result = import_external_ranking("\n".join(lines), small)
        assert result.rankings == {"P2": [A_ONE]}
        assert result.errors == ["line 1: JSON nested too deeply to decode"]

    def test_terms_must_be_strings(self, small):
        row = json.dumps({"patientId": "P1", "terms": [17]})
        result = import_external_ranking(row, small)
        assert result.rankings == {}
        assert len(result.errors) == 1

    def test_export_import_round_trip(self, small):
        rankings = {"P2": [B_ONE], "P1": [A_ONE, A_LEAF]}
        text = export_ranking(rankings)
        assert text.splitlines()[0].startswith('{"patientId": "P1"')
        back = import_external_ranking(text, small)
        assert back.errors == []
        assert back.rankings == rankings

    def test_export_empty(self):
        assert export_ranking({}) == ""


class TestReportCsv:
    def test_layout_and_float_round_trip(self, small, small_stats):
        report = evaluate_cohort(
            {"P1": [A_ONE, B_ONE]},
            {"P1": {A_ONE}},
            small,
            small_stats,
            quick_cfg(),
        )
        text = report_csv([report])
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["configuration", "k"]
        assert header[2:5] == ["precision", "precision_lo", "precision_hi"]
        assert len(header) == 2 + 3 * len(METRIC_NAMES)
        assert len(lines) == 1 + len(report.rows)
        first = lines[1].split(",")
        assert first[0] == "prioritized"
        assert float(first[2]) == helpers.report_value(report, 1, "precision")[0]

    def test_multiple_reports_stack(self, small, small_stats):
        ranked = {"P1": [A_ONE, B_ONE]}
        gold = {"P1": {A_ONE}}
        a = evaluate_cohort(
            ranked, gold, small, small_stats, quick_cfg(), configuration="one"
        )
        b = evaluate_cohort(
            ranked, gold, small, small_stats, quick_cfg(), configuration="two"
        )
        lines = report_csv([a, b]).strip().split("\n")
        assert len(lines) == 1 + 4
        assert lines[1].startswith("one,") and lines[3].startswith("two,")

    def test_mixed_metric_sets_rejected(self, small, small_stats):
        ranked = {"P1": [A_ONE, B_ONE]}
        gold = {"P1": {A_ONE}}
        a = evaluate_cohort(ranked, gold, small, small_stats, quick_cfg())
        d = permutation_delta(ranked, gold, small, small_stats, quick_cfg())
        with pytest.raises(DataError):
            report_csv([a, d])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            report_csv([])
