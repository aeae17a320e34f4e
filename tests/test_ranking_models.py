import dataclasses
import json
import math
import random

import numpy as np
import pytest
from scipy.special import expit

import helpers
from helpers import pairwise_linear_gradient, pairwise_loss_at
from phenorank.annotations import feature_table
from phenorank.config import TrainingConfig
from phenorank.corpus import Patient, synth_cohort
from phenorank.errors import ConfigError, DataError, TrainingError
from phenorank.ranking import (
    FeatureSchema,
    RankModel,
    ap_at_k,
    build_instances,
    map_at_k,
    rank_terms,
    select_model,
    split_cohort,
    train_boosted,
    train_pairwise_linear,
)
from phenorank.ranking.features import UNKNOWN_CATEGORY, RankingInstance
from phenorank.ranking.metrics import map_scorer
from phenorank.ranking.models import (
    KIND_BOOSTED,
    KIND_LINEAR,
    Split,
    _build_tree,
    _dense_ranks,
    _schema_stub,
    _sigmoid,
    pair_index,
    pairwise_pass,
)


def patient(pid="P0001", category="neurologic", terms=()):
    return Patient(
        patient_id=pid,
        age_years=7.0,
        sex="female",
        symptom_category=category,
        curated_terms=set(terms),
    )


class TestFeatureSchema:
    def test_standard_layout(self):
        schema = FeatureSchema.standard(("cardiac", "neurologic", UNKNOWN_CATEGORY))
        names = list(schema.names)
        assert names[0] == "age_years"
        assert names[1:4] == ["sex:female", "sex:male", "sex:other"]
        assert "symptom_category:cardiac" in names
        assert f"symptom_category:{UNKNOWN_CATEGORY}" in names
        assert names[-7:] == [
            "ic",
            "gene_count",
            "gene_fraction",
            "disease_count",
            "disease_fraction",
            "idf_omim",
            "idf_orphanet",
        ]

    def test_unknown_slot_is_mandatory(self):
        with pytest.raises(ConfigError):
            FeatureSchema.standard(("cardiac",))

    def test_for_cohort_sorts_categories(self):
        cohort = [patient(category="zeta"), patient("P0002", category="alpha")]
        schema = FeatureSchema.for_cohort(cohort)
        cats = list(schema.symptom_categories)
        assert cats == ["alpha", "zeta", UNKNOWN_CATEGORY]

    def test_matrix_slots(self, small, small_stats, small_kb):
        schema = FeatureSchema.standard(("neurologic", UNKNOWN_CATEGORY))
        table = feature_table(small, small_stats, small_kb)
        p = patient(category="neurologic")
        (vec,) = schema.matrix(p, table[small.dense_ids([helpers.A_ONE])])
        names = list(schema.names)
        assert vec[names.index("age_years")] == 7.0
        assert vec[names.index("sex:female")] == 1.0
        assert vec[names.index("sex:male")] == 0.0
        assert vec[names.index("symptom_category:neurologic")] == 1.0
        assert vec[names.index("ic")] == pytest.approx(0.6931471805599453)

    def test_unseen_category_maps_to_unknown_slot(self, small, small_stats, small_kb):
        schema = FeatureSchema.standard(("neurologic", UNKNOWN_CATEGORY))
        table = feature_table(small, small_stats, small_kb)
        terms = table[small.dense_ids([helpers.A_ONE])]
        (vec,) = schema.matrix(patient(category="dermatologic"), terms)
        names = list(schema.names)
        assert vec[names.index(f"symptom_category:{UNKNOWN_CATEGORY}")] == 1.0

    def test_dict_round_trip(self):
        schema = FeatureSchema.standard(("a", "b", UNKNOWN_CATEGORY))
        assert FeatureSchema.from_dict(schema.to_dict()) == schema

    @pytest.mark.parametrize(
        "doc, field",
        [
            (
                {"symptomCategories": ["a", UNKNOWN_CATEGORY], "names": ["age_years"]},
                "schema.names",
            ),
            ({"symptomCategories": ["a"], "names": []}, "schema.symptomCategories"),
        ],
        ids=["names-cut", "no-unknown-slot"],
    )
    def test_dict_must_be_a_standard_schema(self, doc, field):
        # A schema decodes as any two string arrays; a model holding one that
        # is not the standard schema of its categories is refused.
        schema = FeatureSchema.standard(("a", UNKNOWN_CATEGORY))
        train = helpers.separable_instances(5, dim=schema.dimension, seed=18)
        good = train_pairwise_linear(train, schema=schema).to_dict()
        assert FeatureSchema.from_dict(doc).to_dict() == doc
        with pytest.raises(DataError, match=f"field '{field}'"):
            RankModel.from_json(json.dumps({**good, "schema": doc}))


class TestBuildInstances:
    def test_labels_and_determinism(self, layered, layered_table):
        cohort = synth_cohort(layered, 6, seed=2)
        schema = FeatureSchema.for_cohort(cohort)
        a = build_instances(cohort, layered, layered_table, schema, seed=3)
        b = build_instances(cohort, layered, layered_table, schema, seed=3)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert (x.patient_id, x.term_id, x.label, x.negative_class) == (
                y.patient_id,
                y.term_id,
                y.label,
                y.negative_class,
            )
            assert np.array_equal(x.features, y.features)
        pos = [i for i in a if i.label == 1]
        neg = [i for i in a if i.label == 0]
        assert pos and neg
        assert all(i.negative_class == "none" for i in pos)
        assert all(i.negative_class != "none" for i in neg)
        by_pid = {p.patient_id: p.curated_terms for p in cohort}
        assert all(i.term_id in by_pid[i.patient_id] for i in pos)
        assert all(i.term_id not in by_pid[i.patient_id] for i in neg)

    def test_patient_without_terms_rejected(self, layered, layered_table):
        bad = [patient(terms=())]
        schema = FeatureSchema.for_cohort(bad)
        with pytest.raises(DataError, match="no curated terms"):
            build_instances(bad, layered, layered_table, schema, seed=0)


class TestSplitCohort:
    def cohort(self, n):
        return [patient(f"P{i:04d}") for i in range(1, n + 1)]

    def test_split_sizes_and_partition(self):
        cohort = self.cohort(10)
        train, val = split_cohort(cohort, ratio=0.8, seed=1)
        assert len(train) == 8 and len(val) == 2
        ids = {p.patient_id for p in train} | {p.patient_id for p in val}
        assert ids == {p.patient_id for p in cohort}
        assert [p.patient_id for p in train] == sorted(p.patient_id for p in train)

    def test_deterministic(self):
        cohort = self.cohort(20)
        assert split_cohort(cohort, 0.7, seed=5) == split_cohort(cohort, 0.7, seed=5)
        assert split_cohort(cohort, 0.7, seed=5) != split_cohort(cohort, 0.7, seed=6)

    def test_never_empty_side(self):
        train, val = split_cohort(self.cohort(5), ratio=0.99, seed=0)
        assert len(val) >= 1
        train, val = split_cohort(self.cohort(5), ratio=0.01, seed=0)
        assert len(train) >= 1

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            split_cohort(self.cohort(10), ratio=1.0, seed=0)
        with pytest.raises(DataError):
            split_cohort(self.cohort(4), ratio=0.8, seed=0)


class TestApAtK:
    def test_worked_example(self):
        got = ap_at_k([1, 0, 1], total_relevant=2, k=3)
        assert got == pytest.approx(0.8333333333333333, abs=1e-15)

    def test_normalizer_uses_min_of_relevant_and_k(self):
        assert ap_at_k([1, 1, 1], total_relevant=10, k=3) == pytest.approx(1.0)

    def test_no_relevant_items(self):
        assert ap_at_k([0, 0], total_relevant=3, k=2) == 0.0

    def test_against_brute_force_random(self):
        rng = random.Random("ap-oracle")
        for _ in range(300):
            n = rng.randint(1, 30)
            rel = [rng.randint(0, 1) for _ in range(n)]
            extra = rng.randint(0, 5)
            total = sum(rel) + extra
            k = rng.randint(1, 35)
            if total == 0:
                continue
            got = ap_at_k(rel, total, k)
            want = helpers.bf_ap_at_k(rel, total, k)
            assert got == pytest.approx(want, abs=1e-12)

    def test_guards(self):
        with pytest.raises(DataError):
            ap_at_k([1], total_relevant=-1, k=1)
        with pytest.raises(DataError):
            ap_at_k([1], total_relevant=1, k=0)


class TestMapAtK:
    def test_perfect_and_inverted_scores(self):
        instances = helpers.separable_instances(4, seed=1)
        scores = np.array([inst.features[0] for inst in instances])
        assert map_at_k(scores, instances, k=30) == pytest.approx(1.0)
        worst = map_at_k(-scores, instances, k=30)
        assert worst < 0.7

    def test_model_path_matches_score_path(self):
        instances = helpers.separable_instances(4, seed=2)
        model = train_pairwise_linear(
            instances, TrainingConfig(linear_epochs=50), schema=_schema_stub(6)
        )
        X = np.vstack([inst.features for inst in instances])
        direct = map_at_k(model.score(X), instances, k=30)
        keyed = map_at_k(model, instances, k=30)
        assert direct == pytest.approx(keyed)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_oracle_bitwise(self, seed):
        rng = np.random.default_rng([seed, 808])
        shapes = [(int(rng.integers(1, 6)), int(rng.integers(0, 40))) for _ in range(9)]
        instances = helpers.random_instances(rng, shapes)
        scorer = map_scorer(instances, k=10)
        for scores in (
            rng.normal(0.0, 1.0, len(instances)),
            rng.integers(0, 3, len(instances)).astype(np.float64),  # ties by term id
        ):
            want = helpers.loop_map_at_k(scores, instances, k=10)
            assert _bytes(map_at_k(scores, instances, k=10)) == _bytes(want)
            assert _bytes(scorer(scores)) == _bytes(want)

    def test_patient_without_positive_rejected(self):
        instances = [h for h in helpers.separable_instances(2, seed=3) if h.label == 0]
        with pytest.raises(DataError):
            map_at_k(np.zeros(len(instances)), instances, k=30)


class TestLinearRanker:
    def test_gradient_matches_finite_differences(self):
        instances = helpers.separable_instances(3, pos_per=2, neg_per=3, dim=5, seed=4)
        rng = np.random.default_rng([4, 99])
        w = rng.normal(0, 0.5, 5)
        grad = pairwise_linear_gradient(instances, w, l2=0.01)
        eps = 1e-6
        for j in range(5):
            up = w.copy()
            up[j] += eps
            down = w.copy()
            down[j] -= eps
            fd = (
                pairwise_loss_at(instances, up, l2=0.01)
                - pairwise_loss_at(instances, down, l2=0.01)
            ) / (2 * eps)
            rel = abs(grad[j] - fd) / max(1e-12, abs(fd))
            assert rel < 1e-5

    def test_loss_decreases(self):
        # The oracle loss at the trained weights, on the standardized
        # features they apply to, is below the loss at zero weights.
        instances = helpers.separable_instances(10, seed=5)
        cfg = TrainingConfig(linear_epochs=80)
        model = train_pairwise_linear(instances, cfg, schema=_schema_stub(6))
        X = np.vstack([inst.features for inst in instances])
        groups = helpers.loop_group_pairs(instances)
        w = np.asarray(model.params.weights)
        trained = helpers.loop_pairwise_loss(model.score(X), groups) + cfg.linear_l2 * (w @ w)
        assert trained < helpers.loop_pairwise_loss(np.zeros(len(X)), groups)

    def test_zero_epochs_zero_weights(self):
        instances = helpers.separable_instances(3, seed=6)
        model = train_pairwise_linear(
            instances, TrainingConfig(linear_epochs=0), schema=_schema_stub(6)
        )
        assert np.allclose(model.params.weights, 0.0)

    def test_reaches_perfect_map_on_separable_data(self):
        train = helpers.separable_instances(40, seed=7)
        val = helpers.separable_instances(10, seed=8)
        model = train_pairwise_linear(train, schema=_schema_stub(6))
        assert map_at_k(model, val, k=30) == pytest.approx(1.0)

    def test_no_instances_rejected(self):
        with pytest.raises(TrainingError):
            train_pairwise_linear([], schema=_schema_stub(3))

    def test_constant_feature_survives_standardization(self):
        instances = helpers.separable_instances(5, seed=9)
        for inst in instances:
            inst.features[3] = 1.0
        model = train_pairwise_linear(
            instances, TrainingConfig(linear_epochs=20), schema=_schema_stub(6)
        )
        assert np.isfinite(model.params.weights).all()
        assert np.isfinite(model.score(np.vstack([i.features for i in instances]))).all()


class TestBoostedRanker:
    def test_reaches_perfect_map_on_separable_data(self):
        train = helpers.separable_instances(40, seed=10)
        val = helpers.separable_instances(10, seed=11)
        model = train_boosted(train, validation=val, schema=_schema_stub(6))
        assert model.meta.validation_map30 == pytest.approx(1.0)
        assert map_at_k(model, val, k=30) == pytest.approx(1.0)

    def test_early_stopping_trims_to_best_round(self):
        train = helpers.separable_instances(30, seed=12)
        val = helpers.separable_instances(8, seed=13)
        hyper = TrainingConfig(boosted_rounds=60, boosted_patience=5)
        model = train_boosted(train, hyper, validation=val, schema=_schema_stub(6))
        assert len(model.params.trees) == model.meta.best_round + 1
        assert len(model.params.trees) < 60
        assert model.meta.map_history
        best = max(model.meta.map_history)
        assert model.meta.map_history[model.meta.best_round] == best

    def test_requires_validation(self):
        train = helpers.separable_instances(5, seed=14)
        with pytest.raises(TrainingError, match="validation"):
            train_boosted(train, validation=[], schema=_schema_stub(6))

    def test_bad_hypers_rejected(self):
        train = helpers.separable_instances(5, seed=15)
        val = helpers.separable_instances(2, seed=16)
        for cfg in (
            TrainingConfig(boosted_max_depth=0),
            TrainingConfig(boosted_rounds=0),
            TrainingConfig(boosted_min_leaf=0),
        ):
            with pytest.raises(ConfigError):
                train_boosted(train, cfg, validation=val, schema=_schema_stub(6))

    def test_deterministic(self):
        train = helpers.separable_instances(20, seed=17)
        val = helpers.separable_instances(6, seed=18)
        a = train_boosted(train, validation=val, schema=_schema_stub(6))
        b = train_boosted(train, validation=val, schema=_schema_stub(6))
        assert a.to_json() == b.to_json()


# Uneven shapes, repeated shapes (buckets of several patients), a row or column
# of one, blocks past numpy's 8192-element buffer, and one patient with only
# positives and one with only negatives.
UNEVEN_SHAPES = [
    (1, 1), (1, 7), (9, 1), (3, 5), (3, 5), (3, 5), (2, 9), (8, 8), (8, 8),
    (13, 21), (40, 49), (4, 0), (0, 6), (17, 3), (1, 130), (95, 100),
]


def _bytes(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


class TestWholeArrayPass:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_patient_loop_bitwise(self, seed):
        rng = np.random.default_rng([seed, 606])
        shapes = list(UNEVEN_SHAPES)
        rng.shuffle(shapes)
        instances = helpers.random_instances(rng, shapes)
        groups = helpers.loop_group_pairs(instances)
        pairs = pair_index(instances)
        for spread in (0.1, 3.0, 40.0, 600.0):
            scores = rng.normal(0.0, spread, len(instances))
            scores[rng.integers(0, len(scores), 20)] = 0.0
            g, h = pairwise_pass(scores, pairs)
            want_g, want_h = helpers.loop_pairwise_grad_hess(scores, groups)
            assert _bytes(g) == _bytes(want_g)
            assert _bytes(h) == _bytes(want_h)
            g_only, none = pairwise_pass(scores, pairs, hessian=False)
            assert none is None
            assert _bytes(g_only) == _bytes(g)

    def test_pair_index_counts(self):
        rng = np.random.default_rng(7)
        instances = helpers.random_instances(rng, [(2, 3), (4, 0), (2, 3), (0, 5), (1, 6)])
        pairs = pair_index(instances)
        assert pairs.pairs == 6 + 6 + 6
        assert pairs.patients == 3
        assert pairs.dropped == 2
        buckets = [bucket for chunk in pairs.chunks for bucket in chunk]
        assert sorted(len(slots) for slots, _, _ in buckets) == [1, 2]
        slots = np.concatenate([slots for slots, _, _ in buckets])
        assert sorted(slots.tolist()) == [0, 1, 2]

    def test_patients_without_both_labels_rejected(self):
        rng = np.random.default_rng(8)
        instances = helpers.random_instances(rng, [(3, 0), (0, 4)])
        with pytest.raises(TrainingError, match="both a positive and a negative"):
            train_pairwise_linear(instances, schema=_schema_stub(5))


def _boundary_grid() -> np.ndarray:
    """Margins at and around the bounds of the saturated ranges, special
    values, and random values on both sides of each bound."""
    rng = np.random.default_rng(1717)
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, -1e-310]
    for bound in (40.0, -40.0, 709.78, -709.78, -745.13, -746.0):
        below = above = bound
        for _ in range(4):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            edges += [below, above]
        edges.append(bound)
    grid = np.concatenate(
        [
            edges,
            rng.uniform(30.0, 45.0, 400),
            rng.uniform(-760.0, -700.0, 400),
            rng.normal(0.0, 300.0, 400),
            np.where(rng.random(100) < 0.5, np.nan, rng.normal(0.0, 10.0, 100)),
        ]
    )
    return grid[rng.permutation(len(grid))]


class TestSaturatedMargins:
    """Outside (-746, 40) the sigmoid is written, not computed; what is
    written must be what ``expit`` returns there."""

    @pytest.mark.parametrize("live_only", [False, True])
    def test_bitwise_equal_to_scipy_and_numpy(self, live_only):
        grid = _boundary_grid()
        if live_only:  # no saturated margin: the whole-array path
            grid = grid[np.isnan(grid) | ((grid > -746.0) & (grid < 40.0))]
        sig = grid.copy()
        _sigmoid(sig)
        assert sig.tobytes() == expit(grid).tobytes()

    def test_grid_covers_both_saturated_sides(self):
        grid = _boundary_grid()
        assert (grid >= 40.0).sum() > 100 and (grid <= -746.0).sum() > 100
        live = grid[(grid > -746.0) & (grid < 40.0)]
        # Values whose sigmoid is not yet saturated lie inside each bound
        # (below, expit reaches 0.0 near -709.78), so a bound moved past them
        # shows.
        assert (expit(live[live > 36.0]) < 1.0).any()
        assert (expit(live[live < -709.0]) > 0.0).any()

    def test_pass_gradient_is_the_sigmoid(self):
        # One patient, one positive scored 0.0: each negative's gradient is
        # the sigmoid of its own score, bit for bit.
        grid = _boundary_grid()
        grid = grid[~np.isnan(grid)]
        instances = [
            RankingInstance("P1", f"HP:{i:07d}", int(i == 0), "x", np.zeros(1))
            for i in range(len(grid) + 1)
        ]
        scores = np.concatenate([[0.0], grid])
        g, h = pairwise_pass(scores, pair_index(instances))
        assert g[1:].tobytes() == expit(grid).tobytes()
        want = expit(grid) * (1.0 - expit(grid))
        assert h[1:].tobytes() == want.tobytes()


def _random_training_set(seed: int, tied: bool):
    rng = np.random.default_rng([seed, 707])
    n = int(rng.integers(8, 14))
    shapes = [(int(rng.integers(1, 9)), int(rng.integers(1, 14))) for _ in range(n)]
    shapes += [(3, 0), (0, 4), shapes[0]]
    levels = 3 if tied else None
    train = helpers.random_instances(rng, shapes, levels=levels)
    val_shapes = [(int(rng.integers(1, 6)), int(rng.integers(0, 20))) for _ in range(5)]
    val = helpers.random_instances(rng, val_shapes, levels=levels)
    return train, val


class TestTrainersMatchLoopOracles:
    @pytest.mark.parametrize("seed", range(6))
    def test_linear_model_bytes(self, seed):
        train, _ = _random_training_set(seed, tied=seed % 2 == 1)
        cfg = TrainingConfig(linear_epochs=40, linear_l2=0.01 * seed)
        got = train_pairwise_linear(train, cfg).to_json()
        assert got == helpers.loop_train_linear(train, cfg).to_json()

    @pytest.mark.parametrize(
        "seed, min_leaf, depth, l1",
        [
            (0, 1, 3, 0.0),
            (1, 2, 1, 0.05),
            (2, 3, 4, 0.1),
            (3, 4, 2, 0.0),
            (4, 1, 4, 0.1),
            (5, 2, 3, 0.02),
            (6, 4, 4, 0.0),
            (7, 3, 2, 0.05),
        ],
    )
    def test_boosted_model_bytes(self, seed, min_leaf, depth, l1):
        train, val = _random_training_set(seed, tied=seed % 2 == 0)
        cfg = TrainingConfig(
            boosted_rounds=8,
            boosted_patience=3,
            boosted_min_leaf=min_leaf,
            boosted_max_depth=depth,
            boosted_l1=l1,
        )
        got = train_boosted(train, cfg, validation=val).to_json()
        assert got == helpers.loop_train_boosted(train, cfg, validation=val).to_json()

    @pytest.mark.parametrize("seed", range(4))
    def test_boosted_rank_sort_edge_columns(self, seed):
        # Splits sort dense-rank columns; these columns stress the ranks:
        # 0.0 beside -0.0 (one rank), a constant column (no cut) and a column
        # of two values (one cut).
        train, val = _random_training_set(seed, tied=False)
        rng = np.random.default_rng([seed, 808])
        for inst in (*train, *val):
            high = rng.random() < 0.2 + 0.6 * inst.label
            inst.features[0] = 1.5 if high else rng.choice([-0.0, 0.0, -1.5])
            inst.features[1] = 3.0
            inst.features[2] = 0.25 if rng.random() < 0.5 + 0.3 * inst.label else 4.0
            inst.features[3:] = rng.normal(0.0, 1.0, 2)
        X = np.vstack([inst.features for inst in train])
        ranks = _dense_ranks(X)
        # The constant column 1 is left out.
        assert [f for f, _, _ in ranks] == [0, 2, 3, 4]
        assert [int(r.max()) for _, r, _ in ranks[:2]] == [2, 1]
        assert {r.dtype for _, r, _ in ranks} == {np.dtype(np.uint8)}
        cfg = TrainingConfig(boosted_rounds=6, boosted_min_leaf=2, boosted_max_depth=3)
        got = train_boosted(train, cfg, validation=val).to_json()
        assert got == helpers.loop_train_boosted(train, cfg, validation=val).to_json()
        g = rng.normal(0.0, 1.0, len(X))
        h = rng.uniform(0.1, 1.0, len(X))
        idx = rng.permutation(len(X))[: len(X) * 2 // 3]
        tree = _build_tree(X, ranks, g, h, idx, 0, cfg)
        assert tree.to_dict() == helpers.scalar_cut_tree(X, g, h, idx, 0, cfg)
        assert '"feature": 0' in got and '"feature": 1' not in got

    def test_boosted_rank_sort_wide_column(self):
        # More than 65,536 distinct values: ranks no longer fit uint16.
        rng = np.random.default_rng(909)
        train = helpers.random_instances(rng, [(10, 90)] * 700, dim=2)
        val = helpers.random_instances(rng, [(3, 20)] * 4, dim=2)
        X = np.vstack([inst.features for inst in train])
        ranks = _dense_ranks(X)
        assert len(np.unique(X[:, 0])) == len(X) > 65_536
        assert [r.dtype for _, r, _ in ranks] == [np.dtype(np.uint32)] * 2
        cfg = TrainingConfig(boosted_rounds=2, boosted_max_depth=1, boosted_min_leaf=5)
        got = train_boosted(train, cfg, validation=val).to_json()
        assert got == helpers.loop_train_boosted(train, cfg, validation=val).to_json()
        g = rng.normal(0.0, 1.0, len(X))
        h = rng.uniform(0.1, 1.0, len(X))
        idx = np.arange(len(X))
        tree = _build_tree(X, ranks, g, h, idx, 0, cfg)
        assert tree.to_dict() == helpers.scalar_cut_tree(X, g, h, idx, 0, cfg)
        assert isinstance(tree, Split)

    @pytest.mark.parametrize("seed", range(3))
    def test_boosted_nan_gains_are_skipped(self, seed):
        # With boosted_l2 = 0, a cut whose left side holds only rows of
        # patients without both labels (gradient and hessian 0) has gain
        # 0/0 = NaN. Those rows sort first on every feature here.
        train, val = _random_training_set(seed, tied=False)
        labels: dict[str, set[int]] = {}
        for inst in train:
            labels.setdefault(inst.patient_id, set()).add(inst.label)
        dropped = {pid for pid, seen in labels.items() if len(seen) == 1}
        assert len(dropped) == 2
        low = -10.0
        for inst in train:
            if inst.patient_id in dropped:
                inst.features[:] = low
                low -= 1.0
        cfg = TrainingConfig(boosted_rounds=4, boosted_l2=0.0, boosted_max_depth=2)
        with np.errstate(invalid="ignore"):
            got = train_boosted(train, cfg, validation=val).to_json()
            want = helpers.loop_train_boosted(train, cfg, validation=val).to_json()
        assert got == want
        assert '"feature"' in got

    @pytest.mark.parametrize("seed", range(4))
    def test_boosted_repeated_constant_and_nan_columns(self, seed):
        # Columns 2 and 3 repeat the orders of columns 0 and 1 (a copy and a
        # monotone map), column 4 is constant, and column 5 holds NaN in a
        # third of its rows: splits search columns 0, 1, 5, 6 and 7 only.
        train, val = _random_training_set(seed, tied=seed % 2 == 1)
        rng = np.random.default_rng([seed, 1001])
        for inst in (*train, *val):
            x = inst.features
            nan = np.nan if rng.random() < 0.35 else x[2]
            inst.features = np.array([x[0], x[1], x[0], np.exp(x[1]), 7.0, nan, x[3], x[4]])
        X = np.vstack([inst.features for inst in train])
        ranks = _dense_ranks(X)
        assert [(f, nan_rank is None) for f, _, nan_rank in ranks] == [
            (0, True), (1, True), (5, False), (6, True), (7, True)
        ]
        cfg = TrainingConfig(boosted_rounds=6, boosted_min_leaf=2, boosted_max_depth=3)
        got = train_boosted(train, cfg, validation=val).to_json()
        assert got == helpers.loop_train_boosted(train, cfg, validation=val).to_json()
        assert '"feature": 0' in got or '"feature": 1' in got
        g = rng.normal(0.0, 1.0, len(X))
        h = rng.uniform(0.1, 1.0, len(X))
        idx = rng.permutation(len(X))[: len(X) * 2 // 3]
        tree = _build_tree(X, ranks, g, h, idx, 0, cfg)
        want = helpers.scalar_cut_tree(X, g, h, idx, 0, cfg)
        assert json.dumps(tree.to_dict()) == json.dumps(want)

    def test_cuts_between_nan_rows(self):
        # NaN differs from every value, itself included, so the oracle may cut
        # between two NaN rows, which its stable sort leaves in node order.
        # Here the best cut on column 0 falls inside its NaN rows, in a node
        # whose rows are in row order and in one whose rows are not; columns 2
        # and 3 copy columns 0 and 1.
        rng = np.random.default_rng(1103)
        n = 300
        X = np.column_stack([np.full(n, np.nan), rng.normal(0.0, 1.0, n)])
        X[rng.permutation(n)[:20], 0] = rng.normal(0.0, 1.0, 20)
        X = np.column_stack([X, X])
        h = rng.uniform(0.5, 1.0, n)
        cfg = TrainingConfig(boosted_min_leaf=3, boosted_max_depth=2)
        ranks = _dense_ranks(X)
        assert [f for f, _, _ in ranks] == [0, 1]
        for idx in (np.arange(n), rng.permutation(n)[: n // 2]):
            g = rng.normal(0.0, 0.1, n)
            g[idx] += np.where(np.arange(len(idx)) < len(idx) // 2, -1.0, 1.0)
            tree = _build_tree(X, ranks, g, h, idx, 0, cfg)
            want = helpers.scalar_cut_tree(X, g, h, idx, 0, cfg)
            assert json.dumps(tree.to_dict()) == json.dumps(want)
            assert tree.feature == 0 and math.isnan(tree.threshold)

    def test_all_nan_column_is_not_constant(self):
        # Every row of column 1 differs from every other, as NaN, so the
        # oracle cuts it between any two rows; column 0 is constant.
        rng = np.random.default_rng(1109)
        n = 60
        X = np.column_stack([np.full(n, 2.0), np.full(n, np.nan)])
        ranks = _dense_ranks(X)
        assert [(f, nan_rank) for f, _, nan_rank in ranks] == [(1, 0)]
        g = np.where(np.arange(n) < n // 3, -1.0, 1.0) + rng.normal(0.0, 0.1, n)
        h = rng.uniform(0.5, 1.0, n)
        cfg = TrainingConfig(boosted_min_leaf=2, boosted_max_depth=2)
        tree = _build_tree(X, ranks, g, h, np.arange(n), 0, cfg)
        want = helpers.scalar_cut_tree(X, g, h, np.arange(n), 0, cfg)
        assert json.dumps(tree.to_dict()) == json.dumps(want)
        assert tree.feature == 1

    def test_boosted_tied_splits_are_exercised(self):
        # Guard that the tied-feature sets really produce split trees.
        train, val = _random_training_set(0, tied=True)
        model = train_boosted(train, TrainingConfig(boosted_rounds=3), validation=val)
        assert any(isinstance(tree, Split) for tree in model.params.trees)


class TestModelSerialization:
    def test_json_round_trip_byte_identical(self):
        # A model file holds the standard schema of its categories.
        schema = FeatureSchema.standard(("a", UNKNOWN_CATEGORY))
        train = helpers.separable_instances(15, dim=schema.dimension, seed=19)
        val = helpers.separable_instances(5, dim=schema.dimension, seed=20)
        for model in (
            train_pairwise_linear(train, schema=schema),
            train_boosted(train, validation=val, schema=schema),
        ):
            text = model.to_json()
            back = RankModel.from_json(text)
            assert back.to_json() == text
            X = np.vstack([i.features for i in val])
            assert np.array_equal(back.score(X), model.score(X))

    def test_format_version_checked(self):
        train = helpers.separable_instances(5, seed=21)
        model = train_pairwise_linear(train, schema=_schema_stub(6))
        bad = model.to_json().replace('"formatVersion": 1', '"formatVersion": 99')
        with pytest.raises(DataError, match="format version"):
            RankModel.from_json(bad)


class TestSelection:
    def test_best_validation_wins(self):
        train = helpers.separable_instances(30, seed=22)
        val = helpers.separable_instances(10, seed=23)
        good = train_pairwise_linear(train, schema=_schema_stub(6))
        inverted = dataclasses.replace(
            good,
            params=dataclasses.replace(
                good.params, weights=[-w for w in good.params.weights]
            ),
            meta=dataclasses.replace(good.meta),
        )
        chosen = select_model([inverted, good], val)
        assert chosen is good
        assert chosen.meta.validation_map30 == pytest.approx(1.0)
        assert inverted.meta.validation_map30 is not None
        assert inverted.meta.validation_map30 < 1.0

    def test_tie_prefers_linear(self):
        train = helpers.separable_instances(30, seed=24)
        val = helpers.separable_instances(10, seed=25)
        linear = train_pairwise_linear(train, schema=_schema_stub(6))
        boosted = train_boosted(train, validation=val, schema=_schema_stub(6))
        chosen = select_model([boosted, linear], val)
        assert chosen.kind == KIND_LINEAR

    def test_no_candidates_rejected(self):
        with pytest.raises(DataError):
            select_model([], [])


class TestRankTerms:
    def test_orders_by_score_then_id(self, layered, layered_table):
        cohort = synth_cohort(layered, 8, seed=30)
        schema = FeatureSchema.for_cohort(cohort)
        instances = build_instances(cohort, layered, layered_table, schema, seed=30)
        model = train_pairwise_linear(instances, schema=schema)
        candidates = sorted(cohort[0].curated_terms)[:3] + [layered.root]
        ranked = rank_terms(model, cohort[0], candidates, layered, layered_table)
        assert len(ranked) == len(set(candidates))
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)
        for (t1, s1), (t2, s2) in zip(ranked, ranked[1:]):
            if s1 == s2:
                assert t1 < t2

    def test_duplicates_collapse_and_empty_ok(self, layered, layered_table):
        cohort = synth_cohort(layered, 8, seed=31)
        schema = FeatureSchema.for_cohort(cohort)
        instances = build_instances(cohort, layered, layered_table, schema, seed=31)
        model = train_pairwise_linear(instances, schema=schema)
        tid = next(iter(cohort[0].curated_terms))
        ranked = rank_terms(model, cohort[0], [tid, tid], layered, layered_table)
        assert len(ranked) == 1
        assert rank_terms(model, cohort[0], [], layered, layered_table) == []

    def test_boosted_kind_used_downstream(self):
        train = helpers.separable_instances(20, seed=32)
        val = helpers.separable_instances(5, seed=33)
        model = train_boosted(train, validation=val, schema=_schema_stub(6))
        assert model.kind == KIND_BOOSTED
