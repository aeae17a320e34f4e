import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import A_LEAF, A_ONE, A_TWO, B_ONE, BRANCH_A, BRANCH_B, ROOT
from phenorank.errors import DataError, SamplingError, UnknownTermError
from phenorank.ontology import Ontology, TermRecord
from phenorank.ranking import negative_pools, sample_negatives
from phenorank.ranking.sampling import NEGATIVE_CLASSES


class TestPoolDefinitions:
    def test_small_fixture_pools(self, small):
        pools = negative_pools(small, {A_ONE})
        assert pools.terms("difficult") == {A_TWO, B_ONE}
        assert pools.terms("medium") == {BRANCH_B}
        assert pools.terms("easy") == frozenset()
        assert pools.terms("implausible") == frozenset()

    def test_sibling_and_cousin_are_difficult(self, small):
        pools = negative_pools(small, {A_ONE})
        assert A_TWO in pools.terms("difficult")  # sibling: shares parent BRANCH_A
        assert B_ONE in pools.terms("difficult")  # cousin: shares grandparent ROOT only

    def test_close_relative_never_implausible(self, small):
        pools = negative_pools(small, {A_ONE})
        assert B_ONE not in pools.terms("implausible")

    def test_easy_needs_three_lineal_hops(self, layered):
        leaf = helpers.layered_ids()[3][0]
        pools = negative_pools(layered, {leaf})
        assert layered.root in pools.terms("easy")

    def test_implausible_requires_no_shared_near_ancestry(self, layered):
        root, hubs, mids, leaves = helpers.layered_ids()
        pools = negative_pools(layered, {leaves[0]})
        # A leaf in a different hub subtree shares nothing within two hops.
        assert leaves[-1] in pools.terms("implausible")
        # Its own mid and hub stay out of the implausible pool.
        assert mids[0] not in pools.terms("implausible")
        assert hubs[0] not in pools.terms("implausible")

    def test_pools_disjoint_and_exclude_positives(self, layered):
        positives = set(helpers.layered_ids()[3][:5])
        pools = negative_pools(layered, positives).as_dict()
        names = list(pools)
        for i, a in enumerate(names):
            assert not (pools[a] & positives)
            for b in names[i + 1 :]:
                assert not (pools[a] & pools[b])

    def test_obsolete_terms_never_sampled(self):
        terms = helpers.small_terms()
        terms["HP:0000013"] = TermRecord(
            id="HP:0000013",
            name="gone sibling",
            parents=[BRANCH_A],
            obsolete=True,
        )
        o = Ontology(terms)
        pools = negative_pools(o, {A_ONE})
        everything = set().union(*pools.as_dict().values())
        assert "HP:0000013" not in everything

    def test_matches_brute_force_on_random_dags(self):
        import random

        with_implausible = 0
        for seed in range(40):
            o = helpers.random_ontology(seed, max_terms=80, obsolete=seed % 3)
            ids = o.non_obsolete_ids()
            rng = random.Random(f"pos:{seed}")
            positives = set(rng.sample(ids, rng.randint(1, min(10, len(ids)))))
            got = negative_pools(o, positives).as_dict()
            want = helpers.bf_negative_pools(o, positives)
            for cls in NEGATIVE_CLASSES:
                assert set(got[cls]) == want[cls], f"seed {seed} pool {cls}"
            with_implausible += bool(got["implausible"])
        # The implausible pool is built by inversion; make sure it was exercised.
        assert with_implausible >= 10

    def test_unknown_positive_rejected(self, small):
        with pytest.raises(UnknownTermError):
            negative_pools(small, {"HP:0009996"})

    def test_empty_positives_rejected(self, small):
        with pytest.raises(DataError):
            negative_pools(small, set())


class TestSampling:
    def test_deterministic_and_labeled(self, layered):
        positives = set(helpers.layered_ids()[3][:4])
        pools = negative_pools(layered, positives)
        a = sample_negatives(pools, positives, per_class_per_positive=2, seed=9)
        b = sample_negatives(pools, positives, per_class_per_positive=2, seed=9)
        assert a == b
        c = sample_negatives(pools, positives, per_class_per_positive=2, seed=10)
        assert a != c
        by_class = pools.as_dict()
        for term, cls in a:
            assert cls in NEGATIVE_CLASSES
            assert term in by_class[cls]
            assert term not in positives

    def test_draw_size_capped_by_pool(self, small):
        pools = negative_pools(small, {A_ONE})
        drawn = sample_negatives(pools, {A_ONE}, per_class_per_positive=5, seed=0)
        by_class = {}
        for term, cls in drawn:
            by_class.setdefault(cls, []).append(term)
        assert sorted(by_class["difficult"]) == sorted([A_TWO, B_ONE])
        assert by_class["medium"] == [BRANCH_B]
        assert "easy" not in by_class

    def test_all_pools_empty_rejected(self):
        terms = {
            ROOT: TermRecord(id=ROOT, name="Root"),
            BRANCH_A: TermRecord(id=BRANCH_A, name="Only child", parents=[ROOT]),
        }
        o = Ontology(terms)
        pools = negative_pools(o, {BRANCH_A})
        with pytest.raises(SamplingError):
            sample_negatives(pools, {BRANCH_A}, seed=0)

    def test_bad_per_class_rejected(self, small):
        pools = negative_pools(small, {A_ONE})
        with pytest.raises(DataError):
            sample_negatives(pools, {A_ONE}, per_class_per_positive=0)

    def test_leaf_positive_samples_from_every_nonempty_pool(self, layered):
        leaf = helpers.layered_ids()[3][0]
        pools = negative_pools(layered, {leaf})
        drawn = sample_negatives(pools, {leaf}, per_class_per_positive=1, seed=1)
        classes = {cls for _, cls in drawn}
        assert classes == {
            cls for cls in NEGATIVE_CLASSES if pools.as_dict()[cls]
        }


class TestAgainstSetwiseOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        dag=st.integers(0, 10_000),
        obsolete=st.integers(0, 3),
        max_terms=st.sampled_from([40, 300]),
        pick=st.integers(0, 10_000),
        per_class=st.integers(1, 3),
    )
    def test_same_pools_and_draws_in_the_same_order(
        self, dag, obsolete, max_terms, pick, per_class
    ):
        o = helpers.random_ontology(dag, max_terms=max_terms, obsolete=obsolete)
        ids = o.ids
        rng = random.Random(pick)
        positives = rng.sample(ids, rng.randint(1, min(4, len(ids))))
        pools = negative_pools(o, positives)
        oracle = helpers.setwise_negative_pools(o, positives)
        assert pools.as_dict() == oracle
        for cls in NEGATIVE_CLASSES:
            assert [o.ids[i] for i in pools.dense[cls]] == sorted(oracle[cls])
        seed = f"{pick}:negatives:P{dag}"
        try:
            want = helpers.setwise_sample_negatives(oracle, positives, per_class, seed)
        except SamplingError:
            with pytest.raises(SamplingError):
                sample_negatives(pools, positives, per_class, seed)
            return
        assert sample_negatives(pools, positives, per_class, seed) == want
