import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import A_LEAF, A_ONE, A_TWO, B_ONE, BRANCH_A, BRANCH_B, ROOT
from phenorank.annotations import FEATURE_NAMES
from phenorank.corpus import Patient, synth_cohort
from phenorank.errors import DataError, SamplingError, UnknownTermError
from phenorank.ontology import Ontology, TermRecord
from phenorank.ranking import FeatureSchema, build_instances, negative_pools, sample_negatives
from phenorank.ranking import sampling
from phenorank.ranking.sampling import NEGATIVE_CLASSES


class TestPoolDefinitions:
    def test_small_fixture_pools(self, small):
        pools = negative_pools(small, {A_ONE})
        assert helpers.pool_terms(pools, "difficult") == {A_TWO, B_ONE}
        assert helpers.pool_terms(pools, "medium") == {BRANCH_B}
        assert helpers.pool_terms(pools, "easy") == frozenset()
        assert helpers.pool_terms(pools, "implausible") == frozenset()

    def test_sibling_and_cousin_are_difficult(self, small):
        pools = negative_pools(small, {A_ONE})
        assert A_TWO in helpers.pool_terms(pools, "difficult")  # sibling: shares parent BRANCH_A
        # cousin: shares grandparent ROOT only
        assert B_ONE in helpers.pool_terms(pools, "difficult")

    def test_close_relative_never_implausible(self, small):
        pools = negative_pools(small, {A_ONE})
        assert B_ONE not in helpers.pool_terms(pools, "implausible")

    def test_easy_needs_three_lineal_hops(self, layered):
        leaf = helpers.layered_ids()[3][0]
        pools = negative_pools(layered, {leaf})
        assert layered.root in helpers.pool_terms(pools, "easy")

    def test_implausible_requires_no_shared_near_ancestry(self, layered):
        root, hubs, mids, leaves = helpers.layered_ids()
        pools = negative_pools(layered, {leaves[0]})
        # A leaf in a different hub subtree shares nothing within two hops.
        assert leaves[-1] in helpers.pool_terms(pools, "implausible")
        # Its own mid and hub stay out of the implausible pool.
        assert mids[0] not in helpers.pool_terms(pools, "implausible")
        assert hubs[0] not in helpers.pool_terms(pools, "implausible")

    def test_pools_disjoint_and_exclude_positives(self, layered):
        positives = set(helpers.layered_ids()[3][:5])
        pools = helpers.pools_as_dict(negative_pools(layered, positives))
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
        everything = set().union(*helpers.pools_as_dict(pools).values())
        assert "HP:0000013" not in everything

    def test_matches_brute_force_on_random_dags(self):
        import random

        with_implausible = 0
        for seed in range(40):
            o = helpers.random_ontology(seed, max_terms=80, obsolete=seed % 3)
            ids = o.non_obsolete_ids()
            rng = random.Random(f"pos:{seed}")
            positives = set(rng.sample(ids, rng.randint(1, min(10, len(ids)))))
            got = helpers.pools_as_dict(negative_pools(o, positives))
            want = helpers.bf_negative_pools(o, positives)
            for cls in NEGATIVE_CLASSES:
                assert set(got[cls]) == want[cls], f"seed {seed} pool {cls}"
            with_implausible += bool(got["implausible"])
        # The implausible pool is built by inversion; make sure it was exercised.
        assert with_implausible >= 10

    def test_matches_brute_force_on_3000_terms(self):
        o = helpers.random_ontology_3000()
        rng = random.Random("pos:3000")
        for _ in range(8):
            positives = set(rng.sample(o.ids, rng.randint(1, 30)))
            got = helpers.pools_as_dict(negative_pools(o, positives))
            want = helpers.bf_negative_pools(o, positives)
            for cls in NEGATIVE_CLASSES:
                assert set(got[cls]) == want[cls], f"{sorted(positives)} pool {cls}"

    def test_unknown_positive_rejected(self, small):
        with pytest.raises(UnknownTermError):
            negative_pools(small, {"HP:0009996"})
        # The first bad id in sorted order names the error.
        with pytest.raises(UnknownTermError, match="term HP:0000999 is obsolete"):
            negative_pools(small, {A_ONE, "HP:0009996", helpers.OBSOLETE})

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
        by_class = helpers.pools_as_dict(pools)
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
            cls for cls in NEGATIVE_CLASSES if helpers.pools_as_dict(pools)[cls]
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
        assert helpers.pools_as_dict(pools) == oracle
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


def shuffled(o: Ontology, seed: int) -> Ontology:
    """``o`` with its term order, every is_a order and every synonym order shuffled."""
    rng = random.Random(f"shuffle:{seed}")
    records = list(o.terms.values())
    rng.shuffle(records)
    terms = {}
    for rec in records:
        parents, synonyms = list(rec.parents), list(rec.synonyms)
        rng.shuffle(parents)
        rng.shuffle(synonyms)
        terms[rec.id] = dataclasses.replace(rec, parents=parents, synonyms=synonyms)
    return Ontology(terms)


class TestInputOrder:
    @pytest.mark.parametrize("seed", range(6))
    def test_pools_and_cohort_ignore_record_order(self, seed):
        o = helpers.random_ontology(seed, max_terms=150, min_terms=40, obsolete=seed % 4)
        other = shuffled(o, seed)
        assert list(other.terms) != list(o.terms)
        cohort = synth_cohort(o, 20, seed=seed)
        assert synth_cohort(other, 20, seed=seed) == cohort
        for p in cohort:
            want = helpers.pools_as_dict(negative_pools(o, p.curated_terms))
            assert helpers.pools_as_dict(negative_pools(other, p.curated_terms)) == want


def pools_digest(o: Ontology, size: int) -> str:
    """sha256 of every seed-1 patient's four pools, as sorted term ids."""
    rows = []
    for p in synth_cohort(o, size, seed=1):
        pools = negative_pools(o, p.curated_terms)
        by_class = [sorted(helpers.pool_terms(pools, cls)) for cls in NEGATIVE_CLASSES]
        rows.append([p.patient_id, by_class])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class TestPoolDigests:
    """Every pool of a 30-patient cohort, pinned: a refactor of the walks keeps them."""

    def test_layered_fixture(self, layered):
        digest = pools_digest(layered, 30)
        assert digest == "664752e89ac7febe810bebd91ceb9c2af0e2da23fa1ee4e9bbc318b31fc73509"

    def test_random_3000_terms_with_obsolete(self):
        digest = pools_digest(helpers.random_ontology_3000(), 30)
        assert digest == "9ee0468ca312bdffa67d2a2fe1bebd61f501000758accf3e960605fd115f27b4"


def shared_cohort(o: Ontology, size: int, seed: int) -> list[Patient]:
    """``size`` patients, most of whose positives come from a dozen common terms."""
    rng = random.Random(f"shared:{seed}")
    common = rng.sample(o.ids, 12)
    cohort = []
    for i in range(size):
        terms = set(rng.sample(common, rng.randint(1, 6)))
        terms |= set(rng.sample(o.ids, rng.randint(0, 3)))
        sex = rng.choice(["female", "male", "other"])
        category = rng.choice(["cardiac", "neurologic"])
        cohort.append(Patient(f"P{i:04d}", rng.uniform(0, 80), sex, category, terms))
    return cohort


class TestBlockWalks:
    """A cohort's pools, walked a block of patients at a time, equal each
    patient's own, however the blocks are cut."""

    def blocks(self, monkeypatch, o, cohort, terms_per_block):
        monkeypatch.setattr(sampling, "POOL_BLOCK_CELLS", terms_per_block * len(o.ids))
        walks = list(sampling.pool_blocks(o, [p.curated_terms for p in cohort]))
        distinct = list({id(w): w for w in walks}.values())
        for w in distinct:
            # Only a patient whose positives alone exceed the bound exceeds it.
            assert len(w.terms) <= terms_per_block or sum(x is w for x in walks) == 1
        return walks, len(distinct)

    def check_pools(self, monkeypatch, o, cohort, terms_per_block):
        walks, count = self.blocks(monkeypatch, o, cohort, terms_per_block)
        assert count >= 3
        for p, w in zip(cohort, walks):
            got = negative_pools(o, p.curated_terms, w)
            want = helpers.bf_negative_pools(o, p.curated_terms)
            alone = negative_pools(o, p.curated_terms)
            for cls in NEGATIVE_CLASSES:
                assert helpers.pool_terms(got, cls) == want[cls], f"{p.patient_id} {cls}"
                assert np.array_equal(got.dense[cls], alone.dense[cls])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_dags_with_obsolete_terms(self, monkeypatch, seed):
        o = helpers.random_ontology(seed, max_terms=120, min_terms=40, obsolete=1 + seed % 3)
        self.check_pools(monkeypatch, o, shared_cohort(o, 25, seed), 5)

    def test_3000_terms(self, monkeypatch):
        o = helpers.random_ontology_3000()
        self.check_pools(monkeypatch, o, shared_cohort(o, 12, 3000), 8)

    def test_one_block_walks_each_shared_term_once(self):
        o = helpers.random_ontology(4, max_terms=120, min_terms=40)
        cohort = shared_cohort(o, 25, 4)
        walks = list(sampling.pool_blocks(o, [p.curated_terms for p in cohort]))
        terms = sorted(set().union(*(p.curated_terms for p in cohort)))
        assert all(w is walks[0] for w in walks)
        assert walks[0].terms.tolist() == o.dense_ids(terms).tolist()

    def test_walks_without_a_positive_rejected(self, small):
        walks = sampling.pool_walks(small, small.dense_ids([A_ONE]))
        with pytest.raises(ValueError, match="no row"):
            negative_pools(small, {A_ONE, A_TWO}, walks)

    @pytest.mark.parametrize("terms_per_block", [None, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_instances_match_the_patient_loop(self, monkeypatch, seed, terms_per_block):
        o = helpers.random_ontology_3000() if seed == 2 else helpers.random_ontology(
            seed, max_terms=150, min_terms=60, obsolete=2
        )
        cohort = shared_cohort(o, 20, seed)
        if terms_per_block is not None:
            assert self.blocks(monkeypatch, o, cohort, terms_per_block)[1] >= 3
        table = np.random.default_rng(seed).random((len(o.ids), len(FEATURE_NAMES)))
        schema = FeatureSchema.for_cohort(cohort)
        got = build_instances(cohort, o, table, schema, seed, per_class_per_positive=2)
        want = helpers.loop_build_instances(cohort, o, table, schema, seed, 2)
        want = helpers.instances_of(want)
        assert helpers.instance_columns(got) == helpers.instance_columns(want)

    @pytest.mark.parametrize("first", ["unknown", "obsolete", "empty"])
    def test_first_bad_patient_raises_as_in_the_patient_loop(self, monkeypatch, first):
        # Later patients of the same block hold the other faults.
        o = helpers.random_ontology(5, max_terms=120, min_terms=40, obsolete=2)
        obsolete = next(t for t, r in o.terms.items() if r.obsolete)
        bad = {"unknown": {"HP:0009996"}, "obsolete": {obsolete}, "empty": set()}
        cohort = shared_cohort(o, 12, 5)
        for i, kind in zip((7, 9, 10), [first, *sorted(set(bad) - {first})]):
            terms = bad[kind] | (cohort[i].curated_terms if bad[kind] else set())
            cohort[i] = dataclasses.replace(cohort[i], curated_terms=terms)
        table = np.zeros((len(o.ids), len(FEATURE_NAMES)))
        schema = FeatureSchema.for_cohort(cohort)
        for terms_per_block in (3, 1000):
            monkeypatch.setattr(sampling, "POOL_BLOCK_CELLS", terms_per_block * len(o.ids))
            with pytest.raises(DataError) as got:
                build_instances(cohort, o, table, schema, 1)
            with pytest.raises(DataError) as want:
                helpers.loop_build_instances(cohort, o, table, schema, 1)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
