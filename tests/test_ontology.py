import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    A_LEAF,
    A_ONE,
    A_TWO,
    B_ONE,
    BRANCH_A,
    BRANCH_B,
    OBSOLETE,
    ORPHAN,
    ROOT,
    set_similarity,
    undirected_distances,
)
from phenorank.annotations import DISEASE_SOURCES, load_annotations
from phenorank.errors import IngestError, ParseError, StructuralError, UnknownTermError
from phenorank.ontology import (
    Ontology,
    OntologyStats,
    TermRecord,
    compute_stats,
    lin_similarity,
    parse_obo,
    parse_ontology_json,
    propagate_counts,
)

SMALL_OBO = """
format-version: 1.2

[Term]
id: HP:0000001
name: Clinical finding

[Term]
id: HP:0000002
name: Branch alpha
def: "Left branch." [curated:one]
is_a: HP:0000001 ! Clinical finding

[Term]
id: HP:0000003
name: Branch beta
is_a: HP:0000001

[Term]
id: HP:0000011
name: Alpha one
synonym: "First alpha" EXACT []
is_a: HP:0000002

[Term]
id: HP:0000012
name: Alpha two
is_a: HP:0000002

[Term]
id: HP:0000031
name: Beta one
is_a: HP:0000003

[Term]
id: HP:0000111
name: Alpha one leaf
is_a: HP:0000011

[Term]
id: HP:0000999
name: obsolete finding
is_obsolete: true

[Typedef]
id: part_of
name: part of
"""


class TestParsing:
    def test_obo_round_trip_matches_fixture(self, small):
        parsed = parse_obo(SMALL_OBO)
        assert sorted(parsed.terms) == sorted(small.terms)
        assert parsed.root == ROOT
        assert parsed.terms[A_ONE].synonyms == ["First alpha"]
        assert parsed.terms[BRANCH_A].definition == "Left branch."
        assert parsed.terms[OBSOLETE].obsolete

    def test_obo_is_a_comment_stripped(self):
        parsed = parse_obo(SMALL_OBO)
        assert parsed.terms[BRANCH_A].parents == [ROOT]

    def test_obo_duplicate_id_rejected(self):
        text = SMALL_OBO + "\n[Term]\nid: HP:0000001\nname: Again\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_obo(text)

    def test_obo_missing_name_rejected(self):
        with pytest.raises(ParseError, match="stanza 1"):
            parse_obo("[Term]\nid: HP:0000001\n")

    def test_obo_unquoted_synonym_rejected(self):
        text = "[Term]\nid: HP:0000001\nname: Root\nsynonym: no quotes\n"
        with pytest.raises(ParseError, match="quoted"):
            parse_obo(text)

    def test_obo_escaped_quote_in_synonym(self):
        text = (
            "[Term]\nid: HP:0000001\nname: Root\n"
            'synonym: "the \\"quoted\\" one" EXACT []\n'
        )
        parsed = parse_obo(text)
        assert parsed.terms["HP:0000001"].synonyms == ['the "quoted" one']

    def test_obo_empty_input_rejected(self):
        with pytest.raises(ParseError, match="no \\[Term\\]"):
            parse_obo("format-version: 1.2\n")

    def test_json_list_and_wrapped_forms(self, small):
        doc = [
            {"id": tid, "name": rec.name, "synonyms": rec.synonyms,
             "def": rec.definition, "is_a": rec.parents,
             "is_obsolete": rec.obsolete}
            for tid, rec in small.terms.items()
        ]
        import json

        a = parse_ontology_json(json.dumps(doc))
        b = parse_ontology_json(json.dumps({"terms": doc}))
        assert sorted(a.terms) == sorted(b.terms) == sorted(small.terms)

    def test_json_rejects_non_list(self):
        with pytest.raises(ParseError):
            parse_ontology_json('{"nope": 1}')
        with pytest.raises(ParseError):
            parse_ontology_json("not json")

    def test_json_nested_too_deeply(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_ontology_json("[" * 10**5 + "]" * 10**5)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, [], None, {}])
    def test_json_is_obsolete_must_be_a_boolean(self, value):
        import json

        doc = [{"id": "HP:0000001", "name": "Root"}, {"id": "HP:0000002", "name": "Leaf"}]
        doc[1]["is_obsolete"] = value
        with pytest.raises(ParseError, match="term HP:0000002: is_obsolete"):
            parse_ontology_json(json.dumps(doc))

    def test_json_is_obsolete_boolean_or_absent(self):
        import json

        doc = [
            {"id": "HP:0000001", "name": "Root", "is_obsolete": False},
            {"id": "HP:0000002", "name": "Leaf", "is_a": ["HP:0000001"]},
            {"id": "HP:0000003", "name": "Gone", "is_obsolete": True},
        ]
        o = parse_ontology_json(json.dumps(doc))
        assert [o.terms[t].obsolete for t in sorted(o.terms)] == [False, False, True]
        assert o.ids == ("HP:0000001", "HP:0000002")

    @pytest.mark.parametrize(
        "field, value",
        [("name", 5), ("def", ["x"]), ("synonyms", "Root"), ("synonyms", [None]),
         ("is_a", [["HP:0000002"]])],
    )
    def test_json_text_fields_must_be_strings(self, field, value):
        import json

        doc = [{"id": "HP:0000001", "name": "Root"}, {"id": "HP:0000002", "name": "Leaf"}]
        doc[0][field] = value
        with pytest.raises(ParseError, match="term 1: .*must be text"):
            parse_ontology_json(json.dumps(doc))


class TestStructure:
    def test_malformed_id_rejected(self):
        terms = {"HP:123": TermRecord(id="HP:123", name="Bad")}
        with pytest.raises(StructuralError, match="malformed"):
            Ontology(terms)

    def test_dangling_parent_rejected(self):
        terms = helpers.small_terms()
        terms[B_ONE].parents = ["HP:0009998"]
        with pytest.raises(StructuralError, match="unknown parent"):
            Ontology(terms)

    def test_cycle_rejected(self):
        terms = helpers.small_terms()
        terms[ROOT].parents = [A_LEAF]
        with pytest.raises(StructuralError, match="cycle"):
            Ontology(terms)

    def test_obsolete_only_cycle_rejected(self):
        terms = helpers.small_terms()
        terms[OBSOLETE].parents = ["HP:0000998"]
        terms["HP:0000998"] = TermRecord(
            id="HP:0000998", name="gone", parents=[OBSOLETE], obsolete=True
        )
        # Below the cycle and first in id order, but not on the cycle itself.
        terms["HP:0000997"] = TermRecord(
            id="HP:0000997", name="gone", parents=["HP:0000998"], obsolete=True
        )
        on_cycle = r"is_a cycle involving HP:000099[89]"
        with pytest.raises(StructuralError, match=on_cycle):
            Ontology(terms)

    def test_deep_chain_parses(self):
        # Twice Python's default recursion limit: no step may recurse per level.
        ids = [f"HP:{i:07d}" for i in range(1, 2001)]
        terms = {
            t: TermRecord(id=t, name=f"Level {i}", parents=ids[i - 1 : i])
            for i, t in enumerate(ids)
        }
        # The closure holds 2,001,000 int32 ids (8 MB); one frozenset per
        # term would hold 83 MiB.
        tracemalloc.start()
        try:
            o = Ontology(terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        assert o.root == ids[0]
        assert walk(o, [ids[0]], "down")[ids[-1]] == len(ids) - 1
        assert helpers.ancestors(o, ids[-1]) == set(ids)
        assert walk(o, [ids[-1]], "up")[ids[0]] == len(ids) - 1

    def test_multiple_roots_rejected(self):
        terms = helpers.small_terms()
        terms["HP:0000005"] = TermRecord(id="HP:0000005", name="Second root")
        with pytest.raises(StructuralError, match="multiple root"):
            Ontology(terms)

    def test_all_obsolete_rejected(self):
        terms = {
            ROOT: TermRecord(id=ROOT, name="gone", obsolete=True),
        }
        with pytest.raises(StructuralError, match="no non-obsolete root"):
            Ontology(terms)

    def test_obsolete_parent_of_live_term_rejected(self):
        terms = helpers.small_terms()
        terms[B_ONE].parents = [OBSOLETE]
        with pytest.raises(StructuralError, match="obsolete parent"):
            Ontology(terms)

    def test_empty_name_rejected_for_live_terms_only(self):
        terms = helpers.small_terms()
        terms[OBSOLETE].name = ""
        Ontology(terms)  # obsolete terms may be nameless
        terms2 = helpers.small_terms()
        terms2[B_ONE].name = ""
        with pytest.raises(StructuralError, match="empty name"):
            Ontology(terms2)


def walk(o: Ontology, sources, direction: str, limit: int | None = None) -> dict[str, int]:
    """``Ontology.hops`` as one walk from the ``sources``, keyed by term id."""
    keys, hops = o.hops(o.dense_ids(sources), direction, limit)
    return {o.ids[k]: d for k, d in zip(keys.tolist(), hops.tolist())}


class TestQueries:
    def test_root_and_membership(self, small):
        assert small.root == ROOT
        assert OBSOLETE in small
        assert OBSOLETE not in small.non_obsolete_ids()

    def test_obsolete_invisible(self, small):
        with pytest.raises(UnknownTermError, match="obsolete"):
            small.require(OBSOLETE)
        with pytest.raises(UnknownTermError, match="unknown"):
            small.require("HP:0009997")

    def test_parent_and_child_rows(self, small):
        dense = small.dense_ids([A_LEAF, BRANCH_A, ROOT])
        up, lens = small.parent_rows(dense)
        assert [small.ids[i] for i in up] == [A_ONE, ROOT]
        assert lens.tolist() == [1, 1, 0]
        down, lens = small.child_rows(dense)
        assert [small.ids[i] for i in down] == [A_ONE, A_TWO, BRANCH_A, BRANCH_B]
        assert lens.tolist() == [0, 2, 2]

    def test_rows_match_the_records_on_random_dags(self):
        for seed in range(20):
            o = helpers.random_ontology(seed, obsolete=seed % 4)
            children = {t: [] for t in o.ids}
            for t in o.ids:
                for p in o.terms[t].parents:
                    children[p].append(t)
            every = np.arange(len(o.ids))
            for rows, want in (
                (o.parent_rows, [o.terms[t].parents for t in o.ids]),
                (o.child_rows, [children[t] for t in o.ids]),
            ):
                data, lens = rows(every)
                got = np.split(data, np.cumsum(lens)[:-1])
                assert [[o.ids[i] for i in row] for row in got] == want, seed

    def test_ancestors_self_inclusive(self, small):
        assert helpers.ancestors(small, A_LEAF) == {A_LEAF, A_ONE, BRANCH_A, ROOT}
        assert helpers.ancestors(small, A_LEAF, include_self=False) == {
            A_ONE,
            BRANCH_A,
            ROOT,
        }

    def test_descendants(self, small):
        below = walk(small, [BRANCH_A], "down")
        assert below.keys() == {BRANCH_A, A_ONE, A_TWO, A_LEAF}

    def test_depths(self, small):
        depth = walk(small, [ROOT], "down")
        assert (depth[ROOT], depth[BRANCH_A], depth[A_LEAF]) == (0, 1, 3)
        assert depth.keys() == set(small.ids)

    def test_ancestors_within_radius(self, small):
        assert walk(small, [A_LEAF], "up", 0).keys() == {A_LEAF}
        assert walk(small, [A_LEAF], "up", 2).keys() == {A_LEAF, A_ONE, BRANCH_A}

    def test_lineage_hops(self, small):
        assert walk(small, [A_LEAF], "up") == {
            A_LEAF: 0,
            A_ONE: 1,
            BRANCH_A: 2,
            ROOT: 3,
        }
        assert walk(small, [BRANCH_A], "down") == {
            BRANCH_A: 0,
            A_ONE: 1,
            A_TWO: 1,
            A_LEAF: 2,
        }

    def test_undirected_distance_oracle(self, small):
        leaf, one = undirected_distances(small, [A_LEAF, A_ONE])
        assert (leaf[B_ONE], leaf[A_LEAF], one[A_TWO]) == (5, 0, 2)
        assert leaf.keys() == set(small.ids)

    def test_undirected_distance_rejects_obsolete(self, small):
        with pytest.raises(UnknownTermError):
            undirected_distances(small, [A_LEAF, OBSOLETE])

    def test_terms_within_distance(self, small):
        near = walk(small, [A_ONE], "both", 2)
        assert near == {A_ONE: 0, BRANCH_A: 1, A_LEAF: 1, ROOT: 2, A_TWO: 2}

    def test_hops_from_several_sources_take_the_nearest(self, small):
        assert walk(small, [A_LEAF, B_ONE], "up", 1) == {
            A_LEAF: 0,
            B_ONE: 0,
            A_ONE: 1,
            BRANCH_B: 1,
        }
        assert walk(small, [A_LEAF, BRANCH_B], "both")[ROOT] == 1

    def test_walks_are_independent(self, small):
        n = len(small.ids)
        start = small.dense_ids([A_LEAF, A_ONE, A_LEAF])
        keys, hops = small.hops(np.arange(3) * n + start, "up", 1)
        got = [{}, {}, {}]
        for key, d in zip(keys.tolist(), hops.tolist()):
            got[key // n][small.ids[key % n]] = d
        assert got == [
            {A_LEAF: 0, A_ONE: 1},
            {A_ONE: 0, BRANCH_A: 1},
            {A_LEAF: 0, A_ONE: 1},
        ]

    def test_hops_rejects_bad_sources_and_direction(self, small):
        with pytest.raises(UnknownTermError, match="obsolete"):
            walk(small, [A_ONE, OBSOLETE], "down")
        with pytest.raises(UnknownTermError, match="unknown"):
            walk(small, ["HP:0009997"], "up")
        with pytest.raises(ValueError, match="direction"):
            walk(small, [A_ONE], "sideways")

    def test_hops_match_brute_force_on_random_dags(self):
        for seed in range(30):
            o = helpers.random_ontology(seed, obsolete=seed % 4)
            n = len(o.ids)
            rng = random.Random(f"hops:{seed}")
            sources = rng.sample(o.ids, rng.randint(1, min(4, n)))
            # k walks at once, one of them from the same term as another.
            each = [*sources, sources[0]]
            start = np.arange(len(each)) * n + o.dense_ids(each)
            for direction in ("up", "down", "both"):
                for limit in (0, 1, 2, 3, None):
                    got = walk(o, sources, direction, limit)
                    assert got == helpers.bf_hops(o, sources, direction, limit), (
                        f"seed {seed} {direction} {limit}"
                    )
                    keys, hops = o.hops(start, direction, limit)
                    # Each key once, nearest first, each hop in ascending key order.
                    assert len(set(keys.tolist())) == len(keys)
                    assert (np.lexsort((keys, hops)) == np.arange(len(keys))).all()
                    for k, source in enumerate(each):
                        mine = keys // n == k
                        terms = [o.ids[t] for t in (keys[mine] % n).tolist()]
                        got = dict(zip(terms, hops[mine].tolist()))
                        assert got == walk(o, [source], direction, limit)
                        assert got == helpers.bf_hops(o, [source], direction, limit)


class TestInformationContent:
    def test_annotation_counts(self, small, small_stats):
        assert small_stats.annot_count.dtype == np.int64
        got = dict(zip(small.ids, small_stats.annot_count.tolist()))
        assert got[ROOT] == 4
        assert got[BRANCH_A] == 3
        assert got[BRANCH_B] == 1
        assert got[A_ONE] == 2
        assert got[A_TWO] == 1
        assert got[B_ONE] == 1
        assert got[A_LEAF] == 1
        assert small_stats.total_diseases == 4

    def test_ic_values(self, small, small_stats):
        assert small_stats.ic.dtype == np.float64
        ic = helpers.ic_by_term(small, small_stats)
        assert ic[ROOT] == 0.0
        assert ic[A_ONE] == pytest.approx(0.6931471805599453, abs=1e-12)
        assert ic[A_LEAF] == pytest.approx(
            math.log(4.0), abs=1e-12
        )

    def test_unannotated_term_gets_add_one_floor(self, orphaned, orphaned_stats):
        (orphan,) = orphaned.dense_ids([ORPHAN])
        assert orphaned_stats.annot_count[orphan] == 0
        assert orphaned_stats.ic[orphan] == pytest.approx(
            1.6094379124341003, abs=1e-12
        )

    def test_sources_pool_by_disease_id(self, small, small_stats):
        # d1 appears in both sources but counts once.
        assert small_stats.total_diseases == 4
        assert small_stats.annot_count[small.dense_ids([A_LEAF])[0]] == 1


class TestSimilarity:
    def test_mica_oracle(self, small, small_stats):
        assert helpers.mica(small, small_stats, A_LEAF, A_TWO) == BRANCH_A
        assert helpers.mica(small, small_stats, A_LEAF, A_LEAF) == A_LEAF
        assert helpers.mica(small, small_stats, A_LEAF, B_ONE) == ROOT

    def test_mica_tie_breaks_to_smallest_id(self, small, small_stats):
        # A_TWO and B_ONE share only the root; equal-IC tie cannot arise
        # there, so check the rule on equal-IC leaves directly.
        ic = helpers.ic_by_term(small, small_stats)
        assert ic[A_TWO] == ic[B_ONE]
        assert helpers.mica(small, small_stats, A_TWO, B_ONE) == ROOT

    def test_lin_oracle(self, small, small_stats):
        got = lin_similarity(small, small_stats, [A_LEAF], [A_TWO])
        assert got.shape == (1, 1) and got.dtype == np.float64
        assert got[0, 0] == pytest.approx(0.2075187496394219, abs=1e-12)

    def test_lin_zero_denominator_convention(self, small, small_stats):
        got = lin_similarity(small, small_stats, [ROOT], [ROOT, A_ONE])
        assert got.tolist() == [[1.0, 0.0]]

    def test_lin_never_returns_negative_zero(self, small, small_stats):
        got = lin_similarity(small, small_stats, [B_ONE], [A_ONE])[0, 0]
        assert got == 0.0
        assert math.copysign(1.0, got) == 1.0

    def test_lin_properties_on_fixture(self, small, small_stats):
        ids = small.ids
        got = lin_similarity(small, small_stats, ids, ids)
        assert np.diag(got) == pytest.approx(1.0)
        assert got == pytest.approx(got.T, abs=1e-12)
        assert ((0.0 <= got) & (got <= 1.0 + 1e-12)).all()

    def test_set_similarity_oracle(self, small, small_stats):
        got = set_similarity(small, small_stats, {A_ONE, B_ONE}, {A_ONE})
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_set_similarity_rejects_empty(self, small, small_stats):
        from phenorank.errors import DataError

        with pytest.raises(DataError):
            set_similarity(small, small_stats, set(), {A_ONE})

    def test_ic_monotone_along_ancestry(self, layered, layered_stats):
        ic = helpers.ic_by_term(layered, layered_stats)
        for t in layered.ids:
            for p in layered.terms[t].parents:
                assert ic[p] <= ic[t] + 1e-12


def random_documents(
    o: Ontology, rng: random.Random, n_docs: int
) -> dict[str, set[str]]:
    """term -> documents: multi-term documents, one of them annotated to a
    term and to one of its proper ancestors as well."""
    ids = o.ids
    direct: dict[str, set[str]] = {}
    for k in range(n_docs):
        for t in rng.sample(ids, rng.randint(1, min(4, len(ids)))):
            direct.setdefault(t, set()).add(f"D{k}")
    t = rng.choice([t for t in ids if t != o.root])
    for x in (t, rng.choice(sorted(helpers.bf_ancestors(o, t) - {t}))):
        direct.setdefault(x, set()).add("DUP")
    return direct


dags = st.tuples(st.integers(0, 10_000), st.integers(0, 4), st.sampled_from([30, 120]))


class TestArrayCoreOracles:
    @settings(max_examples=40, deadline=None)
    @given(dag=dags)
    def test_ancestors_match_brute_force(self, dag):
        seed, obsolete, max_terms = dag
        o = helpers.random_ontology(seed, max_terms=max_terms, obsolete=obsolete)
        for t in o.ids:
            want = helpers.bf_ancestors(o, t)
            assert helpers.ancestors(o, t) == want
            assert helpers.ancestors(o, t, include_self=False) == want - {t}
        # Each ancestor stored once: every row is as long as its set.
        _, lens = o.closure_rows(o.dense_ids(o.ids))
        assert lens.tolist() == [len(helpers.bf_ancestors(o, t)) for t in o.ids]

    @settings(max_examples=40, deadline=None)
    @given(dag=dags, docs=st.integers(0, 10_000), n_docs=st.integers(0, 25))
    def test_propagated_counts_match_brute_force(self, dag, docs, n_docs):
        seed, obsolete, max_terms = dag
        o = helpers.random_ontology(seed, max_terms=max_terms, obsolete=obsolete)
        rng = random.Random(docs)
        direct = random_documents(o, rng, n_docs)
        terms, doc_ids = helpers.annotation_rows(o, direct)
        (counts,) = propagate_counts(o, terms, doc_ids)
        assert counts.dtype == "int64" and counts.shape == (len(o.ids),)
        got = {t: c for t, c in zip(o.ids, counts.tolist()) if c}
        assert got == helpers.bf_propagated_counts(o, direct)
        # Split into three groups, each row once: one walk counts every
        # group, and the rows of all groups together.
        groups = np.array([rng.randrange(3) for _ in terms], dtype=np.int64)
        by_group = propagate_counts(o, terms, doc_ids, groups, 3)
        assert by_group.dtype == "int64" and by_group.shape == (4, len(o.ids))
        assert by_group[0].tolist() == counts.tolist()
        for g in range(3):
            part = {}
            for t, d in zip(terms[groups == g].tolist(), doc_ids[groups == g].tolist()):
                part.setdefault(o.ids[t], set()).add(d)
            want = helpers.bf_propagated_counts(o, part)
            assert by_group[1 + g].tolist() == [want.get(t, 0) for t in o.ids]

    @settings(max_examples=40, deadline=None)
    @given(dag=dags, docs=st.integers(0, 10_000), n_docs=st.integers(1, 25))
    def test_ic_bit_equal_to_math_log(self, dag, docs, n_docs):
        seed, obsolete, max_terms = dag
        o = helpers.random_ontology(seed, max_terms=max_terms, obsolete=obsolete)
        rng = random.Random(docs)
        by_source: dict[str, dict[str, set[str]]] = {src: {} for src in DISEASE_SOURCES}
        for t, diseases in random_documents(o, rng, n_docs).items():
            for d in diseases:
                by_source[rng.choice(DISEASE_SOURCES)].setdefault(t, set()).add(d)
        # One disease id in both sources, at two different terms.
        ids = o.ids
        for src in DISEASE_SOURCES:
            by_source[src].setdefault(rng.choice(ids), set()).add("SHARED")
        kb = helpers.kb_from_dicts(o, by_source)
        pooled: dict[str, set[str]] = {}
        for per_term in by_source.values():
            for t, diseases in per_term.items():
                pooled.setdefault(t, set()).update(diseases)
        total = len(set().union(*pooled.values()))
        reached = helpers.bf_propagated_counts(o, pooled)
        s = compute_stats(o, kb)
        assert s.total_diseases == total
        assert s.annot_count.dtype == np.int64 and s.ic.dtype == np.float64
        assert s.annot_count.tolist() == [reached.get(t, 0) for t in ids]
        want = [helpers.log_ic(reached.get(t, 0), total).hex() for t in ids]
        assert [v.hex() for v in s.ic.tolist()] == want

    @settings(max_examples=20, deadline=None)
    @given(dag=dags)
    def test_obsolete_and_unknown_terms_still_raise(self, dag):
        seed, obsolete, max_terms = dag
        o = helpers.random_ontology(seed, max_terms=max_terms, obsolete=obsolete)
        gone = [t for t, rec in o.terms.items() if rec.obsolete]
        n = len(o.ids)
        s = OntologyStats(np.ones(n, dtype=np.int64), 1, np.zeros(n))
        for bad in [*gone, "HP:0009997"]:
            with pytest.raises(UnknownTermError):
                lin_similarity(o, s, [o.root, bad], [o.root])
            with pytest.raises(UnknownTermError):
                lin_similarity(o, s, [o.root], [bad])
            with pytest.raises(UnknownTermError):
                o.dense_ids([o.root, bad])
            with pytest.raises(IngestError, match=f"line 2: unresolvable term {bad}"):
                load_annotations(f"{o.root}\td1\tomim\n{bad}\td2\tomim\n", "", o)


def random_stats(o: Ontology, docs: int, n_docs: int) -> OntologyStats:
    """IC statistics of ``random_documents``, all in one source."""
    direct = random_documents(o, random.Random(docs), n_docs)
    return compute_stats(o, helpers.kb_from_dicts(o, {"omim": direct}))


def sample_ids(o: Ontology, s: OntologyStats, rng: random.Random) -> list[str]:
    """The root, a term no disease reaches (when there is one) and up to 12
    random terms, repeats allowed."""
    unreached = [t for t, c in zip(o.ids, s.annot_count.tolist()) if c == 0]
    return [o.root, *unreached[:1], *rng.choices(o.ids, k=rng.randint(0, 12))]


class TestLinKernel:
    @settings(max_examples=40, deadline=None)
    @given(dag=dags, docs=st.integers(0, 10_000), n_docs=st.integers(0, 8))
    def test_bit_equal_to_brute_force(self, dag, docs, n_docs):
        seed, obsolete, max_terms = dag
        o = helpers.random_ontology(seed, max_terms=max_terms, obsolete=obsolete)
        s = random_stats(o, docs, n_docs)
        rng = random.Random(docs)
        rows, cols = sample_ids(o, s, rng), sample_ids(o, s, rng)
        ic = helpers.ic_by_term(o, s)
        want = np.array([[helpers.bf_lin(o, ic, a, b) for b in cols] for a in rows])
        got = lin_similarity(o, s, rows, cols)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # The root carries IC 0, so root with root takes the zero-denominator rule.
        assert ic[o.root] == 0.0 and got[0, 0] == 1.0

    @settings(max_examples=40, deadline=None)
    @given(dag=dags, docs=st.integers(0, 10_000), n_docs=st.integers(0, 8))
    def test_transpose_and_permutations(self, dag, docs, n_docs):
        seed, obsolete, max_terms = dag
        o = helpers.random_ontology(seed, max_terms=max_terms, obsolete=obsolete)
        s = random_stats(o, docs, n_docs)
        rng = random.Random(docs)
        rows, cols = sample_ids(o, s, rng), sample_ids(o, s, rng)
        got = lin_similarity(o, s, rows, cols)
        assert got.tobytes() == lin_similarity(o, s, cols, rows).T.tobytes()
        p = rng.sample(range(len(rows)), len(rows))
        q = rng.sample(range(len(cols)), len(cols))
        permuted = lin_similarity(o, s, [rows[i] for i in p], [cols[j] for j in q])
        assert permuted.tobytes() == got[np.ix_(p, q)].tobytes()

    def test_obsolete_and_unknown_ids_raise(self, small, small_stats):
        for bad in (OBSOLETE, "HP:0009997"):
            with pytest.raises(UnknownTermError):
                lin_similarity(small, small_stats, [A_ONE, bad], [ROOT])
            with pytest.raises(UnknownTermError):
                lin_similarity(small, small_stats, [ROOT], [bad])
