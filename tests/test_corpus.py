import hashlib
import random
import statistics
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import A_ONE, A_TWO, ROOT, filter_notes
from phenorank import corpus, pipeline
from phenorank.config import config_from_dict
from phenorank.corpus import (
    ClinicalNote,
    NoteChunk,
    Patient,
    chunk_note,
    split_sentences,
    synth_cohort,
    synth_narrative,
)
from phenorank.errors import ConfigError, DataError, GenerationError
from phenorank.extraction import SPAN_CLOSE, SPAN_OPEN, strip_span_markup


def note(text, note_id="N1", patient_id="P0001", note_type="Progress", ts="2024-01-05"):
    return ClinicalNote(
        note_id=note_id,
        patient_id=patient_id,
        note_type=note_type,
        timestamp=ts,
        text=text,
    )


class TestRecords:
    def test_patient_round_trip(self):
        p = Patient(
            patient_id="P0001",
            age_years=4.5,
            sex="female",
            symptom_category="neurologic",
            curated_terms={A_TWO, A_ONE},
        )
        back = Patient.from_dict(p.to_dict())
        assert back == p
        assert p.to_dict()["curatedTerms"] == sorted([A_ONE, A_TWO])

    def test_note_and_chunk_round_trip(self):
        n = note("Some text.")
        assert ClinicalNote.from_dict(n.to_dict()) == n
        c = NoteChunk(
            chunk_id="N1#c000",
            note_id="N1",
            patient_id="P0001",
            text="Some text.",
            start_offset=0,
            end_offset=10,
        )
        assert NoteChunk.from_dict(c.to_dict()) == c


class TestFilterNotes:
    def test_cutoff_drops_notes_on_or_after(self):
        notes = [
            note("before", ts="2024-01-04"),
            note("on the day", ts="2024-01-05"),
            note("after", ts="2024-01-06"),
        ]
        kept = filter_notes(notes, [], {"P0001": "2024-01-05"})
        assert [n.text for n in kept] == ["before"]

    def test_pattern_matches_type_or_text(self):
        notes = [
            note("keep me"),
            note("drop this body", note_type="Progress"),
            note("fine", note_type="Imaging"),
        ]
        kept = filter_notes(notes, [r"drop", r"Imag"], {})
        assert [n.text for n in kept] == ["keep me"]

    def test_unknown_patient_unaffected_by_cutoffs(self):
        notes = [note("x", patient_id="P0002")]
        assert filter_notes(notes, [], {"P0001": "2020-01-01"}) == notes

    def test_bad_pattern_rejected(self):
        with pytest.raises(ConfigError, match="exclude pattern"):
            filter_notes([], ["("], {})

    def test_bad_timestamp_rejected(self):
        with pytest.raises(DataError, match="timestamp"):
            filter_notes([note("x", ts="not a date")], [], {"P0001": "2024-01-01"})


class TestSplitSentences:
    def cases(self):
        return [
            ("First. Second.", 2),
            ("What?! Really. Yes", 3),
            ("A. B.", 2),
            ("Dr. Smith saw pt. today.", 1),
            ("Seen by John A. Lee today.", 1),
            ("Values rose, e.g. twice.", 1),
            ("Line one\nLine two", 2),
            ("", 0),
            ("   ", 1),
        ]

    def test_counts(self):
        for text, expected in self.cases():
            got = split_sentences(text)
            assert len(got) == expected, f"{text!r} -> {got}"

    def test_concatenation_identity_on_cases(self):
        for text, _ in self.cases():
            got = split_sentences(text)
            assert "".join(s for s, _ in got) == text
            for s, start in got:
                assert text[start : start + len(s)] == s

    def test_trailing_whitespace_stays_with_sentence(self):
        got = split_sentences("One.  Two.")
        assert got[0][0] == "One.  "
        assert got[1][0] == "Two."

    def test_sentence_initial_single_letter_splits(self):
        got = split_sentences("A. B. C.")
        assert [s for s, _ in got] == ["A. ", "B. ", "C."]

    def test_mid_sentence_initial_guarded(self):
        got = split_sentences("Seen with Mary Q. Public today. Next item.")
        assert len(got) == 2
        assert got[0][0].startswith("Seen with Mary Q. Public")

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abc .!?\nX", max_size=200))
    def test_concatenation_identity_fuzzed(self, text):
        pieces = split_sentences(text)
        assert "".join(s for s, _ in pieces) == text


class TestChunkNote:
    def test_single_small_note_one_chunk(self):
        n = note("Short note.")
        chunks = chunk_note(n, 100)
        assert len(chunks) == 1
        assert chunks[0].chunk_id == "N1#c000"
        assert chunks[0].text == n.text
        assert (chunks[0].start_offset, chunks[0].end_offset) == (0, len(n.text))

    def test_greedy_packing_whole_sentences(self):
        sentences = [f"Sentence number {i:02d} is right here." for i in range(50)]
        text = " ".join(sentences)
        n = note(text)
        chunks = chunk_note(n, 100)
        assert "".join(c.text for c in chunks) == text
        for c in chunks:
            assert len(c.text) <= 100
        # No chunk below the limit may end mid-sentence.
        boundaries = {start for _, start in split_sentences(text)} | {len(text)}
        for c in chunks:
            if len(c.text) < 100:
                assert c.end_offset in boundaries

    def test_oversize_sentence_hard_split(self):
        text = "x" * 5000
        chunks = chunk_note(note(text), 4026)
        assert [len(c.text) for c in chunks] == [4026, 974]
        assert "".join(c.text for c in chunks) == text

    def test_hundred_char_sentences_pack_forty(self):
        one = "y" * 98 + ". "  # trailing space stays with its sentence
        text = "".join([one] * 50)
        chunks = chunk_note(note(text), 4026)
        assert [len(c.text) for c in chunks] == [4000, 1000]

    def test_offsets_contiguous(self):
        text = ("Alpha beta gamma. " * 300).strip()
        chunks = chunk_note(note(text), 500)
        assert chunks[0].start_offset == 0
        for prev, cur in zip(chunks, chunks[1:]):
            assert prev.end_offset == cur.start_offset
        assert chunks[-1].end_offset == len(text)

    def test_ids_sequential(self):
        text = "word. " * 2000
        chunks = chunk_note(note(text), 200)
        assert [c.chunk_id for c in chunks] == [
            f"N1#c{i:03d}" for i in range(len(chunks))
        ]

    def test_empty_note_yields_no_chunks(self):
        assert chunk_note(note(""), 100) == []

    def test_bad_limit_rejected(self):
        with pytest.raises(ConfigError):
            chunk_note(note("x"), 0)

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="ab .!?\n", max_size=2000), st.integers(20, 200))
    def test_chunk_invariants_fuzzed(self, text, limit):
        chunks = chunk_note(note(text), limit)
        assert "".join(c.text for c in chunks) == text
        for c in chunks:
            assert 0 < len(c.text) <= limit


class TestSynthCohort:
    def test_deterministic(self, layered):
        a = synth_cohort(layered, 10, seed=7)
        b = synth_cohort(layered, 10, seed=7)
        assert a == b
        c = synth_cohort(layered, 10, seed=8)
        assert a != c

    def test_shapes_and_ranges(self, layered):
        cohort = synth_cohort(layered, 50, seed=1)
        assert [p.patient_id for p in cohort] == [f"P{i:04d}" for i in range(1, 51)]
        for p in cohort:
            assert 1 <= len(p.curated_terms) <= 40
            assert 0.0 <= p.age_years <= 100.0
            assert p.sex in ("female", "male", "other")
            assert ROOT not in p.curated_terms

    def test_term_count_distribution_center(self, layered):
        cohort = synth_cohort(layered, 200, seed=3)
        med = statistics.median(len(p.curated_terms) for p in cohort)
        assert 10 <= med <= 20

    def test_depth_weighting_prefers_leaves(self, layered):
        parents = {p for t in layered.ids for p in layered.terms[t].parents}
        leaves = set(layered.ids) - parents
        cohort = synth_cohort(layered, 100, seed=5)
        drawn = [t for p in cohort for t in p.curated_terms]
        frac = sum(1 for t in drawn if t in leaves) / len(drawn)
        assert frac > 0.85

    def test_small_ontology_rejected(self, small):
        with pytest.raises(DataError, match=">= 30"):
            synth_cohort(small, 5, seed=0)


def depth_weights(o):
    """The eligible terms of ``synth_cohort`` and their weights 4**min(depth, 8)."""
    items = [t for t in o.ids if t != o.root]
    depth = helpers.bf_hops(o, [o.root], "down")
    return items, {t: 4.0 ** min(depth[t], 8) for t in items}


class TestWeightedSample:
    """The numpy replay against the tuple sort over ``rng.random()``."""

    @settings(max_examples=60, deadline=None)
    @given(
        dag=st.integers(0, 30),
        seed=st.integers(0, 2**32),
        advance=st.integers(0, 1500),
        gauss=st.booleans(),
        data=st.data(),
    )
    def test_sampler_matches_tuple_sort(self, dag, seed, advance, gauss, data):
        o = helpers.random_ontology(dag, max_terms=400, obsolete=dag % 3)
        items, weights = depth_weights(o)
        count = data.draw(st.integers(1, len(items)), label="count")
        rng = random.Random(seed)
        for _ in range(advance):  # any position in the 624-word block
            rng.random()
        if gauss:
            rng.gauss(0.0, 1.0)  # leaves a cached gauss_next
        oracle = random.Random()
        oracle.setstate(rng.getstate())
        inv_w = np.array([1.0 / weights[t] for t in items])
        mt = np.random.MT19937(0)
        got = corpus._weighted_sample(rng, mt, items, inv_w, count)
        want = helpers.tuple_sort_weighted_sample(oracle, items, weights, count)
        assert got == want
        assert rng.getstate() == oracle.getstate()
        assert rng.random() == oracle.random()

    def test_consecutive_samples_share_one_generator(self, layered):
        items, weights = depth_weights(layered)
        inv_w = np.array([1.0 / weights[t] for t in items])
        rng, oracle = random.Random("7:cohort"), random.Random("7:cohort")
        mt = np.random.MT19937(0)
        for count in (1, 15, 40, len(items)):
            got = corpus._weighted_sample(rng, mt, items, inv_w, count)
            assert got == helpers.tuple_sort_weighted_sample(oracle, items, weights, count)
            assert rng.gauss(0.0, 1.0) == oracle.gauss(0.0, 1.0)
        assert rng.getstate() == oracle.getstate()

    @pytest.mark.parametrize(
        "r, inv_w, count",
        [
            # duplicate draws at equal weights: ties go to the smaller id
            ([0.5, 0.5, 0.25], [1.0] * 3, 1),
            ([0.5, 0.25, 0.5, 0.5, 0.75, 0.25], [1.0] * 6, 3),
            ([0.5, 0.25, 0.5, 0.5, 0.75, 0.25], [1.0] * 6, 5),
            # equal keys from different draws: 0.25 ** 0.5 == 0.5 ** 1.0
            ([0.25, 0.5, 0.0625, 0.1, 0.5], [0.5, 1.0, 0.25, 1.0, 1.0], 2),
            # r == 0.0 gives key 0.0; zeros fill the tail in id order
            ([0.0, 0.3, 0.0, 0.0, 0.7], [0.25, 1.0, 0.0625, 1.0, 0.25], 4),
            ([0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.25, 1.0, 0.25, 1.0], 2),
            # count >= n returns every item, sorted by key
            ([0.9, 0.1, 0.5, 0.3], [1.0, 0.25, 1.0, 0.0625], 4),
            ([0.9, 0.1, 0.5, 0.3], [1.0, 0.25, 1.0, 0.0625], 7),
            # all weights equal
            ([0.2, 0.8, 0.4, 0.6, 0.1, 0.9], [0.0625] * 6, 3),
            # keys one ulp apart at the cut
            (
                [0.5, float(np.nextafter(0.5, 1.0)), float(np.nextafter(0.5, 0.0)), 0.4],
                [1.0] * 4,
                2,
            ),
        ],
    )
    @pytest.mark.parametrize("skewed", [False, True], ids=["numpy", "skewed-power"])
    def test_selection_on_crafted_draws(self, monkeypatch, r, inv_w, count, skewed):
        if skewed:
            # A power kernel that rounds up to 4 ulps away from libm, down and
            # up in turn: numpy may only shortlist, never decide.
            power = np.power

            def skewed_power(x, e):
                keys = power(x, e)
                return keys * (1.0 + np.resize([-4.0, 4.0], keys.size) * 2.0**-52)

            monkeypatch.setattr(corpus.np, "power", skewed_power)
        items = [f"HP:{i:07d}" for i in range(len(r))]
        weights = {t: 1.0 / e for t, e in zip(items, inv_w)}
        draws = types.SimpleNamespace(random=iter(r).__next__)
        want = helpers.tuple_sort_weighted_sample(draws, items, weights, count)
        got = corpus._top_by_key(np.array(r), np.array(inv_w), items, count)
        assert got == want

    def test_foreign_state_layout_is_refused(self):
        class OtherRandom(random.Random):
            def getstate(self):
                return (2, (0,) * 625, None)

        with pytest.raises(RuntimeError, match="MT19937"):
            corpus._weighted_sample(
                OtherRandom(1), np.random.MT19937(0), ["HP:1"], np.ones(1), 1
            )


def synth_digest(root, o, disease_text, gene_text, size) -> str:
    """sha256 of ``cohort.jsonl`` then ``notes.jsonl`` after ingest and synth at seed 1.

    The config names its paths relative to ``root``, the working directory;
    no meta line names a path, so the digest does not depend on where it runs.
    """
    (root / "ontology.json").write_text(helpers.ontology_to_json(o), encoding="utf-8")
    (root / "disease.tsv").write_text(disease_text, encoding="utf-8")
    (root / "gene.tsv").write_text(gene_text, encoding="utf-8")
    cfg = config_from_dict(
        {
            "seed": 1,
            "paths": {
                "ontology": "ontology.json",
                "disease_annotations": "disease.tsv",
                "gene_annotations": "gene.tsv",
                "workdir": "work",
            },
            "cohort": {"size": size},
        }
    )
    pipeline.step_ingest(cfg)
    pipeline.step_synth(cfg)
    digest = hashlib.sha256()
    for name in (pipeline.COHORT_FILE, pipeline.NOTES_FILE):
        digest.update((root / "work" / name).read_bytes())
    return digest.hexdigest()


class TestSynthGolden:
    """The synth artifacts' bytes, recorded from the tuple-sort sampler.

    Line 1 of each file carries the lineage record (the seed, the cohort
    section and the two input files' digests), so adding or removing a cohort
    field moves both digests; every other line must stay put.

    ``test_sampler_matches_tuple_sort`` compares the samplers on one machine;
    these digests hold the bytes across CPUs, numpy builds and Python versions.
    """

    def test_layered_fixture(self, tmp_path, monkeypatch, layered):
        monkeypatch.chdir(tmp_path)
        digest = synth_digest(tmp_path, layered, *helpers.layered_annotation_text(), 200)
        assert digest == "7a72661bb8316e182cc122976f3810a3584394fb6a38d298d963ffd2c7ca6539"

    def test_random_3000_terms_with_obsolete(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        o = helpers.random_ontology_3000()
        assert len(o.ids) == 3000 and len(o.terms) == 3040
        digest = synth_digest(tmp_path, o, *helpers.annotation_text(o), 100)
        assert digest == "d519e515241f82c5347c083a1a1233992f16dbb36e48f0948cc0913e39201f7c"


class TestSynthNarrative:
    def patient(self, layered, seed=11):
        return synth_cohort(layered, 1, seed=seed)[0]

    def test_curated_names_wrapped_exactly_once(self, layered):
        p = self.patient(layered)
        annotated, n = synth_narrative(p, layered, seed=11)
        for tid in p.curated_terms:
            name = layered.terms[tid].name
            assert annotated.count(f"{SPAN_OPEN}{name}{SPAN_CLOSE}") == 1
        assert strip_span_markup(annotated) == n.text

    def test_distractors_unwrapped(self, layered):
        p = self.patient(layered)
        hubs = helpers.bf_hops(layered, [layered.root], "down", 1).keys() - {layered.root}
        pool = [t for t in sorted(hubs) if t not in p.curated_terms]
        distractors = tuple(pool[:2])
        annotated, n = synth_narrative(p, layered, seed=11, distractor_terms=distractors)
        for tid in distractors:
            name = layered.terms[tid].name
            assert name in n.text
            assert f"{SPAN_OPEN}{name}{SPAN_CLOSE}" not in annotated

    def test_deterministic(self, layered):
        p = self.patient(layered)
        assert synth_narrative(p, layered, seed=4) == synth_narrative(
            p, layered, seed=4
        )
        assert synth_narrative(p, layered, seed=4) != synth_narrative(
            p, layered, seed=5
        )

    def test_duplicate_names_rejected(self):
        from phenorank.ontology import Ontology, TermRecord

        terms = {
            "HP:0000001": TermRecord(id="HP:0000001", name="Root finding"),
            "HP:0000002": TermRecord(
                id="HP:0000002", name="Twin finding", parents=["HP:0000001"]
            ),
            "HP:0000003": TermRecord(
                id="HP:0000003", name="Twin finding", parents=["HP:0000001"]
            ),
        }
        o = Ontology(terms)
        p = Patient(
            patient_id="P0001",
            age_years=3.0,
            sex="other",
            symptom_category="other",
            curated_terms={"HP:0000002", "HP:0000003"},
        )
        with pytest.raises(GenerationError, match="exactly once"):
            synth_narrative(p, o, seed=0)

    def test_patient_without_terms_rejected(self, layered):
        p = Patient(
            patient_id="P0009",
            age_years=1.0,
            sex="female",
            symptom_category="other",
        )
        with pytest.raises(DataError, match="no curated terms"):
            synth_narrative(p, layered, seed=0)
