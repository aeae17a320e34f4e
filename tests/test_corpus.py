import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import A_ONE, A_TWO, ROOT, filter_notes
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
        leaves = {t for t in layered.non_obsolete_ids() if not layered.children(t)}
        cohort = synth_cohort(layered, 100, seed=5)
        drawn = [t for p in cohort for t in p.curated_terms]
        frac = sum(1 for t in drawn if t in leaves) / len(drawn)
        assert frac > 0.85

    def test_small_ontology_rejected(self, small):
        with pytest.raises(DataError, match=">= 30"):
            synth_cohort(small, 5, seed=0)


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
        pool = [t for t in layered.children(layered.root) if t not in p.curated_terms]
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
