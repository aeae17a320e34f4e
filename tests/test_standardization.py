import hashlib
import importlib.util
import json
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import MYOPIA, make_chunk
from phenorank import pipeline, standardization
from phenorank.config import config_from_dict
from phenorank.errors import DataError, EmbeddingError, IndexBuildError
from phenorank.config import ExtractionConfig
from phenorank.extraction import Mention
from phenorank.ontology import Ontology, TermRecord
from phenorank.standardization import (
    CandidateTerm,
    RemoteSelector,
    ThresholdSelector,
    build_index,
    default_embed,
    retrieve,
    standardize_corpus,
)


def mention(surface, start=0, chunk_id="N1#c000"):
    return Mention(surface, chunk_id, start, start + len(surface), "gazetteer")


class TestEmbedding:
    def test_unit_norm_and_determinism(self):
        a = default_embed("Nearsightedness")
        b = default_embed("Nearsightedness")
        assert np.allclose(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_case_and_punctuation_invariance(self):
        assert np.allclose(default_embed("Fever!"), default_embed("fever"))
        assert np.allclose(
            default_embed("short  stature"), default_embed("short-stature")
        )

    def test_distinct_texts_differ(self):
        sim = float(default_embed("myopia") @ default_embed("hypotonia"))
        assert sim < 0.5

    def test_empty_after_normalization_rejected(self):
        with pytest.raises(EmbeddingError):
            default_embed("!!! ...")

    def test_dimension_respected(self):
        assert default_embed("fever", dimension=64).shape == (64,)


class TestIndex:
    def test_entries_cover_names_and_synonyms(self, clinical):
        index = build_index(clinical)
        texts = {e.text for e in index.entries}
        assert "Myopia" in texts
        assert "Nearsightedness" in texts
        assert "obsolete Ataxic gait" not in texts
        assert index.term_ids == sorted(clinical.non_obsolete_ids())

    def test_unembeddable_entry_names_term(self):
        terms = {
            "HP:0000001": TermRecord(id="HP:0000001", name="Root"),
            "HP:0000002": TermRecord(
                id="HP:0000002", name="Fine", parents=["HP:0000001"], synonyms=["..."]
            ),
        }
        with pytest.raises(IndexBuildError, match="HP:0000002"):
            build_index(Ontology(terms))

    def test_every_name_retrieves_itself_at_rank_one(self, clinical):
        index = build_index(clinical)
        for tid in clinical.non_obsolete_ids():
            got = retrieve(index, clinical.terms[tid].name, k=1)
            assert got[0][0] == tid
            assert got[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_near_sighted_resolves_to_myopia(self, clinical):
        index = build_index(clinical)
        got = retrieve(index, "near sighted", k=3)
        assert got[0][0] == MYOPIA
        assert got[0][1] > 0.5

    def test_scores_sorted_and_k_respected(self, clinical):
        index = build_index(clinical)
        got = retrieve(index, "vision problems", k=4)
        assert len(got) == 4
        scores = [s for _, s in got]
        assert scores == sorted(scores, reverse=True)

    def test_tie_breaks_to_smaller_term_id(self):
        terms = {
            "HP:0000001": TermRecord(id="HP:0000001", name="Root"),
            "HP:0000007": TermRecord(
                id="HP:0000007", name="Shared label", parents=["HP:0000001"]
            ),
            "HP:0000003": TermRecord(
                id="HP:0000003", name="Shared label", parents=["HP:0000001"]
            ),
        }
        index = build_index(Ontology(terms))
        got = retrieve(index, "shared label", k=2)
        assert got[0][0] == "HP:0000003"
        assert got[0][1] == got[1][1] == pytest.approx(1.0, abs=1e-9)

    def test_bad_k_rejected(self, clinical):
        index = build_index(clinical)
        with pytest.raises(DataError):
            retrieve(index, "fever", k=0)


def _tie_ontology() -> Ontology:
    """The clinical vocabulary plus repeated names, so scores tie across terms."""
    terms = dict(helpers.clinical_ontology().terms)
    for i, name in enumerate(["Shared label", "Shared label", "Myopia", "Low vision"]):
        tid = f"HP:{8000000 - i:07d}"
        terms[tid] = TermRecord(
            id=tid, name=name, parents=["HP:0000118"], synonyms=["shared label"]
        )
    # Repeated n-grams give unequal counts, so a score's value depends on the
    # order its products are summed in.
    for i, name in enumerate(["Abab abab", "Baba ab aab", "aaa bbb aaa", "ab ab ab ab"]):
        tid = f"HP:{8100000 + i:07d}"
        terms[tid] = TermRecord(id=tid, name=name, parents=["HP:0000118"])
    return Ontology(terms)


@pytest.fixture(scope="module")
def tie_index():
    return build_index(_tie_ontology())


@pytest.fixture(scope="module")
def tie_oracle():
    return helpers.entrywise_index(_tie_ontology())


_QUERY = st.one_of(
    st.text(alphabet="abcdefghilmnoprstuvy -,.0éSHL", min_size=1, max_size=30),
    st.text(alphabet="ab -", min_size=3, max_size=40),
).filter(lambda q: standardization._normalize(q))
# Index labels from few letters, so entries share n-grams and scores overlap.
_LABEL = st.text(alphabet="abo -", min_size=1, max_size=14).filter(
    lambda t: standardization._normalize(t)
)
ROOT = "HP:0000001"


def _bits(rows):
    return [[(t, s.hex()) for t, s in row] for row in rows]


class TestExactness:
    """The vectorized hasher, index and retrieval against the per-byte hash,
    the entry-by-entry builder and the full dense scan in ``helpers``."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.binary(max_size=64))
    def test_vectorized_hash_matches_fnv1a(self, raw):
        hashes = dict(standardization._fnv1a_ngrams(np.frombuffer(raw, dtype=np.uint8)))
        assert sorted(hashes) == list(standardization.NGRAM_SIZES)
        for n, got in hashes.items():
            assert got.dtype == np.uint32
            want = [helpers.fnv1a(raw[i : i + n]) for i in range(len(raw) - n + 1)]
            assert got.tolist() == want

    @settings(derandomize=True, deadline=None, max_examples=300)
    # The second strategy draws texts 1-2 characters long after normalization,
    # whose 4- and 5-grams do not exist.
    @given(st.one_of(st.text(max_size=40), st.text(alphabet="aZ9 .-", max_size=5)))
    def test_default_embed_matches_scalar_oracle(self, text):
        try:
            want = helpers.scalar_embed(text)
        except EmbeddingError as e:
            with pytest.raises(EmbeddingError) as got:
                default_embed(text)
            assert str(got.value) == str(e)
            return
        assert default_embed(text).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "make",
        [helpers.clinical_ontology, helpers.layered_ontology, _tie_ontology],
        ids=["clinical", "layered", "ties"],
    )
    def test_index_csr_bitwise_equals_entrywise_builder(self, make):
        o = make()
        got, want = build_index(o), helpers.entrywise_index(o)
        csc = want.matrix.tocsc()
        assert csc.has_sorted_indices
        assert got.data.dtype == csc.data.dtype == np.float64
        assert got.data.tobytes() == csc.data.tobytes()
        assert got.rows.dtype == csc.indices.dtype == np.int32
        assert got.rows.tobytes() == csc.indices.tobytes()
        # scipy picks the narrowest index type that fits; the column pointer
        # is int64 so it never overflows, and compared after a cast.
        assert got.colptr.dtype == np.int64
        assert got.colptr.tobytes() == csc.indptr.astype(np.int64).tobytes()
        assert [(e.term_id, e.text) for e in got.entries] == [
            (e.term_id, e.text) for e in want.entries
        ]
        assert got.term_ids == want.term_ids
        assert got.term_starts.tolist() == want.term_starts.tolist()

    def test_index_build_peak_memory(self):
        # Keys built in uint32, sorted in place and counted from runs of equal
        # neighbours, each temporary freed before the next: the traced peak is
        # 2.7 times the index's data and rows here (5.0 with int64 keys and
        # np.unique).
        o = helpers.random_ontology_3000()
        build_index(o)  # first-call costs outside the traced call
        tracemalloc.start()
        try:
            index = build_index(o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * (index.data.nbytes + index.rows.nbytes)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_QUERY, st.integers(1, 30))
    def test_retrieve_matches_dense_oracle(self, tie_index, tie_oracle, query, k):
        # 21 terms, so k above 21 asks for more terms than exist.
        want = helpers.dense_retrieve(tie_oracle, query, k)
        assert _bits([retrieve(tie_index, query, k)]) == _bits([want])

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        st.lists(st.lists(_LABEL, min_size=1, max_size=7), min_size=1, max_size=8),
        st.lists(_QUERY, min_size=1, max_size=4),
        st.integers(1, 10),
    )
    def test_best_entry_among_many_synonyms(self, labels, queries, k):
        # A term's best entry may be its name or any of up to six synonyms,
        # so every entry rank reaches the per-term maximum.
        terms = {ROOT: TermRecord(id=ROOT, name="Root")}
        for i, (name, *synonyms) in enumerate(labels, start=2):
            tid = f"HP:{i:07d}"
            terms[tid] = TermRecord(id=tid, name=name, parents=[ROOT], synonyms=synonyms)
        o = Ontology(terms)
        index, oracle = build_index(o), helpers.entrywise_index(o)
        for query in queries:
            want = helpers.dense_retrieve(oracle, query, k)
            assert _bits([retrieve(index, query, k)]) == _bits([want])

    def test_ties_and_k_beyond_term_count(self, tie_index, tie_oracle):
        for query in ("shared label", "zzz"):
            got = retrieve(tie_index, query, k=100)
            assert len(got) == len(tie_index.term_ids)
            assert _bits([got]) == _bits([helpers.dense_retrieve(tie_oracle, query, 100)])
        got = retrieve(tie_index, "shared label", k=100)
        top = [t for t, s in got if s == got[0][1]]
        assert top == sorted(top) and len(top) == 4


class TestThresholdSelector:
    def cands(self, score):
        return [
            CandidateTerm(term_id=MYOPIA, name="Myopia", definition="", score=score),
            CandidateTerm(term_id="HP:0000486", name="Strabismus", definition="", score=0.1),
        ]

    def test_accepts_above_threshold(self):
        sel = ThresholdSelector(tau=0.35)
        assert sel.select("near sighted", self.cands(0.8)) == (MYOPIA, 0.8)

    def test_rejects_below_threshold(self):
        sel = ThresholdSelector(tau=0.35)
        assert sel.select("blurry", self.cands(0.2)) == (None, 0.2)

    def test_boundary_inclusive(self):
        sel = ThresholdSelector(tau=0.35)
        assert sel.select("x", self.cands(0.35))[0] == MYOPIA

    def test_name_encodes_threshold(self):
        assert ThresholdSelector(tau=0.5).name == "threshold(tau=0.5)"

    def test_no_candidates_rejected(self):
        with pytest.raises(DataError):
            ThresholdSelector(0.35).select("x", [])


class _SelectorHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        self.server.prompts.append(body["messages"][0]["content"])
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        reply = {"choices": [{"message": {"content": self.server.answer}}]}
        self.wfile.write(json.dumps(reply).encode())

    def log_message(self, *args):
        pass


@pytest.fixture()
def selector_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SelectorHandler)
    server.prompts = []
    server.answer = "none"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def _remote_selector(server):
    return RemoteSelector(
        ExtractionConfig(
            endpoint_url=f"http://127.0.0.1:{server.server_address[1]}/v1/chat",
            model_name="selector-model",
        )
    )


class TestRemoteSelector:
    CANDS = [
        CandidateTerm(term_id=MYOPIA, name="Myopia", definition="Refractive error.", score=0.8),
        CandidateTerm(term_id="HP:0000486", name="Strabismus", definition="", score=0.3),
    ]

    def test_accepts_candidate_id_anywhere_in_answer(self, selector_server):
        selector_server.answer = f"I would pick {MYOPIA} here."
        sel = _remote_selector(selector_server)
        assert sel.select("near sighted", self.CANDS) == (MYOPIA, 0.8)
        prompt = selector_server.prompts[0]
        assert "near sighted" in prompt
        assert MYOPIA in prompt and "Strabismus" in prompt

    TASK = (
        "You map a clinical mention onto one ontology term. Choose the single "
        "best-matching candidate, or answer none if no candidate matches.\n\n"
        "Answer with exactly one candidate id, or the word none.\n\n"
    )

    @pytest.mark.parametrize(
        "surface, shown",
        [
            ("near sighted", "near sighted"),
            ("a <span>b</span> c", "a &lt;span&gt;b&lt;/span&gt; c"),
        ],
    )
    def test_full_prompt(self, selector_server, surface, shown):
        _remote_selector(selector_server).select(surface, self.CANDS)
        assert selector_server.prompts == [
            self.TASK
            + f"Mention: {shown}\n"
            "Candidates:\n"
            f"- {MYOPIA}: Myopia (Refractive error.)\n"
            "- HP:0000486: Strabismus\n"
            "Answer:"
        ]

    def test_hallucinated_id_treated_as_none(self, selector_server):
        selector_server.answer = "HP:0099999"
        sel = _remote_selector(selector_server)
        assert sel.select("x", self.CANDS)[0] is None

    def test_none_answer(self, selector_server):
        selector_server.answer = "none of these"
        sel = _remote_selector(selector_server)
        assert sel.select("x", self.CANDS)[0] is None

    def test_name_mentions_model(self, selector_server):
        assert _remote_selector(selector_server).name == "remote(selector-model)"


class TestStandardizeCorpus:
    def test_resolution_order_and_dedup(self, clinical):
        index = build_index(clinical)
        mentions = {
            "P0001": [
                mention("seizures", 0),
                mention("myopia", 20),
                mention("Seizures", 40),
            ]
        }
        result = standardize_corpus(
            mentions, clinical, index, ThresholdSelector(0.35), k=10
        )
        assert result.terms_by_patient == {"P0001": ["HP:0001250", MYOPIA]}
        assert len(result.trace) == 3
        assert all(t.resolved for t in result.trace)

    def test_low_similarity_leaves_mention_unresolved(self, clinical):
        index = build_index(clinical)
        mentions = {"P0001": [mention("entirely unrelated wording")]}
        result = standardize_corpus(
            mentions, clinical, index, ThresholdSelector(0.9), k=10
        )
        assert result.terms_by_patient == {"P0001": []}
        row = result.trace[0]
        assert row.resolved is None
        assert row.error is None
        assert len(row.candidates) > 0

    def test_selector_failure_captured_per_mention(self, clinical):
        index = build_index(clinical)

        class Exploding:
            name = "exploding"

            def select(self, surface, candidates):
                raise RuntimeError("selector down")

        mentions = {"P0001": [mention("myopia")]}
        result = standardize_corpus(mentions, clinical, index, Exploding(), k=10)
        row = result.trace[0]
        assert row.resolved is None
        assert "RuntimeError" in row.error
        assert result.terms_by_patient == {"P0001": []}

    def test_empty_surface_costs_one_row(self, clinical):
        # "--" is empty after normalization, so retrieval cannot embed it.
        index = build_index(clinical)
        mentions = {
            "P0001": [mention("myopia"), mention("--", 10)],
            "P0002": [mention("seizures")],
        }
        result = standardize_corpus(
            mentions, clinical, index, ThresholdSelector(0.35), k=10
        )
        assert result.terms_by_patient == {
            "P0001": [MYOPIA],
            "P0002": ["HP:0001250"],
        }
        failed = [t for t in result.trace if t.error is not None]
        assert len(failed) == 1
        assert failed[0].mention.surface == "--"
        assert failed[0].resolved is None
        assert failed[0].candidates == []
        assert "EmbeddingError" in failed[0].error

    def test_candidates_match_one_query_oracle(self, clinical):
        index, oracle = build_index(clinical), helpers.entrywise_index(clinical)
        surfaces = ["Seizures", "seizures!", "near sighted", "--", "Low  muscle-tone"]
        mentions = {
            "P0001": [mention(s, 20 * i) for i, s in enumerate(surfaces)],
            "P0002": [mention("SEIZURES"), mention("myopia", 20)],
        }
        result = standardize_corpus(
            mentions, clinical, index, ThresholdSelector(0.35), k=10
        )
        for row in result.trace:
            if row.mention.surface == "--":
                assert row.error == "EmbeddingError: text '--' is empty after normalization"
                assert row.candidates == []
            else:
                want = helpers.dense_retrieve(oracle, row.mention.surface, 10)
                assert _bits([row.candidates]) == _bits([want])

    def test_patients_sorted(self, clinical):
        index = build_index(clinical)
        mentions = {
            "P0002": [mention("myopia")],
            "P0001": [mention("seizures")],
        }
        result = standardize_corpus(
            mentions, clinical, index, ThresholdSelector(0.35), k=10
        )
        assert list(result.terms_by_patient) == ["P0001", "P0002"]

    def test_trace_rows_serialize(self, clinical):
        index = build_index(clinical)
        mentions = {"P0001": [mention("myopia")]}
        result = standardize_corpus(
            mentions, clinical, index, ThresholdSelector(0.35), k=10
        )
        d = result.trace[0].to_dict()
        assert d["resolved"] == MYOPIA
        assert d["surface"] == "myopia"
        assert isinstance(d["candidates"][0], list)
        json.dumps(d)


def text_layer_digest(root: Path, paths: dict[str, Path]) -> str:
    """sha256 of the ``mentions.jsonl`` rows, then the ``standardize_trace.jsonl``
    rows, after ingest, synth, chunk, extract and standardize at seed 1 with 30
    patients. The meta lines, which carry the lineage records, are left out."""
    cfg = config_from_dict(
        {
            "seed": 1,
            "paths": {**{k: str(v) for k, v in paths.items()}, "workdir": str(root / "work")},
            "cohort": {"size": 30},
        }
    )
    for step in (
        pipeline.step_ingest,
        pipeline.step_synth,
        pipeline.step_chunk,
        pipeline.step_extract,
        pipeline.step_standardize,
    ):
        step(cfg)
    digest = hashlib.sha256()
    for name in (pipeline.MENTIONS_FILE, pipeline.TRACE_FILE):
        rows = (root / "work" / name).read_bytes().splitlines(keepends=True)[1:]
        digest.update(b"".join(rows))
    return digest.hexdigest()


class TestTextLayerGolden:
    """The mention and trace rows' bytes, recorded from the trie gazetteer and
    the whole-corpus query hasher.

    Both hold across CPUs: the gazetteer matches strings, and every cosine sums
    products of integer counts and norms that are exact whatever the order.
    """

    def test_generated_fixture(self, tmp_path):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"
        spec = importlib.util.spec_from_file_location("perfbench_generate", path)
        generate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generate)
        paths = generate.write_inputs("fixture", 1, tmp_path / "inputs")
        digest = text_layer_digest(tmp_path, paths)
        assert digest == "3271acda212b8d9fffff9c4b2dcf5b45b354dfdd34d997397d32c5f1da984e82"

    def test_random_ontology_with_obsolete(self, tmp_path):
        o = helpers.random_ontology(5, obsolete=6)
        paths = {
            "ontology": tmp_path / "ontology.json",
            "disease_annotations": tmp_path / "disease.tsv",
            "gene_annotations": tmp_path / "gene.tsv",
        }
        texts = (helpers.ontology_to_json(o), *helpers.annotation_text(o))
        for path, text in zip(paths.values(), texts):
            path.write_text(text, encoding="utf-8")
        digest = text_layer_digest(tmp_path, paths)
        assert digest == "47de01682c5d0dfdf2c527ec6b0c0cb1340d54b76088c7e5907e8e976fd5de1c"
