import hashlib
import json
import logging
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import annotate_mentions, make_chunk, unescape_span_literals
from phenorank import extraction, pipeline
from phenorank.cli import main
from phenorank.config import ExtractionConfig
from phenorank.errors import (
    BackendUnavailableError,
    CredentialError,
    ProtocolError,
    TemplateError,
)
from phenorank.extraction import (
    DEFAULT_PROMPT_TEMPLATE,
    SPAN_CLOSE,
    SPAN_OPEN,
    Gazetteer,
    Mention,
    PromptTemplate,
    escape_span_literals,
    extract_corpus,
    parse_span_markup,
    remote_complete,
    remote_extract,
    render_prompt,
    strip_span_markup,
)
from phenorank.ontology import Ontology, TermRecord


class TestMarkup:
    def test_strip_and_annotate_round_trip(self):
        text = "fever and chills today"
        annotated = annotate_mentions(text, [(0, 5), (10, 16)])
        assert annotated == "<span>fever</span> and <span>chills</span> today"
        assert strip_span_markup(annotated) == text

    def test_annotate_rejects_overlap_and_bad_spans(self):
        with pytest.raises(ValueError):
            annotate_mentions("abcdef", [(0, 3), (2, 5)])
        with pytest.raises(ValueError):
            annotate_mentions("abc", [(2, 2)])
        with pytest.raises(ValueError):
            annotate_mentions("abc", [(0, 9)])

    def test_exact_mode_offsets(self):
        text = "fever and chills"
        parsed = parse_span_markup(text, annotate_mentions(text, [(0, 5), (10, 16)]))
        assert not parsed.recovered
        assert parsed.warnings == []
        assert [(m.surface, m.start, m.end) for m in parsed.mentions] == [
            ("fever", 0, 5),
            ("chills", 10, 16),
        ]
        for m in parsed.mentions:
            assert text[m.start : m.end] == m.surface

    def test_nested_open_keeps_outer_span(self):
        text = "severe fever today"
        annotated = "<span>severe <span>fever</span> today"
        parsed = parse_span_markup(text, annotated)
        assert any("nested" in w for w in parsed.warnings)
        assert [m.surface for m in parsed.mentions] == ["severe fever"]

    def test_stray_close_ignored(self):
        text = "fever today"
        parsed = parse_span_markup(text, "fever</span> today")
        assert any("stray" in w for w in parsed.warnings)
        assert parsed.mentions == []
        assert not parsed.recovered

    def test_empty_span_dropped(self):
        text = "fever today"
        parsed = parse_span_markup(text, "fever <span></span>today")
        assert any("empty" in w for w in parsed.warnings)
        assert parsed.mentions == []

    def test_unclosed_span_dropped(self):
        text = "fever today"
        parsed = parse_span_markup(text, "<span>fever today")
        assert any("unclosed" in w for w in parsed.warnings)
        assert parsed.mentions == []

    def test_recovery_on_paraphrase(self):
        text = "patient has fever and chills now"
        annotated = "the patient has <span>fever</span> and <span>chills</span> now"
        parsed = parse_span_markup(text, annotated)
        assert parsed.recovered
        got = [(m.surface, m.start) for m in parsed.mentions]
        assert got == [("fever", 12), ("chills", 22)]

    def test_recovery_claims_first_unused_occurrence(self):
        text = "pain here and pain there"
        annotated = "PARAPHRASED <span>pain</span> and <span>pain</span> there"
        parsed = parse_span_markup(text, annotated)
        assert parsed.recovered
        assert [(m.start, m.end) for m in parsed.mentions] == [(0, 4), (14, 18)]

    def test_recovery_drops_unlocatable_span(self):
        text = "patient has fever"
        annotated = "patient shows <span>rigors</span>"
        parsed = parse_span_markup(text, annotated)
        assert parsed.recovered
        assert parsed.mentions == []
        assert any("rigors" in w for w in parsed.warnings)

    def test_mention_dict_round_trip(self):
        m = Mention("fever", "N1#c000", 3, 8, "remote")
        assert Mention.from_dict(m.to_dict()) == m


def _folding_ontology() -> Ontology:
    """The clinical vocabulary plus names whose characters fold unlike str.lower."""
    terms = dict(helpers.clinical_ontology().terms)
    extra = [
        "ſhort ſtature",
        "µ wave",
        "İris coloboma",
        "Kelvin lesion",
        "Straße sign",
        "Final ς sign",
        "ϑ rhythm",
        "Pain (severe)",
        "-itis like",
        "Type_2 finding",
        "Short",
    ]
    for i, name in enumerate(extra):
        tid = f"HP:{7000000 + i:07d}"
        terms[tid] = TermRecord(id=tid, name=name, parents=["HP:0000118"])
    return Ontology(terms)


_FOLD_LEXEMES = sorted(helpers.gazetteer_lexemes(_folding_ontology()))
_FRAGMENT = st.one_of(
    st.sampled_from(_FOLD_LEXEMES).flatmap(
        lambda s: st.sampled_from([s, s.upper(), s.title(), s.swapcase()])
    ),
    st.sampled_from(_FOLD_LEXEMES).flatmap(
        lambda s: st.integers(1, len(s)).map(lambda n: s[:n])
    ),
    st.text(alphabet=" ,.;:-()/_0123456789\nſİµςϑKßẞΣΜıI", max_size=3),
)
NOTES = st.lists(_FRAGMENT, max_size=12).map("".join)


def _lexicon_ontology(lexemes: list[str]) -> Ontology:
    """One root named by the first lexeme, with the rest as its synonyms."""
    root = "HP:0000001"
    return Ontology({root: TermRecord(root, lexemes[0], list(lexemes[1:]))})


# Lexicon characters: word characters with the folds that differ from
# str.lower (ſ, İ, ẞ, ς, ϑ, K), the iota that U+0345 folds to although
# U+0345 is not \w, and the separators that end a first word.
_WORDS = st.text(alphabet="abſsİiẞßςσϑθKkι1_", min_size=1, max_size=3)
_SEPARATORS = st.sampled_from([" ", "-", " (", ") ", ".", ", ", "/"])


@st.composite
def lexicons_and_notes(draw) -> tuple[list[str], str]:
    """A lexicon whose lexemes share first words, are prefixes of one another
    and start or end with punctuation or a space, and a note built from it."""
    words = draw(st.lists(_WORDS, min_size=1, max_size=4))  # few, so first words repeat
    lexemes = []
    for _ in range(draw(st.integers(1, 6))):
        parts = draw(st.lists(st.sampled_from(words), min_size=1, max_size=3))
        lexeme = parts[0] + "".join(draw(_SEPARATORS) + p for p in parts[1:])
        lexeme = draw(st.sampled_from(["", " ", "-", "("])) + lexeme
        lexeme += draw(st.sampled_from(["", " ", ")", ".", "-"]))
        lexemes.append(lexeme)
        lexemes.append(lexeme[: draw(st.integers(1, len(lexeme)))])
    variants = st.sampled_from(lexemes).flatmap(
        lambda x: st.sampled_from([x, x.upper(), x.swapcase(), x.title()])
    )
    fragment = st.one_of(
        variants,
        variants,  # back to back: adjacent matches
        st.sampled_from(lexemes).flatmap(lambda x: st.integers(1, len(x)).map(lambda n: x[:n])),
        st.text(alphabet=" ,.-()_1\nſİẞςϑKιΙ\u0345\u1fbeaA", max_size=3),
    )
    return lexemes, "".join(draw(st.lists(fragment, max_size=8)))


@pytest.fixture(scope="module")
def gazetteers():
    o = _folding_ontology()
    return Gazetteer(o), helpers.RegexGazetteer(o), helpers.TrieGazetteer(o)


class TestGazetteer:
    def test_matches_names_and_synonyms(self, clinical):
        chunk = make_chunk("Exam shows myopia; seizures and low muscle tone noted.")
        got = Gazetteer(clinical).extract(chunk)
        surfaces = [m.surface for m in got]
        assert surfaces == ["myopia", "seizures", "low muscle tone"]
        for m in got:
            assert chunk.text[m.start : m.end] == m.surface
            assert m.extractor == "gazetteer"

    def test_longest_match_wins(self, clinical):
        chunk = make_chunk("Notable global developmental delay at visit.")
        got = Gazetteer(clinical).extract(chunk)
        assert [m.surface for m in got] == ["global developmental delay"]

    def test_word_boundaries(self, clinical):
        chunk = make_chunk("Polymyopia is not myopia-like.")
        got = Gazetteer(clinical).extract(chunk)
        # "Polymyopia" must not match; "myopia-like" has a non-word boundary.
        assert [(m.surface, m.start) for m in got] == [("myopia", 18)]

    def test_obsolete_terms_excluded(self, clinical):
        chunk = make_chunk("Longstanding ataxic gait observed.")
        assert Gazetteer(clinical).extract(chunk) == []

    def test_case_folding_follows_re(self, gazetteers):
        gazetteer, regex, _ = gazetteers
        chunk = make_chunk(
            "ſHORT ſtature; Μ WAVE and µ wave, İRIS COLOBOMA, KELVIN lesion, "
            "STRAẞE sign, final ς sign, ϑ rhythm, pain (severe)x, pain (severe). "
            "-itis like; İris coloboma."
        )
        got = gazetteer.extract(chunk)
        assert got == regex.extract(chunk)
        assert [m.surface for m in got] == [
            "ſHORT ſtature",
            "Μ WAVE",
            "µ wave",
            "İRIS COLOBOMA",
            "KELVIN lesion",
            "STRAẞE sign",
            "final ς sign",
            "ϑ rhythm",
            "pain (severe)",
            "-itis like",
            "İris coloboma",
        ]

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(NOTES)
    def test_trie_matches_regex_oracle(self, gazetteers, text):
        gazetteer, regex, trie = gazetteers
        chunk = make_chunk(text)
        want = regex.extract(chunk)
        assert gazetteer.extract(chunk) == want
        assert trie.extract(chunk) == want

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(lexicons_and_notes())
    def test_drawn_lexicons_match_both_oracles(self, drawn):
        lexemes, text = drawn
        o = _lexicon_ontology(lexemes)
        chunk = make_chunk(text)
        want = helpers.RegexGazetteer(o).extract(chunk)
        assert Gazetteer(o).extract(chunk) == want
        assert helpers.TrieGazetteer(o).extract(chunk) == want

    @pytest.mark.parametrize(
        "lexemes, text, surfaces",
        [
            # The longest of lexemes that are prefixes of one another wins,
            # and a shorter one still matches where the longer one does not.
            (
                ["ab", "ab cd", "ab cd ef"],
                "ab cd ef, ab cd eg, ab",
                ["ab cd ef", "ab cd", "ab"],
            ),
            # Punctuation and spaces at either end; adjacent matches.
            (["-x", "(y)", " z"], "(y) z. (y)-x", ["(y)", " z", "(y)", "-x"]),
            # U+0345 matches ι under re.IGNORECASE but is not \w, so in the
            # text it ends a word that its folded form continues.
            (["aι", "aιb", "a"], "a\u0345 a\u0345b aι.", ["a\u0345", "a\u0345b", "aι"]),
            (["a", "ab"], "a\u0345 ab", ["a", "ab"]),
            # Blank names are no lexemes.
            (["  ", "\n"], "a  b\n", []),
        ],
    )
    def test_fixed_lexicons(self, lexemes, text, surfaces):
        o = _lexicon_ontology(lexemes)
        chunk = make_chunk(text)
        got = Gazetteer(o).extract(chunk)
        assert got == helpers.RegexGazetteer(o).extract(chunk)
        assert [m.surface for m in got] == surfaces


class TestPrompt:
    def test_escape_round_trip(self):
        text = f"literal {SPAN_OPEN}tag{SPAN_CLOSE} here"
        assert unescape_span_literals(escape_span_literals(text)) == text

    def test_render_contains_blocks_and_escaped_input(self):
        prompt = render_prompt(DEFAULT_PROMPT_TEMPLATE, "note with <span> inside")
        assert DEFAULT_PROMPT_TEMPLATE.task_statement in prompt
        assert "&lt;span&gt;" in prompt
        assert "note with <span> inside" not in prompt

    def test_render_requires_single_input_slot(self):
        bad = PromptTemplate(
            task_statement="t",
            markup_guide="m",
            phenotype_definition="p",
            input_slot="no placeholder",
        )
        with pytest.raises(TemplateError):
            render_prompt(bad, "text")

    def test_examples_rendered_in_order(self):
        template = PromptTemplate(
            task_statement="t",
            markup_guide="m",
            phenotype_definition="p",
            examples=(("in1", "out1"), ("in2", "out2")),
        )
        prompt = render_prompt(template, "body")
        assert prompt.index("in1") < prompt.index("in2") < prompt.index("body")


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive, as real endpoints do, so a client may reuse a connection.
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.server.connections.append(self.client_address)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length) or b"{}")
        self.server.seen.append(
            {"auth": self.headers.get("Authorization"), "body": body}
        )
        # A script entry is (status, payload) or (status, payload, headers).
        status, payload, *headers = (
            self.server.script.pop(0) if self.server.script else (200, None)
        )
        if payload is None:
            payload = json.dumps(
                {"choices": [{"message": {"content": self.server.reply}}]}
            )
        body = payload.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def backend_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.seen = []
    server.connections = []
    server.script = []
    server.reply = "none"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def _cfg(server, **overrides):
    defaults = dict(
        endpoint_url=f"http://127.0.0.1:{server.server_address[1]}/v1/chat",
        model_name="test-model",
    )
    defaults.update(overrides)
    return ExtractionConfig(**defaults)


class TestRemoteBackend:
    def test_success_round_trip(self, backend_server):
        backend_server.reply = "hello"
        got = remote_complete(_cfg(backend_server), "prompt text")
        assert got == "hello"
        sent = backend_server.seen[0]["body"]
        assert sent["model"] == "test-model"
        assert sent["messages"][0]["content"] == "prompt text"
        assert sent["temperature"] == 0.0

    def test_one_connection_per_thread(self, backend_server):
        backend_server.reply = "ok"
        cfg = _cfg(backend_server)
        for _ in range(5):
            assert remote_complete(cfg, "p") == "ok"
        assert len(backend_server.connections) == 1
        # Another worker thread has its own session, so its own connection.
        worker = threading.Thread(target=remote_complete, args=(cfg, "p"))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert len(backend_server.seen) == 6
        assert len(backend_server.connections) == 2

    def test_retries_transient_500_then_succeeds(self, backend_server):
        backend_server.script = [(500, None), (200, None)]
        backend_server.reply = "ok"
        assert remote_complete(_cfg(backend_server), "p") == "ok"
        assert len(backend_server.seen) == 2

    def test_exhausted_retries_raise_unavailable(self, backend_server):
        backend_server.script = [(500, None)] * 3
        with pytest.raises(BackendUnavailableError, match="3 attempts"):
            remote_complete(_cfg(backend_server, max_retries=2), "p")

    def test_rate_limit_429_waits_retry_after_then_succeeds(
        self, backend_server, monkeypatch
    ):
        waits = []
        monkeypatch.setattr(extraction.time, "sleep", waits.append)
        backend_server.script = [(429, "{}", {"Retry-After": "2"}), (200, None)]
        backend_server.reply = "ok"
        assert remote_complete(_cfg(backend_server), "p") == "ok"
        assert len(backend_server.seen) == 2
        assert waits == [2.0]

    def test_backoff_is_full_jitter_below_doubling_ceiling(
        self, backend_server, monkeypatch
    ):
        waits, ceilings = [], []

        def three_quarters(low, high):
            ceilings.append((low, high))
            return 0.75 * high

        monkeypatch.setattr(extraction, "RETRY_BASE_DELAY", 1.0)
        monkeypatch.setattr(extraction.random, "uniform", three_quarters)
        monkeypatch.setattr(extraction.time, "sleep", waits.append)
        backend_server.script = [
            (503, None),
            (429, "{}", {"Retry-After": "3"}),
            (503, None),
            (200, None),
        ]
        backend_server.reply = "ok"
        assert remote_complete(_cfg(backend_server, max_retries=3), "p") == "ok"
        assert ceilings == [(0.0, 1.0), (0.0, 2.0), (0.0, 4.0)]
        # The second wait is Retry-After, longer than its jittered 1.5 s.
        assert waits == [0.75, 3.0, 3.0]

    def test_rate_limit_429_exhausted_raises_unavailable(self, backend_server):
        backend_server.script = [(429, "{}")] * 3
        with pytest.raises(BackendUnavailableError, match="HTTP 429"):
            remote_complete(_cfg(backend_server, max_retries=2), "p")
        assert len(backend_server.seen) == 3

    def test_auth_rejection_raises_immediately(self, backend_server, monkeypatch):
        monkeypatch.setenv("PHENORANK_TEST_KEY", "sk-very-secret-value")
        backend_server.script = [(401, "{}")]
        cfg = _cfg(backend_server, api_key_env_var="PHENORANK_TEST_KEY")
        with pytest.raises(CredentialError) as err:
            remote_complete(cfg, "p")
        assert "sk-very-secret-value" not in str(err.value)
        assert len(backend_server.seen) == 1

    def test_missing_credential_fails_before_any_request(
        self, backend_server, monkeypatch
    ):
        monkeypatch.delenv("PHENORANK_MISSING_KEY", raising=False)
        cfg = _cfg(backend_server, api_key_env_var="PHENORANK_MISSING_KEY")
        with pytest.raises(CredentialError, match="PHENORANK_MISSING_KEY"):
            remote_complete(cfg, "p")
        assert backend_server.seen == []

    def test_bearer_header_sent_but_never_logged(
        self, backend_server, monkeypatch, caplog
    ):
        monkeypatch.setenv("PHENORANK_TEST_KEY", "sk-do-not-log-me")
        backend_server.script = [(500, None), (200, None)]
        backend_server.reply = "ok"
        cfg = _cfg(backend_server, api_key_env_var="PHENORANK_TEST_KEY")
        with caplog.at_level(logging.DEBUG):
            assert remote_complete(cfg, "p") == "ok"
        assert backend_server.seen[-1]["auth"] == "Bearer sk-do-not-log-me"
        assert "sk-do-not-log-me" not in caplog.text

    def test_unexpected_status_is_protocol_error(self, backend_server):
        backend_server.script = [(404, "{}")]
        with pytest.raises(ProtocolError, match="404"):
            remote_complete(_cfg(backend_server), "p")

    def test_non_json_response_is_protocol_error(self, backend_server):
        backend_server.script = [(200, "this is not json")]
        with pytest.raises(ProtocolError, match="not JSON"):
            remote_complete(_cfg(backend_server), "p")

    def test_wrong_shape_is_protocol_error(self, backend_server):
        backend_server.script = [(200, json.dumps({"choices": []}))]
        with pytest.raises(ProtocolError, match="lacks text"):
            remote_complete(_cfg(backend_server), "p")

    def test_connection_refused_retries_then_unavailable(self):
        cfg = ExtractionConfig(
            endpoint_url="http://127.0.0.1:9/unreachable",
            model_name="m",
            max_retries=1,
            timeout=0.2,
        )
        with pytest.raises(BackendUnavailableError):
            remote_complete(cfg, "p")


class TestRemoteExtract:
    def test_none_reply_means_no_mentions(self, backend_server):
        backend_server.reply = "None."
        chunk = make_chunk("Nothing clinical here.")
        got = remote_extract(_cfg(backend_server), DEFAULT_PROMPT_TEMPLATE, chunk)
        assert got == []

    def test_markup_reply_parsed(self, backend_server):
        chunk = make_chunk("patient has fever today")
        backend_server.reply = "patient has <span>fever</span> today"
        got = remote_extract(_cfg(backend_server), DEFAULT_PROMPT_TEMPLATE, chunk)
        assert [(m.surface, m.start, m.end) for m in got] == [("fever", 12, 17)]
        assert got[0].chunk_id == chunk.chunk_id


def test_remote_extract_uses_no_snapshot_part(backend_server, tmp_path, monkeypatch):
    # The remote backend reads no ontology, so extract neither restores the
    # snapshot nor refuses an ontology file edited since ingest.
    onto = tmp_path / "ontology.json"
    onto.write_text(helpers.ontology_to_json(helpers.layered_ontology()), encoding="utf-8")
    disease, gene = helpers.layered_annotation_text()
    (tmp_path / "disease.tsv").write_text(disease, encoding="utf-8")
    (tmp_path / "gene.tsv").write_text(gene, encoding="utf-8")
    paths = {
        "ontology": str(onto),
        "disease_annotations": str(tmp_path / "disease.tsv"),
        "gene_annotations": str(tmp_path / "gene.tsv"),
        "workdir": str(tmp_path / "work"),
    }
    remote = {
        "backend": "remote",
        "endpoint_url": _cfg(backend_server).endpoint_url,
        "model_name": "test-model",
        "api_key_env_var": "PHENORANK_TEST_KEY",
    }
    local, remote_cfg = tmp_path / "local.yaml", tmp_path / "remote.yaml"
    local.write_text(yaml.safe_dump({"seed": 3, "paths": paths, "cohort": {"size": 4}}))
    remote_cfg.write_text(
        yaml.safe_dump({"seed": 3, "paths": paths, "cohort": {"size": 4}, "extraction": remote})
    )
    for step in ("ingest", "synth", "chunk"):
        assert CliRunner().invoke(main, ["-c", str(local), step]).exit_code == 0
    onto.write_bytes(onto.read_bytes() + b"\n")
    restores = []
    monkeypatch.setattr(Ontology, "from_arrays", classmethod(lambda cls, a: restores.append(a)))
    result = CliRunner().invoke(
        main, ["-c", str(remote_cfg), "extract"], env={"PHENORANK_TEST_KEY": "sk-test"}
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["failures"] == 0
    assert restores == []
    meta, _ = pipeline.read_jsonl(tmp_path / "work" / pipeline.MENTIONS_FILE)
    assert meta["lineage"]["reads"] == {
        pipeline.CHUNKS_FILE: hashlib.sha256(
            (tmp_path / "work" / pipeline.CHUNKS_FILE).read_bytes()
        ).hexdigest()
    }


class TestExtractCorpus:
    def _chunks(self):
        return [
            make_chunk("myopia first", chunk_id="N1#c000", patient_id="P0002"),
            make_chunk("then seizures", chunk_id="N1#c001", patient_id="P0002"),
            make_chunk("hypotonia too", chunk_id="N2#c000", patient_id="P0001"),
        ]

    def test_groups_by_patient_sorted(self, clinical):
        result = extract_corpus(
            self._chunks(), Gazetteer(clinical).extract
        )
        assert list(result.mentions_by_patient) == ["P0001", "P0002"]
        assert [m.surface for m in result.mentions_by_patient["P0002"]] == [
            "myopia",
            "seizures",
        ]
        assert result.failures == []

    def test_concurrency_does_not_change_output(self, clinical):
        serial = extract_corpus(
            self._chunks(), Gazetteer(clinical).extract, 1
        )
        parallel = extract_corpus(
            self._chunks(), Gazetteer(clinical).extract, 4
        )
        assert serial == parallel

    def test_concurrent_first_sight_of_folded_characters(self):
        """Threads that classify new characters at once find the same mentions.

        A fresh gazetteer per run, so every run learns the notes' characters
        (ſ, İ, ẞ, U+0345 and more) while extracting; a short switch interval
        interleaves the threads inside those updates.
        """
        o = _folding_ontology()
        texts = [
            "ſHORT ſtature and İRIS COLOBOMA; STRAẞE sign, final ς sign.",
            "ϑ rhythm, µ wave, KELVIN lesion \u0345 short, pain (severe).",
            "-itis like; type_2 finding, İris coloboma\u1fbe short.",
        ]
        chunks = [
            make_chunk(texts[i % 3] * (1 + i % 4), f"N{i:03d}#c000", f"P{i % 7:04d}")
            for i in range(60)
        ]
        want = extract_corpus(chunks, helpers.RegexGazetteer(o).extract, 1)
        assert sum(map(len, want.mentions_by_patient.values())) > 100
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for limit in (1, 4, 8):
                assert extract_corpus(chunks, Gazetteer(o).extract, limit) == want
        finally:
            sys.setswitchinterval(interval)

    def test_failures_recorded_not_fatal(self, clinical):
        gazetteer = Gazetteer(clinical)

        def backend(chunk):
            if chunk.chunk_id == "N1#c001":
                raise RuntimeError("boom")
            return gazetteer.extract(chunk)

        result = extract_corpus(self._chunks(), backend, 2)
        assert [f.chunk_id for f in result.failures] == ["N1#c001"]
        assert "RuntimeError" in result.failures[0].error
        assert [m.surface for m in result.mentions_by_patient["P0002"]] == ["myopia"]

    def test_duplicate_mentions_collapse(self):
        chunk = make_chunk("fever fever")

        def backend(c):
            m = Mention("fever", c.chunk_id, 0, 5, "remote")
            return [m, m]

        result = extract_corpus([chunk], backend)
        assert len(result.mentions_by_patient["P0001"]) == 1

    def test_bad_concurrency_rejected(self):
        with pytest.raises(ValueError):
            extract_corpus([], lambda c: [], 0)
