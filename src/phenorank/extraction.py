"""Mention extraction from note chunks.

Two interchangeable backends produce character-offset mentions: a lexicon
gazetteer built from ontology names, and a remote chat-completion model that
returns the chunk text with every phenotype mention wrapped in ``<span>`` tags.
The markup parser verifies the echoed text byte-for-byte and falls back to a
left-to-right recovery scan when the model paraphrased.
"""

from __future__ import annotations

import logging
import os
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .config import ExtractionConfig
from .errors import (
    BackendUnavailableError,
    CredentialError,
    ProtocolError,
    TemplateError,
)
from .ontology import Ontology

if TYPE_CHECKING:
    from .corpus import NoteChunk

logger = logging.getLogger(__name__)

SPAN_OPEN = "<span>"
SPAN_CLOSE = "</span>"

_TAG_RE = re.compile(r"</?span>")

_ESCAPES = ((SPAN_OPEN, "&lt;span&gt;"), (SPAN_CLOSE, "&lt;/span&gt;"))

@dataclass(frozen=True)
class Mention:
    """One extracted surface string located inside a chunk."""

    surface: str
    chunk_id: str
    start: int
    end: int
    extractor: str

    def to_dict(self) -> dict:
        return {
            "surface": self.surface,
            "chunkId": self.chunk_id,
            "start": self.start,
            "end": self.end,
            "extractor": self.extractor,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Mention":
        return cls(
            surface=d["surface"],
            chunk_id=d["chunkId"],
            start=int(d["start"]),
            end=int(d["end"]),
            extractor=d["extractor"],
        )


def strip_span_markup(text: str) -> str:
    """Remove every span tag, leaving the underlying text untouched."""
    return _TAG_RE.sub("", text)


@dataclass
class MarkupParse:
    """Result of aligning annotated model output against the original text."""

    mentions: list[Mention]
    recovered: bool
    warnings: list[str]


def parse_span_markup(
    original: str,
    annotated: str,
    chunk_id: str = "",
    extractor: str = "remote",
) -> MarkupParse:
    """Parse ``<span>`` markup out of ``annotated`` relative to ``original``.

    When the tag-stripped annotation equals the original, offsets are exact.
    Otherwise recovery mode claims, for each span string in order, its first
    occurrence in the original that no earlier span already claimed; spans that
    cannot be located are dropped with a warning, and the result is flagged
    recovered. Malformed tags (nested opens, stray or missing closes) drop only
    the span they break.
    """
    warnings: list[str] = []
    spans: list[tuple[int, int]] = []  # [start, end) in tag-stripped coordinates
    stripped_parts: list[str] = []
    pos = 0
    open_at: int | None = None
    last = 0
    for m in _TAG_RE.finditer(annotated):
        seg = annotated[last : m.start()]
        stripped_parts.append(seg)
        pos += len(seg)
        last = m.end()
        if m.group() == SPAN_OPEN:
            if open_at is not None:
                warnings.append(f"nested {SPAN_OPEN} at {m.start()} ignored")
            else:
                open_at = pos
        else:
            if open_at is None:
                warnings.append(f"stray {SPAN_CLOSE} at {m.start()} ignored")
            elif pos == open_at:
                warnings.append(f"empty span at {m.start()} dropped")
                open_at = None
            else:
                spans.append((open_at, pos))
                open_at = None
    if open_at is not None:
        warnings.append("unclosed span dropped")
    tail = annotated[last:]
    stripped_parts.append(tail)
    stripped = "".join(stripped_parts)

    if stripped == original:
        mentions = [
            Mention(original[s:e], chunk_id, s, e, extractor) for s, e in spans
        ]
        return MarkupParse(mentions=mentions, recovered=False, warnings=warnings)

    # Recovery: locate each span string at its first unclaimed occurrence.
    claimed: list[tuple[int, int]] = []
    mentions = []
    for s, e in spans:
        needle = stripped[s:e]
        at = 0
        placed = False
        while True:
            idx = original.find(needle, at)
            if idx < 0:
                break
            end = idx + len(needle)
            if all(end <= cs or ce <= idx for cs, ce in claimed):
                claimed.append((idx, end))
                mentions.append(Mention(needle, chunk_id, idx, end, extractor))
                placed = True
                break
            at = idx + 1
        if not placed:
            warnings.append(f"span {needle!r} not found in original; dropped")
    mentions.sort(key=lambda m: (m.start, m.end))
    return MarkupParse(mentions=mentions, recovered=True, warnings=warnings)


# -- gazetteer ---------------------------------------------------------------------


# Positions a lexeme may start at: the start of the text or after a non-word
# character. ``\w`` is judged by ``re`` itself, so it is the same class the
# lookarounds of an equivalent regex would use.
_NOT_AFTER_WORD_RE = re.compile(r"(?<!\w)")
_WORD_RE = re.compile(r"\w")
_END = ""  # trie key marking a complete lexeme; never a character


class Gazetteer:
    """Case-insensitive longest-match lexicon scanner over ontology names.

    A character trie holds every name and synonym as written. A match starts
    only at a position not preceded by a word character (``\\w``); there the
    longest lexeme that is followed by a non-word character or the end of the
    text wins, and the scan resumes after it. That is exactly what
    ``finditer`` returns for ``(?<!\\w)(?:lexeme|...)(?!\\w)`` under
    ``re.IGNORECASE`` with longer lexemes listed first.

    Characters compare under the case folding of ``re.IGNORECASE`` itself,
    which is not ``str.lower``: ``ſ`` matches ``s`` and ``İ`` matches ``i``.
    Lexemes are not lowercased first, since ``str.lower`` turns ``İ`` into
    ``i`` plus a combining dot that no note spelling ``İ`` contains.
    Lexeme characters fall into classes of characters that match each other
    under ``re.IGNORECASE``, and the trie is keyed by the first character of
    each class. Each distinct character is classified once, on first sight,
    by searching the class keys with its own case-insensitive pattern.
    """

    def __init__(self, o: Ontology):
        entries: set[str] = set()
        for tid in o.ids:
            rec = o.terms[tid]
            entries.update(x for x in [rec.name, *rec.synonyms] if x.strip())
        self._keys = ""  # the first lexeme character of each class
        self._fold: dict[int, str] = {}  # code point -> class key, where it differs
        self._is_word: dict[str, bool] = {}  # every character classified so far
        self._lock = threading.Lock()
        chars = set("".join(entries))
        for c in sorted(chars):
            if self._class_of(c) is None:
                self._keys += c
        self._learn(chars)
        self._root: dict = {}
        for entry in entries:
            node = self._root
            for c in entry.translate(self._fold):
                node = node.setdefault(c, {})
            node[_END] = True

    def _class_of(self, c: str) -> str | None:
        match = re.compile(re.escape(c), re.IGNORECASE).search(self._keys)
        return None if match is None else match.group()

    def _learn(self, chars: Iterable[str]) -> None:
        """Classify characters not seen before: fold class and word-ness.

        Threads extracting concurrently share the tables; entries are only
        added, and a character's entries are complete before it counts as seen.
        """
        new = set(chars).difference(self._is_word)
        if not new:
            return
        with self._lock:
            for c in new:
                key = self._class_of(c)
                if key is not None and key != c:
                    self._fold[ord(c)] = key
                self._is_word[c] = _WORD_RE.match(c) is not None

    def extract(self, chunk: "NoteChunk") -> list[Mention]:
        if not self._root:
            return []
        text = chunk.text
        self._learn(text)
        folded = text.translate(self._fold)
        is_word = self._is_word
        n = len(text)
        out: list[Mention] = []
        resume = 0
        for start in _NOT_AFTER_WORD_RE.finditer(text):
            i = start.start()
            if i < resume:
                continue
            node = self._root
            end = j = i
            while j < n:
                node = node.get(folded[j])
                if node is None:
                    break
                j += 1
                if _END in node and (j == n or not is_word[text[j]]):
                    end = j
            if end > i:
                out.append(Mention(text[i:end], chunk.chunk_id, i, end, "gazetteer"))
                resume = end
        return out


# -- prompting ---------------------------------------------------------------------


def escape_span_literals(text: str) -> str:
    for raw, escaped in _ESCAPES:
        text = text.replace(raw, escaped)
    return text


@dataclass(frozen=True)
class PromptTemplate:
    """Instruction blocks assembled around the chunk under annotation."""

    task_statement: str
    markup_guide: str
    phenotype_definition: str
    examples: tuple[tuple[str, str], ...] = ()
    input_slot: str = "Input:\n{input}\nOutput:\n"


DEFAULT_PROMPT_TEMPLATE = PromptTemplate(
    task_statement=(
        "You annotate clinical notes. Copy the input text exactly, adding "
        "markup around phenotype mentions and changing nothing else."
    ),
    markup_guide=(
        "Wrap each phenotype mention in <span> and </span> tags. If the text "
        "contains no phenotype mention, output: none."
    ),
    phenotype_definition=(
        "A phenotype mention is a clinical abnormality observed in the "
        "patient: a sign, symptom, laboratory or imaging finding. Negated or "
        "family-history mentions do not count."
    ),
)


def render_prompt(template: PromptTemplate, text: str) -> str:
    """Assemble the full prompt for one chunk.

    The chunk text appears exactly once; literal span tags inside it are
    escaped so they cannot be mistaken for annotation markup.
    """
    if template.input_slot.count("{input}") != 1:
        raise TemplateError("input_slot must contain {input} exactly once")
    parts = [
        template.task_statement,
        template.markup_guide,
        template.phenotype_definition,
    ]
    for given, expected in template.examples:
        parts.append(f"Example input:\n{given}\nExample output:\n{expected}")
    parts.append(template.input_slot.format(input=escape_span_literals(text)))
    return "\n\n".join(p for p in parts if p)


# -- remote backend ----------------------------------------------------------------
#
# The remote calls take the ``extraction`` config section. The credential is
# read from the environment variable named by ``api_key_env_var`` at call time
# and is never logged or echoed in errors.

RETRY_BASE_DELAY = 0.1  # seconds; the backoff ceiling, doubling per attempt
RESPONSE_TEXT_PATH = ("choices", 0, "message", "content")
# One ``requests.Session`` per thread: a Session is not thread-safe, and each
# keeps its connections open, so a worker's later calls skip the handshake.
_thread_state = threading.local()


def _auth_headers(cfg: ExtractionConfig) -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    if cfg.api_key_env_var:
        key = os.environ.get(cfg.api_key_env_var)
        if not key:
            raise CredentialError(
                f"environment variable {cfg.api_key_env_var} is not set"
            )
        headers["Authorization"] = f"Bearer {key}"
    return headers


def verify_credentials(cfg: ExtractionConfig) -> None:
    """Fail fast when the configured credential is absent.

    Batch drivers call this once up front so a missing key aborts the run
    instead of failing every chunk individually.
    """
    _auth_headers(cfg)


def remote_complete(cfg: ExtractionConfig, prompt: str) -> str:
    """POST one prompt and return the model's text completion.

    Transport failures, 429 and 5xx responses retry with full-jitter
    exponential backoff (a uniform wait below a doubling ceiling, so parallel
    workers spread out) until ``max_retries`` is exhausted; a ``Retry-After``
    header in integer seconds lengthens the wait to at least that. Auth
    rejections raise immediately. Calls from one thread share that thread's
    session, and so its open connections.
    """
    import requests  # only the remote backend needs it; keeps step start light

    session = getattr(_thread_state, "session", None)
    if session is None:
        session = _thread_state.session = requests.Session()

    payload = {
        "model": cfg.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
    }
    headers = _auth_headers(cfg)
    last_failure = "no attempt made"
    retry_after = 0.0
    for attempt in range(cfg.max_retries + 1):
        if attempt:
            ceiling = RETRY_BASE_DELAY * (2.0 ** (attempt - 1))
            time.sleep(max(random.uniform(0.0, ceiling), retry_after))
        retry_after = 0.0
        try:
            resp = session.post(
                cfg.endpoint_url, json=payload, headers=headers, timeout=cfg.timeout
            )
        except requests.RequestException as e:
            last_failure = type(e).__name__
            logger.warning("backend attempt %d failed: %s", attempt + 1, last_failure)
            continue
        if resp.status_code in (401, 403):
            raise CredentialError(f"backend rejected credential ({resp.status_code})")
        if resp.status_code == 429 or resp.status_code >= 500:
            last_failure = f"HTTP {resp.status_code}"
            header = resp.headers.get("Retry-After", "").strip()
            retry_after = float(header) if header.isdecimal() else 0.0
            logger.warning("backend attempt %d failed: %s", attempt + 1, last_failure)
            continue
        if resp.status_code != 200:
            raise ProtocolError(f"unexpected status {resp.status_code}")
        try:
            doc = resp.json()
        except ValueError as e:
            raise ProtocolError(f"response is not JSON: {e}") from e
        node = doc
        for step in RESPONSE_TEXT_PATH:
            try:
                node = node[step]
            except (KeyError, IndexError, TypeError) as e:
                raise ProtocolError(
                    f"response lacks text at path {RESPONSE_TEXT_PATH!r}"
                ) from e
        if not isinstance(node, str):
            raise ProtocolError("response text field is not a string")
        return node
    raise BackendUnavailableError(
        f"backend unreachable after {cfg.max_retries + 1} attempts ({last_failure})"
    )


def remote_extract(
    cfg: ExtractionConfig,
    template: PromptTemplate,
    chunk: "NoteChunk",
) -> list[Mention]:
    """Ask the remote model to annotate one chunk and parse the result."""
    completion = remote_complete(cfg, render_prompt(template, chunk.text))
    if completion.strip().lower() in ("none", "none."):
        return []
    parsed = parse_span_markup(
        chunk.text, completion, chunk_id=chunk.chunk_id, extractor="remote"
    )
    for w in parsed.warnings:
        logger.warning("chunk %s markup: %s", chunk.chunk_id, w)
    if parsed.recovered:
        logger.info("chunk %s parsed in recovery mode", chunk.chunk_id)
    return parsed.mentions


# -- corpus driver -----------------------------------------------------------------


@dataclass
class ChunkFailure:
    chunk_id: str
    error: str


@dataclass
class ExtractionResult:
    mentions_by_patient: dict[str, list[Mention]]
    failures: list[ChunkFailure]


def extract_corpus(
    chunks: Sequence["NoteChunk"],
    backend: Callable[["NoteChunk"], list[Mention]],
    concurrency_limit: int = 1,
) -> ExtractionResult:
    """Run a backend over every chunk and group mentions per patient.

    Per-chunk failures are recorded without aborting the run. Output order is
    independent of the concurrency limit: mentions sort by (chunk id, start)
    within each patient and duplicates by (lowercased surface, chunk, start)
    collapse.
    """
    if concurrency_limit < 1:
        raise ValueError("concurrency_limit must be >= 1")
    patient_of = {c.chunk_id: c.patient_id for c in chunks}
    failures: list[ChunkFailure] = []
    per_chunk: dict[str, list[Mention]] = {}

    def run_one(chunk: "NoteChunk") -> tuple[str, list[Mention] | None, str | None]:
        try:
            return chunk.chunk_id, backend(chunk), None
        except Exception as e:  # noqa: BLE001 - failures become report rows
            return chunk.chunk_id, None, f"{type(e).__name__}: {e}"

    if concurrency_limit == 1:
        outcomes = [run_one(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=concurrency_limit) as pool:
            outcomes = list(pool.map(run_one, chunks))
    for chunk_id, mentions, error in outcomes:
        if error is not None:
            failures.append(ChunkFailure(chunk_id=chunk_id, error=error))
        else:
            per_chunk[chunk_id] = mentions or []

    grouped: dict[str, list[Mention]] = {}
    seen: set[tuple[str, str, int]] = set()
    for chunk_id in sorted(per_chunk):
        pid = patient_of[chunk_id]
        for m in sorted(per_chunk[chunk_id], key=lambda m: (m.start, m.end)):
            key = (m.surface.lower(), m.chunk_id, m.start)
            if key in seen:
                continue
            seen.add(key)
            grouped.setdefault(pid, []).append(m)
    failures.sort(key=lambda f: f.chunk_id)
    return ExtractionResult(
        mentions_by_patient={pid: grouped[pid] for pid in sorted(grouped)},
        failures=failures,
    )
