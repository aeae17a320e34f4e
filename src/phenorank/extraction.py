"""Mention extraction from note chunks.

Two interchangeable backends produce character-offset mentions: a lexicon
gazetteer built from ontology names, and a remote chat-completion model that
returns the chunk text with every phenotype mention wrapped in ``<span>`` tags.
The markup parser verifies the echoed text byte-for-byte and falls back to a
left-to-right recovery scan when the model paraphrased.
"""

from __future__ import annotations

import itertools
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
from .rows import Row

if TYPE_CHECKING:
    from .corpus import NoteChunk

logger = logging.getLogger(__name__)

SPAN_OPEN = "<span>"
SPAN_CLOSE = "</span>"

_TAG_RE = re.compile(r"</?span>")

_ESCAPES = ((SPAN_OPEN, "&lt;span&gt;"), (SPAN_CLOSE, "&lt;/span&gt;"))

@dataclass(frozen=True)
class Mention(Row):
    """One extracted surface string located inside a chunk."""

    surface: str
    chunk_id: str
    start: int
    end: int
    extractor: str


@dataclass
class PatientMentions(Row):
    """One patient's mentions: a row of the mentions artifact."""

    patient_id: str
    mentions: list[Mention]


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


# Positions a lexeme may start at: not after a word character, and not at the
# end of the text; the group is the first word from there, up to the next
# position not followed by a word character. A lexeme may end before a non-word
# character or at the end of the text. ``\w`` is judged by ``re`` itself, so it
# is the same class the lookarounds of an equivalent regex would use.
_NOT_AFTER_WORD_RE = re.compile(r"(?<!\w)(?=(.\w*))", re.DOTALL)
_NON_WORD_RE = re.compile(r"\W")
_WORD_RE = re.compile(r"\w")


class Gazetteer:
    """Case-insensitive longest-match lexicon scanner over ontology names.

    A match starts only at a position not preceded by a word character
    (``\\w``); there the longest lexeme that is followed by a non-word
    character or the end of the text wins, and the scan resumes after it.
    That is exactly what ``finditer`` returns for
    ``(?<!\\w)(?:lexeme|...)(?!\\w)`` under ``re.IGNORECASE`` with longer
    lexemes listed first.

    Characters compare under the case folding of ``re.IGNORECASE`` itself,
    which is not ``str.lower``: ``ſ`` matches ``s`` and ``İ`` matches ``i``.
    Lexemes are not lowercased first, since ``str.lower`` turns ``İ`` into
    ``i`` plus a combining dot that no note spelling ``İ`` contains.
    Lexeme characters fall into classes of characters that match each other
    under ``re.IGNORECASE``, keyed by the first character of each class. Each
    distinct character is classified once, on first sight, by searching the
    class keys with its own case-insensitive pattern. Every name and synonym
    is folded to class keys and kept in a set; a text is folded the same way
    before it is scanned.

    A first word runs from a start up to the next position not followed by a
    word character, and a dict maps the first word of each lexeme to the
    length of the longest lexeme that starts with it. One regex over the
    folded text yields the starts whose character begins some first word,
    with the first word from there, and one lookup rejects most of them. At a
    start that passes, the ends up to that length are tried longest first,
    and the first folded slice in the set is the match.

    A text and its folded form agree on first words because folding keeps a
    character's word-ness, with one exception: U+0345, which
    ``re.IGNORECASE`` matches with ``ι``, is not ``\\w``. A text holding a
    character whose word-ness differs from its class key's tries every start,
    and every end up to the longest lexeme.
    """

    def __init__(self, o: Ontology):
        entries = list(
            {
                x
                for tid in o.ids
                for x in (o.terms[tid].name, *o.terms[tid].synonyms)
                if x.strip()
            }
        )
        self._keys = ""  # the first lexeme character of each class
        self._fold: dict[int, str] = {}  # code point -> class key, where it differs
        self._seen: frozenset[str] = frozenset()  # every character classified so far
        self._mixed: frozenset[str] = frozenset()  # folds to a key unlike it in word-ness
        self._lock = threading.Lock()
        joined = "".join(entries)
        chars = set(joined)
        for c in sorted(chars):
            if self._class_of(c) is None:
                self._keys += c
        self._learn(chars)
        # Folding keeps every length, so one translate folds every lexeme.
        folded = joined.translate(self._fold)
        cuts = list(itertools.accumulate(map(len, entries), initial=0))
        self._lexemes = {folded[a:b] for a, b in zip(cuts, cuts[1:])}
        self._longest = max(map(len, self._lexemes), default=0)
        # First word -> length of the longest lexeme starting with it: later
        # keys overwrite earlier ones, and lexemes come shortest first.
        self._first = {
            _NOT_AFTER_WORD_RE.match(lexeme).group(1): len(lexeme)
            for lexeme in sorted(self._lexemes, key=len)
        }
        # _NOT_AFTER_WORD_RE for a folded text, at the starts whose character
        # begins some first word; with no lexemes, a pattern that never matches.
        initials = "".join(re.escape(c) for c in sorted({w[0] for w in self._first}))
        self._first_word_re = re.compile(
            rf"(?<!\w)(?=([{initials}]\w*))" if initials else "(?!)"
        )

    def _class_of(self, c: str) -> str | None:
        match = re.compile(re.escape(c), re.IGNORECASE).search(self._keys)
        return None if match is None else match.group()

    def _learn(self, chars: Iterable[str]) -> None:
        """Classify characters not seen before: their fold class, and whether
        they differ from its key in word-ness.

        Threads extracting concurrently share the tables: the fold table only
        gains entries, and each set is replaced whole, after the fold entries
        of its new characters are in place.
        """
        new = set(chars).difference(self._seen)
        if not new:
            return
        with self._lock:
            mixed = set()
            for c in new:
                key = self._class_of(c)
                if key is not None and key != c:
                    self._fold[ord(c)] = key
                    if (_WORD_RE.match(c) is None) != (_WORD_RE.match(key) is None):
                        mixed.add(c)
            self._mixed = self._mixed.union(mixed)
            self._seen = self._seen.union(new)

    def extract(self, chunk: "NoteChunk") -> list[Mention]:
        if not self._lexemes:
            return []
        text = chunk.text
        self._learn(text)
        folded = text.translate(self._fold)
        mixed = self._mixed
        if mixed and not mixed.isdisjoint(text):
            # Word-ness differs between the text and its folded form: try
            # every start, and every end up to the longest lexeme.
            starts = _NOT_AFTER_WORD_RE.finditer(text)
            longest_from = lambda word: self._longest  # noqa: E731
        else:
            starts = self._first_word_re.finditer(folded)
            longest_from = self._first.get
        lexemes = self._lexemes
        n = len(text)
        out: list[Mention] = []
        resume = 0
        for start in starts:
            i = start.start()
            if i < resume:
                continue
            longest = longest_from(start.group(1))
            if longest is None:
                continue
            # Ends from that of the first word up to the longest lexeme's.
            stop = i + longest
            ends = [m.start() for m in _NON_WORD_RE.finditer(text, start.end(1), stop + 1)]
            if stop >= n:
                ends.append(n)
            for end in reversed(ends):
                if folded[i:end] in lexemes:
                    out.append(Mention(text[i:end], chunk.chunk_id, i, end, "gazetteer"))
                    resume = end
                    break
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
class ChunkFailure(Row):
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
