"""Mention standardization: map surface strings onto ontology terms.

A deterministic character n-gram embedding indexes every term name and synonym;
one vectorized FNV-1a hasher embeds the whole index at once, and each query
alone, straight into a ``np.bincount`` over its buckets. Retrieval is an
exhaustive cosine scan (exact by construction), and a selector turns the
candidate list into a final term id or none; surfaces that normalize alike
share one retrieval and one candidate list.

The index is held as three numpy arrays in compressed sparse column (CSC)
layout, so this module needs numpy alone; one ``np.unique`` over bucket-major
keys yields that layout directly. A query concatenates the columns of its own
buckets as contiguous slices, in ascending bucket order, each scaled by its
query weight, and ``np.bincount`` adds each entry's products in that array
order starting from 0.0: the same additions, in the same order, as a sparse
column-major matrix-vector product. A term scores its best entry, taken with
one ``np.maximum`` pass per entry rank, in the order ``np.maximum.reduceat``
would compare them.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DataError,
    EmbeddingError,
    IndexBuildError,
    RetrievalError,
)
from .config import ExtractionConfig
from .extraction import Mention, PromptTemplate, remote_complete, render_prompt
from .ontology import Ontology

logger = logging.getLogger(__name__)

DEFAULT_DIMENSION = 4096
NGRAM_SIZES = (3, 4, 5)

_NON_ALNUM_RE = re.compile(r"[^a-z0-9]+")

# FNV-1a, 32 bit: fixed so embeddings are identical across platforms and runs.
_FNV_OFFSET = np.uint32(0x811C9DC5)
_FNV_PRIME = np.uint32(0x01000193)


def _normalize(text: str) -> str:
    """Lowercase, then collapse each run outside a-z0-9 to one space."""
    return _NON_ALNUM_RE.sub(" ", text.lower()).strip()


def _fnv1a_ngrams(data: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(n, hashes)`` for each n in NGRAM_SIZES over a uint8 array.

    ``hashes[i]`` is the 32-bit FNV-1a hash of ``data[i:i + n]``; uint32
    arithmetic wraps exactly like the hash's ``& 0xFFFFFFFF``.
    """
    data = data.astype(np.uint32)
    h = np.full(len(data), _FNV_OFFSET, dtype=np.uint32)
    out = []
    for n in range(1, NGRAM_SIZES[-1] + 1):
        h = (h[: len(data) - n + 1] ^ data[n - 1 :]) * _FNV_PRIME
        if n in NGRAM_SIZES:
            out.append((n, h))
    return out


def _ngram_counts(texts: Sequence[str], dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Hashed n-gram counts of normalized texts as sorted ``bucket * len(texts)
    + row`` keys and their counts.

    Keys are bucket-major, so sorted keys list each bucket's rows in ascending
    order: column-major order. They are built in ``uint32`` where they fit,
    sorted in place, and counted from the runs of equal neighbours.
    Each text is padded with one space on each side so word edges contribute;
    no n-gram crosses from one text into the next.
    """
    # bincount reads keys as intp, which holds every uint32 but not a uint64.
    key_type = np.uint32 if dimension * len(texts) <= 2**32 else np.int64
    padded = [f" {t} ".encode("ascii") for t in texts]
    lengths = np.fromiter(map(len, padded), dtype=np.int64, count=len(padded))
    data = np.frombuffer(b"".join(padded), dtype=np.uint8)
    row_of = np.repeat(np.arange(len(texts), dtype=key_type), lengths)
    # Bytes from each position to the end of its text: an n-gram starting
    # there stays inside its text when n <= room.
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(data))
    keys = []
    for n, h in _fnv1a_ngrams(data):
        inside = room[: len(h)] >= n
        part = (h[inside] % dimension).astype(key_type)
        part *= len(texts)
        part += row_of[: len(h)][inside]
        keys.append(part)
    keys = np.concatenate(keys)
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    total, distinct = len(keys), keys[first]
    del first, keys
    counts = np.empty(len(starts), dtype=np.min_scalar_type(total))  # each <= total
    np.subtract(starts[1:], starts[:-1], out=counts[:-1], casting="unsafe")
    counts[-1:] = total - starts[-1:]
    return distinct, counts


def default_embed(text: str, dimension: int = DEFAULT_DIMENSION) -> np.ndarray:
    """Hashed character n-gram (n = 3..5) term-frequency vector, L2-normalized.

    Text is lowercased and punctuation runs collapse to single spaces before
    n-grams are taken; a single space pads each side so word edges contribute.
    """
    normalized = _normalize(text)
    if not normalized:
        raise EmbeddingError(f"text {text!r} is empty after normalization")
    data = np.frombuffer(f" {normalized} ".encode("ascii"), dtype=np.uint8)
    hashes = np.concatenate([h for _, h in _fnv1a_ngrams(data)])
    counts = np.bincount(hashes % dimension, minlength=dimension)
    return counts / np.linalg.norm(counts)


@dataclass
class IndexEntry:
    term_id: str
    text: str


class VectorIndex:
    """Embedded name/synonym entries for every non-obsolete term.

    Entry vectors are the rows of one sparse matrix stored by column: the
    nonzeros of bucket ``b`` are ``data[colptr[b]:colptr[b + 1]]``, in the
    entry rows ``rows[colptr[b]:colptr[b + 1]]``, which ascend. Rows for a
    term are contiguous, ordered by term id then name before synonyms.

    ``rank_passes[r - 1]`` is ``(terms, rows)``: the terms that have an entry
    of rank ``r`` (0 is the name), and that entry's row. Retrieval folds each
    pass into the per-term maximum, so a term's entries are compared in row
    order whatever their number.
    """

    def __init__(
        self,
        entries: list[IndexEntry],
        data: np.ndarray,
        rows: np.ndarray,
        colptr: np.ndarray,
        term_ids: list[str],
        term_starts: np.ndarray,
    ):
        self.entries = entries
        self.data = data  # float64 entry-vector values, column by column
        self.rows = rows  # int32 entry row of each value
        self.colptr = colptr  # int64, DEFAULT_DIMENSION + 1 column offsets
        self.term_ids = term_ids  # sorted, aligned with term_starts
        self.term_starts = term_starts  # row offset where each term's entries begin
        entry_counts = np.diff(term_starts, append=len(entries))
        self.rank_passes: list[tuple[np.ndarray, np.ndarray]] = []
        for rank in range(1, int(entry_counts.max(initial=1))):
            terms = np.flatnonzero(entry_counts > rank)
            self.rank_passes.append((terms, term_starts[terms] + rank))

    def __len__(self) -> int:
        return len(self.entries)


def build_index(o: Ontology) -> VectorIndex:
    """Embed every term name and synonym into a retrieval index.

    All entries are hashed in one pass; the rows equal ``default_embed`` of
    each entry bit for bit, because counts are integers and so are the sums
    of their squares, whatever order they are added in. The sorted
    bucket-major keys are already in column order, rows ascending.
    """
    entries: list[IndexEntry] = []
    term_ids: list[str] = []
    term_starts: list[int] = []
    for tid in o.ids:
        rec = o.terms[tid]
        term_ids.append(tid)
        term_starts.append(len(entries))
        entries.extend(IndexEntry(tid, text) for text in [rec.name, *rec.synonyms])
    texts = [_normalize(e.text) for e in entries]
    for entry, text in zip(entries, texts):
        if not text:
            raise IndexBuildError(
                f"cannot embed {entry.text!r} for term {entry.term_id}: "
                f"text {entry.text!r} is empty after normalization"
            )
    keys, counts = _ngram_counts(texts, DEFAULT_DIMENSION)
    buckets, rows = np.divmod(keys, len(texts))
    del keys  # each temporary goes before the next is built
    colptr = np.zeros(DEFAULT_DIMENSION + 1, dtype=np.int64)
    np.cumsum(np.bincount(buckets, minlength=DEFAULT_DIMENSION), out=colptr[1:])
    values = counts.astype(np.float64)
    del buckets, counts
    norms = np.sqrt(np.bincount(rows, weights=values * values, minlength=len(texts)))
    values /= norms[rows]
    return VectorIndex(
        entries=entries,
        data=values,
        rows=rows.astype(np.int32),
        colptr=colptr,
        term_ids=term_ids,
        term_starts=np.asarray(term_starts, dtype=np.int64),
    )


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores, ties to the smaller index.

    Equal to ``np.argsort(-scores, kind="stable")[:k]``: a partition finds
    the k-th best score, and only the scores at least that good are sorted.
    """
    neg = -scores
    if k < len(neg):
        kth = np.partition(neg, k - 1)[k - 1]
        kept = np.flatnonzero(neg <= kth)
    else:
        kept = np.arange(len(neg))
    return kept[np.argsort(neg[kept], kind="stable")[:k]]


def retrieve(index: VectorIndex, query: str, k: int) -> list[tuple[str, float]]:
    """Exhaustive cosine scan: top-k terms, each scored by its best entry.

    Ties in score resolve to the smaller term id. Scores are clipped into
    [-1, 1] to absorb floating-point overshoot. Only the index columns of the
    query's buckets are read, as slices in ascending bucket order, each scaled
    by its query weight; ``bincount`` adds each entry's products in that order
    from 0.0, so each score sums the same nonzero products in the same order
    as a full matrix-vector product. A term's best entry is its name's score,
    raised by one exact ``np.maximum`` pass per further entry rank.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if not index.entries:
        raise RetrievalError("vector index is empty")
    qv = default_embed(query)
    buckets = np.flatnonzero(qv)
    columns = list(
        zip(
            index.colptr[buckets].tolist(),
            index.colptr[buckets + 1].tolist(),
            qv[buckets].tolist(),
        )
    )
    rows = np.concatenate([index.rows[a:b] for a, b, _ in columns])
    # Each column's products, written straight into its span of the weights.
    products = np.empty(len(rows), dtype=np.float64)
    at = 0
    for a, b, weight in columns:
        np.multiply(index.data[a:b], weight, out=products[at : at + b - a])
        at += b - a
    scores = np.bincount(rows, weights=products, minlength=len(index.entries))
    per_term = scores[index.term_starts]
    for terms, entry_rows in index.rank_passes:
        per_term[terms] = np.maximum(per_term[terms], scores[entry_rows])
    per_term = np.clip(per_term, -1.0, 1.0)
    # term_ids are sorted ascending, so the smaller index is the smaller id.
    return [(index.term_ids[i], float(per_term[i])) for i in _top_k(per_term, k)]


# -- selection ---------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateTerm:
    term_id: str
    name: str
    definition: str
    score: float


@dataclass
class StandardizedMention:
    """Trace row: one mention, its candidates, and the selector's decision."""

    mention: Mention
    resolved: str | None
    candidates: list[tuple[str, float]]
    selector_name: str
    decision_score: float
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            **self.mention.to_dict(),
            "resolved": self.resolved,
            "candidates": [[t, s] for t, s in self.candidates],
            "selectorName": self.selector_name,
            "decisionScore": self.decision_score,
            "error": self.error,
        }


class ThresholdSelector:
    """Pick the top-cosine candidate when it clears the threshold, else none."""

    def __init__(self, tau: float):
        self.tau = tau
        self.name = f"threshold(tau={tau:g})"

    def select(
        self, surface: str, candidates: Sequence[CandidateTerm]
    ) -> tuple[str | None, float]:
        if not candidates:
            raise DataError("selector needs at least one candidate")
        top = candidates[0]
        return (top.term_id if top.score >= self.tau else None), top.score


_SELECTOR_TEMPLATE = PromptTemplate(
    task_statement=(
        "You map a clinical mention onto one ontology term. Choose the single "
        "best-matching candidate, or answer none if no candidate matches."
    ),
    markup_guide="Answer with exactly one candidate id, or the word none.",
    phenotype_definition="",
    input_slot="{input}\nAnswer:",
)

_TERM_ID_TOKEN_RE = re.compile(r"HP:\d{7}")


class RemoteSelector:
    """Ask a remote model to choose among retrieval candidates.

    Ids outside the candidate list are treated as none (hallucination guard).
    """

    def __init__(self, cfg: ExtractionConfig):
        self.cfg = cfg
        self.name = f"remote({cfg.model_name})"

    def select(
        self, surface: str, candidates: Sequence[CandidateTerm]
    ) -> tuple[str | None, float]:
        if not candidates:
            raise DataError("selector needs at least one candidate")
        lines = [f"Mention: {surface}", "Candidates:"]
        for c in candidates:
            entry = f"- {c.term_id}: {c.name}"
            if c.definition:
                entry += f" ({c.definition})"
            lines.append(entry)
        prompt = render_prompt(_SELECTOR_TEMPLATE, "\n".join(lines))
        answer = remote_complete(self.cfg, prompt)
        by_id = {c.term_id: c for c in candidates}
        m = _TERM_ID_TOKEN_RE.search(answer)
        if m is not None:
            tid = m.group()
            if tid in by_id:
                return tid, by_id[tid].score
            logger.warning(
                "selector proposed %s outside the candidate list; using none", tid
            )
            return None, candidates[0].score
        if "none" not in answer.lower():
            logger.warning("unparseable selector answer %r; using none", answer[:80])
        return None, candidates[0].score


@dataclass
class StandardizationResult:
    # Per-patient resolved term ids, deduplicated, in first-resolution order.
    terms_by_patient: dict[str, list[str]]
    trace: list[StandardizedMention]


def standardize_corpus(
    mentions_by_patient: dict[str, list[Mention]],
    o: Ontology,
    index: VectorIndex,
    selector,
    k: int,
) -> StandardizationResult:
    """Resolve every mention and collect per-patient term sets plus a trace.

    Retrieval and selector failures are captured per mention (resolved none,
    error noted); the trace keeps one row per mention, resolved or not.
    """
    # Candidates depend only on the normalized text, so surfaces that differ
    # in case or punctuation share one retrieval and one CandidateTerm tuple.
    cache: dict[str, tuple[list[tuple[str, float]], tuple[CandidateTerm, ...]]] = {}
    terms_by_patient: dict[str, list[str]] = {}
    trace: list[StandardizedMention] = []
    for pid in sorted(mentions_by_patient):
        resolved_terms: list[str] = []
        for mention in mentions_by_patient[pid]:
            key = _normalize(mention.surface)
            candidates: list[tuple[str, float]] = []
            error: str | None = None
            try:
                if key not in cache:
                    found = retrieve(index, mention.surface, k=k)
                    cache[key] = found, tuple(
                        CandidateTerm(
                            term_id=t,
                            name=o.terms[t].name,
                            definition=o.terms[t].definition,
                            score=s,
                        )
                        for t, s in found
                    )
                candidates, cand_objs = cache[key]
                resolved, score = selector.select(mention.surface, cand_objs)
            except Exception as e:  # noqa: BLE001 - per-mention isolation
                # A failed retrieval (e.g. a surface that is empty after
                # normalization) caches nothing and leaves no candidates.
                resolved, score = None, 0.0
                error = f"{type(e).__name__}: {e}"
                logger.warning("mention %r unresolved: %s", mention.surface, error)
            if resolved is not None and resolved not in resolved_terms:
                resolved_terms.append(resolved)
            trace.append(
                StandardizedMention(
                    mention=mention,
                    resolved=resolved,
                    candidates=candidates,
                    selector_name=selector.name,
                    decision_score=score,
                    error=error,
                )
            )
        terms_by_patient[pid] = resolved_terms
    return StandardizationResult(terms_by_patient=terms_by_patient, trace=trace)
