"""Clinical note corpus: sentence-aware chunking and synthesis.

Chunking never splits a sentence unless the sentence alone exceeds the chunk
limit, and chunks always concatenate back to the exact note text. Synthetic
cohorts provide a gold standard for desk-scale training and evaluation: every
curated term name is embedded verbatim in the narrative, wrapped in span tags
in the annotated variant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, GenerationError
from .extraction import SPAN_CLOSE, SPAN_OPEN, strip_span_markup
from .ontology import Ontology
from .rows import Row

# Discretized log-normal for curated-term counts: median 15, quartiles ~9/25.
_COUNT_LOG_MEDIAN = math.log(15.0)
_COUNT_LOG_SIGMA = 0.7573512030649655
# Ages follow the same shape: median 12 years, quartiles ~5/31.
_AGE_LOG_MEDIAN = math.log(12.0)
_AGE_LOG_SIGMA = 1.352540414083853

SEXES = ("female", "male", "other")
_SEX_WEIGHTS = (0.48, 0.48, 0.04)

SYMPTOM_CATEGORIES = (
    "cardiovascular",
    "immunologic",
    "metabolic",
    "multisystem",
    "musculoskeletal",
    "neurologic",
    "other",
)

NOTE_TYPES = ("Progress", "Consultation", "Discharge", "Imaging")


@dataclass
class Patient(Row):
    patient_id: str
    age_years: float
    sex: str
    symptom_category: str
    curated_terms: set[str] = field(default_factory=set)


@dataclass
class ClinicalNote(Row):
    note_id: str
    patient_id: str
    note_type: str
    timestamp: str
    text: str


@dataclass
class NoteChunk(Row):
    chunk_id: str
    note_id: str
    patient_id: str
    text: str
    start_offset: int
    end_offset: int


# -- sentence splitting ------------------------------------------------------------

# Title and clinical shorthand tokens that end with a period mid-sentence.
ABBREVIATIONS = frozenset(
    {
        "dr", "mr", "mrs", "ms", "prof", "st", "jr", "sr",
        "vs", "etc", "e.g", "i.e", "approx", "fig", "no",
        "pt", "pts", "hx", "dx", "rx", "tx", "fx",
        "wk", "wks", "mo", "mos", "yr", "yrs", "mg", "ml",
    }
)

_TERMINATORS = ".!?"


def _preceding_token(text: str, end: int, sent_start: int) -> str:
    i = end
    while i > sent_start and not text[i - 1].isspace():
        i -= 1
    return text[i:end]


def split_sentences(text: str) -> list[tuple[str, int]]:
    """Split text into (sentence, start_offset) pieces that concatenate exactly.

    A boundary opens after a run of ``.!?`` followed by whitespace, or after a
    whitespace run containing a newline. Trailing whitespace stays with the
    sentence it follows. Periods guard against splitting when the preceding
    token is a known abbreviation or a mid-sentence single-letter initial.
    """
    sentences: list[tuple[str, int]] = []
    n = len(text)
    start = 0
    i = 0
    while i < n:
        ch = text[i]
        if ch in _TERMINATORS:
            j = i + 1
            while j < n and text[j] in _TERMINATORS:
                j += 1
            guarded = "." in text[i:j] and _guard_period(text, i, start)
            if j < n and text[j].isspace() and not guarded:
                k = j
                while k < n and text[k].isspace():
                    k += 1
                sentences.append((text[start:k], start))
                start = k
                i = k
                continue
            i = j
            continue
        if ch == "\n":
            k = i
            while k < n and text[k].isspace():
                k += 1
            if text[start:i].strip():
                sentences.append((text[start:k], start))
                start = k
            i = k
            continue
        i += 1
    if start < n:
        sentences.append((text[start:], start))
    return sentences


def _guard_period(text: str, punct_at: int, sent_start: int) -> bool:
    token = _preceding_token(text, punct_at, sent_start)
    core = token.strip("()[]{}\"'").rstrip(".")
    if not core:
        return False
    if core.lower() in ABBREVIATIONS:
        return True
    if len(core) == 1 and core.isalpha():
        # Sentence-initial single letters ("A. Second point") still split; only
        # initials that follow other words ("John A. Lee") are guarded.
        return text[sent_start:punct_at].strip() != token
    return False


# -- chunking --------------------------------------------------------------------


def chunk_note(note: ClinicalNote, max_chars: int) -> list[NoteChunk]:
    """Pack whole sentences greedily into chunks of at most ``max_chars``.

    A single sentence longer than the limit is hard-split at the limit; every
    produced piece except the last is emitted as its own full chunk. Chunks are
    contiguous and concatenate exactly to the note text.
    """
    if max_chars < 1:
        raise ConfigError(f"max_chars must be >= 1, got {max_chars}")
    pieces: list[tuple[int, str]] = []  # (start, text) pending in current chunk
    chunks: list[NoteChunk] = []

    def flush() -> None:
        if not pieces:
            return
        start = pieces[0][0]
        body = "".join(p[1] for p in pieces)
        chunks.append(
            NoteChunk(
                chunk_id=f"{note.note_id}#c{len(chunks):03d}",
                note_id=note.note_id,
                patient_id=note.patient_id,
                text=body,
                start_offset=start,
                end_offset=start + len(body),
            )
        )
        pieces.clear()

    current_len = 0
    for sentence, offset in split_sentences(note.text):
        if len(sentence) <= max_chars:
            if pieces and current_len + len(sentence) > max_chars:
                flush()
                current_len = 0
            pieces.append((offset, sentence))
            current_len += len(sentence)
            continue
        flush()
        current_len = 0
        # Oversize sentence: forced hard split at the limit.
        at = 0
        while len(sentence) - at > max_chars:
            pieces.append((offset + at, sentence[at : at + max_chars]))
            flush()
            at += max_chars
        pieces.append((offset + at, sentence[at:]))
        current_len = len(sentence) - at
    flush()
    return chunks


# -- synthesis -------------------------------------------------------------------


def _weighted_sample(
    rng: random.Random,
    mt: np.random.MT19937,
    items: list[str],
    inv_w: np.ndarray,
    count: int,
) -> list[str]:
    """``count`` of ``items`` without replacement, item ``i`` weighted
    ``1 / inv_w[i]``: the largest exponential keys ``r ** inv_w[i]``
    (Efraimidis & Spirakis, IPL 2006), one ``rng.random()`` ``r`` per item.

    The draws are replayed in numpy. CPython's ``random()`` is MT19937's
    ``genrand_res53``: two 32-bit words ``a``, ``b`` give
    ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``. ``mt`` takes ``rng``'s 624
    words and position, yields the ``2 * len(items)`` words and hands its state
    back, ``gauss_next`` kept, so ``rng`` ends as if it had drawn them itself.
    The integer is below 2**53, so its conversion to float64 and the scaling
    are exact.
    """
    version, internal, gauss_next = rng.getstate()
    if version != 3 or len(internal) != 625:
        raise RuntimeError(
            "random.Random state is not CPython's MT19937 layout; "
            "synthetic cohorts replay its draws"
        )
    # A tuple key: numpy's setter reads it item by item, faster than an array.
    key, pos = internal[:624], internal[624]
    mt.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": pos}}
    words = mt.random_raw(2 * len(items))
    r = ((words[0::2] >> 5) * (1 << 26) + (words[1::2] >> 6)).astype(np.float64)
    r *= 2.0**-53
    state = mt.state["state"]
    rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss_next))
    return _top_by_key(r, inv_w, items, count)


def _top_by_key(
    r: np.ndarray, inv_w: np.ndarray, items: list[str], count: int
) -> list[str]:
    """The ``count`` items with the largest keys ``r ** inv_w``, largest first
    and a tie to the smaller item, as a sort of ``(-key, item)`` tuples gives.

    The keys that decide are Python's ``pow`` (libm), as the tuple sort had
    them; numpy's ``power`` can differ from it in the last bits, depending on
    the CPU. So numpy only shortlists: every item whose numpy key reaches the
    ``count``-th largest numpy key times (1 - 2**-20). Each numpy key lies
    within a few ulps of its libm key and the keys are in (0, 1] with no
    subnormals (or exactly 0), far inside that margin, so the shortlist holds
    the exact top ``count``, ties included.
    """
    n = len(items)
    if count < n:
        approx = np.power(r, inv_w)
        kth = np.partition(approx, n - count)[n - count]
        picked = np.flatnonzero(approx >= kth * (1.0 - 2.0**-20))
        r, inv_w = r[picked], inv_w[picked]
        items = [items[i] for i in picked.tolist()]
    keyed = sorted((-(x**e), t) for x, e, t in zip(r.tolist(), inv_w.tolist(), items))
    return [t for _, t in keyed[:count]]


def synth_cohort(
    o: Ontology, n: int, seed: int, max_terms: int = 40
) -> list[Patient]:
    """Generate ``n`` synthetic patients with curated term sets.

    Curated-term counts follow a discretized log-normal centred on a median of
    15 terms with quartiles near 9 and 25, clamped to [1, max_terms]. Term
    choice is weighted toward deeper (more specific) terms, with weight
    ``4 ** min(depth, 8)``, and sampled without replacement by exponential
    keys (``_weighted_sample``); the root is never curated. Deterministic for
    a fixed seed.
    """
    eligible = [t for t in o.ids if t != o.root]
    if len(o.ids) < 30:
        raise DataError("synthetic cohorts need an ontology of >= 30 usable terms")
    # Every live term lies below the root, so the walk reaches each once.
    reached, hops = o.hops(o.dense_ids([o.root]), "down")
    depth = hops[np.argsort(reached)].tolist()
    inv_w = np.array([1.0 / 4.0 ** min(d, 8) for t, d in zip(o.ids, depth) if t != o.root])
    cap = min(max_terms, len(eligible))
    rng = random.Random(f"{seed}:cohort")
    mt = np.random.MT19937(0)  # holds rng's state during each replay
    patients = []
    for i in range(1, n + 1):
        count = int(round(math.exp(rng.gauss(_COUNT_LOG_MEDIAN, _COUNT_LOG_SIGMA))))
        count = max(1, min(cap, count))
        age = math.exp(rng.gauss(_AGE_LOG_MEDIAN, _AGE_LOG_SIGMA))
        age = round(min(100.0, max(0.0, age)), 1)
        sex = rng.choices(SEXES, weights=_SEX_WEIGHTS, k=1)[0]
        category = rng.choice(SYMPTOM_CATEGORIES)
        curated = set(_weighted_sample(rng, mt, eligible, inv_w, count))
        patients.append(
            Patient(
                patient_id=f"P{i:04d}",
                age_years=age,
                sex=sex,
                symptom_category=category,
                curated_terms=curated,
            )
        )
    return patients


_FINDING_TEMPLATES = (
    "Examination documented {}.",
    "The visit note records {}.",
    "Review of systems was notable for {}.",
    "Interval assessment again showed {}.",
    "Clinical workup confirmed {}.",
    "Family reports {}.",
)

_DISTRACTOR_TEMPLATES = (
    "Also mentioned was {} of uncertain significance.",
    "Records additionally describe {}.",
    "Earlier correspondence listed {}.",
)


def synth_narrative(
    patient: Patient,
    o: Ontology,
    seed: int,
    distractor_terms: tuple[str, ...] = (),
) -> tuple[str, ClinicalNote]:
    """Render a template narrative for one patient.

    Returns ``(annotated, note)``: the annotated variant wraps every curated
    term name in span tags exactly once; the note carries the tag-stripped
    plain text. ``distractor_terms`` are embedded verbatim but unwrapped, so
    extraction sees them while the gold standard does not.
    """
    if not patient.curated_terms:
        raise DataError(f"patient {patient.patient_id} has no curated terms")
    rng = random.Random(f"{seed}:narrative:{patient.patient_id}")

    def name_of(tid: str) -> str:
        # Names come from the ontology's strings, so no record is built.
        try:
            name = o.names[o.dense[tid]]
        except KeyError:
            o.require(tid)  # raises UnknownTermError: unknown or obsolete
            raise
        if not name.strip():
            raise GenerationError(f"term {tid} has no usable name")
        return name

    curated_names = [name_of(t) for t in sorted(patient.curated_terms)]
    distractor_names = [name_of(t) for t in sorted(distractor_terms)]

    sentences = [
        f"Patient {patient.patient_id} is a {patient.age_years:g} year old "
        f"({patient.sex}) referred for {patient.symptom_category} concerns."
    ]
    body: list[str] = []
    for idx, name in enumerate(curated_names):
        template = _FINDING_TEMPLATES[idx % len(_FINDING_TEMPLATES)]
        body.append(template.format(f"{SPAN_OPEN}{name}{SPAN_CLOSE}"))
    for idx, name in enumerate(distractor_names):
        template = _DISTRACTOR_TEMPLATES[idx % len(_DISTRACTOR_TEMPLATES)]
        body.append(template.format(name))
    rng.shuffle(body)
    sentences.extend(body)
    sentences.append("Plan reviewed with the family; follow up as scheduled.")
    annotated = " ".join(sentences)

    for name in curated_names:
        if annotated.count(f"{SPAN_OPEN}{name}{SPAN_CLOSE}") != 1:
            raise GenerationError(
                f"curated name {name!r} not embedded exactly once for "
                f"patient {patient.patient_id}"
            )
    note = ClinicalNote(
        note_id=f"N-{patient.patient_id}-01",
        patient_id=patient.patient_id,
        note_type=rng.choice(NOTE_TYPES),
        timestamp="2024-03-01",
        text=strip_span_markup(annotated),
    )
    return annotated, note
