"""Shared fixture builders and independent brute-force oracles.

The oracles deliberately reimplement graph and metric logic with naive loops so
the package implementations are checked against something that cannot share
their bugs. The text-layer oracles are the package's earlier implementations:
the regex and the character-trie gazetteers, the per-byte FNV-1a embedding, the
entry-by-entry index builder and the dense one-query scan. The trainer oracles
are the package's per-patient pairwise loop and per-cut tree builder. The
evaluation oracles are the package's cutoff-by-cutoff evaluator and, for the
permutation baseline, an all-orders mean, an exact-fraction closed form and the
earlier draw-by-draw estimate. The feature-row oracle is the package's earlier
per-term path: per-source counts propagated eagerly, then one IDF lookup per
term and source. The annotation oracles are the package's earlier per-row
TSV reader, its KB of frozensets and its one propagation per count. The
similarity oracles are the package's earlier string path: frozenset ancestor
views of the closure, the MICA by name, one Lin value per call and the pair
cache over it. The negative-pool oracles are the package's
earlier string-set pools and sorted-string sampler, and the instance oracle
its per-patient loop, which walks each patient's positives on their own and
builds one ``InstanceRow`` per instance. The cohort-sampler oracle
is its tuple sort over one ``rng.random()`` per term. The reference functions
(set similarity, undirected distance, top-k precision/recall/F1, the pairwise
gradient and loss at raw weights, note filtering, span markup) are used only by
tests, so they live here rather than in the package.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
import threading
from collections import deque
from dataclasses import dataclass
from datetime import date, datetime
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.special import expit

from phenorank.annotations import (
    DISEASE_SOURCES,
    FEATURE_NAMES,
    AnnotationKB,
    load_annotations,
)
from phenorank.config import EvaluationConfig, PathsConfig, TrainingConfig
from phenorank.corpus import ClinicalNote, NoteChunk, Patient
from phenorank.errors import (
    ConfigError,
    DataError,
    EmbeddingError,
    IngestError,
    ParseError,
    SamplingError,
    StructuralError,
)
from phenorank.evaluation import (
    DELTA_METRIC_NAMES,
    METRIC_NAMES,
    MetricsReport,
    _report,
)
from phenorank.extraction import _ESCAPES, SPAN_CLOSE, SPAN_OPEN, Mention
from phenorank.ontology import (
    Ontology,
    OntologyStats,
    TermRecord,
    compute_stats,
    parse_obo,
    parse_ontology_json,
)
from phenorank.ranking.features import FeatureSchema, Instances, pair_index
from phenorank.ranking.metrics import ap_at_k
from phenorank.ranking.sampling import (
    EASY_MIN_LINEAGE,
    IMPLAUSIBLE_RADIUS,
    MEDIUM_RANGE,
    NEGATIVE_CLASSES,
    NegativePools,
    negative_pools,
    sample_negatives,
)
from phenorank.ranking.models import (
    KIND_BOOSTED,
    KIND_LINEAR,
    BoostedParams,
    LinearParams,
    Node,
    RankModel,
    TrainingMeta,
    _leaf_value,
    pairwise_pass,
)
from phenorank.rows import decode
from phenorank.standardization import DEFAULT_DIMENSION, IndexEntry

# -- small seven-term ontology -------------------------------------------------------
#
#            ROOT
#           /    \
#        BRANCH_A BRANCH_B
#        /   \        \
#      A_ONE A_TWO   B_ONE
#       |
#     A_LEAF
#
# plus one obsolete term that must stay invisible to every query.

ROOT = "HP:0000001"
BRANCH_A = "HP:0000002"
BRANCH_B = "HP:0000003"
A_ONE = "HP:0000011"
A_TWO = "HP:0000012"
B_ONE = "HP:0000031"
A_LEAF = "HP:0000111"
OBSOLETE = "HP:0000999"
ORPHAN = "HP:0000004"  # annotation-free sibling branch, only in the variant


def _term(tid, name, parents=(), obsolete=False, synonyms=(), definition=""):
    return TermRecord(
        id=tid,
        name=name,
        synonyms=list(synonyms),
        definition=definition,
        parents=list(parents),
        obsolete=obsolete,
    )


def small_terms() -> dict[str, TermRecord]:
    return {
        ROOT: _term(ROOT, "Clinical finding"),
        BRANCH_A: _term(BRANCH_A, "Branch alpha", [ROOT]),
        BRANCH_B: _term(BRANCH_B, "Branch beta", [ROOT]),
        A_ONE: _term(A_ONE, "Alpha one", [BRANCH_A], synonyms=["First alpha"]),
        A_TWO: _term(A_TWO, "Alpha two", [BRANCH_A]),
        B_ONE: _term(B_ONE, "Beta one", [BRANCH_B]),
        A_LEAF: _term(A_LEAF, "Alpha one leaf", [A_ONE]),
        OBSOLETE: _term(OBSOLETE, "obsolete finding", obsolete=True),
    }


def small_ontology() -> Ontology:
    return Ontology(small_terms())


def small_ontology_with_orphan() -> Ontology:
    terms = small_terms()
    terms[ORPHAN] = _term(ORPHAN, "Annotation free branch", [ROOT])
    return Ontology(terms)


SMALL_DISEASE_TSV = "\n".join(
    [
        "# term\tdisease\tsource",
        f"{A_LEAF}\td1\tomim",
        f"{A_ONE}\td2\tomim",
        f"{A_TWO}\td3\tomim",
        f"{B_ONE}\td4\tomim",
        f"{A_LEAF}\td1\torphanet",
        "",
    ]
)

SMALL_GENE_TSV = "\n".join(
    [
        f"{A_LEAF}\tg1",
        f"{A_TWO}\tg2",
        f"{B_ONE}\tg3",
        "",
    ]
)

# -- layered synthetic ontology: 1 root, 8 hubs, 32 mids, 128 leaves ------------------


def layered_ids() -> tuple[str, list[str], list[str], list[str]]:
    root = "HP:0100000"
    hubs = [f"HP:{100001 + i:07d}" for i in range(8)]
    mids = [f"HP:{101000 + i * 10 + j:07d}" for i in range(8) for j in range(4)]
    leaves = [
        f"HP:{102000 + i * 100 + j * 10 + k:07d}"
        for i in range(8)
        for j in range(4)
        for k in range(4)
    ]
    return root, hubs, mids, leaves


def layered_ontology() -> Ontology:
    root, hubs, mids, leaves = layered_ids()
    terms: dict[str, TermRecord] = {}
    counter = 0

    def add(tid, parents):
        nonlocal counter
        counter += 1
        terms[tid] = _term(
            tid,
            f"Finding {counter:04d}",
            parents,
            synonyms=[f"Observation {counter:04d}"],
            definition=f"Synthetic finding number {counter}.",
        )

    add(root, [])
    for i, hub in enumerate(hubs):
        add(hub, [root])
    for i in range(8):
        for j in range(4):
            add(mids[i * 4 + j], [hubs[i]])
    for i in range(8):
        for j in range(4):
            for k in range(4):
                add(leaves[i * 16 + j * 4 + k], [mids[i * 4 + j]])
    return Ontology(terms)


def layered_annotation_text() -> tuple[str, str]:
    """One omim disease and one gene per leaf; every second leaf in orphanet."""
    _, _, _, leaves = layered_ids()
    disease_rows = []
    gene_rows = []
    for m, leaf in enumerate(leaves, start=1):
        disease_rows.append(f"{leaf}\tD{m:04d}\tomim")
        if m % 2 == 0:
            disease_rows.append(f"{leaf}\tD{m:04d}\torphanet")
        gene_rows.append(f"{leaf}\tG{m:04d}")
    return "\n".join(disease_rows) + "\n", "\n".join(gene_rows) + "\n"


# -- small realistic vocabulary for retrieval tests -----------------------------------

MYOPIA = "HP:0000545"


def clinical_ontology() -> Ontology:
    terms = {
        "HP:0000001": _term("HP:0000001", "All"),
        "HP:0000118": _term("HP:0000118", "Phenotypic abnormality", ["HP:0000001"]),
        "HP:0000478": _term(
            "HP:0000478", "Abnormality of the eye", ["HP:0000118"]
        ),
        MYOPIA: _term(
            MYOPIA,
            "Myopia",
            ["HP:0000478"],
            synonyms=["Nearsightedness", "Near sightedness"],
            definition="An increased refractive power of the eye.",
        ),
        "HP:0000486": _term("HP:0000486", "Strabismus", ["HP:0000478"]),
        "HP:0000505": _term(
            "HP:0000505", "Visual impairment", ["HP:0000478"], synonyms=["Low vision"]
        ),
        "HP:0001250": _term(
            "HP:0001250", "Seizure", ["HP:0000118"], synonyms=["Seizures"]
        ),
        "HP:0001252": _term(
            "HP:0001252", "Hypotonia", ["HP:0000118"], synonyms=["Low muscle tone"]
        ),
        "HP:0001263": _term(
            "HP:0001263",
            "Global developmental delay",
            ["HP:0000118"],
            synonyms=["Developmental delay"],
        ),
        "HP:0004322": _term("HP:0004322", "Short stature", ["HP:0000118"]),
        "HP:0001629": _term(
            "HP:0001629", "Ventricular septal defect", ["HP:0000118"]
        ),
        "HP:0009999": _term("HP:0009999", "obsolete Ataxic gait", obsolete=True),
    }
    return Ontology(terms)


CLINICAL_DISEASE_TSV = "\n".join(
    [
        f"{MYOPIA}\tMD1\tomim",
        "HP:0000486\tMD2\tomim",
        "HP:0000505\tMD3\tomim",
        "HP:0001250\tMD4\tomim",
        "HP:0001252\tMD5\tomim",
        "HP:0001263\tMD6\tomim",
        "HP:0004322\tMD7\tomim",
        "HP:0001629\tMD8\tomim",
        f"{MYOPIA}\tRD1\torphanet",
        "HP:0001250\tRD2\torphanet",
        "",
    ]
)

CLINICAL_GENE_TSV = "\n".join(
    [
        f"{MYOPIA}\tGJA1",
        "HP:0001250\tSCN1A",
        "HP:0001252\tSCN1A",
        "",
    ]
)


# -- random rooted DAGs ---------------------------------------------------------------


def random_ontology(
    seed: int, max_terms: int = 50, obsolete: int = 0, min_terms: int = 8
) -> Ontology:
    """Random single-root DAG of ``min_terms``..``max_terms`` live terms; term
    i>0 parents into earlier terms only.

    ``obsolete`` more terms, marked obsolete, hang below one or two earlier
    terms each, live or obsolete, so no live term ever has an obsolete parent.
    """
    rng = random.Random(f"dag:{seed}")
    n = rng.randint(min_terms, max_terms)
    ids = [f"HP:{5000000 + i:07d}" for i in range(n)]
    terms = {ids[0]: _term(ids[0], "Synthetic root")}
    for i in range(1, n):
        k = 1 + (1 if rng.random() < 0.3 and i > 1 else 0)
        parents = rng.sample(ids[:i], k)
        terms[ids[i]] = _term(ids[i], f"Synthetic term {i}", parents)
    for i in range(n, n + obsolete):
        tid = f"HP:{5000000 + i:07d}"
        parents = rng.sample(list(terms), rng.randint(1, 2))
        terms[tid] = _term(tid, f"Retired term {i}", parents, obsolete=True)
    return Ontology(terms)


def random_ontology_3000() -> Ontology:
    """3,000 live terms and 40 obsolete ones: synth's HPO-like size in tier-1."""
    return random_ontology(3, max_terms=3000, min_terms=3000, obsolete=40)


def annotation_text(o: Ontology) -> tuple[str, str]:
    """Disease rows in both sources and gene rows over the live non-root terms."""
    live = [t for t in o.ids if t != o.root]
    disease = [
        f"{t}\tD{i % 9}\t{'orphanet' if i % 3 == 0 else 'omim'}" for i, t in enumerate(live)
    ]
    gene = [f"{t}\tG{i % 5}" for i, t in enumerate(live)]
    return "\n".join(disease) + "\n", "\n".join(gene) + "\n"


# -- brute-force oracles ---------------------------------------------------------------


def bf_ancestors(o: Ontology, tid: str) -> set[str]:
    out = {tid}
    stack = [tid]
    while stack:
        t = stack.pop()
        for p in o.terms[t].parents:
            if p not in out:
                out.add(p)
                stack.append(p)
    return out


def bf_hops(
    o: Ontology, sources: Iterable[str], direction: str, limit: int | None = None
) -> dict[str, int]:
    """One plain BFS per source over the live is_a edges, then the minimum."""
    ids = set(o.non_obsolete_ids())
    adj: dict[str, set[str]] = {t: set() for t in ids}
    for t in ids:
        for p in o.terms[t].parents:
            if direction in ("up", "both"):
                adj[t].add(p)
            if direction in ("down", "both"):
                adj[p].add(t)
    best: dict[str, int] = {}
    for src in sources:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            t = queue.popleft()
            for nxt in adj[t]:
                if nxt not in dist:
                    dist[nxt] = dist[t] + 1
                    queue.append(nxt)
        for t, d in dist.items():
            if (limit is None or d <= limit) and d < best.get(t, d + 1):
                best[t] = d
    return best


def bf_undirected_distance(o: Ontology, a: str, b: str) -> int | None:
    ids = set(o.non_obsolete_ids())
    adj: dict[str, set[str]] = {t: set() for t in ids}
    for t in ids:
        for p in o.terms[t].parents:
            if p in ids:
                adj[t].add(p)
                adj[p].add(t)
    dist = {a: 0}
    queue = deque([a])
    while queue:
        t = queue.popleft()
        if t == b:
            return dist[t]
        for nxt in adj[t]:
            if nxt not in dist:
                dist[nxt] = dist[t] + 1
                queue.append(nxt)
    return None


def ic_by_term(o: Ontology, s: OntologyStats) -> dict[str, float]:
    """``s.ic`` keyed by term id."""
    return dict(zip(o.ids, s.ic.tolist()))


def bf_mica(o: Ontology, ic: dict[str, float], a: str, b: str) -> str:
    common = bf_ancestors(o, a) & bf_ancestors(o, b)
    best = None
    for t in sorted(common):
        if best is None or ic[t] > ic[best]:
            best = t
    return best


def bf_lin(o: Ontology, ic: dict[str, float], a: str, b: str) -> float:
    m = bf_mica(o, a=a, b=b, ic=ic)
    denom = ic[a] + ic[b]
    if denom == 0.0:
        return 1.0 if a == b else 0.0
    return abs(2.0 * ic[m] / denom)


def bf_bma(o: Ontology, ic: dict[str, float], left: set[str], right: set[str]) -> float:
    fwd = sum(max(bf_lin(o, ic, a, b) for b in right) for a in left) / len(left)
    bwd = sum(max(bf_lin(o, ic, a, b) for a in left) for b in right) / len(right)
    return (fwd + bwd) / 2.0


# -- similarity oracles: the package's earlier string path ----------------------------


def ancestors(o: Ontology, tid: str, include_self: bool = True) -> frozenset[str]:
    """``tid``'s closure row as a set of term ids (self included by default)."""
    row, _ = o.closure_rows(o.dense_ids([tid]))
    anc = frozenset(o.ids[j] for j in row.tolist())
    return anc if include_self else anc - {tid}


def mica(o: Ontology, s: OntologyStats, a: str, b: str) -> str:
    """Most informative common ancestor of a and b (self counts as ancestor).

    Ties on IC resolve to the lexicographically smallest term id.
    """
    common = sorted(ancestors(o, a) & ancestors(o, b))
    if not common:
        raise StructuralError(f"{a} and {b} share no ancestor")
    ic = s.ic[o.dense_ids(common)].tolist()
    return min(zip(common, ic), key=lambda pair: (-pair[1], pair[0]))[0]


def lin_pair(o: Ontology, s: OntologyStats, a: str, b: str) -> float:
    """Lin similarity of one pair through ``mica``, with the zero-denominator
    rule: identity maps to 1 and distinct terms to 0."""
    ic_a, ic_b = s.ic[o.dense_ids([a, b])].tolist()
    denom = ic_a + ic_b
    if denom == 0.0:
        return 1.0 if a == b else 0.0
    return abs(2.0 * s.ic[o.dense_ids([mica(o, s, a, b)])].item() / denom)


class LinCache:
    """Memoized pairwise ``lin_pair``; one instance per (ontology, stats)."""

    def __init__(self, o: Ontology, s: OntologyStats):
        self._o = o
        self._s = s
        self._pairs: dict[tuple[str, str], float] = {}

    def lin(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        val = self._pairs.get(key)
        if val is None:
            val = lin_pair(self._o, self._s, a, b)
            self._pairs[key] = val
        return val

    def matrix(self, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
        out = np.empty((len(rows), len(cols)), dtype=np.float64)
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                out[i, j] = self.lin(a, b)
        return out


# -- annotation oracles: the package's earlier per-row reader and dict KB -------------


@dataclass
class OracleKB:
    """The package's earlier KB: direct annotations per source and term, and
    per term for genes, as frozensets of document names."""

    disease_annots: dict[str, dict[str, frozenset]]
    gene_annots: dict[str, frozenset]
    disease_totals: dict[str, int]
    total_genes: int


def oracle_tsv_rows(text: str, kind: str, columns: int):
    """The line number and stripped columns of each row of a ``kind``
    annotation file, one row at a time, skipping blank lines and ``#``
    comments; a row with the wrong column count or an empty column is a
    ParseError naming its line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [part.strip() for part in line.split("\t")]
        if len(parts) != columns:
            raise ParseError(f"{kind} annotations line {lineno}: expected {columns} columns")
        if not all(parts):
            raise ParseError(f"{kind} annotations line {lineno}: empty column")
        yield lineno, parts


def oracle_load_annotations(disease_text: str, gene_text: str, o: Ontology) -> OracleKB:
    """The package's earlier row-by-row ``load_annotations``: the same errors,
    and the direct annotations as dicts of sets."""
    disease_direct: dict[str, dict[str, set[str]]] = {s: {} for s in DISEASE_SOURCES}
    gene_direct: dict[str, set[str]] = {}
    bad_rows: list[str] = []
    for lineno, (tid, disease, source) in oracle_tsv_rows(disease_text, "disease", 3):
        if source not in DISEASE_SOURCES:
            bad_rows.append(f"line {lineno}: unknown source {source!r}")
            continue
        rec = o.terms.get(tid)
        if rec is None or rec.obsolete:
            bad_rows.append(f"line {lineno}: unresolvable term {tid}")
            continue
        disease_direct[source].setdefault(tid, set()).add(disease)
    for lineno, (tid, gene) in oracle_tsv_rows(gene_text, "gene", 2):
        rec = o.terms.get(tid)
        if rec is None or rec.obsolete:
            bad_rows.append(f"gene line {lineno}: unresolvable term {tid}")
            continue
        gene_direct.setdefault(tid, set()).add(gene)
    if bad_rows:
        raise IngestError("rejected annotation rows: " + "; ".join(bad_rows))
    return OracleKB(
        disease_annots={
            s: {t: frozenset(d) for t, d in per_term.items()}
            for s, per_term in disease_direct.items()
        },
        gene_annots={t: frozenset(g) for t, g in gene_direct.items()},
        disease_totals={
            s: len({d for docs in per_term.values() for d in docs})
            for s, per_term in disease_direct.items()
        },
        total_genes=len({g for gs in gene_direct.values() for g in gs}),
    )


def dict_propagate_counts(o: Ontology, direct) -> np.ndarray:
    """The package's earlier ``propagate_counts``, over a dict of term id ->
    documents: one sorted pass of (document, ancestor) keys per call."""
    docs = [d for annotated in direct.values() for d in annotated]
    doc_index = {d: i for i, d in enumerate(dict.fromkeys(docs))}
    per_term = [len(annotated) for annotated in direct.values()]
    terms = np.repeat(o.dense_ids(direct), per_term)
    n = len(o.ids)
    ancestors, lens = o.closure_rows(terms)
    keys = np.repeat(np.array([doc_index[d] for d in docs], dtype=np.int64) * n, lens)
    keys += ancestors
    return np.bincount(np.unique(keys) % n, minlength=n)


def oracle_compute_stats(o: Ontology, kb: OracleKB) -> OntologyStats:
    """The package's earlier ``compute_stats``: the sources pooled into one
    dict, then one propagation."""
    pooled: dict[str, set[str]] = {}
    for per_term in kb.disease_annots.values():
        for tid, diseases in per_term.items():
            pooled.setdefault(tid, set()).update(diseases)
    total = len(set().union(*pooled.values()))
    if total == 0:
        raise DataError("annotation KB holds no diseases; IC is undefined")
    count = dict_propagate_counts(o, pooled)
    ceiling = -math.log(1.0 / (total + 1))
    ic = np.array(
        [-math.log(c / total) if c > 0 else ceiling for c in count.tolist()],
        dtype=np.float64,
    )
    return OntologyStats(annot_count=count, total_diseases=total, ic=ic)


def kb_dicts(o: Ontology, kb: AnnotationKB) -> OracleKB:
    """The rows of an array KB in the dict shape; each document is named by
    its index."""
    disease: dict[str, dict[str, set[int]]] = {s: {} for s in DISEASE_SOURCES}
    rows = zip(kb.disease_terms.tolist(), kb.disease_docs.tolist(), kb.disease_sources.tolist())
    for t, d, k in rows:
        disease[DISEASE_SOURCES[k]].setdefault(o.ids[t], set()).add(d)
    genes: dict[str, set[int]] = {}
    for t, g in zip(kb.gene_terms.tolist(), kb.gene_docs.tolist()):
        genes.setdefault(o.ids[t], set()).add(g)
    return OracleKB(
        disease_annots={
            s: {t: frozenset(d) for t, d in per_term.items()} for s, per_term in disease.items()
        },
        gene_annots={t: frozenset(g) for t, g in genes.items()},
        disease_totals=dict(kb.disease_totals),
        total_genes=kb.total_genes,
    )


def kb_from_dicts(
    o: Ontology, disease_annots: dict, gene_annots: dict | None = None
) -> AnnotationKB:
    """The array KB of direct annotations given as source -> term -> documents
    (and term -> genes), written as TSV rows and read by ``load_annotations``."""
    disease = [
        f"{t}\t{d}\t{source}"
        for source, per_term in disease_annots.items()
        for t, docs in per_term.items()
        for d in sorted(docs)
    ]
    genes = [f"{t}\t{g}" for t, gs in (gene_annots or {}).items() for g in sorted(gs)]
    return load_annotations("\n".join(disease), "\n".join(genes), o)


def annotation_rows(o: Ontology, direct: dict) -> tuple[np.ndarray, np.ndarray]:
    """``propagate_counts``'s (terms, docs) arrays of term id -> documents:
    one row per (term, document), each document numbered once."""
    index: dict = {}
    pairs = [(o.dense[t], index.setdefault(d, len(index))) for t, ds in direct.items() for d in ds]
    terms, docs = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return terms, docs


def bf_propagated_counts(o: Ontology, direct) -> dict[str, int]:
    """Distinct documents annotated to each term or a descendant (reached only)."""
    reached: dict[str, set[str]] = {}
    for tid, docs in direct.items():
        for a in bf_ancestors(o, tid):
            reached.setdefault(a, set()).update(docs)
    return {t: len(docs) for t, docs in reached.items()}


def oracle_idf(kb: OracleKB, propagated: dict, source: str, term_id: str) -> float:
    """Per-source IDF of one term, with add-one smoothing for unreached terms."""
    total = kb.disease_totals[source]
    if total == 0:
        raise DataError(f"disease source {source!r} is empty; idf undefined")
    d = propagated[source].get(term_id, 0)
    if d == 0:
        return -math.log(1.0 / (total + 1.0))
    return -math.log(d / total)


def oracle_feature_table(o: Ontology, s: OntologyStats, kb: OracleKB) -> np.ndarray:
    """The feature table built one term at a time from eagerly propagated
    counts, in Python floats; ``kb_dicts`` reads an array KB into ``kb``."""
    propagated = {
        src: bf_propagated_counts(o, kb.disease_annots[src]) for src in DISEASE_SOURCES
    }
    genes = bf_propagated_counts(o, kb.gene_annots)
    rows = []
    ic = ic_by_term(o, s)
    disease_counts = dict(zip(o.ids, s.annot_count.tolist()))
    for tid in o.non_obsolete_ids():
        gene_count = genes.get(tid, 0)
        disease_count = disease_counts[tid]
        row = {
            "ic": ic[tid],
            "gene_count": float(gene_count),
            "gene_fraction": gene_count / kb.total_genes if kb.total_genes else 0.0,
            "disease_count": float(disease_count),
            "disease_fraction": disease_count / s.total_diseases,
            "idf_omim": oracle_idf(kb, propagated, "omim", tid),
            "idf_orphanet": oracle_idf(kb, propagated, "orphanet", tid),
        }
        rows.append([row[name] for name in FEATURE_NAMES])
    return np.array(rows, dtype=np.float64).reshape(-1, len(FEATURE_NAMES))


def setwise_negative_pools(
    o: Ontology, positives: Iterable[str]
) -> dict[str, frozenset[str]]:
    """The package's earlier string-set pools: every pool a frozenset of ids,
    the implausible one all live ids minus the related terms and other pools."""
    pos = sorted(set(positives))
    if not pos:
        raise DataError("negative pools need at least one positive term")
    for p in pos:
        o.require(p)
    pos_set = set(pos)
    children: dict[str, list[str]] = {t: [] for t in o.ids}
    for t in o.ids:
        for p in o.terms[t].parents:
            children[p].append(t)
    difficult: set[str] = set()
    medium: set[str] = set()
    easy: set[str] = set()
    lo, hi = MEDIUM_RANGE
    for p in pos:
        parents = set(o.terms[p].parents)
        siblings = {c for par in parents for c in children[par]} - {p}
        grandparents = {g for par in parents for g in o.terms[par].parents}
        cousin_cands = {
            c for g in grandparents for mid in children[g] for c in children[mid]
        } - {p}
        cousins = {c for c in cousin_cands if not (set(o.terms[c].parents) & parents)}
        difficult |= siblings | cousins
        up = bf_hops(o, [p], "up")
        down = bf_hops(o, [p], "down")
        lineal = up.keys() | down.keys()
        for t, d in bf_hops(o, [p], "both", hi).items():
            if d >= lo and t not in lineal:
                medium.add(t)
        easy |= {t for t, d in up.items() if d >= EASY_MIN_LINEAGE}
        easy |= {t for t, d in down.items() if d >= EASY_MIN_LINEAGE}
    near_positives = bf_hops(o, pos, "up", IMPLAUSIBLE_RADIUS)
    related = bf_hops(o, near_positives, "down", IMPLAUSIBLE_RADIUS)
    implausible = set(o.non_obsolete_ids()).difference(related)
    difficult -= pos_set
    medium = medium - pos_set - difficult
    easy = easy - pos_set - difficult - medium
    implausible = implausible - difficult - medium - easy
    return {
        "difficult": frozenset(difficult),
        "medium": frozenset(medium),
        "easy": frozenset(easy),
        "implausible": frozenset(implausible),
    }


def setwise_sample_negatives(
    pools: dict[str, frozenset[str]],
    positives: Iterable[str],
    per_class_per_positive: int = 1,
    seed: int | str = 0,
) -> list[tuple[str, str]]:
    """The package's earlier sampler: each pool sorted as strings, then sampled."""
    pos = sorted(set(positives))
    if all(not pools[c] for c in NEGATIVE_CLASSES):
        raise SamplingError("all negative pools are empty")
    rng = random.Random(f"{seed}")
    want = per_class_per_positive * len(pos)
    drawn: list[tuple[str, str]] = []
    for cls in NEGATIVE_CLASSES:
        pool = sorted(pools[cls])
        take = min(want, len(pool))
        if take:
            drawn.extend((t, cls) for t in rng.sample(pool, take))
    return drawn


def tuple_sort_weighted_sample(
    rng, items: list[str], weights: dict[str, float], count: int
) -> list[str]:
    """The package's earlier cohort sampler: one ``rng.random()`` per item, in
    ``items`` order, exponential keys by Python's ``**``, and a sort of
    ``(-key, item)`` tuples."""
    keyed = [(-(rng.random() ** (1.0 / weights[t])), t) for t in items]
    keyed.sort()
    return [t for _, t in keyed[:count]]


@dataclass
class InstanceRow:
    """One (patient, term) instance as a row: the package's earlier layout,
    which the row-wise oracles read."""

    patient_id: str
    term_id: str
    label: int
    negative_class: str  # "none" for positives
    features: np.ndarray


def instance_rows(instances: Instances) -> list[InstanceRow]:
    """The rows of ``instances``, each feature row a view of ``instances.X``."""
    columns = (
        instances.patient_ids.tolist(),
        instances.term_ids.tolist(),
        instances.labels.tolist(),
        instances.classes.tolist(),
        instances.X,
    )
    return [InstanceRow(*row) for row in zip(*columns)]


def instances_of(rows: Sequence[InstanceRow]) -> Instances:
    """The columns of ``rows``, features stacked row by row."""
    return Instances(
        X=np.vstack([r.features for r in rows]),
        patient_ids=np.array([r.patient_id for r in rows], dtype=str),
        term_ids=np.array([r.term_id for r in rows], dtype=str),
        labels=np.array([r.label for r in rows], dtype=np.int64),
        classes=np.array([r.negative_class for r in rows], dtype=str),
    )


def instance_columns(instances: Instances) -> tuple:
    """Every column of ``instances``, features as their bytes."""
    return (
        instances.X.shape,
        instances.X.tobytes(),
        instances.patient_ids.tolist(),
        instances.term_ids.tolist(),
        instances.labels.tolist(),
        instances.classes.tolist(),
    )


def _schema_stub(dim: int) -> FeatureSchema:
    """A schema of ``dim`` placeholder feature names, for instances that come
    from no cohort."""
    return FeatureSchema(
        symptom_categories=(),
        names=tuple(f"f{i}" for i in range(dim)),
    )


def loop_build_instances(
    cohort: Sequence[Patient],
    o: Ontology,
    table: np.ndarray,
    schema: FeatureSchema,
    seed: int,
    per_class_per_positive: int = 1,
) -> list[InstanceRow]:
    """The package's earlier ``build_instances``: one ``negative_pools`` call
    per patient, walking that patient's positives alone, and one row object
    per instance."""
    instances: list[InstanceRow] = []
    for patient in sorted(cohort, key=lambda p: p.patient_id):
        positives = sorted(patient.curated_terms)
        if not positives:
            raise DataError(f"patient {patient.patient_id} has no curated terms")
        pools = negative_pools(o, positives)
        negatives = sample_negatives(
            pools,
            positives,
            per_class_per_positive=per_class_per_positive,
            seed=f"{seed}:negatives:{patient.patient_id}",
        )
        labelled = [(tid, 1, "none") for tid in positives]
        labelled += [(tid, 0, cls) for tid, cls in negatives]
        block = schema.matrix(patient, table[o.dense_ids(t for t, _, _ in labelled)])
        instances.extend(
            InstanceRow(patient.patient_id, tid, label, cls, row)
            for (tid, label, cls), row in zip(labelled, block)
        )
    return instances


def bf_negative_pools(
    o: Ontology,
    positives: set[str],
    medium_range=(3, 5),
    easy_min_lineage=3,
    implausible_radius=2,
) -> dict[str, set[str]]:
    ids = set(o.non_obsolete_ids())
    children: dict[str, set[str]] = {t: set() for t in ids}
    for t in ids:
        for p in o.terms[t].parents:
            children[p].add(t)

    def up_within(t, radius):
        out = {t}
        frontier = {t}
        for _ in range(radius):
            frontier = {
                p for x in frontier for p in o.terms[x].parents if p not in out
            }
            out |= frontier
        return out

    def min_hops(t, neighbors):
        hops = {t: 0}
        queue = deque([t])
        while queue:
            x = queue.popleft()
            for nxt in neighbors(x):
                if nxt not in hops:
                    hops[nxt] = hops[x] + 1
                    queue.append(nxt)
        return hops

    difficult: set[str] = set()
    medium: set[str] = set()
    easy: set[str] = set()
    lo, hi = medium_range
    for p in positives:
        parents = set(o.terms[p].parents)
        for par in parents:
            difficult |= children[par] - {p}
        grandparents = {g for par in parents for g in o.terms[par].parents}
        for g in grandparents:
            for mid in children[g]:
                for c in children[mid]:
                    if c != p and not (set(o.terms[c].parents) & parents):
                        difficult.add(c)
        up = min_hops(p, lambda x: o.terms[x].parents)
        down = min_hops(p, lambda x: children[x])
        lineal = set(up) | set(down)
        both = min_hops(p, lambda x: set(o.terms[x].parents) | children[x])
        for t, d in both.items():
            if lo <= d <= hi and t not in lineal:
                medium.add(t)
        easy |= {t for t, d in up.items() if d >= easy_min_lineage}
        easy |= {t for t, d in down.items() if d >= easy_min_lineage}

    near = set()
    for p in positives:
        near |= up_within(p, implausible_radius)
    implausible = {
        t
        for t in ids
        if t not in positives and not (up_within(t, implausible_radius) & near)
    }
    difficult -= positives
    medium = medium - positives - difficult
    easy = easy - positives - difficult - medium
    implausible = implausible - difficult - medium - easy
    return {
        "difficult": difficult,
        "medium": medium,
        "easy": easy,
        "implausible": implausible,
    }


def bf_ap_at_k(relevance: list[int], total_relevant: int, k: int) -> float:
    norm = min(total_relevant, k)
    if norm == 0:
        return 0.0
    hits = 0
    score = 0.0
    for i, rel in enumerate(relevance[:k], start=1):
        if rel:
            hits += 1
            score += hits / i
    return score / norm


def make_chunk(text: str, chunk_id: str = "N1#c000", patient_id: str = "P0001") -> NoteChunk:
    return NoteChunk(
        chunk_id=chunk_id,
        note_id="N1",
        patient_id=patient_id,
        text=text,
        start_offset=0,
        end_offset=len(text),
    )


def log_ic(count: int, total: int) -> float:
    if count == 0:
        return -math.log(1.0 / (total + 1))
    return -math.log(count / total)


def separable_instances(
    n_patients: int,
    pos_per: int = 3,
    neg_per: int = 5,
    dim: int = 6,
    seed: int = 0,
):
    """Instances whose first feature alone separates positives from negatives."""
    rng = np.random.default_rng([seed, 4242])
    out = []
    counter = 0
    for i in range(n_patients):
        pid = f"P{i + 1:04d}"
        for label, count, lo, hi, cls in (
            (1, pos_per, 1.0, 2.0, "none"),
            (0, neg_per, -2.0, -1.0, "difficult"),
        ):
            for _ in range(count):
                counter += 1
                x = rng.normal(0.0, 0.1, dim)
                x[0] = rng.uniform(lo, hi)
                out.append(InstanceRow(pid, f"HP:{9000000 + counter:07d}", label, cls, x))
    return instances_of(out)


def ontology_to_json(o: Ontology) -> str:
    """Serialize an ontology into the JSON list form the package loads."""
    import json

    rows = []
    for tid in sorted(o.terms):
        rec = o.terms[tid]
        rows.append(
            {
                "id": rec.id,
                "name": rec.name,
                "synonyms": list(rec.synonyms),
                "def": rec.definition,
                "is_a": list(rec.parents),
                "is_obsolete": rec.obsolete,
            }
        )
    return json.dumps(rows, indent=1)


def parse_inputs(paths: PathsConfig) -> tuple[Ontology, AnnotationKB, OntologyStats]:
    """A fresh parse of the input files ``paths`` names, as ingest parses them."""
    ontology_text = Path(paths.ontology).read_text(encoding="utf-8")
    if paths.ontology.endswith(".json"):
        o = parse_ontology_json(ontology_text)
    else:
        o = parse_obo(ontology_text)
    kb = load_annotations(
        Path(paths.disease_annotations).read_text(encoding="utf-8"),
        Path(paths.gene_annotations).read_text(encoding="utf-8"),
        o,
    )
    return o, kb, compute_stats(o, kb)


def file_digest(path: str) -> str:
    """The sha256 of the bytes of file ``path``."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- reference functions that no pipeline step calls ----------------------------------


def pool_terms(pools: NegativePools, cls: str) -> frozenset[str]:
    """The term ids of one class of a patient's negative pools."""
    return frozenset(pools.ids[i] for i in pools.dense[cls].tolist())


def pools_as_dict(pools: NegativePools) -> dict[str, frozenset[str]]:
    return {cls: pool_terms(pools, cls) for cls in NEGATIVE_CLASSES}


def report_value(report: MetricsReport, k: int, metric: str) -> tuple[float, float, float]:
    """The point estimate and interval of ``metric`` at cutoff ``k``."""
    for row in report.rows:
        if row["k"] == k:
            m = row["metrics"][metric]
            return m["point"], m["lo"], m["hi"]
    raise KeyError(f"no row for k={k}")


def topk_prf(
    ranked: Sequence[str], gold: set[str], k: int
) -> tuple[float, float, float]:
    """Precision, recall, F1 over the first min(k, len) ranked terms.

    An empty ranked list reports zeros. F1 is 0 when both precision and
    recall are 0.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if not gold:
        raise DataError("gold set must be non-empty")
    if not ranked:
        return 0.0, 0.0, 0.0
    top = ranked[: min(k, len(ranked))]
    hits = len(set(top) & gold)
    p = hits / len(top)
    r = hits / len(gold)
    f1 = 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)
    return p, r, f1


def annotate_mentions(text: str, spans: Iterable[tuple[int, int]]) -> str:
    """Insert span tags around non-overlapping (start, end) intervals."""
    out = []
    last = 0
    for start, end in sorted(spans):
        if start < last or end > len(text) or start >= end:
            raise ValueError(f"bad span ({start}, {end})")
        out.append(text[last:start])
        out.append(SPAN_OPEN)
        out.append(text[start:end])
        out.append(SPAN_CLOSE)
        last = end
    out.append(text[last:])
    return "".join(out)


def unescape_span_literals(text: str) -> str:
    """Inverse of ``extraction.escape_span_literals``."""
    for raw, escaped in _ESCAPES:
        text = text.replace(escaped, raw)
    return text


def set_similarity(
    o: Ontology, s: OntologyStats, predicted: Iterable[str], gold: Iterable[str]
) -> float:
    """Symmetric best-match average of Lin similarity between two term sets."""
    pred = sorted(set(predicted))
    gd = sorted(set(gold))
    if not pred or not gd:
        raise DataError("set similarity needs two non-empty term sets")
    row = sum(max(lin_pair(o, s, p, g) for g in gd) for p in pred) / len(pred)
    col = sum(max(lin_pair(o, s, p, g) for p in pred) for g in gd) / len(gd)
    return (row + col) / 2.0


def undirected_distances(o: Ontology, sources: Sequence[str]) -> list[dict[str, int]]:
    """Per source, the shortest path length to every term, edges undirected:
    one walk per source, all in one ``Ontology.hops`` call."""
    start = o.dense_ids(sources)
    n = len(o.ids)
    reached, hops = o.hops(np.arange(len(start)) * n + start, "both")
    out: list[dict[str, int]] = [{} for _ in sources]
    for key, d in zip(reached.tolist(), hops.tolist()):
        out[key // n][o.ids[key % n]] = d
    return out


def pairwise_linear_gradient(instances, weights, l2: float = 0.0) -> np.ndarray:
    """Analytic gradient of the pairwise loss at ``weights`` (raw features).

    Built from the trainer's own pair index and pass, so the finite-difference
    checks exercise exactly what the trainer uses.
    """
    X = instances.X
    scores = X @ np.asarray(weights, dtype=np.float64)
    g_s, _ = pairwise_pass(scores, pair_index(instances), hessian=False)
    return X.T @ g_s + 2.0 * l2 * np.asarray(weights, dtype=np.float64)


def pairwise_loss_at(instances, weights, l2: float = 0.0) -> float:
    """The L2-regularized pairwise loss at ``weights`` (raw features), from
    the per-patient oracle, so the finite-difference checks compare the
    trainer's gradient with a loss it does not compute."""
    w = np.asarray(weights, dtype=np.float64)
    return loop_pairwise_loss(instances.X @ w, loop_group_pairs(instances)) + l2 * float(w @ w)


def _parse_note_date(value: str) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(value).date()
    except ValueError as e:
        raise DataError(f"bad note timestamp {value!r}") from e


def filter_notes(
    notes: list[ClinicalNote],
    exclude_patterns: list[str],
    cutoffs: dict[str, str],
) -> list[ClinicalNote]:
    """Drop notes at/after their patient's diagnosis cutoff and notes whose
    type or text matches any exclude pattern. Order is otherwise preserved."""
    compiled = []
    for pat in exclude_patterns:
        try:
            compiled.append(re.compile(pat))
        except re.error as e:
            raise ConfigError(f"bad exclude pattern {pat!r}: {e}") from e
    cutoff_dates = {pid: _parse_note_date(v) for pid, v in cutoffs.items()}
    kept = []
    for note in notes:
        limit = cutoff_dates.get(note.patient_id)
        if limit is not None and _parse_note_date(note.timestamp) >= limit:
            continue
        if any(p.search(note.note_type) or p.search(note.text) for p in compiled):
            continue
        kept.append(note)
    return kept


# -- text-layer oracles: the regex, scalar-hash and one-query implementations ----------


def gazetteer_lexemes(o: Ontology) -> set[str]:
    entries: set[str] = set()
    for tid in o.non_obsolete_ids():
        rec = o.terms[tid]
        entries.update(x for x in [rec.name, *rec.synonyms] if x.strip())
    return entries


class RegexGazetteer:
    """One alternation of every lexeme, longest first, under re.IGNORECASE."""

    def __init__(self, o: Ontology):
        ordered = sorted(gazetteer_lexemes(o), key=lambda s: (-len(s), s))
        self._pattern = (
            re.compile(
                r"(?<!\w)(?:" + "|".join(re.escape(e) for e in ordered) + r")(?!\w)",
                re.IGNORECASE,
            )
            if ordered
            else None
        )

    def extract(self, chunk: NoteChunk) -> list[Mention]:
        if self._pattern is None:
            return []
        return [
            Mention(m.group(), chunk.chunk_id, m.start(), m.end(), "gazetteer")
            for m in self._pattern.finditer(chunk.text)
        ]


class TrieGazetteer:
    """The package's earlier scanner: a character trie over the lexemes folded
    to ``re.IGNORECASE`` class keys, walked from every start not after a word
    character, keeping the last complete lexeme followed by a non-word
    character."""

    _END = ""  # trie key marking a complete lexeme; never a character

    def __init__(self, o: Ontology):
        self._keys = ""  # the first lexeme character of each class
        self._fold: dict[int, str] = {}  # code point -> class key, where it differs
        self._is_word: dict[str, bool] = {}  # every character classified so far
        self._lock = threading.Lock()
        entries = gazetteer_lexemes(o)
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
            node[self._END] = True

    def _class_of(self, c: str) -> str | None:
        match = re.compile(re.escape(c), re.IGNORECASE).search(self._keys)
        return None if match is None else match.group()

    def _learn(self, chars: Iterable[str]) -> None:
        new = set(chars).difference(self._is_word)
        if not new:
            return
        with self._lock:
            for c in new:
                key = self._class_of(c)
                if key is not None and key != c:
                    self._fold[ord(c)] = key
                self._is_word[c] = re.match(r"\w", c) is not None

    def extract(self, chunk: NoteChunk) -> list[Mention]:
        if not self._root:
            return []
        text = chunk.text
        self._learn(text)
        folded = text.translate(self._fold)
        n = len(text)
        out: list[Mention] = []
        resume = 0
        for start in re.finditer(r"(?<!\w)", text):
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
                if self._END in node and (j == n or not self._is_word[text[j]]):
                    end = j
            if end > i:
                out.append(Mention(text[i:end], chunk.chunk_id, i, end, "gazetteer"))
                resume = end
        return out


def fnv1a(data: bytes) -> int:
    h = 0x811C9DC5
    for b in data:
        h = ((h ^ b) * 0x01000193) & 0xFFFFFFFF
    return h


def scalar_embed(text: str, dimension: int = DEFAULT_DIMENSION) -> np.ndarray:
    collapsed = re.sub(r"[^a-z0-9]+", " ", text.lower()).strip()
    if not collapsed:
        raise EmbeddingError(f"text {text!r} is empty after normalization")
    raw = f" {collapsed} ".encode("utf-8")
    vec = np.zeros(dimension, dtype=np.float64)
    for n in (3, 4, 5):
        for i in range(len(raw) - n + 1):
            vec[fnv1a(raw[i : i + n]) % dimension] += 1.0
    return vec / np.linalg.norm(vec)


@dataclass
class EntrywiseIndex:
    """The oracle index: scipy's CSR of the entry vectors, and their layout."""

    entries: list[IndexEntry]
    matrix: sparse.csr_matrix
    term_ids: list[str]
    term_starts: np.ndarray


def entrywise_index(o: Ontology) -> EntrywiseIndex:
    """The index built entry by entry from ``scalar_embed`` through COO lists."""
    entries, term_ids, term_starts = [], [], []
    rows, cols, vals = [], [], []
    for tid in o.non_obsolete_ids():
        rec = o.terms[tid]
        term_ids.append(tid)
        term_starts.append(len(entries))
        for text in [rec.name, *rec.synonyms]:
            vec = scalar_embed(text)
            nz = np.nonzero(vec)[0]
            rows.extend([len(entries)] * len(nz))
            cols.extend(nz.tolist())
            vals.extend(vec[nz].tolist())
            entries.append(IndexEntry(term_id=tid, text=text))
    matrix = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(entries), DEFAULT_DIMENSION)
    )
    return EntrywiseIndex(
        entries, matrix, term_ids, np.asarray(term_starts, dtype=np.int64)
    )


def dense_retrieve(oracle: EntrywiseIndex, query: str, k: int) -> list[tuple[str, float]]:
    """One query: a dense matrix-vector product and a full stable argsort."""
    scores = oracle.matrix.dot(scalar_embed(query))
    per_term = np.clip(np.maximum.reduceat(scores, oracle.term_starts), -1.0, 1.0)
    order = np.argsort(-per_term, kind="stable")[:k]
    return [(oracle.term_ids[i], float(per_term[i])) for i in order]


# -- trainer oracles: one patient and one cut at a time ------------------------------
#
# The package's earlier trainers: the pairwise loss, gradient and hessian loop
# over patients, the tree builder tries every cut in a Python loop, and MAP@k
# regroups the patients on every call. The package's
# whole-array trainers must produce byte-identical models.


def loop_group_pairs(instances: Instances) -> list[tuple[np.ndarray, np.ndarray]]:
    by_patient: dict[str, tuple[list[int], list[int]]] = {}
    for i, inst in enumerate(instance_rows(instances)):
        pos, neg = by_patient.setdefault(inst.patient_id, ([], []))
        (pos if inst.label else neg).append(i)
    return [
        (np.asarray(pos, dtype=np.int64), np.asarray(neg, dtype=np.int64))
        for pos, neg in (by_patient[p] for p in sorted(by_patient))
        if pos and neg
    ]


def loop_pairwise_loss(scores: np.ndarray, groups) -> float:
    loss = 0.0
    for pos, neg in groups:
        margins = scores[pos][:, None] - scores[neg][None, :]
        loss += float(np.logaddexp(0.0, -margins).sum())
    return loss


def loop_pairwise_grad_hess(scores: np.ndarray, groups) -> tuple[np.ndarray, np.ndarray]:
    g = np.zeros_like(scores)
    h = np.zeros_like(scores)
    for pos, neg in groups:
        margins = scores[pos][:, None] - scores[neg][None, :]
        sig = expit(-margins)
        g[pos] -= sig.sum(axis=1)
        g[neg] += sig.sum(axis=0)
        curv = sig * (1.0 - sig)
        h[pos] += curv.sum(axis=1)
        h[neg] += curv.sum(axis=0)
    return g, h


def scalar_cut_tree(X, g, h, idx, depth: int, cfg: TrainingConfig) -> dict:
    g_sum = float(g[idx].sum())
    h_sum = float(h[idx].sum())
    min_leaf, l2 = cfg.boosted_min_leaf, cfg.boosted_l2
    if depth >= cfg.boosted_max_depth or len(idx) < 2 * min_leaf:
        return {"leaf": _leaf_value(g_sum, h_sum, cfg.boosted_l1, l2)}
    parent_gain = g_sum * g_sum / (h_sum + l2)
    best = None  # (gain, feature, threshold, left_idx, right_idx)
    for f in range(X.shape[1]):
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sg = np.cumsum(g[idx][order])
        sh = np.cumsum(h[idx][order])
        for cut in range(min_leaf - 1, len(idx) - min_leaf):
            if sv[cut] == sv[cut + 1]:
                continue
            gl, hl = sg[cut], sh[cut]
            gr, hr = g_sum - gl, h_sum - hl
            gain = gl * gl / (hl + l2) + gr * gr / (hr + l2) - parent_gain
            if gain > 1e-12 and (best is None or gain > best[0]):
                threshold = (sv[cut] + sv[cut + 1]) / 2.0
                best = (gain, f, threshold, order[: cut + 1], order[cut + 1 :])
    if best is None:
        return {"leaf": _leaf_value(g_sum, h_sum, cfg.boosted_l1, l2)}
    _, f, threshold, left_local, right_local = best
    return {
        "feature": f,
        "threshold": float(threshold),
        "left": scalar_cut_tree(X, g, h, idx[left_local], depth + 1, cfg),
        "right": scalar_cut_tree(X, g, h, idx[right_local], depth + 1, cfg),
    }


def dict_tree_predict(tree: dict, X: np.ndarray) -> np.ndarray:
    """The predictions of a tree of ``scalar_cut_tree``'s JSON-shaped nodes."""
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(tree, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if "leaf" in node:
            out[idx] = node["leaf"]
            continue
        mask = X[idx, node["feature"]] <= node["threshold"]
        stack.append((node["left"], idx[mask]))
        stack.append((node["right"], idx[~mask]))
    return out


def loop_map_at_k(scores: np.ndarray, instances: Instances, k: int = 30) -> float:
    instances = instance_rows(instances)
    groups: dict[str, list[int]] = {}
    for i, inst in enumerate(instances):
        groups.setdefault(inst.patient_id, []).append(i)
    total = 0.0
    for pid in sorted(groups):
        idxs = groups[pid]
        order = sorted(idxs, key=lambda i: (-scores[i], instances[i].term_id))
        rels = [instances[i].label for i in order]
        r = sum(instances[i].label for i in idxs)
        total += ap_at_k(rels, r, k)
    return total / len(groups)


def loop_train_linear(
    instances: Instances, cfg: TrainingConfig = TrainingConfig()
) -> RankModel:
    X = np.vstack([inst.features for inst in instance_rows(instances)])
    groups = loop_group_pairs(instances)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Xs = (X - mean) / scale
    w = np.zeros(X.shape[1], dtype=np.float64)
    for _ in range(cfg.linear_epochs):
        g_s, _ = loop_pairwise_grad_hess(Xs @ w, groups)
        grad = Xs.T @ g_s + 2.0 * cfg.linear_l2 * w
        w -= cfg.linear_learning_rate * grad
    return RankModel(
        kind=KIND_LINEAR,
        schema=_schema_stub(X.shape[1]),
        params=LinearParams(
            weights=w.tolist(),
            mean=mean.tolist(),
            scale=scale.tolist(),
            learning_rate=cfg.linear_learning_rate,
            l2=cfg.linear_l2,
        ),
        meta=TrainingMeta(rounds=cfg.linear_epochs),
    )


def loop_train_boosted(
    instances: Instances, cfg: TrainingConfig = TrainingConfig(), validation=None
) -> RankModel:
    X = np.vstack([inst.features for inst in instance_rows(instances)])
    groups = loop_group_pairs(instances)
    Xv = np.vstack([inst.features for inst in instance_rows(validation)])
    scores = np.zeros(X.shape[0], dtype=np.float64)
    val_scores = np.zeros(Xv.shape[0], dtype=np.float64)
    trees: list[dict] = []
    map_history: list[float] = []
    best_map, best_round, stale = -np.inf, -1, 0
    lr = cfg.boosted_learning_rate
    for _ in range(cfg.boosted_rounds):
        g, h = loop_pairwise_grad_hess(scores, groups)
        tree = scalar_cut_tree(X, g, h, np.arange(X.shape[0]), 0, cfg)
        trees.append(tree)
        scores += lr * dict_tree_predict(tree, X)
        val_scores += lr * dict_tree_predict(tree, Xv)
        val_map = loop_map_at_k(val_scores, validation, k=30)
        map_history.append(val_map)
        if val_map > best_map:
            best_map, best_round, stale = val_map, len(trees) - 1, 0
        else:
            stale += 1
            if stale >= cfg.boosted_patience:
                break
    return RankModel(
        kind=KIND_BOOSTED,
        schema=_schema_stub(X.shape[1]),
        params=BoostedParams(
            trees=[decode(Node, tree, ()) for tree in trees[: best_round + 1]],
            learning_rate=lr,
            max_depth=cfg.boosted_max_depth,
            l1=cfg.boosted_l1,
            l2=cfg.boosted_l2,
        ),
        meta=TrainingMeta(
            rounds=len(trees),
            best_round=best_round,
            validation_map30=float(best_map),
            map_history=map_history,
        ),
    )


def random_instances(
    rng: np.random.Generator,
    shapes: list[tuple[int, int]],
    dim: int = 5,
    levels: int | None = None,
):
    """One patient per (positives, negatives) shape, in shuffled row order.

    With ``levels`` every feature takes one of that many values, so most
    cuts fall between tied values.
    """
    rows = []
    for p, (n_pos, n_neg) in enumerate(shapes):
        pid = f"P{p + 1:04d}"
        for j in range(n_pos + n_neg):
            label = int(j < n_pos)
            if levels is None:
                x = rng.normal(0.6 * label, 1.0, dim)
            else:
                x = rng.integers(0, levels, dim).astype(np.float64) + 0.5 * label
            rows.append((pid, label, x))
    out = []
    for k in rng.permutation(len(rows)):
        pid, label, x = rows[k]
        tid = f"HP:{int(rng.integers(0, 10**7)):07d}"
        out.append(InstanceRow(pid, tid, label, "none" if label else "difficult", x))
    return instances_of(out)


# -- evaluation oracles: one patient, one cutoff, one order at a time ------------------
#
# The package's earlier evaluator: set arithmetic and a best-match average over
# each top-k submatrix, cutoff by cutoff; the package's one-kernel evaluator
# must produce byte-identical reports. The permutation baseline has three
# oracles: the mean over every order of a short list, the closed form in exact
# rational arithmetic, and the package's earlier Monte Carlo estimate as a
# statistical cross-check. The bootstrap's oracle draws each index on its own,
# with Python ints, from the same SplitMix64 words and Lemire rejections that
# ``phenorank.streams`` computes in arrays; the package's whole-array bootstrap
# must match it bit for bit.


def loop_splitmix64(key: int, counter: int) -> int:
    """SplitMix64's output ``counter + 1`` when seeded with ``key``."""
    mask = (1 << 64) - 1
    z = (key + (counter + 1) * 0x9E3779B97F4A7C15) & mask
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
    return z ^ z >> 31


def loop_bounded(key: int, counter: int, n: int) -> int:
    """An index in ``[0, n)``: multiply-shift on a word's high 32 bits, a
    draw whose product's low half is below ``2**32 % n`` redrawn from word
    ``attempt << 56 | counter``."""
    attempt = 0
    while True:
        scaled = (loop_splitmix64(key, attempt << 56 | counter) >> 32) * n
        if scaled & 0xFFFFFFFF >= (1 << 32) % n:
            return scaled >> 32
        attempt += 1


def loop_bootstrap_ci(
    per_patient: np.ndarray, iterations: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The percentile bootstrap replicate by replicate and index by index,
    numpy's own ``mean`` and ``quantile``."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    digest = hashlib.sha256(f"{seed}:bootstrap".encode()).digest()
    key = int.from_bytes(digest, "big") % 2**64
    n = per_patient.shape[0]
    means = np.empty((iterations,) + per_patient.shape[1:], dtype=np.float64)
    for i in range(iterations):
        idx = [loop_bounded(key, i * n + j, n) for j in range(n)]
        means[i] = per_patient[idx].mean(axis=0)
    lo = np.quantile(means, 0.025, axis=0)
    hi = np.quantile(means, 0.975, axis=0)
    return lo, hi


def loop_bma(sub: np.ndarray) -> float:
    """Symmetric best-match average over a (selected x gold) Lin matrix."""
    if sub.size == 0:
        return 0.0
    return (sub.max(axis=1).mean() + sub.max(axis=0).mean()) / 2.0


def _loop_scored(ranked_by_patient, gold_by_patient) -> tuple[list[str], int]:
    pids = [pid for pid in sorted(ranked_by_patient) if gold_by_patient.get(pid)]
    return pids, len(ranked_by_patient) - len(pids)


def loop_evaluate_cohort(
    ranked_by_patient: dict[str, list[str]],
    gold_by_patient: dict[str, set[str]],
    o: Ontology,
    s: OntologyStats,
    cfg: EvaluationConfig,
    seed: int = 0,
    configuration: str = "prioritized",
    provenance: dict | None = None,
) -> MetricsReport:
    cache = LinCache(o, s)
    pids, missing_gold = _loop_scored(ranked_by_patient, gold_by_patient)
    empty_ranked = 0
    K = len(cfg.cutoffs)
    per_patient = np.zeros((len(pids), K, len(METRIC_NAMES)), dtype=np.float64)
    for i, pid in enumerate(pids):
        ranked = ranked_by_patient[pid]
        gold = set(gold_by_patient[pid])
        if not ranked:
            empty_ranked += 1
        gold_list = sorted(gold)
        M = cache.matrix(ranked, gold_list) if ranked else np.empty((0, len(gold)))
        for ki, k in enumerate(cfg.cutoffs):
            p, r, f1 = topk_prf(ranked, gold, k)
            kk = min(k, len(ranked))
            top = set(ranked[:kk])
            sim = loop_bma(M[:kk]) if kk else 0.0
            per_patient[i, ki] = (p, r, f1, sim, len(gold - top), len(top - gold))
    warnings = {"missingGold": missing_gold, "emptyRanked": empty_ranked}
    return _report(
        configuration, METRIC_NAMES, per_patient, cfg, seed, provenance, warnings
    )


def _order_scores(
    rel: np.ndarray, M: np.ndarray, order: np.ndarray, cutoffs: Sequence[int]
) -> np.ndarray:
    """(K, 4) precision, recall, F1 and best-match average of one order's top k."""
    n, gold = M.shape
    cum = np.cumsum(rel[order])
    out = np.zeros((len(cutoffs), 4))
    for ki, k in enumerate(cutoffs):
        kk = min(k, n)
        hits = cum[kk - 1]
        p = hits / kk
        r = hits / gold
        f1 = 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)
        out[ki] = (p, r, f1, loop_bma(M[order[:kk]]))
    return out


def _baseline_report(
    ranked_by_patient: dict[str, list[str]],
    gold_by_patient: dict[str, set[str]],
    o: Ontology,
    s: OntologyStats,
    cfg: EvaluationConfig,
    seed: int,
    baseline,
) -> MetricsReport:
    """Each patient's own-order scores minus ``baseline(i, rel, M)``, reported."""
    cache = LinCache(o, s)
    pids, missing_gold = _loop_scored(ranked_by_patient, gold_by_patient)
    empty_ranked = 0
    deltas = np.zeros((len(pids), len(cfg.cutoffs), len(DELTA_METRIC_NAMES)))
    for i, pid in enumerate(pids):
        ranked = ranked_by_patient[pid]
        gold = set(gold_by_patient[pid])
        n = len(ranked)
        if n < 2:  # the identity is the only order: delta 0
            empty_ranked += n == 0
            continue
        rel = np.array([1.0 if t in gold else 0.0 for t in ranked])
        M = cache.matrix(ranked, sorted(gold))
        prior = _order_scores(rel, M, np.arange(n), cfg.cutoffs)
        deltas[i] = prior - baseline(i, rel, M)
    warnings = {"missingGold": missing_gold, "emptyRanked": empty_ranked}
    return _report(
        "prioritized-vs-permuted", DELTA_METRIC_NAMES, deltas, cfg, seed, None, warnings
    )


def exhaustive_permutation_delta(
    ranked_by_patient: dict[str, list[str]],
    gold_by_patient: dict[str, set[str]],
    o: Ontology,
    s: OntologyStats,
    cfg: EvaluationConfig,
    seed: int = 0,
) -> MetricsReport:
    """The baseline by definition: the mean over all n! orders of each list.

    Lists are limited to 7 terms (5,040 orders).
    """

    def baseline(i, rel, M):
        n = len(rel)
        if n > 7:
            raise ValueError(f"{n} terms: too many orders to enumerate")
        return np.mean(
            [
                _order_scores(rel, M, np.array(order), cfg.cutoffs)
                for order in itertools.permutations(range(n))
            ],
            axis=0,
        )

    return _baseline_report(
        ranked_by_patient, gold_by_patient, o, s, cfg, seed, baseline
    )


def fraction_permutation_delta(
    ranked_by_patient: dict[str, list[str]],
    gold_by_patient: dict[str, set[str]],
    o: Ontology,
    s: OntologyStats,
    cfg: EvaluationConfig,
    seed: int = 0,
) -> MetricsReport:
    """The baseline's closed form in exact rational arithmetic.

    A uniform order's top m = min(k, n) holds m * R / n of the R listed gold
    terms on average, so F1 averages to 2 * hits / (m + G) over G gold terms.
    The row half of the best-match average averages to the mean row maximum;
    each column's best match in the top m is its j-th smallest value with
    probability C(j - 1, m - 1) / C(n, m). Each mean is rounded once, to float.
    """

    def baseline(i, rel, M):
        n, gold = M.shape
        listed = int(rel.sum())
        rows = sum(Fraction(v) for v in M.max(axis=1)) / n
        columns = [sorted(Fraction(v) for v in M[:, g]) for g in range(gold)]
        out = np.zeros((len(cfg.cutoffs), 4))
        for ki, k in enumerate(cfg.cutoffs):
            m = min(k, n)
            hits = Fraction(m * listed, n)
            best = sum(
                v * math.comb(j, m - 1) for col in columns for j, v in enumerate(col)
            ) / (math.comb(n, m) * gold)
            out[ki] = (
                float(hits / m),
                float(hits / gold),
                float(2 * hits / (m + gold)),
                float((rows + best) / 2),
            )
        return out

    return _baseline_report(
        ranked_by_patient, gold_by_patient, o, s, cfg, seed, baseline
    )


# The seed stream of the Monte Carlo baseline's draws.
PERMUTE_STREAM = 202


def loop_permutation_delta(
    ranked_by_patient: dict[str, list[str]],
    gold_by_patient: dict[str, set[str]],
    o: Ontology,
    s: OntologyStats,
    cfg: EvaluationConfig,
    draws: int,
    seed: int = 0,
) -> tuple[MetricsReport, np.ndarray]:
    """The baseline sampled: the mean over ``draws`` uniform random orders.

    Also returns the (K, 4) standard error of each report point, from the
    per-patient sample variances of the draws.
    """
    variances = []

    def baseline(i, rel, M):
        rng = np.random.default_rng([seed, PERMUTE_STREAM, i])
        scores = np.array(
            [
                _order_scores(rel, M, rng.permutation(len(rel)), cfg.cutoffs)
                for _ in range(draws)
            ]
        )
        variances.append(scores.var(axis=0, ddof=1) / draws)
        return scores.mean(axis=0)

    report = _baseline_report(
        ranked_by_patient, gold_by_patient, o, s, cfg, seed, baseline
    )
    return report, np.sqrt(np.sum(variances, axis=0)) / report.cohort_size
