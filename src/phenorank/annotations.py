"""Disease and gene annotation knowledge base and the per-term feature matrix.

Disease annotations come from two closed sources (omim, orphanet). The KB holds
only the direct annotations and their totals; it keeps no derived counts.
``feature_table``, their one reader, propagates the per-source and gene counts
to ancestors through ``ontology.propagate_counts``, the pass ``compute_stats``
uses for the pooled counts. IDF-style features are per-source; count and
fraction features pool the sources, matching how information content is
computed.

Only ``ingest`` loads the KB; the later steps restore the statistics and the
feature table from its snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DataError, IngestError, ParseError
from .ontology import Ontology, OntologyStats, propagate_counts

DISEASE_SOURCES = ("omim", "orphanet")


@dataclass
class AnnotationKB:
    """Direct annotations per term and the distinct-document totals; no caches.

    Counts propagated to ancestors are derived where they are read:
    ``feature_table`` for the per-source and gene counts, ``compute_stats``
    for the pooled disease counts.
    """

    disease_annots: dict[str, dict[str, frozenset[str]]]
    gene_annots: dict[str, frozenset[str]]
    disease_totals: dict[str, int]
    total_genes: int


def _tsv_rows(text: str, kind: str, columns: int) -> Iterator[tuple[int, list[str]]]:
    """The line number and stripped columns of each row of a ``kind``
    annotation file, skipping blank lines and ``#`` comments; a row with the
    wrong column count or an empty column is a ParseError naming its line."""
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


def load_annotations(disease_text: str, gene_text: str, o: Ontology) -> AnnotationKB:
    """Load tab-separated disease and gene annotation rows.

    Disease rows are ``term<TAB>disease<TAB>source``; gene rows are
    ``term<TAB>gene``. Blank lines and ``#`` comments are skipped. Duplicate
    rows collapse. Structurally malformed rows raise ParseError with their line
    number; rows naming unknown/obsolete terms or an unknown source are
    collected and raised together as IngestError.
    """
    disease_direct: dict[str, dict[str, set[str]]] = {s: {} for s in DISEASE_SOURCES}
    gene_direct: dict[str, set[str]] = {}
    bad_rows: list[str] = []

    for lineno, (tid, disease, source) in _tsv_rows(disease_text, "disease", 3):
        if source not in DISEASE_SOURCES:
            bad_rows.append(f"line {lineno}: unknown source {source!r}")
            continue
        rec = o.terms.get(tid)
        if rec is None or rec.obsolete:
            bad_rows.append(f"line {lineno}: unresolvable term {tid}")
            continue
        disease_direct[source].setdefault(tid, set()).add(disease)

    for lineno, (tid, gene) in _tsv_rows(gene_text, "gene", 2):
        rec = o.terms.get(tid)
        if rec is None or rec.obsolete:
            bad_rows.append(f"gene line {lineno}: unresolvable term {tid}")
            continue
        gene_direct.setdefault(tid, set()).add(gene)

    if bad_rows:
        raise IngestError("rejected annotation rows: " + "; ".join(bad_rows))

    disease_totals = {
        s: len({d for docs in per_term.values() for d in docs})
        for s, per_term in disease_direct.items()
    }
    total_genes = len({g for gs in gene_direct.values() for g in gs})
    return AnnotationKB(
        disease_annots={
            s: {t: frozenset(d) for t, d in per_term.items()}
            for s, per_term in disease_direct.items()
        },
        gene_annots={t: frozenset(g) for t, g in gene_direct.items()},
        disease_totals=disease_totals,
        total_genes=total_genes,
    )


# The columns of ``feature_table``, in order: the one place that order is written.
FEATURE_NAMES = (
    "ic",
    "gene_count",
    "gene_fraction",
    "disease_count",
    "disease_fraction",
    "idf_omim",
    "idf_orphanet",
)


def _idf(count: int, total: int) -> float:
    """Inverse document frequency of a term within one disease source.

    idf = -ln(d / D) for d diseases of the source annotated to the term or a
    descendant, out of D; terms no disease reaches use add-one smoothing,
    -ln(1 / (D + 1)).
    """
    if count == 0:
        return -math.log(1.0 / (total + 1.0))
    return -math.log(count / total)


def feature_table(o: Ontology, s: OntologyStats, kb: AnnotationKB) -> np.ndarray:
    """The ``FEATURE_NAMES`` columns of every live term, as float64.

    Row ``i`` is term ``o.ids[i]``. Disease count and fraction pool the
    sources (``s``); gene count and the per-source IDFs propagate the KB's
    direct annotations here. The logarithms are ``math.log`` one term at a
    time, whose bits do not depend on the CPU; the counts stay below 2**53, so
    each whole-column division equals the Python one.
    """
    for source in DISEASE_SOURCES:
        if kb.disease_totals[source] == 0:
            raise DataError(f"disease source {source!r} is empty; idf undefined")
    genes = propagate_counts(o, kb.gene_annots)
    diseases = s.annot_count.astype(np.float64)
    table = np.empty((len(o.ids), len(FEATURE_NAMES)), dtype=np.float64)
    table[:, 0] = s.ic
    table[:, 1] = genes
    table[:, 2] = genes / kb.total_genes if kb.total_genes else 0.0
    table[:, 3] = diseases
    table[:, 4] = diseases / s.total_diseases
    for col, source in enumerate(DISEASE_SOURCES, start=5):
        total = kb.disease_totals[source]
        counts = propagate_counts(o, kb.disease_annots[source]).tolist()
        table[:, col] = [_idf(n, total) for n in counts]
    return table
