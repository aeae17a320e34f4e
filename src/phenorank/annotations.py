"""Disease and gene annotation knowledge base and the per-term feature matrix.

Disease annotations come from two closed sources (omim, orphanet). Each file
is read column by column: one pass strips the lines and drops blanks and
``#`` comments, one split of all kept lines gives every cell, and the cells
are sliced into columns. A row is looked at on its own only to word an error.
The KB holds the rows as int64 arrays (the dense id of each row's term, its
document and, for a disease row, its source) plus the distinct-document
totals; a disease id names one document whatever its source.

The counts propagated to ancestors come from two walks of the closure rows:
``AnnotationKB.disease_counts`` counts the disease documents per term for
the pooled sources and for each source at once, and ``feature_table``
propagates the gene rows. ``compute_stats`` reads the pooled counts for
information content and ``feature_table`` the per-source ones for the IDFs.
IDF-style features are per-source; count and fraction features pool the
sources, matching how information content is computed.

Only ``ingest`` loads the KB; the later steps restore the statistics and the
feature table from its snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import DataError, IngestError, ParseError
from .ontology import Ontology, OntologyStats, propagate_counts

DISEASE_SOURCES = ("omim", "orphanet")
_SOURCE_INDEX = {source: k for k, source in enumerate(DISEASE_SOURCES)}


@dataclass
class AnnotationKB:
    """The annotation rows as arrays, and the distinct-document totals.

    Each disease row is ``disease_terms[i]`` (a dense id), ``disease_docs[i]``
    (a document index, one per distinct disease id over both sources) and
    ``disease_sources[i]`` (an index into ``DISEASE_SOURCES``); each gene row
    is ``gene_terms[i]`` and ``gene_docs[i]`` (one index per distinct gene
    id). Rows are in file order; a repeated row stays, and counts it once.
    """

    disease_terms: np.ndarray
    disease_docs: np.ndarray
    disease_sources: np.ndarray
    gene_terms: np.ndarray
    gene_docs: np.ndarray
    disease_totals: dict[str, int]
    total_diseases: int
    total_genes: int
    _disease_counts: np.ndarray | None = field(default=None, init=False, repr=False)

    def disease_counts(self, o: Ontology) -> np.ndarray:
        """Distinct diseases annotated to each term or a descendant, by dense
        id of ``o``, the ontology the rows were loaded against: row 0 pools
        the sources and row ``1 + k`` counts ``DISEASE_SOURCES[k]`` alone.
        One ancestor walk, on the first call."""
        if self._disease_counts is None:
            self._disease_counts = propagate_counts(
                o,
                self.disease_terms,
                self.disease_docs,
                self.disease_sources,
                len(DISEASE_SOURCES),
            )
        return self._disease_counts


def _columns(text: str, kind: str, columns: int) -> tuple[list[int], list[list[str]]]:
    """The line numbers and the stripped cells, one list per column, of the
    rows of a ``kind`` annotation file; blank lines and ``#`` comments are
    skipped. A row with the wrong column count or an empty cell is a
    ParseError naming the first such line."""
    lines = list(map(str.strip, text.splitlines()))
    linenos = [i for i, line in enumerate(lines, start=1) if line and line[0] != "#"]
    kept = [lines[i - 1] for i in linenos]
    tabs = list(map(str.count, kept, repeat("\t")))
    # No rows joined would split into one empty cell.
    cells = list(map(str.strip, "\t".join(kept).split("\t"))) if kept else []
    if tabs.count(columns - 1) != len(kept) or "" in cells:
        for lineno, line in zip(linenos, kept):
            parts = [part.strip() for part in line.split("\t")]
            if len(parts) != columns:
                raise ParseError(f"{kind} annotations line {lineno}: expected {columns} columns")
            if not all(parts):
                raise ParseError(f"{kind} annotations line {lineno}: empty column")
    return linenos, [cells[j::columns] for j in range(columns)]


def _codes(index: dict, items: list[str]) -> np.ndarray:
    """``index[x]`` of each of ``items``, -1 where absent, as int64."""
    return np.fromiter(map(index.get, items, repeat(-1)), dtype=np.int64, count=len(items))


def _documents(names: list[str]) -> tuple[np.ndarray, int]:
    """An index per row, one per distinct name in first-seen order, and the
    number of distinct names."""
    index = {name: i for i, name in enumerate(dict.fromkeys(names))}
    codes = np.fromiter(map(index.__getitem__, names), dtype=np.int64, count=len(names))
    return codes, len(index)


def load_annotations(disease_text: str, gene_text: str, o: Ontology) -> AnnotationKB:
    """Load tab-separated disease and gene annotation rows.

    Disease rows are ``term<TAB>disease<TAB>source``; gene rows are
    ``term<TAB>gene``. Blank lines and ``#`` comments are skipped. Duplicate
    rows collapse in every count. A structurally malformed row raises
    ParseError with its line number, the disease file's before the gene
    file's; rows naming an unknown source or a term outside the dense index
    (unknown or obsolete) are collected, in line order, and raised together
    as IngestError.
    """
    disease_lines, (disease_tids, diseases, sources) = _columns(disease_text, "disease", 3)
    gene_lines, (gene_tids, genes) = _columns(gene_text, "gene", 2)
    source_codes = _codes(_SOURCE_INDEX, sources)
    disease_terms = _codes(o.dense, disease_tids)
    gene_terms = _codes(o.dense, gene_tids)
    bad_rows: list[str] = []
    for i in np.flatnonzero((source_codes < 0) | (disease_terms < 0)).tolist():
        if source_codes[i] < 0:
            bad_rows.append(f"line {disease_lines[i]}: unknown source {sources[i]!r}")
        else:
            bad_rows.append(f"line {disease_lines[i]}: unresolvable term {disease_tids[i]}")
    for i in np.flatnonzero(gene_terms < 0).tolist():
        bad_rows.append(f"gene line {gene_lines[i]}: unresolvable term {gene_tids[i]}")
    if bad_rows:
        raise IngestError("rejected annotation rows: " + "; ".join(bad_rows))

    disease_docs, total_diseases = _documents(diseases)
    gene_docs, total_genes = _documents(genes)
    return AnnotationKB(
        disease_terms=disease_terms,
        disease_docs=disease_docs,
        disease_sources=source_codes,
        gene_terms=gene_terms,
        gene_docs=gene_docs,
        disease_totals={
            source: int(np.count_nonzero(np.bincount(disease_docs[source_codes == k])))
            for source, k in _SOURCE_INDEX.items()
        },
        total_diseases=total_diseases,
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
    sources (``s``); the per-source IDFs read ``kb.disease_counts``, and the
    gene rows are propagated here. The logarithms are ``math.log`` one term at a
    time, whose bits do not depend on the CPU; the counts stay below 2**53, so
    each whole-column division equals the Python one.
    """
    for source in DISEASE_SOURCES:
        if kb.disease_totals[source] == 0:
            raise DataError(f"disease source {source!r} is empty; idf undefined")
    genes = propagate_counts(o, kb.gene_terms, kb.gene_docs)[0]
    diseases = s.annot_count.astype(np.float64)
    table = np.empty((len(o.ids), len(FEATURE_NAMES)), dtype=np.float64)
    table[:, 0] = s.ic
    table[:, 1] = genes
    table[:, 2] = genes / kb.total_genes if kb.total_genes else 0.0
    table[:, 3] = diseases
    table[:, 4] = diseases / s.total_diseases
    by_source = kb.disease_counts(o)[1:]
    for col, (source, counts) in enumerate(zip(DISEASE_SOURCES, by_source.tolist()), start=5):
        total = kb.disease_totals[source]
        table[:, col] = [_idf(n, total) for n in counts]
    return table
