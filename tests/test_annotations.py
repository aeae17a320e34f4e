import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    A_LEAF,
    A_ONE,
    A_TWO,
    B_ONE,
    BRANCH_A,
    OBSOLETE,
    ORPHAN,
    ROOT,
    SMALL_DISEASE_TSV,
    SMALL_GENE_TSV,
)
from phenorank import annotations, ontology, pipeline
from phenorank.annotations import (
    DISEASE_SOURCES,
    FEATURE_NAMES,
    feature_table,
    load_annotations,
)
from phenorank.config import config_from_dict
from phenorank.errors import DataError, IngestError, ParseError
from phenorank.ontology import compute_stats, propagate_counts


def feature_row(o, s, kb, term_id):
    """One term's row of the feature table, by column name."""
    values = feature_table(o, s, kb)[o.ids.index(term_id)]
    return dict(zip(FEATURE_NAMES, values.tolist()))


class TestLoading:
    def test_totals(self, small_kb):
        assert small_kb.disease_totals == {"omim": 4, "orphanet": 1}
        assert small_kb.total_genes == 3

    def test_direct_annotations(self, small, small_kb):
        # d1 is the first disease and g2 the second gene in file order; the
        # orphanet row of d1 names the same document as its omim row.
        kb = helpers.kb_dicts(small, small_kb)
        assert kb.disease_annots["omim"][A_LEAF] == frozenset({0})
        assert kb.disease_annots["orphanet"] == {A_LEAF: frozenset({0})}
        assert kb.gene_annots[A_TWO] == frozenset({1})
        assert small_kb.total_diseases == 4

    def test_comments_blanks_and_duplicates(self, small):
        text = SMALL_DISEASE_TSV + f"\n\n# tail comment\n{A_LEAF}\td1\tomim\n"
        kb = load_annotations(text, SMALL_GENE_TSV, small)
        assert kb.disease_totals == {"omim": 4, "orphanet": 1}

    def test_malformed_disease_row(self, small):
        with pytest.raises(ParseError, match="line 2"):
            load_annotations("# ok\nonly two\tcolumns\n", "", small)

    def test_malformed_gene_row(self, small):
        with pytest.raises(ParseError, match="line 1"):
            load_annotations(SMALL_DISEASE_TSV, "a\tb\tc\n", small)

    def test_empty_column_rejected(self, small):
        with pytest.raises(ParseError, match="empty column"):
            load_annotations(f"{A_LEAF}\t\tomim\n", "", small)

    def test_bad_rows_collected_into_one_error(self, small):
        text = (
            f"{A_LEAF}\td1\tdecipher\n"
            f"HP:0009998\td2\tomim\n"
            f"{OBSOLETE}\td3\tomim\n"
            f"{A_ONE}\td4\tomim\n"
        )
        with pytest.raises(IngestError) as err:
            load_annotations(text, "", small)
        message = str(err.value)
        assert "line 1" in message and "decipher" in message
        assert "line 2" in message and "HP:0009998" in message
        assert "line 3" in message and OBSOLETE in message

    def test_obsolete_gene_target_rejected(self, small):
        with pytest.raises(IngestError, match="gene line 1"):
            load_annotations(SMALL_DISEASE_TSV, f"{OBSOLETE}\tg9\n", small)


class TestPropagation:
    def test_disease_counts_reach_ancestors(self, small, small_kb):
        pooled, omim, orphanet = small_kb.disease_counts(small).tolist()
        omim = dict(zip(small.ids, omim))
        assert omim[ROOT] == 4
        assert omim[BRANCH_A] == 3
        assert omim[A_ONE] == 2
        assert omim[A_LEAF] == 1
        # d1 is in both sources; pooled, it is one document.
        assert dict(zip(small.ids, pooled)) == omim
        assert dict(zip(small.ids, orphanet))[BRANCH_A] == 1

    def test_disease_counts_walk_once(self, small, monkeypatch):
        kb = load_annotations(SMALL_DISEASE_TSV, SMALL_GENE_TSV, small)
        walks = []
        closure_rows = small.closure_rows
        monkeypatch.setattr(small, "closure_rows", lambda d: walks.append(d) or closure_rows(d))
        s = compute_stats(small, kb)
        feature_table(small, s, kb)
        # One walk of the disease rows, one of the gene rows.
        assert [len(d) for d in walks] == [5, 3]

    def test_gene_counts_reach_ancestors(self, small, small_stats, small_kb):
        (counts,) = propagate_counts(small, small_kb.gene_terms, small_kb.gene_docs)
        genes = dict(zip(small.ids, counts.tolist()))
        assert genes[ROOT] == 3
        assert genes[BRANCH_A] == 2
        assert genes[A_ONE] == 1
        got = [
            feature_row(small, small_stats, small_kb, t)["gene_count"]
            for t in (ROOT, BRANCH_A, A_ONE)
        ]
        assert got == [3, 2, 1]


class TestIdf:
    def test_one_of_four(self, small, small_stats, small_kb):
        got = feature_row(small, small_stats, small_kb, A_LEAF)["idf_omim"]
        assert got == pytest.approx(1.3862943611198906, abs=1e-12)

    def test_zero_count_smoothing(self, orphaned, orphaned_stats, orphaned_kb):
        got = feature_row(orphaned, orphaned_stats, orphaned_kb, ORPHAN)["idf_omim"]
        assert got == pytest.approx(1.6094379124341003, abs=1e-12)

    def test_full_coverage_gives_zero(self, small, small_stats, small_kb):
        assert feature_row(small, small_stats, small_kb, A_ONE)["idf_orphanet"] == 0.0
        assert feature_row(small, small_stats, small_kb, ROOT)["idf_omim"] == 0.0

    def test_smoothing_scales_with_source_size(self, small, small_stats, small_kb):
        got = feature_row(small, small_stats, small_kb, B_ONE)["idf_orphanet"]
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_empty_source_rejected(self, small):
        kb = load_annotations(f"{A_LEAF}\td1\tomim\n", "", small)
        with pytest.raises(DataError, match="'orphanet' is empty"):
            feature_table(small, compute_stats(small, kb), kb)


class TestFeatures:
    def test_row_values(self, small, small_stats, small_kb):
        row = feature_row(small, small_stats, small_kb, A_ONE)
        # The row read by position is the one the dense-id gather selects.
        assert small.ids.index(A_ONE) == small.dense_ids([A_ONE])[0]
        assert row["ic"] == pytest.approx(0.6931471805599453, abs=1e-12)
        assert row["gene_count"] == 1
        assert row["gene_fraction"] == pytest.approx(1.0 / 3.0)
        assert row["disease_count"] == 2
        assert row["disease_fraction"] == pytest.approx(0.5)
        assert row["idf_omim"] == pytest.approx(math.log(2.0), abs=1e-12)
        assert row["idf_orphanet"] == 0.0

    def test_gene_fraction_zero_without_genes(self, small, small_stats):
        kb = load_annotations(SMALL_DISEASE_TSV, "", small)
        row = feature_row(small, small_stats, kb, A_ONE)
        assert row["gene_count"] == 0
        assert row["gene_fraction"] == 0.0

    @pytest.mark.parametrize("name", ["small", "orphaned", "layered", "clinical"])
    def test_table_equals_per_term_oracle(self, request, name):
        o = request.getfixturevalue(name)
        kb = request.getfixturevalue(f"{name}_kb")
        s = request.getfixturevalue(f"{name}_stats")
        # Every float bit-equal to the per-term path.
        got = feature_table(o, s, kb)
        want = helpers.oracle_feature_table(o, s, helpers.kb_dicts(o, kb))
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape == (len(o.ids), len(FEATURE_NAMES))
        assert got.tobytes() == want.tobytes()

    def test_table_sorted_and_complete(self, small, small_stats, small_kb):
        table = feature_table(small, small_stats, small_kb)
        assert len(table) == len(small.ids)
        assert list(small.ids) == sorted(small.non_obsolete_ids())
        assert OBSOLETE not in small.ids


# -- differential: the column reader and one walk against the per-row oracle ---------

SMALL = helpers.small_ontology()
LIVE = list(SMALL.ids)
LINE_BREAKS = ("\n", "\r\n", "\r", "\x85", "\u2028")
NOT_A_ROW = ("", "   ", "# term\tdisease", "  # indented comment")


@st.composite
def annotation_text(draw, rows, defects):
    """TSV text of ``rows`` (lists of cells) as a hand-edited file might hold
    them: mixed line breaks, space-padded cells, trailing tabs, comments,
    blank lines and repeated rows; about one row in eight carries one of
    ``defects``."""
    lines = []
    for cells in draw(rows):
        lines += draw(st.lists(st.sampled_from(NOT_A_ROW), max_size=1))
        cells = list(cells)
        if draw(st.integers(0, 7)) == 0:
            defect = draw(st.sampled_from(defects))
            if defect == "columns":
                cells = cells[:-1] if draw(st.booleans()) else [*cells, "extra"]
            elif defect == "empty":
                cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(["", " "]))
            elif defect == "source":
                cells[2] = "decipher"
            else:
                cells[0] = draw(st.sampled_from(["HP:0009997", OBSOLETE]))
        pads = st.sampled_from(["", " ", "  "])
        line = "\t".join(draw(pads) + c + draw(pads) for c in cells)
        line += draw(st.sampled_from(["", "\t", "\t\t", " "]))
        lines += [line] * draw(st.integers(1, 2))
    return "".join(line + draw(st.sampled_from(LINE_BREAKS)) for line in lines)


disease_rows = st.lists(
    st.tuples(
        st.sampled_from(LIVE),
        st.sampled_from(["d1", "d2", "d3", "d4", "d5"]),
        st.sampled_from(DISEASE_SOURCES),
    ),
    max_size=10,
)
gene_rows = st.lists(st.tuples(st.sampled_from(LIVE), st.sampled_from(["g1", "g2", "g3"])), max_size=6)


def outcome(load, stats, table, disease_text, gene_text):
    """What the three input passes give: the first exception's type and
    message, or the totals, the stats and the table, as bytes."""
    try:
        kb = load(disease_text, gene_text, SMALL)
        s = stats(SMALL, kb)
        values = table(SMALL, s, kb)
    except (ParseError, IngestError, DataError) as e:
        return type(e), str(e)
    return (
        kb.disease_totals,
        kb.total_genes,
        s.total_diseases,
        s.annot_count.dtype.str,
        s.annot_count.tobytes(),
        s.ic.tobytes(),
        values.tobytes(),
    )


ORACLE_PASSES = (
    (annotations, "load_annotations", helpers.oracle_load_annotations),
    (ontology, "compute_stats", helpers.oracle_compute_stats),
    (annotations, "feature_table", helpers.oracle_feature_table),
)


def ingest_bytes(root: Path, disease_text: str, gene_text: str, oracle: bool):
    """``step_ingest``'s summary and the bytes of its ``inputs.npz``, with the
    package's passes or the oracles in their place."""
    files = {
        "ontology.json": helpers.ontology_to_json(SMALL),
        "disease.tsv": disease_text,
        "gene.tsv": gene_text,
    }
    for name, text in files.items():
        (root / name).write_bytes(text.encode("utf-8"))
    cfg = config_from_dict(
        {
            "paths": {
                "ontology": str(root / "ontology.json"),
                "disease_annotations": str(root / "disease.tsv"),
                "gene_annotations": str(root / "gene.tsv"),
                "workdir": str(root / "work"),
            }
        }
    )
    with pytest.MonkeyPatch.context() as mp:
        for module, name, fn in ORACLE_PASSES if oracle else ():
            mp.setattr(module, name, fn)
        summary = pipeline.step_ingest(cfg)
    return summary, (root / "work" / pipeline.INPUTS_FILE).read_bytes()


@settings(max_examples=150, deadline=None)
@given(
    disease_text=annotation_text(disease_rows, ("columns", "empty", "source", "term")),
    gene_text=annotation_text(gene_rows, ("columns", "empty", "term")),
)
def test_ingest_matches_the_per_row_oracle(disease_text, gene_text):
    got = outcome(load_annotations, compute_stats, feature_table, disease_text, gene_text)
    want = outcome(
        helpers.oracle_load_annotations,
        helpers.oracle_compute_stats,
        helpers.oracle_feature_table,
        disease_text,
        gene_text,
    )
    assert got == want
    if isinstance(got[0], type):
        return
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "a").mkdir()
        (root / "b").mkdir()
        assert ingest_bytes(root / "a", disease_text, gene_text, oracle=False) == ingest_bytes(
            root / "b", disease_text, gene_text, oracle=True
        )
