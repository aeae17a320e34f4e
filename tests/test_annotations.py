import math

import numpy as np
import pytest

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
from phenorank.annotations import FEATURE_NAMES, feature_table, load_annotations
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

    def test_direct_annotations(self, small_kb):
        assert small_kb.disease_annots["omim"][A_LEAF] == frozenset({"d1"})
        assert small_kb.gene_annots[A_TWO] == frozenset({"g2"})

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
        counts = propagate_counts(small, small_kb.disease_annots["omim"])
        omim = dict(zip(small.ids, counts.tolist()))
        assert omim[ROOT] == 4
        assert omim[BRANCH_A] == 3
        assert omim[A_ONE] == 2
        assert omim[A_LEAF] == 1

    def test_gene_counts_reach_ancestors(self, small, small_stats, small_kb):
        counts = propagate_counts(small, small_kb.gene_annots)
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
        want = helpers.oracle_feature_table(o, s, kb)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape == (len(o.ids), len(FEATURE_NAMES))
        assert got.tobytes() == want.tobytes()

    def test_table_sorted_and_complete(self, small, small_stats, small_kb):
        table = feature_table(small, small_stats, small_kb)
        assert len(table) == len(small.ids)
        assert list(small.ids) == sorted(small.non_obsolete_ids())
        assert OBSOLETE not in small.ids

