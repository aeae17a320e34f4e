import pytest

import helpers
from phenorank import extraction
from phenorank.annotations import feature_table, load_annotations
from phenorank.ontology import compute_stats


@pytest.fixture(autouse=True)
def fast_retries(monkeypatch):
    """Remote-call retries back off for a millisecond, not a tenth of a second."""
    monkeypatch.setattr(extraction, "RETRY_BASE_DELAY", 0.001)


@pytest.fixture(scope="session")
def small():
    return helpers.small_ontology()


@pytest.fixture(scope="session")
def small_kb(small):
    return load_annotations(helpers.SMALL_DISEASE_TSV, helpers.SMALL_GENE_TSV, small)


@pytest.fixture(scope="session")
def small_stats(small, small_kb):
    return compute_stats(small, small_kb)


@pytest.fixture(scope="session")
def orphaned():
    return helpers.small_ontology_with_orphan()


@pytest.fixture(scope="session")
def orphaned_kb(orphaned):
    return load_annotations(
        helpers.SMALL_DISEASE_TSV, helpers.SMALL_GENE_TSV, orphaned
    )


@pytest.fixture(scope="session")
def orphaned_stats(orphaned, orphaned_kb):
    return compute_stats(orphaned, orphaned_kb)


@pytest.fixture(scope="session")
def layered():
    return helpers.layered_ontology()


@pytest.fixture(scope="session")
def layered_kb(layered):
    disease_text, gene_text = helpers.layered_annotation_text()
    return load_annotations(disease_text, gene_text, layered)


@pytest.fixture(scope="session")
def layered_stats(layered, layered_kb):
    return compute_stats(layered, layered_kb)


@pytest.fixture(scope="session")
def layered_table(layered, layered_stats, layered_kb):
    return feature_table(layered, layered_stats, layered_kb)


@pytest.fixture(scope="session")
def clinical():
    return helpers.clinical_ontology()


@pytest.fixture(scope="session")
def clinical_kb(clinical):
    return load_annotations(
        helpers.CLINICAL_DISEASE_TSV, helpers.CLINICAL_GENE_TSV, clinical
    )


@pytest.fixture(scope="session")
def clinical_stats(clinical, clinical_kb):
    return compute_stats(clinical, clinical_kb)
