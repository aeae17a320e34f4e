"""The input snapshot: ingest writes ``inputs.npz``, the later steps restore it.

The oracle is a fresh parse of the same files: the restored ontology,
statistics and feature table must equal it record for record and bit for bit.
"""

import collections
import hashlib
import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

import helpers
from phenorank import pipeline
from phenorank.annotations import feature_table
from phenorank.config import config_from_dict
from phenorank.ontology import Ontology, TermRecord


def obo_text(o: Ontology) -> str:
    def quoted(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    stanzas = []
    for rec in o.terms.values():
        lines = ["[Term]", f"id: {rec.id}", f"name: {rec.name}"]
        if rec.definition:
            lines.append(f"def: {quoted(rec.definition)} []")
        lines += [f"synonym: {quoted(x)} EXACT []" for x in rec.synonyms]
        lines += [f"is_a: {p}" for p in rec.parents]
        if rec.obsolete:
            lines.append("is_obsolete: true")
        stanzas.append("\n".join(lines))
    return "\n\n".join(stanzas) + "\n"


def unicode_ontology() -> Ontology:
    """Non-ASCII names, and lone surrogates that meet across string boundaries."""
    root, a, b, c = (f"HP:{7000000 + i:07d}" for i in range(4))
    terms = {
        root: TermRecord(root, "Anomalie générale", definition="Racine – tout"),
        a: TermRecord(a, "Ataxie cérébelleuse \ud83d", [" \ude00", "\ud800"], "", [root]),
        b: TermRecord(b, "\ude00ß中\U0001f600", ["x\udfff"], "d\ud83d", [root]),
        c: TermRecord(c, "Retired \udbff", [], "", [a, b], obsolete=True),
    }
    return Ontology(terms)


def fixture_inputs():
    text = helpers.ontology_to_json(helpers.layered_ontology())
    return ("ontology.json", text, *helpers.layered_annotation_text())


def random_inputs():
    o = helpers.random_ontology(5, obsolete=6)
    return ("ontology.json", helpers.ontology_to_json(o), *helpers.annotation_text(o))


def obo_inputs():
    o = helpers.random_ontology(7, obsolete=3)
    return ("ontology.obo", obo_text(o), *helpers.annotation_text(o))


def unicode_inputs():
    o = unicode_ontology()
    return ("ontology.json", helpers.ontology_to_json(o), *helpers.annotation_text(o))


def csr_arrays(o: Ontology) -> tuple:
    """The closure, then the parent and child rows (built on first use), as
    (data, start, size) each."""
    up, down = o._edge_rows()
    return (o._closure, o._closure_start, o._closure_size, *up, *down)


def write_inputs(root, name, ontology_text, disease_text, gene_text):
    (root / name).write_text(ontology_text, encoding="utf-8")
    (root / "disease.tsv").write_text(disease_text, encoding="utf-8")
    (root / "gene.tsv").write_text(gene_text, encoding="utf-8")
    return config_from_dict(
        {
            "paths": {
                "ontology": str(root / name),
                "disease_annotations": str(root / "disease.tsv"),
                "gene_annotations": str(root / "gene.tsv"),
                "workdir": str(root / "work"),
            }
        }
    )


@pytest.mark.parametrize(
    "inputs",
    [fixture_inputs, random_inputs, obo_inputs, unicode_inputs],
    ids=["fixture", "random-obsolete", "obo", "unicode-surrogates"],
)
def test_restore_equals_a_fresh_parse(tmp_path, inputs):
    cfg = write_inputs(tmp_path, *inputs())
    pipeline.step_ingest(cfg)
    snap = pipeline.load_snapshot(cfg)
    o, kb, s = helpers.parse_inputs(cfg.paths)
    r = snap.ontology
    assert list(r.terms.items()) == list(o.terms.items())
    assert (r.ids, r.root) == (o.ids, o.root)
    assert list(r.dense.items()) == list(o.dense.items())
    assert r._edges is None  # a restore builds no walk rows
    for got, want in zip(csr_arrays(r), csr_arrays(o), strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for name in ("annot_count", "ic"):
        got, want = getattr(snap.stats, name), getattr(s, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert snap.stats.total_diseases == s.total_diseases
    table = feature_table(o, s, kb)
    assert snap.table.dtype == table.dtype and snap.table.shape == table.shape
    assert snap.table.tobytes() == table.tobytes()
    assert all(helpers.ancestors(r, t) == helpers.ancestors(o, t) for t in o.ids)


@pytest.mark.parametrize(
    "inputs",
    [fixture_inputs, random_inputs, obo_inputs, unicode_inputs],
    ids=["fixture", "random-obsolete", "obo", "unicode-surrogates"],
)
def test_restored_walks_equal_a_fresh_parse(tmp_path, inputs):
    cfg = write_inputs(tmp_path, *inputs())
    pipeline.step_ingest(cfg)
    r = pipeline.load_snapshot(cfg).ontology
    o, _, _ = helpers.parse_inputs(cfg.paths)
    n = len(o.ids)
    dense = np.arange(n)
    walks = dense * n + dense  # one walk from each term
    answers = [(r.parent_rows(dense), o.parent_rows(dense))]
    answers += [(r.child_rows(dense), o.child_rows(dense))]
    answers += [
        (r.hops(walks, direction, limit), o.hops(walks, direction, limit))
        for direction in ("up", "down", "both")
        for limit in (None, 1)
    ]
    for got, want in answers:
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # The walks read no record; the records, once read, are the parsed ones.
    assert "terms" not in vars(r)
    assert list(r.terms.items()) == list(o.terms.items())


def test_ingest_reads_each_input_once(tmp_path, monkeypatch):
    cfg = write_inputs(tmp_path, *fixture_inputs())
    reads = collections.Counter()
    read_bytes = Path.read_bytes

    def counted(path):
        reads[path] += 1
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counted)
    pipeline.step_ingest(cfg)
    fields = (pipeline.ONTOLOGY, pipeline.DISEASES, pipeline.GENES)
    assert reads == {Path(getattr(cfg.paths, field)): 1 for field in fields}


def test_snapshot_bytes_repeat(tmp_path):
    cfg = write_inputs(tmp_path, *fixture_inputs())
    path = pipeline.workdir(cfg) / pipeline.INPUTS_FILE
    pipeline.step_ingest(cfg)
    first = path.read_bytes()
    pipeline.step_ingest(cfg)
    assert path.read_bytes() == first
    # A member stamped with the time of writing would repeat only within one
    # second; every member carries the zip format's fixed 1980 stamp.
    with zipfile.ZipFile(path) as z:
        assert {info.date_time for info in z.infolist()} == {(1980, 1, 1, 0, 0, 0)}
    with np.load(path, allow_pickle=False) as npz:
        meta = json.loads(npz["meta"].tobytes())
    assert meta["version"] == pipeline.SNAPSHOT_VERSION
    assert meta["sha256"] == {
        field: hashlib.sha256(Path(getattr(cfg.paths, field)).read_bytes()).hexdigest()
        for field in (pipeline.ONTOLOGY, pipeline.DISEASES, pipeline.GENES)
    }
