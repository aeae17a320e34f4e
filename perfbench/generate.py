"""Deterministic input generator for the benchmark workloads.

Writes an ontology JSON, a disease annotation TSV and a gene annotation TSV
into a directory. The same shape and seed always give the same bytes.

    python3 perfbench/generate.py --shape hpo17k --seed 1 --out DIR

In the HPO-scale shape every lexeme (term name or synonym) has three words,
and no two lexemes have the same multiset of character 3- to 5-grams. So no
lexeme occurs inside another at word boundaries, the gazetteer finds each
curated name the cohort synthesizer embeds, and only the name's own index
entry scores a cosine of 1.0 against it, which makes recall before
prioritization 1.0 by construction (up to collisions of the index's n-gram
hash, which the runner's output checks would report).
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

ONTOLOGY_FILE = "ontology.json"
DISEASE_FILE = "disease.tsv"
GENE_FILE = "gene.tsv"

# Words are three consonant-vowel syllables over these letters, a shape no
# word of the note templates has, so no lexeme can match template text.
_CONSONANTS = "bdgkpstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def ngram_multiset(text: str) -> tuple[str, ...]:
    """The character 3- to 5-grams the standardization index embeds, sorted.

    Words here are lowercase letters with single spaces, so lowercasing is
    the index's whole normalization. Two lexemes with equal multisets embed
    to the same vector, e.g. "Bokosa zozosa bokosa" and "Bokosa bokosa
    zozosa", whose words share the suffix "osa".
    """
    padded = f" {text.lower()} "
    return tuple(
        sorted(padded[i : i + n] for n in (3, 4, 5) for i in range(len(padded) - n + 1))
    )


def _term(tid: str, name: str, parents: list[str], synonyms: list[str], n: int) -> dict:
    return {
        "id": tid,
        "name": name,
        "synonyms": synonyms,
        "def": f"Synthetic finding number {n}.",
        "is_a": parents,
        "is_obsolete": False,
    }


def fixture_inputs() -> tuple[list[dict], str, str]:
    """The acceptance-gate shape: 1 root, 8 hubs, 32 mids, 128 leaves.

    Each term has one synonym; each leaf one omim disease and one gene, and
    every second leaf is also in orphanet.
    """
    root = "HP:0100000"
    hubs = [f"HP:{100001 + i:07d}" for i in range(8)]
    mids = [f"HP:{101000 + i * 10 + j:07d}" for i in range(8) for j in range(4)]
    leaves = [
        f"HP:{102000 + i * 100 + j * 10 + k:07d}"
        for i in range(8)
        for j in range(4)
        for k in range(4)
    ]
    parent_of = {root: []}
    parent_of.update({h: [root] for h in hubs})
    parent_of.update({m: [hubs[i // 4]] for i, m in enumerate(mids)})
    parent_of.update({leaf: [mids[i // 4]] for i, leaf in enumerate(leaves)})
    terms = [
        _term(tid, f"Finding {n:04d}", parents, [f"Observation {n:04d}"], n)
        for n, (tid, parents) in enumerate(parent_of.items(), start=1)
    ]
    disease_rows, gene_rows = [], []
    for m, leaf in enumerate(leaves, start=1):
        disease_rows.append(f"{leaf}\tD{m:04d}\tomim")
        if m % 2 == 0:
            disease_rows.append(f"{leaf}\tD{m:04d}\torphanet")
        gene_rows.append(f"{leaf}\tG{m:04d}")
    return terms, "\n".join(disease_rows) + "\n", "\n".join(gene_rows) + "\n"


def hpo_scale_inputs(
    seed: int,
    n_terms: int = 17_000,
    n_words: int = 600,
    n_diseases: int = 4_000,
    per_disease: int = 8,
    n_genes: int = 3_000,
    per_gene: int = 4,
) -> tuple[list[dict], str, str]:
    """A random HPO-sized DAG with 3-word names and synonyms on half the terms.

    Each term past the root takes a uniformly chosen earlier term as parent
    (mean depth about ln n) and one in ten takes a second earlier parent.
    Word frequencies follow a Zipf-like law so names share words the way
    clinical vocabularies do. Every disease is annotated to ``per_disease``
    distinct terms under omim, and every second disease also under orphanet.
    """
    rng = random.Random(f"{seed}:hpo-scale")
    words: list[str] = []
    seen_words: set[str] = set()
    while len(words) < n_words:
        w = "".join(rng.choice(_SYLLABLES) for _ in range(3))
        if w not in seen_words:
            seen_words.add(w)
            words.append(w)
    weights = [1.0 / (rank + 1) ** 0.8 for rank in range(n_words)]
    seen_ngrams: set[tuple[str, ...]] = set()

    def fresh_lexeme() -> str:
        while True:
            first, second, third = rng.choices(words, weights=weights, k=3)
            text = f"{first.capitalize()} {second} {third}"
            key = ngram_multiset(text)
            if key not in seen_ngrams:
                seen_ngrams.add(key)
                return text

    ids = [f"HP:{2000000 + i:07d}" for i in range(n_terms)]
    terms = []
    for i, tid in enumerate(ids):
        parents: list[str] = []
        if i:
            parents.append(ids[rng.randrange(i)])
            if i > 1 and rng.random() < 0.1:
                extra = ids[rng.randrange(i)]
                if extra not in parents:
                    parents.append(extra)
        name = fresh_lexeme()
        synonyms = [fresh_lexeme()] if rng.random() < 0.5 else []
        terms.append(_term(tid, name, parents, synonyms, i + 1))

    annotatable = ids[1:]
    disease_rows = []
    for d in range(1, n_diseases + 1):
        chosen = sorted(rng.sample(annotatable, per_disease))
        sources = ("omim", "orphanet") if d % 2 == 0 else ("omim",)
        for source in sources:
            disease_rows.extend(f"{t}\tD{d:05d}\t{source}" for t in chosen)
    gene_rows = []
    for g in range(1, n_genes + 1):
        for t in sorted(rng.sample(annotatable, per_gene)):
            gene_rows.append(f"{t}\tG{g:05d}")
    return terms, "\n".join(disease_rows) + "\n", "\n".join(gene_rows) + "\n"


def write_inputs(shape: str, seed: int, out: Path) -> dict[str, Path]:
    """Write the inputs of one ontology shape (``fixture`` or ``hpo17k``)."""
    if shape == "fixture":
        terms, disease, gene = fixture_inputs()
    elif shape == "hpo17k":
        terms, disease, gene = hpo_scale_inputs(seed)
    else:
        raise ValueError(f"unknown ontology shape {shape!r}")
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "ontology": out / ONTOLOGY_FILE,
        "disease_annotations": out / DISEASE_FILE,
        "gene_annotations": out / GENE_FILE,
    }
    paths["ontology"].write_text(json.dumps(terms, indent=1) + "\n", encoding="utf-8")
    paths["disease_annotations"].write_text(disease, encoding="utf-8")
    paths["gene_annotations"].write_text(gene, encoding="utf-8")
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=("fixture", "hpo17k"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for path in write_inputs(args.shape, args.seed, args.out).values():
        print(path)


if __name__ == "__main__":
    main()
