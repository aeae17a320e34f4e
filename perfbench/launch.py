"""Traced launcher: runs one ``phenorank`` step with spans around its layers.

    python3 perfbench/launch.py TRACE_OUT STEP [STEP ARGS...]

The launcher imports ``phenorank.cli``, wraps the public functions listed in
``LAYERS`` from outside (nothing under ``src/`` changes), runs the step as
the ``phenorank`` command would, and on exit writes one JSON document to
TRACE_OUT. Spans stay in memory until then. Each span records its name,
start, end and parent span; counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(tracer, args, kwargs, result)`` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._open.pop()
            self.count(name + "_calls")
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap a hot function in a call counter only, with no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper


def _gazetteer_lexemes(tracer, args, kwargs, result) -> None:
    o = args[1] if len(args) > 1 else kwargs["o"]
    lexemes = set()
    for tid in o.non_obsolete_ids():
        rec = o.terms[tid]
        lexemes.update(x.lower() for x in [rec.name, *rec.synonyms] if x.strip())
    tracer.count("extraction.lexemes", len(lexemes))


def _extract_counts(tracer, args, kwargs, result) -> None:
    tracer.count(
        "extraction.mentions", sum(len(v) for v in result.mentions_by_patient.values())
    )
    tracer.count("extraction.failed_chunks", len(result.failures))


def _standardize_counts(tracer, args, kwargs, result) -> None:
    tracer.count("standardization.mentions", len(result.trace))
    tracer.count(
        "standardization.unresolved", sum(1 for t in result.trace if t.resolved is None)
    )


def _len_counter(name: str):
    def after(tracer, args, kwargs, result) -> None:
        tracer.count(name, len(result))

    return after


def _boosted_rounds(tracer, args, kwargs, result) -> None:
    tracer.count("ranking.models.boosted_rounds", result.meta.rounds)


def _artifact_bytes(tracer, args, kwargs, result) -> None:
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.count("pipeline.artifact_bytes", len(text.encode("utf-8")))


# (module, attribute, span name, counter hook); a class attribute is
# "Class.method". Span names are the per-layer metric names without "_s".
LAYERS = (
    ("phenorank.ontology", "parse_ontology_json", "ontology.parse", None),
    ("phenorank.ontology", "parse_obo", "ontology.parse", None),
    ("phenorank.ontology", "compute_stats", "ontology.stats", None),
    ("phenorank.annotations", "load_annotations", "annotations.load", None),
    ("phenorank.annotations", "feature_table", "annotations.feature_table", None),
    ("phenorank.corpus", "synth_cohort", "corpus.synth_cohort", None),
    ("phenorank.corpus", "chunk_note", "corpus.chunk", _len_counter("corpus.chunks")),
    (
        "phenorank.extraction",
        "Gazetteer.__init__",
        "extraction.gazetteer_build",
        _gazetteer_lexemes,
    ),
    ("phenorank.extraction", "Gazetteer.extract", "extraction.scan", None),
    ("phenorank.extraction", "extract_corpus", "extraction.extract_corpus", _extract_counts),
    ("phenorank.standardization", "build_index", "standardization.index_build", None),
    ("phenorank.standardization", "retrieve", "standardization.retrieve", None),
    (
        "phenorank.standardization",
        "standardize_corpus",
        "standardization.standardize_corpus",
        _standardize_counts,
    ),
    (
        "phenorank.ranking.features",
        "build_instances",
        "ranking.features.build_instances",
        _len_counter("ranking.features.instances"),
    ),
    ("phenorank.ranking.sampling", "negative_pools", "ranking.sampling.negative_pools", None),
    ("phenorank.ranking.models", "train_pairwise_linear", "ranking.models.linear", None),
    ("phenorank.ranking.models", "train_boosted", "ranking.models.boosted", _boosted_rounds),
    ("phenorank.ranking.models", "select_model", "ranking.models.select", None),
    ("phenorank.ranking.models", "rank_terms", "ranking.models.rank_terms", None),
    ("phenorank.evaluation", "evaluate_cohort", "evaluation.evaluate", None),
    ("phenorank.evaluation", "ablation_run", "evaluation.ablation", None),
    ("phenorank.evaluation", "permutation_delta", "evaluation.permutation", None),
    ("phenorank.pipeline", "read_jsonl", "pipeline.read", None),
    ("phenorank.pipeline", "write_jsonl", "pipeline.write", None),
    ("phenorank.pipeline", "_atomic_write", "pipeline.write", _artifact_bytes),
)

# Called too often for a span each; counted only.
COUNTED = (
    ("phenorank.standardization", "default_embed", "standardization.embed_calls"),
    ("phenorank.ontology", "lin_similarity", "evaluation.lin_calls"),
)


def _replace_everywhere(original, replacement) -> None:
    # ``from .x import f`` copies the reference, so rebind it in every module.
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("phenorank"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every function in ``LAYERS`` and ``COUNTED`` with ``tracer``."""
    for module, attr, name, after in LAYERS:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.timed(name, getattr(cls, meth), after))
        else:
            original = getattr(owner, attr)
            _replace_everywhere(original, tracer.timed(name, original, after))
    for module, attr, name in COUNTED:
        original = getattr(sys.modules[module], attr)
        _replace_everywhere(original, tracer.counted(name, original))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: launch.py TRACE_OUT STEP [ARGS...]", file=sys.stderr)
        return 2
    out, step_args = Path(argv[0]), argv[1:]
    t0 = time.perf_counter()
    import phenorank.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    code = 0
    try:
        phenorank.cli.main(args=step_args, prog_name="phenorank")
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        doc = {
            "step": step_args[0],
            "import_s": import_s,
            "spans": tracer.spans,
            "counters": tracer.counters,
        }
        out.write_text(json.dumps(doc), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
