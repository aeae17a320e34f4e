"""Cohort evaluation: top-k precision/recall/F1, ontology similarity, error
counts, percentile-bootstrap confidence intervals, and a random-permutation
baseline quantifying what prioritization adds over unordered extraction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import EvaluationConfig
from .errors import ConfigError, DataError
from .ontology import Ontology, OntologyStats, lin_similarity

# Stream tags keep bootstrap and permutation draws on disjoint substreams of
# the master seed, independent of worker count or evaluation order.
_BOOTSTRAP_STREAM = 101
_PERMUTE_STREAM = 202

METRIC_NAMES = ("precision", "recall", "f1", "lin_similarity", "mean_fn", "mean_fp")
DELTA_METRIC_NAMES = (
    "delta_precision",
    "delta_recall",
    "delta_f1",
    "delta_lin_similarity",
)


def topk_prf(
    ranked: Sequence[str], gold: set[str], k: int
) -> tuple[float, float, float]:
    """Precision, recall, F1 over the first min(k, len) ranked terms.

    An empty ranked list reports zeros; callers flag it. F1 is 0 when both
    precision and recall are 0.
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


class LinCache:
    """Memoized pairwise Lin similarity; one instance per (ontology, stats)."""

    def __init__(self, o: Ontology, s: OntologyStats):
        self._o = o
        self._s = s
        self._pairs: dict[tuple[str, str], float] = {}

    def lin(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        val = self._pairs.get(key)
        if val is None:
            val = lin_similarity(self._o, self._s, a, b)
            self._pairs[key] = val
        return val

    def matrix(self, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
        out = np.empty((len(rows), len(cols)), dtype=np.float64)
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                out[i, j] = self.lin(a, b)
        return out


def _bma(sub: np.ndarray) -> float:
    # Symmetric best-match average over a (selected x gold) Lin matrix.
    if sub.size == 0:
        return 0.0
    return (sub.max(axis=1).mean() + sub.max(axis=0).mean()) / 2.0


@dataclass
class MetricsReport:
    """Point estimates with 95% bootstrap CIs, one row per cutoff."""

    configuration: str
    rows: list[dict]  # {"k": int, "metrics": {name: {"point","lo","hi"}}}
    cohort_size: int
    provenance: dict
    warnings: dict

    def to_dict(self) -> dict:
        return {
            "configuration": self.configuration,
            "cohortSize": self.cohort_size,
            "provenance": self.provenance,
            "warnings": self.warnings,
            "rows": self.rows,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def metric_names(self) -> list[str]:
        return list(self.rows[0]["metrics"]) if self.rows else []

    def value(self, k: int, metric: str) -> tuple[float, float, float]:
        for row in self.rows:
            if row["k"] == k:
                m = row["metrics"][metric]
                return m["point"], m["lo"], m["hi"]
        raise KeyError(f"no row for k={k}")


def report_csv(reports: Sequence[MetricsReport]) -> str:
    """Wide CSV: one row per configuration and cutoff."""
    if not reports:
        raise DataError("no reports to export")
    names = reports[0].metric_names()
    header = ["configuration", "k"]
    for name in names:
        header.extend((name, f"{name}_lo", f"{name}_hi"))
    lines = [",".join(header)]
    for rep in reports:
        if rep.metric_names() != names:
            raise DataError("reports carry different metric sets")
        for row in rep.rows:
            cells = [rep.configuration, str(row["k"])]
            for name in names:
                m = row["metrics"][name]
                cells.extend((repr(m["point"]), repr(m["lo"]), repr(m["hi"])))
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _bootstrap_ci(
    per_patient: np.ndarray, iterations: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Percentile bootstrap of the mean over axis 0 (patients).

    Each replicate resamples patients with replacement from its own seeded
    substream, so results do not depend on scheduling or worker count.
    """
    n = per_patient.shape[0]
    means = np.empty((iterations,) + per_patient.shape[1:], dtype=np.float64)
    for i in range(iterations):
        rng = np.random.default_rng([seed, _BOOTSTRAP_STREAM, i])
        idx = rng.integers(0, n, n)
        means[i] = per_patient[idx].mean(axis=0)
    lo = np.quantile(means, 0.025, axis=0)
    hi = np.quantile(means, 0.975, axis=0)
    return lo, hi


def _assemble_rows(
    cutoffs: Sequence[int],
    names: Sequence[str],
    point: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> list[dict]:
    rows = []
    for ki, k in enumerate(cutoffs):
        metrics = {}
        for mi, name in enumerate(names):
            metrics[name] = {
                "point": float(point[ki, mi]),
                "lo": float(lo[ki, mi]),
                "hi": float(hi[ki, mi]),
            }
        rows.append({"k": int(k), "metrics": metrics})
    return rows


def _scored_patients(
    ranked_by_patient: dict[str, list[str]], gold_by_patient: dict[str, set[str]]
) -> tuple[list[str], int]:
    """Sorted ids of ranked patients with gold terms, and how many lack gold."""
    pids = [pid for pid in sorted(ranked_by_patient) if gold_by_patient.get(pid)]
    if not pids:
        raise DataError("no patient has both a ranking and gold terms")
    return pids, len(ranked_by_patient) - len(pids)


def evaluate_cohort(
    ranked_by_patient: dict[str, list[str]],
    gold_by_patient: dict[str, set[str]],
    o: Ontology,
    s: OntologyStats,
    cfg: EvaluationConfig,
    seed: int = 0,
    configuration: str = "prioritized",
    provenance: dict | None = None,
) -> MetricsReport:
    """Average per-patient metrics at each cutoff with bootstrap CIs.

    Patients without gold are excluded and counted in the warnings; empty
    ranked lists contribute zero precision/recall/similarity and are flagged.
    """
    cfg.validate()
    cache = LinCache(o, s)
    pids, missing_gold = _scored_patients(ranked_by_patient, gold_by_patient)
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
            sim = _bma(M[:kk]) if kk else 0.0
            fn = len(gold - top)
            fp = len(top - gold)
            per_patient[i, ki] = (p, r, f1, sim, fn, fp)
    point = per_patient.mean(axis=0)
    lo, hi = _bootstrap_ci(per_patient, cfg.bootstrap_iterations, seed)
    return MetricsReport(
        configuration=configuration,
        rows=_assemble_rows(cfg.cutoffs, METRIC_NAMES, point, lo, hi),
        cohort_size=len(pids),
        provenance=provenance or {},
        warnings={"missingGold": missing_gold, "emptyRanked": empty_ranked},
    )


def permutation_delta(
    ranked_by_patient: dict[str, list[str]],
    gold_by_patient: dict[str, set[str]],
    o: Ontology,
    s: OntologyStats,
    cfg: EvaluationConfig,
    seed: int = 0,
    configuration: str = "prioritized-vs-permuted",
    provenance: dict | None = None,
) -> MetricsReport:
    """Prioritized metrics minus the mean over uniform random permutations.

    Permutations reshuffle each patient's own term list; the same cutoffs and
    bootstrap machinery yield CIs for the per-patient deltas.
    """
    cfg.validate()
    cache = LinCache(o, s)
    pids, missing_gold = _scored_patients(ranked_by_patient, gold_by_patient)
    for pid in pids:
        if len(ranked_by_patient[pid]) < 2:
            raise DataError(
                f"patient {pid} has fewer than 2 ranked terms; permutation "
                "baseline is undefined"
            )
    K = len(cfg.cutoffs)
    deltas = np.zeros((len(pids), K, len(DELTA_METRIC_NAMES)), dtype=np.float64)
    for i, pid in enumerate(pids):
        ranked = ranked_by_patient[pid]
        gold = set(gold_by_patient[pid])
        gold_list = sorted(gold)
        n = len(ranked)
        rel = np.array([1.0 if t in gold else 0.0 for t in ranked])
        M = cache.matrix(ranked, gold_list)
        R = len(gold)
        prior = np.zeros((K, 4))
        cum = np.cumsum(rel)
        for ki, k in enumerate(cfg.cutoffs):
            kk = min(k, n)
            hits = cum[kk - 1]
            p = hits / kk
            r = hits / R
            f1 = 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)
            prior[ki] = (p, r, f1, _bma(M[:kk]))
        rng = np.random.default_rng([seed, _PERMUTE_STREAM, i])
        acc = np.zeros((K, 4))
        for _ in range(cfg.permutations):
            perm = rng.permutation(n)
            rel_p = rel[perm]
            cum_p = np.cumsum(rel_p)
            for ki, k in enumerate(cfg.cutoffs):
                kk = min(k, n)
                hits = cum_p[kk - 1]
                p = hits / kk
                r = hits / R
                f1 = 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)
                acc[ki] += (p, r, f1, _bma(M[perm[:kk]]))
        deltas[i] = prior - acc / cfg.permutations
    point = deltas.mean(axis=0)
    lo, hi = _bootstrap_ci(deltas, cfg.bootstrap_iterations, seed)
    return MetricsReport(
        configuration=configuration,
        rows=_assemble_rows(cfg.cutoffs, DELTA_METRIC_NAMES, point, lo, hi),
        cohort_size=len(pids),
        provenance=provenance or {},
        warnings={"missingGold": missing_gold, "emptyRanked": 0},
    )


# -- ablation ------------------------------------------------------------------------


def exact_name_terms(
    mentions_by_patient: dict[str, list],
    o: Ontology,
) -> dict[str, list[str]]:
    """Map mention surfaces to terms by case-insensitive exact name lookup only.

    Used by the extraction-only ablation stage: no retrieval, no synonyms.
    Name collisions keep the smallest term id; unmatched surfaces drop.
    """
    name_map: dict[str, str] = {}
    for tid in o.non_obsolete_ids():
        name_map.setdefault(o.terms[tid].name.lower(), tid)
    out: dict[str, list[str]] = {}
    for pid, mentions in mentions_by_patient.items():
        seen: list[str] = []
        for m in mentions:
            tid = name_map.get(m.surface.lower())
            if tid is not None and tid not in seen:
                seen.append(tid)
        out[pid] = seen
    return out


ABLATION_STAGES = (
    "extraction_only",
    "extraction_standardization",
    "full_pipeline",
)


def ablation_run(
    mentions_by_patient: dict[str, list] | None,
    standardized_by_patient: dict[str, list[str]] | None,
    ranked_by_patient: dict[str, list[str]] | None,
    gold_by_patient: dict[str, set[str]],
    o: Ontology,
    s: OntologyStats,
    cfg: EvaluationConfig,
    seed: int = 0,
    provenance: dict | None = None,
) -> list[MetricsReport]:
    """Evaluate the pipeline cut after each module on the same cohort.

    Stage lists: exact-name mapped mentions; standardized term sets (first
    resolution order); prioritized rankings. Every gold patient appears in
    every stage (absent entries evaluate as empty lists) so the stages stay
    comparable.
    """
    cfg.validate()
    if mentions_by_patient is None or standardized_by_patient is None:
        raise ConfigError("ablation needs the mention and standardized artifacts")
    if ranked_by_patient is None:
        raise ConfigError("ablation needs the prioritized ranking artifact")
    stage_lists = {
        ABLATION_STAGES[0]: exact_name_terms(mentions_by_patient, o),
        ABLATION_STAGES[1]: standardized_by_patient,
        ABLATION_STAGES[2]: ranked_by_patient,
    }
    reports = []
    for stage in ABLATION_STAGES:
        lists = stage_lists[stage]
        normalized = {
            pid: list(lists.get(pid, [])) for pid in sorted(gold_by_patient)
        }
        reports.append(
            evaluate_cohort(
                normalized,
                gold_by_patient,
                o,
                s,
                cfg,
                seed,
                configuration=stage,
                provenance=provenance,
            )
        )
    return reports


# -- external rankings ------------------------------------------------------------


@dataclass
class ImportResult:
    rankings: dict[str, list[str]]
    errors: list[str] = field(default_factory=list)


def import_external_ranking(text: str, o: Ontology) -> ImportResult:
    """Read JSONL rows {"patientId": ..., "terms": [...]}.

    Rows that fail validation (bad JSON, missing fields, unknown or obsolete
    term ids, duplicate patient) are flagged and skipped; valid rows load.
    """
    rankings: dict[str, list[str]] = {}
    errors: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {lineno}: invalid JSON ({e.msg})")
            continue
        pid = row.get("patientId")
        terms = row.get("terms")
        if not isinstance(pid, str) or not isinstance(terms, list):
            errors.append(f"line {lineno}: needs patientId and terms")
            continue
        if pid in rankings:
            errors.append(f"line {lineno}: duplicate patientId {pid}")
            continue
        bad = [t for t in terms if not isinstance(t, str) or _unusable(o, t)]
        if bad:
            errors.append(f"line {lineno}: unresolvable terms {bad}")
            continue
        deduped: list[str] = []
        for t in terms:
            if t not in deduped:
                deduped.append(t)
        rankings[pid] = deduped
    return ImportResult(rankings=rankings, errors=errors)


def _unusable(o: Ontology, tid: str) -> bool:
    rec = o.terms.get(tid)
    return rec is None or rec.obsolete


def export_ranking(rankings: dict[str, list[str]]) -> str:
    """Inverse of import_external_ranking for valid data."""
    lines = [
        json.dumps({"patientId": pid, "terms": list(rankings[pid])}, sort_keys=True)
        for pid in sorted(rankings)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
