"""Cohort evaluation: top-k precision/recall/F1, ontology similarity, error
counts, percentile-bootstrap confidence intervals, and a random-permutation
baseline quantifying what prioritization adds over unordered extraction.

All three evaluations (end to end, per ablation stage, against permutations)
score a patient through one kernel, ``_cutoff_metrics``, which takes a stack of
orders of the patient's ranked terms and scores every order at every cutoff at
once. Its results are bitwise equal to scoring each order's top ``k`` on its
own: hits are exact integer prefix sums, maxima are exact, and every mean runs
over the same values, in the same order and length, as a mean over the top-k
submatrix would, so numpy's pairwise summation adds them the same way. The
permutation baseline is its exact mean over all orders, in closed form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb
from typing import Sequence

import numpy as np

from .config import EvaluationConfig
from .errors import DataError
from .ontology import Ontology, OntologyStats, lin_similarity

# The stream tag keeps bootstrap draws on their own substreams of the master
# seed, independent of worker count or evaluation order.
_BOOTSTRAP_STREAM = 101

METRIC_NAMES = ("precision", "recall", "f1", "lin_similarity", "mean_fn", "mean_fp")
DELTA_METRIC_NAMES = (
    "delta_precision",
    "delta_recall",
    "delta_f1",
    "delta_lin_similarity",
)


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


def _report(
    configuration: str,
    names: Sequence[str],
    per_patient: np.ndarray,
    cfg: EvaluationConfig,
    seed: int,
    provenance: dict | None,
    warnings: dict,
) -> MetricsReport:
    """Mean over patients with bootstrap CIs, one row per cutoff."""
    point = per_patient.mean(axis=0)
    lo, hi = _bootstrap_ci(per_patient, cfg.bootstrap_iterations, seed)
    rows = [
        {
            "k": int(k),
            "metrics": {
                name: {"point": float(mid), "lo": float(low), "hi": float(high)}
                for name, mid, low, high in zip(names, point[ki], lo[ki], hi[ki])
            },
        }
        for ki, k in enumerate(cfg.cutoffs)
    ]
    return MetricsReport(
        configuration, rows, per_patient.shape[0], provenance or {}, warnings
    )


def _scored_patients(
    ranked_by_patient: dict[str, list[str]], gold_by_patient: dict[str, set[str]]
) -> tuple[list[str], int]:
    """Sorted ids of patients with gold terms, and how many ranked ones lack gold.

    A gold patient with no ranking row is scored as an empty ranking. If no
    gold patient has a row at all, the ids most likely do not match. A scored
    ranking that repeats a term is rejected: top-k counts assume each of the k
    positions holds a distinct term.
    """
    pids = sorted(pid for pid, gold in gold_by_patient.items() if gold)
    if not any(pid in ranked_by_patient for pid in pids):
        raise DataError("no patient has both a ranking and gold terms")
    for pid in pids:
        ranked = ranked_by_patient.get(pid, [])
        if len(set(ranked)) != len(ranked):
            raise DataError(f"patient {pid} ranks a term more than once")
    return pids, len(ranked_by_patient.keys() - set(pids))


def _prf(hits: np.ndarray, kk: np.ndarray, gold: int) -> tuple[np.ndarray, ...]:
    """Precision, recall and F1 of ``hits`` among ``kk`` selected of ``gold``."""
    p = hits / kk
    r = hits / gold
    with np.errstate(invalid="ignore"):
        f1 = np.where(p + r == 0.0, 0.0, 2.0 * p * r / (p + r))
    return p, r, f1


def _cutoff_metrics(
    orders: np.ndarray, rel: np.ndarray, M: np.ndarray, cutoffs: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Score a (P, n) stack of orders of one patient's n ranked terms.

    ``rel`` is the terms' 0/1 gold mask and ``M`` their (n x gold) Lin matrix.
    Each order's top min(k, n) terms are scored at every cutoff k. Returns a
    (P, K, 4) array of precision, recall, F1 and best-match average, and the
    (P, K) hits.
    """
    kk = np.minimum(cutoffs, orders.shape[1])
    hits = np.cumsum(rel[orders], axis=1)[:, kk - 1]
    p, r, f1 = _prf(hits, kk, M.shape[1])
    # Best row match of each selected term, and best selected match of each
    # gold term; each mean runs over a contiguous run of the top k.
    row_best = M.max(axis=1)[orders]
    rows = np.stack([row_best[:, :k].mean(axis=1) for k in kk], axis=1)
    cols = np.maximum.accumulate(M[orders], axis=1)[:, kk - 1].mean(axis=2)
    return np.stack([p, r, f1, (rows + cols) / 2.0], axis=2), hits


def _expected_metrics(
    rel: np.ndarray, M: np.ndarray, cutoffs: Sequence[int]
) -> np.ndarray:
    """The (K, 4) mean of ``_cutoff_metrics`` over all n! orders of the n terms.

    A random order's top m = min(k, n) holds m * R / n of the list's R gold
    terms on average, and F1 is linear in hits at fixed m. The row half's mean
    is the mean row maximum. A gold term's best match is its column's j-th
    smallest value with probability C(j - 1, m - 1) / C(n, m). At m = n every
    value is the list's own, so the delta is exactly 0.
    """
    n, gold = M.shape
    kk = np.minimum(cutoffs, n)
    p, r, f1 = _prf(kk * int(rel.sum()) / n, kk, gold)
    w = np.array([[comb(j, m - 1) / comb(n, m) for j in range(n)] for m in kk.tolist()])
    cols = (w[:, None, :] * np.sort(M.T, axis=1)).sum(axis=2).mean(axis=1)
    return np.stack([p, r, f1, (M.max(axis=1).mean() + cols) / 2.0], axis=1)


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

    Every patient with gold terms is scored. Ranked patients without gold are
    excluded and counted in the warnings; empty or absent ranked lists
    contribute zero precision/recall/similarity and are flagged.
    """
    cfg.validate()
    return _evaluate(
        ranked_by_patient, gold_by_patient, o, s, cfg, seed, configuration, provenance
    )


def _evaluate(
    ranked_by_patient: dict[str, list[str]],
    gold_by_patient: dict[str, set[str]],
    o: Ontology,
    s: OntologyStats,
    cfg: EvaluationConfig,
    seed: int,
    configuration: str,
    provenance: dict | None,
) -> MetricsReport:
    """``evaluate_cohort`` without the config check, which ``ablation_run``
    makes once for its three stages."""
    pids, missing_gold = _scored_patients(ranked_by_patient, gold_by_patient)
    empty_ranked = 0
    per_patient = np.zeros((len(pids), len(cfg.cutoffs), len(METRIC_NAMES)))
    for i, pid in enumerate(pids):
        ranked = ranked_by_patient.get(pid, [])
        gold = set(gold_by_patient[pid])
        n = len(ranked)
        if not n:
            empty_ranked += 1
            per_patient[i, :, 4] = len(gold)
            continue
        rel = np.array([1.0 if t in gold else 0.0 for t in ranked])
        M = lin_similarity(o, s, ranked, sorted(gold))
        scores, hits = _cutoff_metrics(np.arange(n)[None], rel, M, cfg.cutoffs)
        per_patient[i, :, :4] = scores[0]
        per_patient[i, :, 4] = len(gold) - hits[0]
        per_patient[i, :, 5] = np.minimum(cfg.cutoffs, n) - hits[0]
    warnings = {"missingGold": missing_gold, "emptyRanked": empty_ranked}
    return _report(
        configuration, METRIC_NAMES, per_patient, cfg, seed, provenance, warnings
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
    """Prioritized metrics minus their exact mean over every order of the list.

    The baseline is each patient's own term list in uniformly random order,
    averaged in closed form (``_expected_metrics``) rather than sampled; the
    same cutoffs and bootstrap machinery yield CIs for the per-patient
    deltas. A list of 0 or 1 terms has only the identity order, so its delta
    is 0 at every cutoff; empty lists are counted as in ``evaluate_cohort``.
    """
    cfg.validate()
    pids, missing_gold = _scored_patients(ranked_by_patient, gold_by_patient)
    empty_ranked = 0
    deltas = np.zeros((len(pids), len(cfg.cutoffs), len(DELTA_METRIC_NAMES)))
    for i, pid in enumerate(pids):
        ranked = ranked_by_patient.get(pid, [])
        gold = set(gold_by_patient[pid])
        n = len(ranked)
        if n < 2:
            empty_ranked += n == 0
            continue
        rel = np.array([1.0 if t in gold else 0.0 for t in ranked])
        M = lin_similarity(o, s, ranked, sorted(gold))
        prior = _cutoff_metrics(np.arange(n)[None], rel, M, cfg.cutoffs)[0][0]
        deltas[i] = prior - _expected_metrics(rel, M, cfg.cutoffs)
    warnings = {"missingGold": missing_gold, "emptyRanked": empty_ranked}
    return _report(
        configuration, DELTA_METRIC_NAMES, deltas, cfg, seed, provenance, warnings
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
    for tid in o.ids:
        name_map.setdefault(o.terms[tid].name.lower(), tid)
    out: dict[str, list[str]] = {}
    for pid, mentions in mentions_by_patient.items():
        tids = (name_map.get(m.surface.lower()) for m in mentions)
        out[pid] = list(dict.fromkeys(t for t in tids if t is not None))
    return out


ABLATION_STAGES = (
    "extraction_only",
    "extraction_standardization",
    "full_pipeline",
)


def ablation_run(
    mentions_by_patient: dict[str, list],
    standardized_by_patient: dict[str, list[str]],
    ranked_by_patient: dict[str, list[str]],
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
            _evaluate(
                normalized, gold_by_patient, o, s, cfg, seed, stage, provenance
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

    Rows that fail validation (bad JSON, a non-object row, missing fields,
    unknown or obsolete term ids, duplicate patient) are flagged and skipped;
    valid rows load.
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
        if not isinstance(row, dict):
            errors.append(f"line {lineno}: not an object")
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
        rankings[pid] = list(dict.fromkeys(terms))
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
