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

Every report's confidence intervals come from ``_bootstrap_ci``. Draw ``j``
of replicate ``i`` is the index ``streams.bounded`` makes from counter ``i * n
+ j`` of the stream keyed by ``(seed, "bootstrap")``, so all of a block's
replicates are drawn in one pass, and every report of a run resamples the
same patients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb, floor
from typing import Sequence

import numpy as np

from .config import EvaluationConfig
from .errors import DataError
from .ontology import Ontology, OntologyStats, lin_similarity
from .rows import PatientTerms, Row
from .streams import bounded, stream_key

# Resampled indices held at once: replicates are drawn and summed in blocks of
# about this many, so memory stays bounded at large cohorts.
_BLOCK_DRAWS = 1 << 20

METRIC_NAMES = ("precision", "recall", "f1", "lin_similarity", "mean_fn", "mean_fp")
DELTA_METRIC_NAMES = (
    "delta_precision",
    "delta_recall",
    "delta_f1",
    "delta_lin_similarity",
)


@dataclass
class MetricsReport(Row):
    """Point estimates with 95% bootstrap CIs, one row per cutoff."""

    configuration: str
    rows: list[dict]  # {"k": int, "metrics": {name: {"point","lo","hi"}}}
    cohort_size: int
    provenance: dict
    warnings: dict

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def metric_names(self) -> list[str]:
        return list(self.rows[0]["metrics"]) if self.rows else []


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


def _linear_quantile(ordered: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(values, q, axis=0)`` by numpy's default ``linear`` rule,
    from ``values`` sorted along axis 0.

    The virtual index, the neighbours (the last value twice at the top), the
    weight and the branch of numpy's ``_lerp`` are numpy's own, so the bits
    agree; a column holding NaN, which sorts last, yields NaN. Unlike
    ``np.quantile``, this calls no ``np.unique``, which on numpy 2 imports
    ``numpy.ma`` (numpy 1.x imports it with numpy itself).
    """
    count = len(ordered)
    virtual = (count - 1) * q
    below = floor(virtual)
    above = below + 1
    if virtual >= count - 1:
        below = above = -1
    t = virtual - below
    a, b = ordered[below], ordered[above]
    diff = b - a
    out = b - diff * (1 - t) if t >= 0.5 else a + diff * t
    np.copyto(out, ordered[-1], where=np.isnan(ordered[-1]))
    return out


def _bootstrap_ci(
    per_patient: np.ndarray, iterations: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Percentile bootstrap of the mean over axis 0 (patients): the 2.5th and
    97.5th percentiles of ``iterations`` replicate means.

    Draw ``j`` of replicate ``i`` is ``bounded(key, i * n + j, n)`` on the
    seed's ``"bootstrap"`` stream. A replicate's mean adds its drawn rows one
    at a time in draw order and divides by n, a block of replicates at once.
    That is what ``per_patient[idx].mean(axis=0)`` does for rows of two or
    more values, as a report's rows are (cutoffs x 4 or 6 metrics); numpy
    would sum rows of one value pairwise instead. The percentiles are read
    from one sort.
    """
    n = per_patient.shape[0]
    rows = per_patient.reshape(n, -1)
    key = stream_key(seed, "bootstrap")
    positions = np.arange(n, dtype=np.uint64)[:, None]
    means = np.empty((iterations, rows.shape[1]), dtype=np.float64)
    block = max(1, _BLOCK_DRAWS // n)
    for first in range(0, iterations, block):
        stop = min(first + block, iterations)
        # Row j holds draw j of every replicate in the block.
        starts = np.arange(first, stop, dtype=np.uint64) * np.uint64(n)
        picks = bounded(key, starts + positions, n)
        total = means[first:stop]
        # Every index is in range; "clip" lets take write to ``out`` unbuffered.
        np.take(rows, picks[0], axis=0, out=total, mode="clip")
        drawn = np.empty_like(total)
        for pick in picks[1:]:
            np.take(rows, pick, axis=0, out=drawn, mode="clip")
            total += drawn
        total /= n
    ordered = np.sort(means, axis=0)
    lo, hi = (_linear_quantile(ordered, q) for q in (0.025, 0.975))
    return lo.reshape(per_patient.shape[1:]), hi.reshape(per_patient.shape[1:])


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
    for tid, name in zip(o.ids, o.names):
        name_map.setdefault(name.lower(), tid)
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

    Rows that fail validation (bad JSON, a row that is not a PatientTerms
    object, unknown or obsolete term ids, duplicate patient) are flagged and
    skipped; valid rows load.
    """
    rankings: dict[str, list[str]] = {}
    errors: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            row = PatientTerms.from_dict(json.loads(line))
        except json.JSONDecodeError as e:
            errors.append(f"line {lineno}: invalid JSON ({e.msg})")
            continue
        except RecursionError:
            errors.append(f"line {lineno}: JSON nested too deeply to decode")
            continue
        except DataError as e:
            errors.append(f"line {lineno}: {e}")
            continue
        if row.patient_id in rankings:
            errors.append(f"line {lineno}: duplicate patientId {row.patient_id}")
            continue
        bad = [t for t in row.terms if t not in o.dense]  # unknown or obsolete
        if bad:
            errors.append(f"line {lineno}: unresolvable terms {bad}")
            continue
        rankings[row.patient_id] = list(dict.fromkeys(row.terms))
    return ImportResult(rankings=rankings, errors=errors)


def export_ranking(rankings: dict[str, list[str]]) -> str:
    """Inverse of import_external_ranking for valid data."""
    lines = [
        json.dumps(PatientTerms(pid, rankings[pid]).to_dict(), sort_keys=True)
        for pid in sorted(rankings)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
