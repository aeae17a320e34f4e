"""Two hand-rolled pairwise rankers sharing one model contract.

Both optimize the within-patient pairwise logistic loss

    sum over patients, over (pos, neg) pairs of log(1 + exp(-(s_pos - s_neg)))

the linear ranker by full-batch gradient descent on standardized features with
an L2 penalty, the boosted ranker by gradient boosting with depth-limited
regression trees on the pairwise gradients, early-stopped on validation MAP@30.

A model is a ``rows.Row``: ``model.json`` is its encoding plus a lineage
record. ``RankModel.from_json`` decodes it through the row codec (``params``
as ``LinearParams`` or ``BoostedParams``, each tree node as a ``Leaf`` or a
``Split``, told apart by their keys), then checks each value scoring reads
that the types cannot constrain, so a DataError naming the field, never a
traceback or a NaN score, answers a damaged file.

Training runs in whole-array passes and computes only what the model bytes
depend on:

- ``pair_index`` groups the training patients once per run by their
  (positives, negatives) shape and stacks each group's index arrays.
- ``pairwise_pass`` then computes the gradient and hessian of every patient
  with one expression per shape over a ``(G, P, N)`` margin block. The
  blocks of a run of buckets (about 32k pairs) lie back to back in one flat
  array, so the sigmoid is one call per run, on arrays that stay in cache.
  The linear ranker skips the hessian.
- Saturated margins are written, not computed. ``expit`` runs only on the
  margins in the open interval (-746, 40), gathered by flat integer index
  (NaN counts as inside). At or above 40 it returns exactly 1.0, and at or
  below -746 exactly 0.0, so those values are written instead (checked bit
  for bit against scipy 1.17.1). A run with no saturated margin calls it on
  the whole array.
- ``_build_tree`` searches splits over distinct rank columns. Each feature's
  dense rank is built once per boosting run, in ``uint8`` or ``uint16``
  where it fits. Constant columns are dropped, and of the columns with the
  same ranks only the first feature is kept. At each node a column is
  sorted stably by rank, and gains are scored from the cumulative gradient
  and hessian sums only at cuts where the sorted rank changes, or between
  two NaNs. ``X`` is read only at the chosen cut, for its threshold.
- Validation patients are grouped once per boosting run, and each is
  ordered by score and term id with one ``np.lexsort``.

The models are byte-identical to the earlier per-patient, per-cut loops
(``tests/helpers.py`` keeps those as oracles). The reasons:

- Each margin's sigmoid is the value ``expit`` returns for it.
- Row sums run along the fast axis and column sums along the slow one, as
  they did per patient.
- No instance index repeats within a scatter.
- The split gains are the same IEEE operations, in the same order. A stable
  sort of a strictly increasing function of the feature, its dense rank,
  gives the same order as a stable sort of the feature, ties included; all
  NaNs share the last rank, so they keep their order in the node.
- The cuts scored are those the loops did not skip as lying between equal
  values; NaN gains fail the gain floor before ``argmax``, which takes the
  first maximum. A feature replaces the best split only when its gain is
  strictly greater, so a dropped duplicate column could never have won.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..config import TrainingConfig
from ..corpus import Patient
from ..errors import DataError, TrainingError
from ..ontology import Ontology
from ..rows import Row, json_key
from .features import UNKNOWN_CATEGORY, FeatureSchema, RankingInstance
from .metrics import map_at_k, map_scorer

MODEL_FORMAT_VERSION = 1

KIND_LINEAR = "pairwiseLinear"
KIND_BOOSTED = "boostedTrees"


@dataclass
class TrainingMeta(Row):
    seed: int | None = None
    rounds: int = 0
    best_round: int | None = None
    validation_map30: float | None = None
    map_history: list[float] = field(default_factory=list)


def _finite(where: str, value: float) -> None:
    if not math.isfinite(value):
        raise DataError(f"field {where!r} is {value}, not a finite number")


@dataclass(frozen=True)
class LinearParams(Row):
    """Weights over the standardized features ``(x - mean) / scale``."""

    weights: list[float]
    mean: list[float]
    scale: list[float]
    learning_rate: float = json_key("learning_rate")
    l2: float

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        fields = (self.mean, self.scale, self.weights)
        return tuple(np.asarray(v, dtype=np.float64) for v in fields)

    def score(self, X: np.ndarray) -> np.ndarray:
        mean, scale, weights = self._arrays
        return (X - mean) / scale @ weights

    def check(self, dimension: int) -> None:
        _finite("params.learning_rate", self.learning_rate)
        for name in ("weights", "mean", "scale"):
            values = getattr(self, name)
            if len(values) != dimension:
                raise DataError(
                    f"field 'params.{name}' holds {len(values)} numbers, not {dimension}"
                )
            for i, value in enumerate(values):
                _finite(f"params.{name}[{i}]", value)
                if name == "scale" and value <= 0.0:
                    raise DataError(f"field 'params.scale[{i}]' is {value}, not positive")


@dataclass(frozen=True)
class Leaf(Row):
    leaf: float


@dataclass(frozen=True)
class Split(Row):
    """Rows whose ``feature`` is at most ``threshold`` go left."""

    feature: int
    threshold: float
    left: Node
    right: Node


Node = Leaf | Split


@dataclass(frozen=True)
class BoostedParams(Row):
    """An ensemble of regression trees, each scaled by ``learning_rate``."""

    trees: list[Node]
    learning_rate: float = json_key("learning_rate")
    max_depth: int = json_key("max_depth")
    l1: float
    l2: float

    def score(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape[0], dtype=np.float64)
        for tree in self.trees:
            out += self.learning_rate * _tree_predict(tree, X)
        return out

    def check(self, dimension: int) -> None:
        _finite("params.learning_rate", self.learning_rate)
        nodes = [(tree, f"params.trees[{i}]") for i, tree in enumerate(self.trees)]
        while nodes:
            node, where = nodes.pop()
            if isinstance(node, Leaf):
                _finite(f"{where}.leaf", node.leaf)
                continue
            if not 0 <= node.feature < dimension:
                raise DataError(
                    f"field '{where}.feature' is {node.feature}, not in [0, {dimension})"
                )
            _finite(f"{where}.threshold", node.threshold)
            nodes += [(node.left, f"{where}.left"), (node.right, f"{where}.right")]


@dataclass
class RankModel(Row):
    """A trained ranker: the JSON document of ``model.json``, lineage aside."""

    kind: str
    schema: FeatureSchema
    params: LinearParams | BoostedParams
    meta: TrainingMeta
    format_version: int = MODEL_FORMAT_VERSION

    def score(self, features: np.ndarray) -> np.ndarray:
        return self.params.score(np.atleast_2d(np.asarray(features, dtype=np.float64)))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RankModel":
        """The model ``text`` holds, decoded by the row codec and then checked
        for what its types cannot say; a DataError names the field."""
        try:
            model = cls.from_dict(json.loads(text))
        except json.JSONDecodeError as e:
            raise DataError(f"invalid JSON ({e})") from e
        except RecursionError:  # from either decoder, on a deeply nested tree
            raise DataError("nested too deeply to decode") from None
        if model.format_version != MODEL_FORMAT_VERSION:
            raise DataError(
                f"field 'formatVersion' is {model.format_version}, not"
                f" {MODEL_FORMAT_VERSION} (unsupported model format version)"
            )
        kind = KIND_LINEAR if isinstance(model.params, LinearParams) else KIND_BOOSTED
        if model.kind != kind:
            raise DataError(f"field 'kind' is {model.kind!r}, not {kind!r} (its params)")
        categories = model.schema.symptom_categories
        if UNKNOWN_CATEGORY not in categories:
            raise DataError("field 'schema.symptomCategories' reserves no unknown slot")
        if model.schema != FeatureSchema.standard(categories):
            raise DataError("field 'schema.names' does not match the symptom categories")
        model.params.check(model.schema.dimension)
        return model


Bucket = tuple[np.ndarray, np.ndarray, np.ndarray]

# Pairs per chunk of buckets that a pass computes at once. A chunk's arrays
# (at most 256 KiB of margins, unless one bucket is larger) stay in cache and
# come from malloc's heap: a larger array is mapped afresh on each pass, and
# its page faults cost more than the sigmoid.
_CHUNK_PAIRS = 32_768


@dataclass(frozen=True)
class PairIndex:
    """The (positive, negative) pairs of one training set, built once per run.

    Patients are numbered in sorted id order and grouped by their
    (positives, negatives) shape. Each bucket holds the patient numbers
    (``slots``, shape ``(G,)``) and their stacked instance indices (``pos``,
    ``(G, P)``; ``neg``, ``(G, N)``), so one numpy expression covers every
    patient of that shape. ``chunks`` holds the buckets in runs of about
    ``_CHUNK_PAIRS`` pairs. ``dropped`` counts patients without both labels;
    they contribute no pair.
    """

    chunks: tuple[tuple[Bucket, ...], ...]
    patients: int
    pairs: int
    dropped: int


def pair_index(instances: Sequence[RankingInstance]) -> PairIndex:
    """Group the training pairs of ``instances`` by patient, once per run."""
    by_patient: dict[str, tuple[list[int], list[int]]] = {}
    for i, inst in enumerate(instances):
        pos, neg = by_patient.setdefault(inst.patient_id, ([], []))
        (pos if inst.label else neg).append(i)
    kept = [
        (pos, neg)
        for pos, neg in (by_patient[p] for p in sorted(by_patient))
        if pos and neg
    ]
    shapes: dict[tuple[int, int], list[int]] = {}
    for slot, (pos, neg) in enumerate(kept):
        shapes.setdefault((len(pos), len(neg)), []).append(slot)
    chunks: list[tuple[Bucket, ...]] = []
    chunk: list[Bucket] = []
    size = 0
    for slots in shapes.values():
        pos = np.asarray([kept[s][0] for s in slots], dtype=np.int64)
        neg = np.asarray([kept[s][1] for s in slots], dtype=np.int64)
        chunk.append((np.asarray(slots, dtype=np.int64), pos, neg))
        size += pos.size * neg.shape[1]
        if size >= _CHUNK_PAIRS:
            chunks.append(tuple(chunk))
            chunk, size = [], 0
    if chunk:
        chunks.append(tuple(chunk))
    return PairIndex(
        chunks=tuple(chunks),
        patients=len(kept),
        pairs=sum(len(pos) * len(neg) for pos, neg in kept),
        dropped=len(by_patient) - len(kept),
    )


def _neg_margins(
    scores: np.ndarray, chunk: Sequence[Bucket]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """``s_neg - s_pos`` of every pair of a chunk, as one flat array, and the
    view of each bucket's block in it, shape ``(G, P, N)``.

    One flat array per chunk lets the sigmoid run once per chunk, not once per
    bucket. Rounding is symmetric, so a margin is ``-(s_pos - s_neg)`` bit for
    bit except for the sign of a zero, which ``expit`` does not read.
    """
    flat = np.empty(sum(pos.size * neg.shape[1] for _, pos, neg in chunk))
    blocks = []
    start = 0
    for _, pos, neg in chunk:
        shape = (len(pos), pos.shape[1], neg.shape[1])
        block = flat[start : start + math.prod(shape)].reshape(shape)
        np.subtract(scores[neg][:, None, :], scores[pos][:, :, None], out=block)
        blocks.append(block)
        start += block.size
    return flat, blocks


# Outside (_LOW, _HIGH) a margin m's sigmoid is known exactly: at or above
# _HIGH, exp(-m) is lost in the rounding, so ``expit(m)`` is 1.0; at or below
# _LOW, exp(m) underflows to 0.0, and so does ``expit(m)``.
_LOW, _HIGH = -746.0, 40.0


def _sigmoid(flat: np.ndarray) -> None:
    """``expit(m)`` of each margin of ``flat``, in place.

    ``expit`` runs only on the margins inside (_LOW, _HIGH), or NaN; the
    others get ``m >= _HIGH`` as a float, 1.0 or 0.0, which is what ``expit``
    returns there. The live margins are gathered by flat integer index, since
    boolean-mask indexing costs about as much per element as ``expit`` itself;
    an array with no saturated margin skips the gather and the scatter.
    """
    # Imported here so only ``train`` pays for scipy; ``1 / (1 + exp(-x))``
    # differs from ``expit`` in the last bit and would change model bytes.
    from scipy.special import expit

    inside = ~((flat >= _HIGH) | (flat <= _LOW))
    if inside.all():
        expit(flat, out=flat)
        return
    # A gather and a scatter, not `where=`: scipy 1.17.1's expit with `where=`
    # wrote wrong values and then crashed (double free).
    live = np.flatnonzero(inside)
    values = expit(flat[live])
    np.greater_equal(flat, _HIGH, out=flat, casting="unsafe")
    flat[live] = values


def pairwise_pass(
    scores: np.ndarray, pairs: PairIndex, hessian: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Pairwise gradient and (optionally) hessian at ``scores``.

    Each instance gets exactly one row or column sum per bucket, and no index
    repeats, so the scatter adds nothing twice and matches one patient at a
    time bitwise.
    """
    g = np.zeros_like(scores)
    h = np.zeros_like(scores) if hessian else None
    for chunk in pairs.chunks:
        flat, blocks = _neg_margins(scores, chunk)
        _sigmoid(flat)  # d loss / d margin, negated
        for (_, pos, neg), sig in zip(chunk, blocks):
            g[pos] -= sig.sum(axis=2)
            g[neg] += sig.sum(axis=1)
            if h is not None:
                curv = sig * (1.0 - sig)
                h[pos] += curv.sum(axis=2)
                h[neg] += curv.sum(axis=1)
    return g, h


def _training_pairs(instances: Sequence[RankingInstance]) -> PairIndex:
    pairs = pair_index(instances)
    if not pairs.patients:
        raise TrainingError("no patient contributes both a positive and a negative")
    return pairs


def train_pairwise_linear(
    instances: Sequence[RankingInstance],
    cfg: TrainingConfig = TrainingConfig(),
    schema: FeatureSchema | None = None,
    seed: int | None = None,
) -> RankModel:
    """Full-batch gradient descent on the L2-regularized pairwise loss.

    Features are standardized to zero mean and unit variance on the training
    set; the transform is stored in the model so scoring stays consistent.
    Zero epochs return the zero-weight model.
    """
    cfg.validate()
    if not instances:
        raise TrainingError("no training instances")
    X = np.vstack([inst.features for inst in instances])
    pairs = _training_pairs(instances)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Xs = (X - mean) / scale
    w = np.zeros(X.shape[1], dtype=np.float64)
    for _ in range(cfg.linear_epochs):
        g_s, _ = pairwise_pass(Xs @ w, pairs, hessian=False)
        grad = Xs.T @ g_s + 2.0 * cfg.linear_l2 * w
        w -= cfg.linear_learning_rate * grad
    return RankModel(
        kind=KIND_LINEAR,
        schema=schema if schema is not None else _schema_stub(X.shape[1]),
        params=LinearParams(
            w.tolist(), mean.tolist(), scale.tolist(), cfg.linear_learning_rate, cfg.linear_l2
        ),
        meta=TrainingMeta(seed=seed, rounds=cfg.linear_epochs),
    )


def _schema_stub(dim: int) -> FeatureSchema:
    return FeatureSchema(
        symptom_categories=(),
        names=tuple(f"f{i}" for i in range(dim)),
    )


# -- boosted trees ------------------------------------------------------------------


def _soft_threshold(value: float, l1: float) -> float:
    if value > l1:
        return value - l1
    if value < -l1:
        return value + l1
    return 0.0


def _leaf_value(g_sum: float, h_sum: float, l1: float, l2: float) -> float:
    return -_soft_threshold(g_sum, l1) / (h_sum + l2)


def _dense_ranks(X: np.ndarray) -> list[tuple[int, np.ndarray, int | None]]:
    """``(feature, dense rank, NaN rank)`` of each column of ``X`` that a
    split can use, ranks in the smallest unsigned dtype.

    Equal values (``0.0`` and ``-0.0`` too) share a rank, and so do all NaNs,
    which sort last: a stable sort of a rank column gives the float column's
    stable order, ties included, in any node. The NaN rank (None when the
    column holds no NaN) marks the rows where neighbours of equal rank still
    differ in value, since NaN differs from itself. numpy sorts ``uint8`` and
    ``uint16`` keys stably by radix sort.

    A column of one value that is not NaN has no cut and is left out.
    Columns with the same ranks and NaN rank give the same gains at the same
    cuts, so only the first of them is kept: ``_build_tree`` would never pick
    a later one over it.
    """
    ranks: dict[tuple[bytes, int | None], tuple[int, np.ndarray, int | None]] = {}
    for f, column in enumerate(X.T):
        distinct, inverse = np.unique(column, return_inverse=True, equal_nan=True)
        nan_rank = len(distinct) - 1 if np.isnan(distinct[-1]) else None
        if len(distinct) > 1 or nan_rank is not None:
            rank = inverse.astype(np.min_scalar_type(len(distinct) - 1))
            ranks.setdefault((rank.tobytes(), nan_rank), (f, rank, nan_rank))
    return list(ranks.values())


def _build_tree(
    X: np.ndarray,
    ranks: list[tuple[int, np.ndarray, int | None]],
    g: np.ndarray,
    h: np.ndarray,
    idx: np.ndarray,
    depth: int,
    cfg: TrainingConfig,
) -> Node:
    """The tree fitted to ``g`` and ``h`` over the rows ``idx``, splitting on
    the ``_dense_ranks`` columns of ``X``."""
    g_node, h_node = g[idx], h[idx]
    g_sum = float(g_node.sum())
    h_sum = float(h_node.sum())
    min_leaf, l2 = cfg.boosted_min_leaf, cfg.boosted_l2
    if depth >= cfg.boosted_max_depth or len(idx) < 2 * min_leaf:
        return Leaf(_leaf_value(g_sum, h_sum, cfg.boosted_l1, l2))
    parent_gain = g_sum * g_sum / (h_sum + l2)
    # Cut c puts sorted rows 0..c on the left; min_leaf rows stay on each side.
    lo, hi = min_leaf - 1, len(idx) - min_leaf
    best = None  # (gain, feature, cut, order)
    for f, rank, nan_rank in ranks:
        rank_node = rank[idx]
        order = np.argsort(rank_node, kind="stable")
        sorted_rank = rank_node[order]
        # Only cuts between different values: where the sorted rank changes,
        # or between two NaNs.
        differ = sorted_rank[lo:hi] != sorted_rank[lo + 1 : hi + 1]
        if nan_rank is not None:
            differ |= sorted_rank[lo:hi] == nan_rank
        cuts = lo + np.flatnonzero(differ)
        if not len(cuts):
            continue
        gl = np.cumsum(g_node[order])[cuts]
        hl = np.cumsum(h_node[order])[cuts]
        gr, hr = g_sum - gl, h_sum - hl
        gain = gl * gl / (hl + l2) + gr * gr / (hr + l2) - parent_gain
        # A NaN gain fails `> 1e-12`, so argmax never sees it.
        ok = gain > 1e-12
        j = int(np.argmax(np.where(ok, gain, -np.inf)))
        if ok[j] and (best is None or gain[j] > best[0]):
            best = (gain[j], f, int(cuts[j]), order)
    if best is None:
        return Leaf(_leaf_value(g_sum, h_sum, cfg.boosted_l1, l2))
    _, f, cut, order = best
    rows = idx[order]
    return Split(
        feature=f,
        threshold=float((X[rows[cut], f] + X[rows[cut + 1], f]) / 2.0),
        left=_build_tree(X, ranks, g, h, rows[: cut + 1], depth + 1, cfg),
        right=_build_tree(X, ranks, g, h, rows[cut + 1 :], depth + 1, cfg),
    )


def _tree_predict(tree: Node, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(tree, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Leaf):
            out[idx] = node.leaf
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def train_boosted(
    instances: Sequence[RankingInstance],
    cfg: TrainingConfig = TrainingConfig(),
    validation: Sequence[RankingInstance] = (),
    schema: FeatureSchema | None = None,
    seed: int | None = None,
) -> RankModel:
    """Gradient boosting on pairwise gradients with MAP@30 early stopping.

    Each round fits a depth-limited regression tree to the pairwise
    gradient/hessian pairs, scores the validation cohort, and stops once MAP@30
    has not improved for ``boosted_patience`` rounds. The returned ensemble is
    trimmed to the best round seen.
    """
    cfg.validate()
    if not instances:
        raise TrainingError("no training instances")
    if not validation:
        raise TrainingError("boosted training needs a validation cohort")
    X = np.vstack([inst.features for inst in instances])
    ranks = _dense_ranks(X)
    pairs = _training_pairs(instances)
    Xv = np.vstack([inst.features for inst in validation])
    val_map30 = map_scorer(validation, k=30)
    scores = np.zeros(X.shape[0], dtype=np.float64)
    val_scores = np.zeros(Xv.shape[0], dtype=np.float64)
    trees: list[Node] = []
    map_history: list[float] = []
    best_map = -np.inf
    best_round = -1
    stale = 0
    all_idx = np.arange(X.shape[0])
    lr = cfg.boosted_learning_rate
    for _ in range(cfg.boosted_rounds):
        g, h = pairwise_pass(scores, pairs)
        tree = _build_tree(X, ranks, g, h, all_idx, 0, cfg)
        trees.append(tree)
        scores += lr * _tree_predict(tree, X)
        val_scores += lr * _tree_predict(tree, Xv)
        val_map = val_map30(val_scores)
        map_history.append(val_map)
        if val_map > best_map:
            best_map = val_map
            best_round = len(trees) - 1
            stale = 0
        else:
            stale += 1
            if stale >= cfg.boosted_patience:
                break
    kept = trees[: best_round + 1]
    meta = TrainingMeta(
        seed=seed,
        rounds=len(trees),
        best_round=best_round,
        validation_map30=float(best_map),
        map_history=map_history,
    )
    return RankModel(
        kind=KIND_BOOSTED,
        schema=schema if schema is not None else _schema_stub(X.shape[1]),
        params=BoostedParams(kept, lr, cfg.boosted_max_depth, cfg.boosted_l1, cfg.boosted_l2),
        meta=meta,
    )


def select_model(
    candidates: Sequence[RankModel],
    validation: Sequence[RankingInstance],
    k: int = 30,
) -> RankModel:
    """Pick the candidate with the best validation MAP@k.

    Ties prefer the pairwise linear model, then earlier training order. The
    winning model's meta records the validation score used.
    """
    if not candidates:
        raise DataError("select_model needs at least one candidate model")
    scored: list[tuple[float, int, RankModel]] = []
    for i, model in enumerate(candidates):
        score = map_at_k(model, validation, k=k)
        model.meta.validation_map30 = float(score)
        scored.append((score, i, model))
    best_score = max(s for s, _, _ in scored)
    tied = [(i, m) for s, i, m in scored if s == best_score]
    for i, m in tied:
        if m.kind == KIND_LINEAR:
            return m
    return tied[0][1]


def rank_terms(
    model: RankModel,
    patient: Patient,
    candidate_terms: Sequence[str],
    o: Ontology,
    table: np.ndarray,
) -> list[tuple[str, float]]:
    """Score candidate terms for one patient, best first, ties by term id.

    ``table`` is ``annotations.feature_table`` of ``o``.
    """
    cands = sorted(set(candidate_terms))
    if not cands:
        return []
    scores = model.score(model.schema.matrix(patient, table[o.dense_ids(cands)]))
    order = sorted(range(len(cands)), key=lambda i: (-scores[i], cands[i]))
    return [(cands[i], float(scores[i])) for i in order]
