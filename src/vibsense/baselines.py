"""Dataset container, splits, k-NN and Gaussian Naive Bayes baselines, metrics.

k-NN runs on z-scored features with Euclidean distance. Tie-breaks are fixed
for reproducibility: equal distances prefer the lower training-row index,
vote ties prefer the smallest class index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .features import FEATURE_COLUMNS, FeatureVector
from .signalsim import StructureClass, _apportion


@dataclass
class LabeledDataset:
    """Feature rows with integer class labels."""

    rows: np.ndarray  # (n, n_features) float
    labels: np.ndarray  # (n,) int, indices into classes
    classes: list[StructureClass] = field(default_factory=lambda: list(StructureClass))

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if len(self.rows) != len(self.labels):
            raise ValueError("rows and labels must have equal length")
        if len(self.rows) == 0:
            raise ValueError("dataset must hold at least one row")

    def __len__(self):
        return len(self.rows)

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=int)
        return LabeledDataset(self.rows[idx], self.labels[idx], self.classes)

    def select_columns(self, mask) -> "LabeledDataset":
        return LabeledDataset(self.rows[:, np.asarray(mask)], self.labels, self.classes)

    @classmethod
    def from_vectors(cls, vectors: list[FeatureVector], labels: list[StructureClass]):
        rows = np.stack([v.as_array() for v in vectors])
        classes = list(StructureClass)
        idx = np.array([classes.index(lbl) for lbl in labels])
        return cls(rows, idx, classes)


def split(
    ds: LabeledDataset,
    ratios,
    seed: int = 0,
    stratified: bool = False,
) -> list[LabeledDataset]:
    """Partition a dataset by ``ratios`` (must sum to 1), deterministically.

    Part sizes come from largest-remainder rounding (floor every part, then
    hand out leftovers by descending fractional share). Stratified mode
    applies the same rule within each class, keeping class proportions within
    one row of exact.
    """
    ratios = list(ratios)
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    part_indices: list[list[int]] = [[] for _ in ratios]
    for members in _shuffled_groups(ds, seed, stratified):
        counts = _apportion(len(members), ratios)
        if stratified and 0 in counts:
            cls_idx = ds.labels[members[0]]
            raise ValueError(f"class index {cls_idx} has too few rows ({len(members)}) to stratify")
        for part, chunk in zip(part_indices, np.split(members, np.cumsum(counts)[:-1])):
            part.extend(chunk)
    return [ds.subset(np.sort(part)) for part in part_indices]


def _shuffled_groups(ds: LabeledDataset, seed: int, stratified: bool = True) -> list[np.ndarray]:
    """Row indices of each class in class order, or of all rows as one group,
    each shuffled; the groups draw in turn from one generator seeded by ``seed``."""
    rng = np.random.default_rng(seed)
    groups = ([np.flatnonzero(ds.labels == c) for c in np.unique(ds.labels)]
              if stratified else [np.arange(len(ds))])
    return [members[rng.permutation(len(members))] for members in groups]


class Normalizer:
    """Per-feature z-scoring fit on a training split.

    Constant features (zero std) are dropped with a warning and excluded
    from the transformed output.
    """

    def __init__(self, rows: np.ndarray):
        rows = np.asarray(rows, dtype=float)
        self.mean = rows.mean(axis=0)
        self.std = rows.std(axis=0)
        self.keep = self.std > 0
        if not self.keep.all():
            dropped = np.flatnonzero(~self.keep).tolist()
            warnings.warn(f"dropping constant feature columns {dropped}", stacklevel=2)
        if not self.keep.any():
            raise ValueError("all features are constant; nothing to normalize")

    def transform(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        return (rows[:, self.keep] - self.mean[self.keep]) / self.std[self.keep]


@dataclass
class KnnModel:
    train_rows: np.ndarray  # normalized
    train_labels: np.ndarray
    normalizer: Normalizer
    n_classes: int


def knn_fit(ds: LabeledDataset) -> KnnModel:
    norm = Normalizer(ds.rows)
    return KnnModel(norm.transform(ds.rows), ds.labels, norm, len(ds.classes))


def knn_predict_batch(model: KnnModel, queries: np.ndarray, k: int) -> np.ndarray:
    """(n,) majority label among the k nearest training rows of each raw query row (n, F)."""
    if not 1 <= k <= len(model.train_rows):
        raise ValueError(f"k must be in [1, {len(model.train_rows)}], got {k}")
    return _majority_votes(_nearest_labels(model, queries, k), [k], model.n_classes)[:, 0]


def _nearest_labels(model: KnnModel, queries: np.ndarray, k_max: int) -> np.ndarray:
    """(queries, k_max) labels of the nearest training rows, nearest first."""
    q = model.normalizer.transform(queries)
    d2 = (
        np.sum(q**2, axis=1)[:, None]
        + np.sum(model.train_rows**2, axis=1)[None, :]
        - 2.0 * q @ model.train_rows.T
    )
    # The k_max nearest in stable-argsort order (a distance tie puts the lower
    # row index first) without sorting whole rows: keep the candidates at or
    # below each row's k_max-th distance (NaN included, as argsort puts it
    # last) and sort those by (row, distance, index).
    kth = np.partition(d2, k_max - 1, axis=1)[:, k_max - 1 : k_max]
    rows, cols = np.nonzero(~(d2 > kth))
    order = np.lexsort((cols, d2[rows, cols], rows))
    counts = np.bincount(rows, minlength=len(d2))
    first = np.cumsum(counts) - counts
    nearest = cols[order[first[:, None] + np.arange(k_max)]]
    return model.train_labels[nearest]


def _majority_votes(labels: np.ndarray, ks, n_classes: int) -> np.ndarray:
    """(queries, len(ks)) majority class among the first k labels, for each k.

    Votes accumulate once over the columns; argmax breaks vote ties toward
    the smallest class index.
    """
    votes = np.cumsum(labels[:, :, None] == np.arange(n_classes), axis=1, dtype=np.int32)
    return votes[:, np.asarray(ks) - 1].argmax(axis=2)


def sweep_k(
    ds: LabeledDataset,
    k_range=range(1, 31),
    folds: int = 10,
    seed: int = 0,
) -> tuple[int, dict[int, float]]:
    """Mean cross-validated accuracy per k; best k breaks ties downward.

    A k larger than a fold's training split scores 0 for that fold.
    """
    curve = {int(k): 0.0 for k in k_range}
    if min(curve, default=1) < 1:
        raise ValueError(f"k must be >= 1, got {min(curve)}")
    for train, val in cv_folds(ds, folds, seed):
        model = knn_fit(train)
        ks = [k for k in curve if k <= len(train)]
        if not ks:
            continue
        preds = _majority_votes(_nearest_labels(model, val.rows, max(ks)), ks, model.n_classes)
        for k, pred in zip(ks, preds.T):
            curve[k] += float(np.mean(pred == val.labels)) / folds
    best_k = max(curve, key=lambda k: (curve[k], -k))
    return best_k, curve


def cv_folds(ds: LabeledDataset, folds: int, seed: int):
    """Yield the stratified (train, val) pair of each fold, in fold order."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    largest = int(np.bincount(ds.labels).max())
    if largest < folds:  # rows go round-robin to folds per class, so the last fold would be empty
        raise ValueError(f"folds={folds} exceeds the largest class size {largest}")
    assignments = _fold_assignments(ds, folds, seed)
    for fold in range(folds):
        in_fold = assignments == fold
        yield ds.subset(np.flatnonzero(~in_fold)), ds.subset(np.flatnonzero(in_fold))


def _fold_assignments(ds: LabeledDataset, folds: int, seed: int) -> np.ndarray:
    """Stratified fold index per row, deterministic in seed."""
    assignment = np.empty(len(ds), dtype=int)
    for members in _shuffled_groups(ds, seed):
        assignment[members] = np.arange(len(members)) % folds
    return assignment


@dataclass
class GnbModel:
    class_log_prior: np.ndarray  # (C,)
    mean: np.ndarray  # (C, F)
    var: np.ndarray  # (C, F), floored
    classes: list[StructureClass]


GNB_VAR_FLOOR = 1e-9  # smallest per-class feature variance: a constant feature stays usable


def gnb_train(ds: LabeledDataset) -> GnbModel:
    """Gaussian class-conditional fit with training-frequency priors."""
    n_classes = len(ds.classes)
    n_feat = ds.rows.shape[1]
    mean = np.zeros((n_classes, n_feat))
    var = np.full((n_classes, n_feat), GNB_VAR_FLOOR)
    counts = np.bincount(ds.labels, minlength=n_classes)
    present = np.flatnonzero(counts)
    if any(0 < counts[c] < 2 for c in present):
        raise ValueError("every class present needs >= 2 samples")
    for c in present:
        rows = ds.rows[ds.labels == c]
        mean[c] = rows.mean(axis=0)
        var[c] = np.maximum(rows.var(axis=0), GNB_VAR_FLOOR)
    with np.errstate(divide="ignore"):
        log_prior = np.where(counts > 0, np.log(counts / len(ds)), -np.inf)
    return GnbModel(log_prior, mean, var, ds.classes)


def gnb_log_posterior(model: GnbModel, rows) -> np.ndarray:
    """(n, C) log posterior of each raw row (n, F), in one broadcast over (n, C, F)."""
    d2 = (np.asarray(rows, dtype=float)[:, None, :] - model.mean) ** 2
    ll = -0.5 * np.sum(np.log(2 * np.pi * model.var) + d2 / model.var, axis=2)
    return model.class_log_prior + ll


def gnb_predict(model: GnbModel, rows) -> np.ndarray:
    """(n,) most probable class of each raw row; argmax ties go to the smallest index."""
    return gnb_log_posterior(model, rows).argmax(axis=1)


@dataclass
class Metrics:
    accuracy: float
    precision: np.ndarray  # per class
    recall: np.ndarray
    f1: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: np.ndarray  # (C, C) counts, rows = true class

    def normalized_confusion(self) -> np.ndarray:
        totals = self.confusion.sum(axis=1, keepdims=True)
        return np.divide(
            self.confusion, totals, out=np.zeros_like(self.confusion, dtype=float),
            where=totals > 0,
        )


def evaluate(predictions, labels, n_classes: int = 5) -> Metrics:
    """Confusion counts and precision/recall/F1 with the 0/0 -> 0 convention."""
    preds = np.asarray(predictions, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if preds.shape != labels.shape:
        raise ValueError("predictions and labels must have equal length")
    confusion = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(confusion, (labels, preds), 1)

    tp = np.diag(confusion).astype(float)
    pred_totals = confusion.sum(axis=0).astype(float)
    true_totals = confusion.sum(axis=1).astype(float)
    precision = _safe_div(tp, pred_totals)
    recall = _safe_div(tp, true_totals)
    f1 = _safe_div(2 * precision * recall, precision + recall)
    return Metrics(
        accuracy=float(tp.sum() / len(labels)),
        precision=precision,
        recall=recall,
        f1=f1,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        confusion=confusion,
    )


def _safe_div(num, den):
    return np.divide(num, den, out=np.zeros_like(num, dtype=float), where=den > 0)
