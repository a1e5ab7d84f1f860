import math
import re

import numpy as np
import pytest
import scipy.stats

from vibsense import cnn
from vibsense.baselines import (
    LabeledDataset,
    Normalizer,
    _fold_assignments,
    _nearest_labels,
    cv_folds,
    evaluate,
    gnb_log_posterior,
    gnb_predict,
    gnb_train,
    knn_fit,
    knn_predict_batch,
    split,
    sweep_k,
)
from vibsense.signalsim import StructureClass


def _dataset(rows, labels, classes=None):
    return LabeledDataset(
        np.asarray(rows, dtype=float),
        np.asarray(labels),
        classes or list(StructureClass),
    )


def _random_dataset(n=100, n_features=4, n_classes=5, seed=0, spread=4.0):
    """Gaussian blobs, one per class, far enough apart to be learnable."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-spread, spread, size=(n_classes, n_features))
    labels = rng.integers(0, n_classes, size=n)
    rows = centers[labels] + rng.normal(0, 1.0, size=(n, n_features))
    return _dataset(rows, labels)


# --------------------------------------------------------------------- split


def test_split_sizes_unstratified():
    ds = _random_dataset(1159, seed=1)
    parts = split(ds, (0.7, 0.1, 0.2), seed=0)
    assert [len(p) for p in parts] == [811, 116, 232]

    parts = split(_random_dataset(100, seed=2), (0.8, 0.2), seed=0)
    assert [len(p) for p in parts] == [80, 20]


def test_split_partitions_every_row_once():
    ds = _random_dataset(137, seed=3)
    ds.rows[:, 0] = np.arange(len(ds))  # each row tagged by its index
    for stratified in (False, True):
        parts = split(ds, (0.5, 0.3, 0.2), seed=4, stratified=stratified)
        seen = [int(tag) for p in parts for tag in p.rows[:, 0]]
        assert sorted(seen) == list(range(137))


def test_split_and_folds_draw_the_recorded_rows():
    ds = _random_dataset(16, n_classes=2, seed=3)
    ds.rows[:, 0] = np.arange(len(ds))
    parts = split(ds, (0.5, 0.5), seed=4)
    assert [p.rows[:, 0].tolist() for p in parts] == [[0, 1, 2, 7, 8, 9, 10, 13],
                                                      [3, 4, 5, 6, 11, 12, 14, 15]]
    parts = split(ds, (0.5, 0.5), seed=4, stratified=True)
    assert [p.rows[:, 0].tolist() for p in parts] == [[0, 1, 2, 3, 4, 6, 9, 10, 11],
                                                      [5, 7, 8, 12, 13, 14, 15]]
    assert _fold_assignments(ds, 3, 4).tolist() == [0, 1, 2, 0, 1, 2, 1, 2,
                                                     1, 0, 2, 0, 0, 0, 2, 1]


def test_split_deterministic():
    ds = _random_dataset(200, seed=5)
    a = split(ds, (0.8, 0.2), seed=9)
    b = split(ds, (0.8, 0.2), seed=9)
    c = split(ds, (0.8, 0.2), seed=10)
    assert np.array_equal(a[0].rows, b[0].rows)
    assert not np.array_equal(a[0].rows, c[0].rows)


def test_split_stratified_proportions():
    ds = _random_dataset(100, seed=6)
    parts = split(ds, (0.7, 0.1, 0.2), seed=0, stratified=True)
    for part, ratio in zip(parts, (0.7, 0.1, 0.2)):
        for cls in range(5):
            n_cls = int(np.sum(ds.labels == cls))
            got = int(np.sum(part.labels == cls))
            assert abs(got - ratio * n_cls) <= 1


def test_split_impossible_stratification():
    ds = _dataset([[0.0], [1.0], [2.0]], [0, 0, 0])
    with pytest.raises(ValueError):
        split(ds, (0.7, 0.1, 0.2), stratified=True)


def test_split_bad_ratios():
    with pytest.raises(ValueError):
        split(_random_dataset(10), (0.5, 0.2))


# --------------------------------------------------------------------- knn


def _naive_knn(train_rows, train_labels, query, k, n_classes):
    """Brute-force reference with the documented tie-breaks."""
    d = [
        (math.dist(query, row), idx)
        for idx, row in enumerate(train_rows)
    ]
    d.sort(key=lambda t: (t[0], t[1]))
    votes = [0] * n_classes
    for _, idx in d[:k]:
        votes[train_labels[idx]] += 1
    return votes.index(max(votes))


def test_knn_matches_brute_force():
    ds = _random_dataset(80, seed=7)
    model = knn_fit(ds)
    rng = np.random.default_rng(8)
    queries = rng.normal(0, 3, size=(30, 4))
    norm_train = model.train_rows
    norm_queries = model.normalizer.transform(queries)
    for k in (1, 3, 7, 25):
        got = knn_predict_batch(model, queries, k)
        want = [
            _naive_knn(norm_train, ds.labels, q, k, 5) for q in norm_queries
        ]
        assert list(got) == want


def test_nearest_labels_follow_the_stable_argsort_order():
    # few distinct rows, so most distances tie; one label per row exposes the order
    rng = np.random.default_rng(31)
    rows = rng.integers(0, 3, size=(60, 2)).astype(float)
    model = knn_fit(_dataset(rows, np.arange(60)))
    queries = np.vstack([rows[:10], rng.integers(0, 3, size=(10, 2)), [[np.nan, 0.0]]])
    q = model.normalizer.transform(queries)
    t = model.train_rows
    d2 = np.sum(q**2, axis=1)[:, None] + np.sum(t**2, axis=1)[None, :] - 2.0 * q @ t.T
    want = np.argsort(d2, axis=1, kind="stable")
    for k in (1, 2, 7, 30, 60):
        assert np.array_equal(_nearest_labels(model, queries, k), want[:, :k])


def test_knn_training_row_recall():
    ds = _random_dataset(60, seed=9)
    model = knn_fit(ds)
    preds = knn_predict_batch(model, ds.rows, 1)
    assert np.array_equal(preds, ds.labels)


def test_knn_k_equals_train_size_is_majority():
    ds = _dataset([[0.0, 0], [1, 0], [2, 0], [3, 1], [4, 1]], [2, 2, 2, 0, 0])
    model = knn_fit(ds)
    preds = knn_predict_batch(model, ds.rows, len(ds))
    assert np.all(preds == 2)


def test_knn_tie_breaks():
    # four equidistant neighbors around the query
    rows = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    ds = _dataset(rows, [3, 1, 2, 0])
    model = knn_fit(ds)
    origin = np.zeros((1, 2))
    # distance tie at k=1 -> lower row index wins
    assert knn_predict_batch(model, origin, 1).tolist() == [3]
    # vote tie at k=2 (labels 3 and 1) -> smallest class index wins
    assert knn_predict_batch(model, origin, 2).tolist() == [1]
    # all four vote once at k=4 -> class 0 by tie-break
    assert knn_predict_batch(model, origin, 4).tolist() == [0]


def test_knn_k_out_of_range():
    model = knn_fit(_random_dataset(10, seed=1))
    with pytest.raises(ValueError):
        knn_predict_batch(model, np.zeros((1, 4)), 0)
    with pytest.raises(ValueError):
        knn_predict_batch(model, np.zeros((1, 4)), 11)


def test_knn_affine_invariance():
    ds = _random_dataset(120, seed=10)
    scale = np.array([3.0, 0.25, 10.0, 1.0])
    shift = np.array([-5.0, 2.0, 100.0, 0.0])
    ds2 = _dataset(ds.rows * scale + shift, ds.labels)
    rng = np.random.default_rng(11)
    queries = rng.normal(0, 3, size=(40, 4))
    a = knn_predict_batch(knn_fit(ds), queries, 5)
    b = knn_predict_batch(knn_fit(ds2), queries * scale + shift, 5)
    assert np.array_equal(a, b)


# ------------------------------------------------------------------- sweep_k


def test_sweep_k_duplicated_points():
    rows = np.repeat(np.eye(5), 12, axis=0)
    labels = np.repeat(np.arange(5), 12)
    ds = _dataset(rows, labels)
    best_k, curve = sweep_k(ds, k_range=range(1, 9), folds=4, seed=0)
    assert best_k == 1  # tie broken toward the smallest k
    assert curve[1] == 1.0 and curve[5] == 1.0


def test_sweep_k_deterministic():
    ds = _random_dataset(90, seed=12)
    a = sweep_k(ds, k_range=range(1, 11), folds=5, seed=3)
    b = sweep_k(ds, k_range=range(1, 11), folds=5, seed=3)
    assert a == b


def test_sweep_k_matches_naive_cv():
    ds = _random_dataset(70, seed=13, spread=2.0)
    folds, seed = 5, 1
    _, curve = sweep_k(ds, k_range=range(1, 31), folds=folds, seed=seed)
    assignments = _fold_assignments(ds, folds, seed)
    for k in (1, 5, 30):
        acc = 0.0
        for fold in range(folds):
            tr = ds.subset(np.flatnonzero(assignments != fold))
            va = ds.subset(np.flatnonzero(assignments == fold))
            if k > len(tr):
                continue
            model = knn_fit(tr)
            hits = [
                _naive_knn(
                    model.train_rows,
                    tr.labels,
                    model.normalizer.transform(row)[0],
                    k,
                    5,
                )
                == label
                for row, label in zip(va.rows, va.labels)
            ]
            acc += float(np.mean(hits)) / folds
        assert curve[k] == pytest.approx(acc, abs=1e-12)


def _per_k_sweep(ds, k_range, folds, seed):
    """sweep_k's curve with one knn_predict_batch call per fold and k."""
    curve = {k: 0.0 for k in k_range}
    for train, val in cv_folds(ds, folds, seed):
        model = knn_fit(train)
        for k in curve:
            if k <= len(train):
                preds = knn_predict_batch(model, val.rows, k)
                curve[k] += float(np.mean(preds == val.labels)) / folds
    return max(curve, key=lambda k: (curve[k], -k)), curve


@pytest.mark.parametrize(
    "name, ds, k_range",
    [
        ("blobs", _random_dataset(120, seed=21, spread=1.5), range(1, 31)),
        # duplicated rows: distance ties resolved by training-row order
        ("duplicates", _dataset(np.repeat(np.random.default_rng(4).normal(size=(15, 3)), 4, axis=0),
                                np.random.default_rng(5).integers(0, 5, size=60)), range(1, 31)),
        # two classes in equal numbers on one point: every even k is a vote tie
        ("vote ties", _dataset(np.zeros((40, 2)) + np.arange(40)[:, None] % 2 * 1e-3,
                               np.arange(40) // 2 % 2), range(1, 21)),
        ("gaps", _random_dataset(80, seed=22, spread=1.0), [30, 2, 7, 3, 19]),
        ("k beyond train", _random_dataset(30, seed=23), [1, 5, 26, 27, 28, 40]),
    ],
)
def test_sweep_k_equals_the_per_k_sweep_exactly(name, ds, k_range):
    assert sweep_k(ds, k_range=k_range, folds=5, seed=9) == _per_k_sweep(ds, k_range, 5, 9)


def test_sweep_k_rejects_k_below_one():
    with pytest.raises(ValueError):
        sweep_k(_random_dataset(20), k_range=[0, 1, 2], folds=2)


def test_sweep_k_rejects_single_fold():
    with pytest.raises(ValueError):
        sweep_k(_random_dataset(20), folds=1)


# ----------------------------------------------------------------------- gnb


def test_gnb_disjoint_ranges():
    rng = np.random.default_rng(14)
    rows = np.concatenate([rng.uniform(0, 1, 30), rng.uniform(10, 11, 30)])
    labels = np.array([0] * 30 + [1] * 30)
    ds = _dataset(rows.reshape(-1, 1), labels)
    model = gnb_train(ds)
    assert gnb_predict(model, [[0.2], [10.1], [0.5], [10.5], [0.9], [10.9]]).tolist() == [0, 1] * 3


def test_gnb_midpoint_tie_prefers_smallest_class():
    rows = [[-2.0], [-1.0], [1.0], [2.0]]
    ds = _dataset(rows, [0, 0, 1, 1])
    model = gnb_train(ds)
    assert gnb_predict(model, [[0.0]]).tolist() == [0]


def test_gnb_log_posterior_formula():
    ds = _random_dataset(150, seed=15)
    model = gnb_train(ds)
    rows = np.random.default_rng(16).normal(0, 3, size=(10, 4))
    batch = gnb_log_posterior(model, rows)
    assert batch.shape == (10, 5)
    for x, got in zip(rows, batch):
        for c in range(5):
            prior = np.log(np.mean(ds.labels == c))
            ll = sum(
                scipy.stats.norm.logpdf(x[j], model.mean[c, j], np.sqrt(model.var[c, j]))
                for j in range(4)
            )
            assert got[c] == pytest.approx(prior + ll, rel=1e-9)


def test_gnb_needs_two_samples_per_class():
    ds = _dataset([[0.0], [1.0], [2.0]], [0, 0, 1])
    with pytest.raises(ValueError):
        gnb_train(ds)


def test_gnb_variance_floor_handles_constant_features():
    ds = _dataset([[1.0, 5.0], [1.0, 6.0], [2.0, 0.0], [2.0, 1.0]], [0, 0, 1, 1])
    model = gnb_train(ds)
    assert np.all(model.var > 0)
    assert gnb_predict(model, [[1.0, 5.5]]).tolist() == [0]


# ----------------------------------------------------- batch prediction rows


@pytest.mark.parametrize("call", ["gnb_predict", "gnb_log_posterior", "knn_predict_batch",
                                  "cnn.predict"])
def test_a_lone_1d_row_is_refused_with_the_expected_shape(call):
    # was a bare IndexError (gnb), a silent one-row batch (knn) and this ValueError (cnn);
    # a non-finite row got a class from gnb and knn
    ds = _random_dataset(60, n_features=12, seed=4)
    gnb, knn = gnb_train(ds), knn_fit(ds)
    model = cnn.init_model(cnn.CnnHyperparams(batch_size=50, kernel_length=3, base_filters=4), 0)
    predict = {"gnb_predict": lambda rows: gnb_predict(gnb, rows),
               "gnb_log_posterior": lambda rows: gnb_log_posterior(gnb, rows),
               "knn_predict_batch": lambda rows: knn_predict_batch(knn, rows, 3),
               "cnn.predict": lambda rows: cnn.predict(model, rows)}[call]
    with pytest.raises(ValueError, match=re.escape("expected input shape (n, 12), got (12,)")):
        predict(ds.rows[0])
    with pytest.raises(ValueError, match=re.escape("expected input shape (n, 12), got (1, 11)")):
        predict(ds.rows[:1, :11])
    for bad in (np.nan, np.inf, -np.inf):
        rows = ds.rows[:3].copy()
        rows[1, 4] = bad
        with pytest.raises(ValueError, match="input contains non-finite values"):
            predict(rows)
    assert len(predict(ds.rows[:1])) == 1
    assert len(predict(ds.rows)) == len(ds)


# ------------------------------------------------------------------ evaluate


def test_evaluate_perfect_predictions():
    labels = np.repeat(np.arange(5), 8)
    m = evaluate(labels, labels)
    assert m.accuracy == 1.0
    assert np.all(m.f1 == 1.0) and m.macro_f1 == 1.0
    assert np.array_equal(np.diag(m.confusion), np.full(5, 8))


def test_evaluate_degenerate_predictor():
    labels = np.repeat(np.arange(5), 10)
    preds = np.full(50, 2)
    m = evaluate(preds, labels)
    assert m.accuracy == pytest.approx(0.2)
    assert m.recall[2] == 1.0 and all(m.recall[c] == 0 for c in (0, 1, 3, 4))
    assert m.precision[2] == pytest.approx(0.2)
    assert all(m.precision[c] == 0 for c in (0, 1, 3, 4))  # 0/0 -> 0 convention


def test_evaluate_matches_hand_formulas():
    rng = np.random.default_rng(18)
    labels = rng.integers(0, 5, 200)
    preds = rng.integers(0, 5, 200)
    m = evaluate(preds, labels)
    for c in range(5):
        tp = int(np.sum((preds == c) & (labels == c)))
        fp = int(np.sum((preds == c) & (labels != c)))
        fn = int(np.sum((preds != c) & (labels == c)))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        assert m.precision[c] == pytest.approx(prec, abs=1e-12)
        assert m.recall[c] == pytest.approx(rec, abs=1e-12)
        assert m.f1[c] == pytest.approx(f1, abs=1e-12)
    assert m.accuracy == pytest.approx(float(np.mean(preds == labels)), abs=1e-12)
    assert m.macro_f1 == pytest.approx(float(np.mean(m.f1)), abs=1e-12)
    assert m.confusion.sum() == 200
    assert np.array_equal(m.confusion.sum(axis=1), np.bincount(labels, minlength=5))


def test_evaluate_relabel_invariance():
    rng = np.random.default_rng(20)
    labels = rng.integers(0, 5, 120)
    preds = rng.integers(0, 5, 120)
    perm = np.array([3, 0, 4, 1, 2])
    a = evaluate(preds, labels)
    b = evaluate(perm[preds], perm[labels])
    assert a.accuracy == b.accuracy
    assert np.array_equal(b.confusion, a.confusion[np.argsort(perm)][:, np.argsort(perm)])


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        evaluate([0, 1], [0])


# --------------------------------------------------------------- normalizer


def test_normalizer_drops_constant_columns():
    rows = np.column_stack([np.arange(10.0), np.full(10, 7.0)])
    with pytest.warns(UserWarning, match="constant"):
        norm = Normalizer(rows)
    out = norm.transform(rows)
    assert out.shape == (10, 1)
    assert abs(out.mean()) < 1e-12 and out.std() == pytest.approx(1.0)


def test_normalizer_all_constant_errors():
    with pytest.warns(UserWarning), pytest.raises(ValueError):
        Normalizer(np.full((5, 3), 2.0))
