"""
k-NN and Gaussian naive Bayes baselines
=======================================

Split a corpus 70/10/20, pick k by 10-fold cross-validation on the
training+validation pool, and score both baselines on the held-out test
fold.
"""

from pathlib import Path

import numpy as np

from vibsense import (
    LabeledDataset,
    evaluate,
    extract_features,
    gnb_predict,
    gnb_train,
    heatmap,
    knn_fit,
    knn_predict_batch,
    line_chart,
    save_svg,
    simulate_corpus,
    split,
    sweep_k,
)

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

windows = simulate_corpus(600, seed=1)
ds = LabeledDataset.from_vectors(
    [extract_features(w) for w in windows], [w.source for w in windows]
)
train_ds, val_ds, test_ds = split(ds, (0.7, 0.1, 0.2), seed=1, stratified=True)

# k is tuned on train+val; the test fold stays untouched until the end
pool = LabeledDataset(
    np.vstack([train_ds.rows, val_ds.rows]),
    np.concatenate([train_ds.labels, val_ds.labels]),
    ds.classes,
)
best_k, curve = sweep_k(pool, k_range=range(1, 31), folds=10, seed=1)
print(f"best k = {best_k} (cv accuracy {curve[best_k]:.4f})")

model = knn_fit(pool)
preds = knn_predict_batch(model, test_ds.rows, best_k)
metrics = evaluate(preds, test_ds.labels, n_classes=len(ds.classes))
print(f"k-NN  test accuracy {metrics.accuracy:.4f}")

gnb = gnb_train(pool)
gnb_metrics = evaluate(gnb_predict(gnb, test_ds.rows), test_ds.labels, n_classes=len(ds.classes))
print(f"GNB   test accuracy {gnb_metrics.accuracy:.4f}")

names = [c.value for c in ds.classes]
print(f"\n{'class':>20} {'precision':>10} {'recall':>10} {'f1':>10}")
for i, name in enumerate(names):
    print(f"{name:>20} {metrics.precision[i]:>10.3f} {metrics.recall[i]:>10.3f} {metrics.f1[i]:>10.3f}")

save_svg(
    line_chart(
        [("cv accuracy", sorted(curve), [curve[k] for k in sorted(curve)])],
        title="k sweep, 10-fold CV", x_label="k", y_label="accuracy",
    ),
    out / "k_sweep.svg",
)
save_svg(
    heatmap(metrics.confusion, names, names, title="k-NN test confusion"),
    out / "knn_confusion.svg",
)
print(f"\nwrote {out / 'k_sweep.svg'} and {out / 'knn_confusion.svg'}")
