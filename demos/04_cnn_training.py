"""
Training the 1-D convolutional classifier
=========================================

A short run on a small corpus: train with a reduced filter count, plot
the loss and accuracy curves, then round-trip the model through a JSON
checkpoint and confirm the predictions survive.
"""

from pathlib import Path

import numpy as np

from vibsense import (
    CnnHyperparams,
    LabeledDataset,
    extract_features,
    line_chart,
    load_checkpoint,
    predict,
    save_checkpoint,
    save_svg,
    simulate_corpus,
    split,
    train,
)

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

windows = simulate_corpus(400, seed=2)
ds = LabeledDataset.from_vectors(
    [extract_features(w) for w in windows], [w.source for w in windows]
)
train_ds, val_ds, test_ds = split(ds, (0.7, 0.1, 0.2), seed=2, stratified=True)

hp = CnnHyperparams(batch_size=50, kernel_length=3, base_filters=8, activation="elu")
model = train(train_ds, hp, seed=2, val=val_ds, epochs=40)

h = model.history
print(f"epochs run          {len(h.val_acc)}")
print(f"final train loss    {h.train_loss[-1]:.4f}")
print(f"final val accuracy  {h.val_acc[-1]:.4f}")
print(f"final lr            {h.lr[-1]:g}")

# predict takes raw feature rows and scales them as training did
probs = predict(model, test_ds.rows)
test_acc = float(np.mean(probs.argmax(axis=1) == test_ds.labels))
print(f"test accuracy       {test_acc:.4f}")

top = int(probs[0].argmax())
truth = model.class_names[test_ds.labels[0]]
print(f"\nsample 0: predicted {model.class_names[top]} (p={probs[0, top]:.3f}), truth {truth}")

ckpt = out / "cnn_checkpoint.json"
save_checkpoint(model, ckpt)
reloaded = load_checkpoint(ckpt)
assert np.array_equal(probs, predict(reloaded, test_ds.rows))
print(f"checkpoint round trip OK at {ckpt}")

epochs = list(range(1, len(h.val_acc) + 1))
svg = line_chart(
    [("train acc", epochs, h.train_acc), ("val acc", epochs, h.val_acc)],
    title="training curves", x_label="epoch", y_label="accuracy",
)
save_svg(svg, out / "cnn_curves.svg")
print(f"wrote {out / 'cnn_curves.svg'}")
