"""From-scratch 1D CNN over the 12-feature vector.

Architecture: DEPTH = 5 same-padded stride-1 convolution blocks whose
channel count doubles per layer (2^r * q at layer r), global average pooling,
one dense layer to N class scores, softmax. Trained with mean cross-entropy,
Adam (Kingma & Ba 2015 defaults) and plateau learning-rate decay (LR0 times
DECAY_FACTOR whenever best-so-far validation accuracy stalls for PATIENCE
consecutive epochs). Only the paper's grid axes vary: :class:`CnnHyperparams`.

Layouts. A model is its hyperparameters plus one flat list of parameter
arrays, W1, b1, ..., W5, b5, dense W, dense b, shaped as
:func:`_parameter_shapes` says: conv weights (C_out, C_in, K), the dense
weights (C_in, N). Activations are channels-last, (n, L, C), through every
conv block; an input batch (n, 12) enters as (n, 12, 1). Each conv block is
one im2col copy, (n*L, C_in*K) with columns in (c, k) order, and one matmul
against ``weights.reshape(C_out, -1)``, a view; the backward pass reuses
that matrix for dW and the same view for dX (Chellapilla et al. 2006).
The forward cache keeps each block's output, not its pre-activation, and
activation derivatives are computed from it (ELU, with alpha = 1, has
derivative a + 1 for a <= 0; Clevert et al. 2015).

Everything is numpy float64; a full run is reproducible bit-for-bit for a
fixed (seed, hyperparams, dataset).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from .baselines import LabeledDataset, cv_folds
from .errors import DivergenceError
from .schema import DEFAULT_GRIDS, DEPTH, EPOCHS, FEATURE_COLUMNS, CnnHyperparams  # noqa: F401 (cnn.DEPTH)

INPUT_LEN = len(FEATURE_COLUMNS)
LR0 = 1e-2
DECAY_FACTOR = 0.8
PATIENCE = 10
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def elu(x):
    """x for x > 0, exp(x) - 1 otherwise."""
    out = _elu_inplace(np.array(x, dtype=float, ndmin=1))
    return float(out[0]) if np.ndim(x) == 0 else out


def _elu_inplace(z):
    neg = np.minimum(z, 0.0)
    np.expm1(neg, out=neg)
    np.maximum(z, 0.0, out=z)
    z += neg
    return z


def _sigmoid_inplace(z):
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def _elu_grad(a):
    """ELU's derivative from its output a: 1 where a > 0, a + 1 elsewhere (1 at z = 0)."""
    g = np.minimum(a, 0.0)
    g += 1.0
    return g


def _one_minus_square(a):
    g = np.square(a)
    return np.subtract(1.0, g, out=g)


def _sigmoid_grad(a):
    g = np.subtract(1.0, a)
    g *= a
    return g


# name -> (f(z) computed in place on z, f'(z) from the output a = f(z)).
# relu's derivative is a boolean mask; every other one is a float array.
_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a: a > 0),
    "elu": (_elu_inplace, _elu_grad),
    "tanh": (lambda z: np.tanh(z, out=z), _one_minus_square),
    "sigmoid": (_sigmoid_inplace, _sigmoid_grad),
}


def layer_output_sizes(hp: CnnHyperparams) -> list[tuple[int, int]]:
    """(length, channels) per layer: DEPTH conv blocks, GAP, dense."""
    sizes = [(INPUT_LEN, c) for c in hp.channel_counts()]
    sizes.append((1, hp.channel_counts()[-1]))
    sizes.append((1, hp.n_classes))
    return sizes


@dataclass
class TrainingHistory:
    lr: list[float] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)


@dataclass
class CnnModel:
    hp: CnnHyperparams
    params: list[np.ndarray]  # W1, b1, ..., W5, b5, dense W, dense b: _parameter_shapes(hp)
    input_mean: np.ndarray
    input_std: np.ndarray
    class_names: list[str]
    history: TrainingHistory = field(default_factory=TrainingHistory)


def _parameter_shapes(hp: CnnHyperparams) -> list[tuple[int, ...]]:
    """The shape of each array of ``CnnModel.params`` in a model of ``hp``."""
    shapes, c_in = [], 1
    for c_out in hp.channel_counts():
        shapes += [(c_out, c_in, hp.kernel_length), (c_out,)]
        c_in = c_out
    return shapes + [(c_in, hp.n_classes), (hp.n_classes,)]


def init_model(hp: CnnHyperparams, seed: int, class_names=None) -> CnnModel:
    """Fan-in-scaled uniform weight init, zero biases, seeded."""
    rng = np.random.default_rng(seed)
    params = []
    for shape in _parameter_shapes(hp):
        if len(shape) == 1:  # a bias
            params.append(np.zeros(shape))
        else:
            fan_in = shape[0] if len(shape) == 2 else shape[1] * shape[2]  # dense: (C_in, N)
            bound = np.sqrt(1.0 / fan_in)
            params.append(rng.uniform(-bound, bound, size=shape))
    names = list(class_names) if class_names else [str(i) for i in range(hp.n_classes)]
    return CnnModel(hp, params, np.zeros(INPUT_LEN), np.ones(INPUT_LEN), names)


def _taps(length: int, k: int):
    """Per kernel tap j of a same-padded conv: (j, output rows, input rows).

    Output position l reads input position l + j - (k - 1) // 2; positions
    off either end read the zero padding, so only the slices overlap.
    """
    pad_l = (k - 1) // 2
    for j in range(k):
        s = j - pad_l
        yield j, slice(max(0, -s), length - max(0, s)), slice(max(0, s), length + min(0, s))


def _conv_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, activation: str):
    """Same-padded stride-1 conv plus activation. x: (n, L, C_in) -> (n, L, C_out).

    Returns the output and the im2col matrix ``cols`` (n*L, C_in*K): row
    (i, l), column c*K + j holds x[i, l + j - pad, c], zero in the padding.
    That column order is the order of ``weights.reshape(C_out, -1)``.
    """
    n, length, c_in = x.shape
    c_out, _, k = weights.shape
    cols = np.empty((n, length, c_in, k))
    for j, out_rows, in_rows in _taps(length, k):
        cols[:, out_rows, :, j] = x[:, in_rows]
        cols[:, : out_rows.start, :, j] = 0.0
        cols[:, out_rows.stop :, :, j] = 0.0
    cols = cols.reshape(n * length, c_in * k)
    z = cols @ weights.reshape(c_out, -1).T
    z += bias
    act, _ = _ACTIVATIONS[activation]
    return act(z).reshape(n, length, c_out), cols


def _conv_backward(d_out: np.ndarray, weights: np.ndarray, activation: str, cache, need_dx: bool):
    """Gradients of one conv block from d(loss)/d(output); dx is None unless need_dx."""
    cols, a = cache
    n, length, c_out = a.shape
    _, grad = _ACTIVATIONS[activation]
    dz = np.multiply(d_out, grad(a)).reshape(n * length, c_out)
    dw = (dz.T @ cols).reshape(weights.shape)
    db = dz.sum(axis=0)
    if not need_dx:
        return None, dw, db
    _, c_in, k = weights.shape
    dcols = (dz @ weights.reshape(c_out, -1)).reshape(n, length, c_in, k)
    dx = np.zeros((n, length, c_in))
    for j, out_rows, in_rows in _taps(length, k):
        dx[:, in_rows] += dcols[:, out_rows, :, j]
    return dx, dw, db


def forward(model: CnnModel, batch: np.ndarray, return_cache: bool = False):
    """Class probabilities for a batch shaped (n, 12)."""
    x = np.asarray(batch, dtype=float)
    if x.ndim != 2 or x.shape[1] != INPUT_LEN:
        raise ValueError(f"expected input shape (n, {INPUT_LEN}), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")

    caches = []
    *conv, dense_w, dense_b = model.params
    a = x.reshape(len(x), INPUT_LEN, 1)  # channels-last (n, L, C)
    for w, b in zip(conv[0::2], conv[1::2]):
        a, cols = _conv_forward(a, w, b, model.hp.activation)
        caches.append((cols, a))  # backward takes dW from cols and f'(z) from a
    g = a.mean(axis=1)  # global average pooling (n, C)
    logits = g @ dense_w + dense_b
    logits_shift = logits - logits.max(axis=1, keepdims=True)
    log_probs = logits_shift - np.log(np.exp(logits_shift).sum(axis=1, keepdims=True))
    probs = np.exp(log_probs)
    if return_cache:
        return probs, {
            "conv_caches": caches,
            "gap": g,
            "log_probs": log_probs,
            "probs": probs,
        }
    return probs


def cross_entropy(log_probs: np.ndarray, labels: np.ndarray) -> float:
    return float(-log_probs[np.arange(len(labels)), labels].mean())


def backward(model: CnnModel, cache: dict, labels: np.ndarray) -> list[np.ndarray]:
    """Exact gradients of mean cross-entropy, ordered as :func:`parameters`."""
    n = len(labels)
    probs = cache["probs"]
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    g = cache["gap"]
    d_dense_w = g.T @ dlogits
    d_dense_b = dlogits.sum(axis=0)
    dg = dlogits @ model.params[-2].T

    conv_caches = cache["conv_caches"]
    last_out = conv_caches[-1][1]
    d_a = np.broadcast_to((dg / last_out.shape[1])[:, None, :], last_out.shape)
    grads = [d_dense_b, d_dense_w]  # reversed here, flipped below
    for depth in reversed(range(len(conv_caches))):
        d_a, dw, db = _conv_backward(d_a, model.params[2 * depth], model.hp.activation,
                                     conv_caches[depth], need_dx=depth > 0)
        grads.extend([db, dw])
    grads.reverse()  # now W1, b1, ..., W_depth, b_depth, Wd, bd
    return grads


def parameters(model: CnnModel) -> list[np.ndarray]:
    """Flat parameter list: conv W1, b1, ..., Wd, bd (the model's own arrays, not copies)."""
    return model.params


def loss_and_grads(model: CnnModel, batch, labels) -> tuple[float, list[np.ndarray], np.ndarray]:
    probs, cache = forward(model, batch, return_cache=True)
    loss = cross_entropy(cache["log_probs"], np.asarray(labels))
    grads = backward(model, cache, np.asarray(labels))
    return loss, grads, probs


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState, lr: float
) -> None:
    """Bias-corrected Adam update, in place, through one reused scratch buffer."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    scratch = np.empty(max(p.size for p in params))
    for p, g, m, v in zip(params, grads, state.m, state.v):
        tmp = scratch[: p.size].reshape(p.shape)
        np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        m *= ADAM_BETA1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(m, tmp, out=tmp)
        tmp *= lr / bc1
        p -= tmp


class PlateauScheduler:
    """Cuts the learning rate when best-so-far validation accuracy stalls.

    After PATIENCE consecutive epochs without a strict improvement the rate
    becomes ``LR0 * DECAY_FACTOR**k`` (k = number of cuts so far; computed
    from LR0 each time, so no drift from repeated multiplication) and the
    stall counter restarts.
    """

    def __init__(self):
        self.best = -np.inf
        self.stall = 0
        self.n_decays = 0

    @property
    def lr(self) -> float:
        return LR0 * DECAY_FACTOR**self.n_decays

    def update(self, val_acc: float) -> float:
        """Record one epoch's validation accuracy; return the next lr."""
        if val_acc > self.best:
            self.best = val_acc
            self.stall = 0
        else:
            self.stall += 1
            if self.stall >= PATIENCE:
                self.n_decays += 1
                self.stall = 0
        return self.lr


def train(
    ds: LabeledDataset,
    hp: CnnHyperparams,
    seed: int,
    *,
    val: LabeledDataset,
    epochs: int = EPOCHS,
) -> CnnModel:
    """Train on ``ds`` for ``epochs`` epochs, scoring each one on ``val``.

    The learning rate starts at LR0 and decays by DECAY_FACTOR whenever the
    best-so-far validation accuracy has not improved for PATIENCE consecutive
    epochs. The model returned holds the weights of the first epoch with the
    best validation accuracy; its history covers every epoch. Raises
    :class:`DivergenceError` on a non-finite loss.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    for name, labels in (("ds", ds.labels), ("val", val.labels)):
        if labels.min() < 0 or labels.max() >= hp.n_classes:
            raise ValueError(f"{name} labels must lie in 0..n_classes-1 = {hp.n_classes - 1}")
    mean = ds.rows.mean(axis=0)
    std = ds.rows.std(axis=0)
    std[std == 0] = 1.0  # keep width 12: constant columns pass through centered

    model = init_model(hp, seed, class_names=[c.value for c in ds.classes])
    model.input_mean = mean
    model.input_std = std

    x_train = (ds.rows - mean) / std
    y_train = ds.labels
    x_val = (val.rows - mean) / std
    y_val = val.labels

    params = parameters(model)
    state = AdamState.for_params(params)
    rng = np.random.default_rng(seed + 1)
    scheduler = PlateauScheduler()
    best = [p.copy() for p in params]

    for _ in range(epochs):
        lr = scheduler.lr
        order = rng.permutation(len(x_train))
        correct = 0
        losses = []
        for start in range(0, len(order), hp.batch_size):
            idx = order[start : start + hp.batch_size]
            loss, grads, probs = loss_and_grads(model, x_train[idx], y_train[idx])
            if not np.isfinite(loss):
                raise DivergenceError(f"loss became {loss}")
            losses.append(loss * len(idx))
            correct += int(np.sum(probs.argmax(axis=1) == y_train[idx]))
            adam_step(params, grads, state, lr)
        train_acc = correct / len(x_train)
        val_acc = float(np.mean(forward(model, x_val).argmax(axis=1) == y_val))

        model.history.lr.append(lr)
        model.history.train_loss.append(sum(losses) / len(x_train))
        model.history.train_acc.append(train_acc)
        model.history.val_acc.append(val_acc)
        if val_acc > scheduler.best:  # the scheduler's own test for an improvement
            best = [p.copy() for p in params]
        scheduler.update(val_acc)
    for p, b in zip(params, best):
        p[...] = b
    return model


def predict(model: CnnModel, rows) -> np.ndarray:
    """(n, N) class probabilities of raw feature rows (n, 12), scaled as training scaled them."""
    return forward(model, (np.asarray(rows, dtype=float) - model.input_mean) / model.input_std)


def grid_combinations(grids: dict | None = None) -> list[CnnHyperparams]:
    """All hyperparameter combos in lexicographic grid order (ValueError off-grid)."""
    g = {**DEFAULT_GRIDS, **(grids or {})}
    return [
        CnnHyperparams(**dict(zip(DEFAULT_GRIDS, values)))
        for values in product(*(g[key] for key in DEFAULT_GRIDS))
    ]


@dataclass
class GridSearchResult:
    ranked: list[tuple[CnnHyperparams, float]]  # descending mean CV accuracy
    winner: CnnHyperparams
    marginals: dict[str, list[tuple[object, float]]]  # per key: (value, mean score) in grid order


def grid_search(
    ds: LabeledDataset,
    grids: dict | None = None,
    folds: int = 10,
    seed: int = 0,
    epochs: int = EPOCHS,
) -> GridSearchResult:
    """Mean CV validation accuracy per combo; ties keep earliest grid order.

    Each (combo, fold) trains with an independently derived seed, so results
    do not depend on evaluation order. A run's score is its best validation
    accuracy; the combo score is the mean over folds.
    """
    g = {**DEFAULT_GRIDS, **(grids or {})}
    combos = grid_combinations(g)
    splits = list(cv_folds(ds, folds, seed))
    scores = []
    for combo_idx, hp in enumerate(combos):
        fold_scores = []
        for fold, (tr, va) in enumerate(splits):
            run_seed = seed + 7919 * (combo_idx + 1) + fold
            model = train(tr, hp, seed=run_seed, val=va, epochs=epochs)
            fold_scores.append(max(model.history.val_acc))
        scores.append(float(np.mean(fold_scores)))

    best_idx = int(np.argmax(scores))  # argmax keeps the first max
    order = sorted(range(len(combos)), key=lambda i: (-scores[i], i))
    marginals: dict[str, list[tuple[object, float]]] = {key: [] for key in DEFAULT_GRIDS}
    for key, pairs in marginals.items():
        for value in g[key]:
            with_value = [s for hp, s in zip(combos, scores) if getattr(hp, key) == value]
            pairs.append((value, float(np.mean(with_value))))
    return GridSearchResult(
        ranked=[(combos[i], scores[i]) for i in order],
        winner=combos[best_idx],
        marginals=marginals,
    )


CHECKPOINT_VERSION = 4  # files of formats 1-3 no longer load
_CHECKPOINT_KEYS = ("format_version", "hyperparams", "class_names", "input_mean", "input_std",
                    "history", "parameters")


def _stored_shapes(hp: CnnHyperparams) -> list[tuple[int, ...]]:
    """The shape of each stored array: ``parameters``, then ``input_mean`` and ``input_std``."""
    return [*_parameter_shapes(hp), (INPUT_LEN,), (INPUT_LEN,)]


def save_checkpoint(model: CnnModel, path) -> None:
    """JSON: the hyperparameters, then each array of ``parameters(model)`` flat in row-major
    order. A model whose arrays ``model.hp`` does not describe is a ValueError, since its
    file would reload as another model."""
    arrays = [*parameters(model), model.input_mean, model.input_std]
    layout = [(shape, np.dtype(float)) for shape in _stored_shapes(model.hp)]
    if [(a.shape, a.dtype) for a in arrays] != layout:
        raise ValueError(f"{path}: the model's arrays are not those {model.hp} describes")
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "hyperparams": asdict(model.hp),
        "class_names": model.class_names,
        "input_mean": model.input_mean.tolist(),
        "input_std": model.input_std.tolist(),
        "history": asdict(model.history),
        "parameters": [p.ravel().tolist() for p in parameters(model)],
    }
    Path(path).write_text(json.dumps(payload))


def _object(value, keys, where: str) -> dict:
    if type(value) is not dict or value.keys() != set(keys):
        raise ValueError(f"{where} must be an object with the keys {', '.join(keys)}")
    return value


def _list(values, where: str, size=None, kinds=(int, float)) -> list:
    """``values`` if it is a JSON list of ``size`` items (None: any number), each of ``kinds``."""
    if type(values) is not list or size not in (None, len(values)) \
            or not set(map(type, values)) <= set(kinds):
        names = ' or '.join(kind.__name__ for kind in kinds)
        raise ValueError(f"{where} must be a list of {size or 'any number of'} {names}")
    return values


def load_checkpoint(path) -> CnnModel:
    """The model of a :func:`save_checkpoint` file; ValueError, naming ``path``, for any other."""
    try:  # bad JSON and bad UTF-8 raise ValueErrors
        payload = _object(json.loads(Path(path).read_bytes()), _CHECKPOINT_KEYS, "a checkpoint")
        if payload["format_version"] != CHECKPOINT_VERSION:
            raise ValueError(f"format_version must be {CHECKPOINT_VERSION}, not 1-3 or another")
        hyperparams = _object(payload["hyperparams"], asdict(CnnHyperparams()), "hyperparams")
        hp = CnnHyperparams(**hyperparams)
        class_names = _list(payload["class_names"], "class_names", kinds=(str,))
        history = _object(payload["history"], asdict(TrainingHistory()), "history")
        history = TrainingHistory(**{k: _list(v, f"history.{k}") for k, v in history.items()})
        shapes = _stored_shapes(hp)
        values = [*_list(payload["parameters"], "parameters", len(shapes) - 2, (list,)),
                  payload["input_mean"], payload["input_std"]]
        where = [*(f"parameters[{i}]" for i in range(len(shapes) - 2)), "input_mean", "input_std"]
        for v, w, shape in zip(values, where, shapes):  # all of them before any array is made
            _list(v, w, math.prod(shape))
        *params, mean, std = [np.fromiter(v, float, len(v)).reshape(shape)
                              for v, shape in zip(values, shapes)]
        return CnnModel(hp, params, mean, std, class_names, history)
    except (ValueError, RecursionError, OverflowError) as exc:  # nested too deep; a huge int
        raise ValueError(f"{path}: {exc}") from exc
