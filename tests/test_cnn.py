import functools
import json
import re
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vibsense import cnn
from vibsense.baselines import LabeledDataset
from vibsense.cnn import (
    AdamState,
    CnnHyperparams,
    CnnModel,
    ConvLayer,
    DenseLayer,
    PlateauScheduler,
    TrainingHistory,
    adam_step,
    backward,
    cross_entropy,
    elu,
    _elu_grad,
    forward,
    grid_combinations,
    grid_search,
    init_model,
    layer_output_sizes,
    load_checkpoint,
    loss_and_grads,
    parameters,
    predict,
    save_checkpoint,
    train,
)
from vibsense.errors import DivergenceError

HP_SMALL = CnnHyperparams(batch_size=50, kernel_length=3, base_filters=4)


def _toy_dataset(n=20, seed=0, sep=3.0, n_classes=2, width=12):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % n_classes
    centers = rng.uniform(-sep, sep, size=(n_classes, width))
    rows = centers[labels] + rng.normal(0, 1.0, size=(n, width))
    return LabeledDataset(rows, labels)


def _loss_only(model, x, y):
    _, cache = forward(model, x, return_cache=True)
    return cross_entropy(cache["log_probs"], y)


# ------------------------------------------------------------- activations


def test_elu_reference_points():
    assert elu(0.0) == 0.0
    assert elu(2.0) == 2.0
    assert elu(-1.0) == pytest.approx(np.expm1(-1.0), abs=1e-15)
    assert isinstance(elu(0.5), float)
    out = elu(np.array([-1.0, 0.0, 3.0]))
    assert isinstance(out, np.ndarray)
    assert out[2] == 3.0


def test_elu_is_continuous_and_grad_one_at_zero():
    assert abs(elu(-1e-12) - (-1e-12)) < 1e-24
    # the gradient is read from the output array a = elu(z)
    at_zero, above, below = _elu_grad(elu(np.array([0.0, 1e-9, -1e-9])))
    assert at_zero == 1.0
    assert above == 1.0
    assert below == pytest.approx(1.0, abs=1e-8)


ANALYTIC_GRADS = {
    "relu": lambda z: (z > 0).astype(float),
    "elu": lambda z: np.where(z > 0, 1.0, np.exp(np.minimum(z, 0.0))),
    "tanh": lambda z: 1.0 / np.cosh(z) ** 2,
    "sigmoid": lambda z: np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))) ** 2,
    "linear": lambda z: np.ones_like(z),
}


@pytest.mark.parametrize("name", sorted(cnn._ACTIVATIONS))
def test_activation_gradient_from_output_matches_analytic(name):
    z = np.concatenate([[-30.0, -1e-9, 0.0, 1e-9, 30.0], np.linspace(-6.0, 6.0, 241)])
    act, grad = cnn._ACTIVATIONS[name]
    a = act(z.copy())
    got = np.asarray(grad(a), dtype=float)
    # a = f(z) is rounded to float64, so f'(a) carries an absolute error of a
    # few ulps of 1 where it cancels (1 - a*a near saturation, a + 1 near -1)
    np.testing.assert_allclose(got, ANALYTIC_GRADS[name](z),
                               rtol=1e-12, atol=4 * np.finfo(float).eps)
    if name == "elu":
        assert got[2] == 1.0  # z = 0


# ------------------------------------------------------------- architecture


def test_layer_sizes_reference_config():
    hp = CnnHyperparams(base_filters=32, kernel_length=3)
    assert layer_output_sizes(hp) == [
        (12, 32),
        (12, 64),
        (12, 128),
        (12, 256),
        (12, 512),
        (1, 512),
        (1, 5),
    ]


def test_layer_sizes_all_configs():
    # same padding keeps length 12 through every conv block for any K
    for q in (4, 8, 16, 32):
        for k in (1, 2, 3, 4):
            sizes = layer_output_sizes(CnnHyperparams(base_filters=q, kernel_length=k))
            assert sizes[:5] == [(12, q * 2**r) for r in range(5)]
            assert sizes[5:] == [(1, q * 16), (1, 5)]


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        CnnHyperparams(batch_size=64)
    with pytest.raises(ValueError):
        CnnHyperparams(kernel_length=5)
    with pytest.raises(ValueError):
        CnnHyperparams(base_filters=3)
    with pytest.raises(ValueError):
        CnnHyperparams(activation="gelu")
    # a value equal to a grid value but of another type is off the grid too
    for axis, value in [("batch_size", 100.0), ("kernel_length", True), ("base_filters", 4.0)]:
        with pytest.raises(ValueError, match=axis):
            CnnHyperparams(**{axis: value})
    for n_classes in (0, -1, 5.0, True, "5"):
        with pytest.raises(ValueError, match="n_classes"):
            CnnHyperparams(n_classes=n_classes)
    # fixed settings are module constants, not fields: ELU alpha 1, stride 1
    with pytest.raises(TypeError):
        CnnHyperparams(elu_alpha=0.5)
    with pytest.raises(TypeError):
        CnnHyperparams(stride=2)


def test_init_model_shapes_and_determinism():
    hp = CnnHyperparams(base_filters=8, kernel_length=2)
    model = init_model(hp, seed=5)
    shapes = [p.shape for p in parameters(model)]
    assert shapes == [
        (8, 1, 2), (8,),
        (16, 8, 2), (16,),
        (32, 16, 2), (32,),
        (64, 32, 2), (64,),
        (128, 64, 2), (128,),
        (128, 5), (5,),
    ]
    for layer in model.conv_layers:
        c_in = layer.weights.shape[1]
        assert np.abs(layer.weights).max() <= np.sqrt(1.0 / (c_in * 2))
        assert np.all(layer.bias == 0)
    again = init_model(hp, seed=5)
    other = init_model(hp, seed=6)
    assert all(np.array_equal(a, b) for a, b in zip(parameters(model), parameters(again)))
    assert not np.array_equal(model.conv_layers[0].weights, other.conv_layers[0].weights)


# ------------------------------------------------------------------ forward


def test_forward_matches_naive_convolution():
    rng = np.random.default_rng(7)
    for k in (1, 2, 3, 4):
        x = rng.normal(size=(3, 12, 2))  # channels-last (n, L, C_in)
        layer = ConvLayer(rng.normal(size=(4, 2, k)), rng.normal(size=4), "linear")
        z, _ = cnn._conv_forward(x, layer)
        pad_l = (k - 1) // 2
        xp = np.pad(x, ((0, 0), (pad_l, k - 1 - pad_l), (0, 0)))
        want = np.empty((3, 12, 4))
        for i in range(3):
            for co in range(4):
                for pos in range(12):
                    acc = layer.bias[co]
                    for ci in range(2):
                        for j in range(k):
                            acc += layer.weights[co, ci, j] * xp[i, pos + j, ci]
                    want[i, pos, co] = acc
        assert np.allclose(z, want, atol=1e-12)


def test_forward_zero_weights_gives_uniform():
    model = init_model(HP_SMALL, seed=0)
    for p in parameters(model):
        p[...] = 0.0
    probs = forward(model, np.random.default_rng(1).normal(size=(6, 12)))
    assert probs.shape == (6, 5)
    assert np.allclose(probs, 0.2, atol=1e-12)


def test_forward_identity_kernel_reduces_to_row_mean():
    model = CnnModel(
        conv_layers=[ConvLayer(np.ones((1, 1, 1)), np.zeros(1), "linear")],
        dense=DenseLayer(np.zeros((1, 5)), np.zeros(5)),
        hp=CnnHyperparams(),
        input_mean=np.zeros(12),
        input_std=np.ones(12),
        class_names=[str(i) for i in range(5)],
    )
    x = np.random.default_rng(2).normal(size=(4, 12))
    probs, cache = forward(model, x, return_cache=True)
    assert np.allclose(cache["gap"][:, 0], x.mean(axis=1), atol=1e-12)
    assert np.allclose(probs, 0.2, atol=1e-12)


def test_forward_input_validation():
    model = init_model(HP_SMALL, seed=3)
    with pytest.raises(ValueError):
        forward(model, np.zeros((2, 11)))
    with pytest.raises(ValueError):
        forward(model, np.zeros((2, 3, 12)))
    with pytest.raises(ValueError, match=r"\(n, 12\)"):
        forward(model, np.zeros((2, 1, 12)))
    bad = np.zeros((2, 12))
    bad[1, 4] = np.nan
    with pytest.raises(ValueError):
        forward(model, bad)


def test_cross_entropy_limits():
    # certain and correct -> zero loss; anything else is positive
    log_probs = np.array([[0.0, -50.0, -50.0, -50.0, -50.0]])
    assert cross_entropy(log_probs, np.array([0])) == 0.0
    probs = np.full((4, 5), 0.2)
    assert cross_entropy(np.log(probs), np.array([0, 1, 2, 3])) == pytest.approx(
        np.log(5.0), abs=1e-12
    )


# ----------------------------------------------------------------- backward


def _loss_and_sign_masks(model, x, y):
    _, cache = forward(model, x, return_cache=True)
    masks = [a > 0 for _, a in cache["conv_caches"]]  # each layer's (im2col, output)
    return cross_entropy(cache["log_probs"], y), masks


def _check_grads_against_fd(model, x, y, per_tensor=20, h=1e-5, seed=0, skip_kinks=False):
    _, grads, _ = loss_and_grads(model, x, y)
    rng = np.random.default_rng(seed)
    for p, g in zip(parameters(model), grads):
        flat_p, flat_g = p.ravel(), g.ravel()
        idx = rng.choice(flat_p.size, size=min(per_tensor, flat_p.size), replace=False)
        numeric, analytic = [], []
        for i in idx:
            orig = flat_p[i]
            flat_p[i] = orig + h
            up, up_masks = _loss_and_sign_masks(model, x, y)
            flat_p[i] = orig - h
            down, down_masks = _loss_and_sign_masks(model, x, y)
            flat_p[i] = orig
            if skip_kinks and any(
                not np.array_equal(a, b) for a, b in zip(up_masks, down_masks)
            ):
                continue  # the step straddles a relu kink; FD is wrong there, not the gradient
            numeric.append((up - down) / (2 * h))
            analytic.append(flat_g[i])
        assert len(numeric) >= 0.75 * len(idx)
        numeric, analytic = np.array(numeric), np.array(analytic)
        denom = np.linalg.norm(analytic) + np.linalg.norm(numeric)
        if denom > 0:
            assert np.linalg.norm(analytic - numeric) / denom < 1e-4
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-9)


@pytest.mark.parametrize("activation", ["relu", "elu", "tanh", "sigmoid", "linear"])
def test_backward_matches_finite_differences(activation):
    model = init_model(HP_SMALL, seed=11)
    for layer in model.conv_layers:
        layer.activation = activation
    rng = np.random.default_rng(12)
    x = rng.normal(size=(8, 12))
    y = rng.integers(0, 5, size=8)
    _check_grads_against_fd(model, x, y, skip_kinks=activation == "relu")


def test_backward_zero_loss_means_zero_gradients():
    model = init_model(HP_SMALL, seed=13)
    model.dense.bias[0] = 1000.0  # saturates the softmax at class 0
    rng = np.random.default_rng(14)
    x = rng.normal(size=(6, 12))
    y = np.zeros(6, dtype=int)
    loss, grads, _ = loss_and_grads(model, x, y)
    assert loss == 0.0
    assert all(np.all(g == 0.0) for g in grads)


def test_backward_duplicate_batch_leaves_mean_gradient_unchanged():
    model = init_model(HP_SMALL, seed=15)
    rng = np.random.default_rng(16)
    x = rng.normal(size=(5, 12))
    y = rng.integers(0, 5, size=5)
    loss1, grads1, _ = loss_and_grads(model, x, y)
    loss2, grads2, _ = loss_and_grads(model, np.vstack([x, x]), np.concatenate([y, y]))
    assert loss2 == pytest.approx(loss1, rel=1e-12)
    for a, b in zip(grads1, grads2):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


def test_gradient_order_matches_parameters():
    model = init_model(HP_SMALL, seed=17)
    rng = np.random.default_rng(18)
    _, grads, _ = loss_and_grads(model, rng.normal(size=(4, 12)), rng.integers(0, 5, 4))
    assert [g.shape for g in grads] == [p.shape for p in parameters(model)]


# --------------------------------------------------------------------- adam


def test_adam_zero_gradient_is_a_no_op():
    params = [np.array([1.0, -2.0]), np.array([[3.0]])]
    state = AdamState.for_params(params)
    adam_step(params, [np.zeros(2), np.zeros((1, 1))], state, lr=0.01)
    assert np.array_equal(params[0], [1.0, -2.0])
    assert params[1][0, 0] == 3.0


def test_adam_first_step_size_is_lr():
    # bias correction makes m-hat = g and v-hat = g^2, so the first step
    # moves each coordinate by ~lr against the gradient sign
    params = [np.array([1.0, 1.0])]
    state = AdamState.for_params(params)
    adam_step(params, [np.array([3.0, -0.5])], state, lr=0.01)
    assert abs(params[0][0] - 0.99) < 1e-9
    assert abs(params[0][1] - 1.01) < 1e-9


def test_adam_updates_in_place():
    model = init_model(HP_SMALL, seed=19)
    params = parameters(model)
    before = model.conv_layers[0].weights.copy()
    state = AdamState.for_params(params)
    rng = np.random.default_rng(20)
    _, grads, _ = loss_and_grads(model, rng.normal(size=(4, 12)), rng.integers(0, 5, 4))
    adam_step(params, grads, state, lr=0.01)
    assert not np.array_equal(model.conv_layers[0].weights, before)
    assert state.t == 1


# ---------------------------------------------------------------- scheduler


def test_plateau_constant_signal_decays_on_schedule():
    assert (cnn.LR0, cnn.DECAY_FACTOR, cnn.PATIENCE) == (0.01, 0.8, 10)
    s = PlateauScheduler()
    lrs = []
    for _ in range(35):
        lrs.append(s.lr)
        s.update(0.5)
    # first update is an improvement over -inf; decays land at updates 11/21/31
    assert lrs[10] == 0.01 and lrs[11] == 0.01 * 0.8
    assert lrs[21] == 0.01 * 0.8**2
    assert lrs[31] == 0.01 * 0.8**3
    assert s.lr == 0.01 * 0.8**3  # bitwise, power form not repeated products


def test_plateau_improvement_resets_the_stall_counter():
    s = PlateauScheduler()
    for acc in (0.1, 0.2, 0.3, 0.4, 0.5):
        s.update(acc)
    assert s.lr == cnn.LR0
    for _ in range(cnn.PATIENCE - 1):
        s.update(0.5)  # ties are not improvements
    assert s.lr == cnn.LR0 and s.stall == cnn.PATIENCE - 1
    s.update(0.5)
    assert s.lr == cnn.LR0 * cnn.DECAY_FACTOR
    s.update(0.9)  # fresh best right after a decay
    assert s.stall == 0 and s.n_decays == 1


# -------------------------------------------------------------------- train


def test_train_learns_a_toy_problem():
    ds = _toy_dataset(n=20, seed=21)
    hp = CnnHyperparams(
        batch_size=50, kernel_length=3, base_filters=4, activation="elu", n_classes=2
    )
    model = train(ds, hp, seed=0, val=ds, epochs=200)
    assert model.history.train_acc[-1] == 1.0
    assert model.history.val_acc[-1] == 1.0
    assert model.history.train_loss[-1] < 0.1
    assert len(model.history.lr) == 200


def test_train_is_deterministic():
    ds = _toy_dataset(n=40, seed=22, n_classes=5)
    a = train(ds, HP_SMALL, seed=9, val=ds, epochs=5)
    b = train(ds, HP_SMALL, seed=9, val=ds, epochs=5)
    c = train(ds, HP_SMALL, seed=10, val=ds, epochs=5)
    assert np.array_equal(a.dense.weights, b.dense.weights)
    assert a.history.train_loss == b.history.train_loss
    assert not np.array_equal(a.dense.weights, c.dense.weights)


def test_train_history_lr_replays_the_scheduler():
    ds = _toy_dataset(n=30, seed=23, n_classes=3)
    hp = CnnHyperparams(batch_size=50, kernel_length=2, base_filters=4, n_classes=3)
    model = train(ds, hp, seed=1, val=ds, epochs=40)
    s = PlateauScheduler()
    for lr, val_acc in zip(model.history.lr, model.history.val_acc):
        assert lr == s.lr
        s.update(val_acc)
    assert min(model.history.lr) < cnn.LR0  # the replay covers a decay


def test_train_returns_the_first_best_validation_epoch():
    data = _toy_dataset(n=75, seed=40, n_classes=5)
    tr, va = data.subset(range(60)), data.subset(range(60, 75))
    model = train(tr, HP_SMALL, seed=9, val=va, epochs=15)
    val_acc = model.history.val_acc
    best_epoch = val_acc.index(max(val_acc))
    assert val_acc[-1] < val_acc[best_epoch]  # the last epoch is not the best one here
    assert len(val_acc) == 15
    x_val = (va.rows - model.input_mean) / model.input_std
    assert np.mean(forward(model, x_val).argmax(axis=1) == va.labels) == val_acc[best_epoch]
    # a run that stops at that epoch ends on the same weights
    stopped = train(tr, HP_SMALL, seed=9, val=va, epochs=best_epoch + 1)
    for got, want in zip(parameters(model), parameters(stopped)):
        assert np.array_equal(got, want)


def test_train_raises_on_divergence(monkeypatch):
    ds = _toy_dataset(n=20, seed=24)
    monkeypatch.setattr(cnn, "loss_and_grads", lambda *a, **k: (float("nan"), None, None))
    with pytest.raises(DivergenceError):
        train(ds, HP_SMALL, seed=0, val=ds, epochs=1)


@pytest.mark.parametrize("which", ["train", "val"])
def test_train_refuses_labels_past_n_classes(which):
    good, bad = _toy_dataset(n=20, seed=26, n_classes=2), _toy_dataset(n=20, seed=26, n_classes=5)
    hp = CnnHyperparams(**{**vars(HP_SMALL), "n_classes": 2})
    with pytest.raises(ValueError, match="n_classes"):
        train(bad if which == "train" else good, hp, seed=0, val=bad if which == "val" else good,
              epochs=1)


def test_train_standardizes_constant_columns_safely():
    ds = _toy_dataset(n=20, seed=25)
    ds.rows[:, 3] = 42.0
    model = train(ds, CnnHyperparams(**{**vars(HP_SMALL), "n_classes": 2}), seed=0, val=ds, epochs=2)
    assert model.input_std[3] == 1.0
    assert np.isfinite(model.history.train_loss[-1])


# -------------------------------------------------------------- grid search


def test_grid_combinations_full_cardinality_and_order():
    combos = grid_combinations()
    assert len(combos) == 256
    assert len(set(combos)) == 256
    assert combos[0] == CnnHyperparams(50, 1, 4, "relu")
    assert combos[-1] == CnnHyperparams(400, 4, 32, "sigmoid")
    # activation varies fastest, then base_filters, kernel_length, batch_size
    assert combos[1].activation == "elu"
    assert combos[4] == CnnHyperparams(50, 1, 8, "relu")
    assert combos[16] == CnnHyperparams(50, 2, 4, "relu")
    assert combos[64] == CnnHyperparams(100, 1, 4, "relu")


def test_grid_combinations_single_point():
    combos = grid_combinations(
        {"batch_size": [100], "kernel_length": [3], "base_filters": [8], "activation": ["elu"]}
    )
    assert combos == [CnnHyperparams(100, 3, 8, "elu")]


def test_grid_combinations_rejects_values_off_grid():
    with pytest.raises(ValueError):
        grid_combinations({"batch_size": [64]})
    with pytest.raises(ValueError):
        grid_combinations({"activation": ["gelu"]})


def _fake_train_scoring(score_fn):
    def fake(tr, hp, seed=0, val=None, epochs=None):
        return SimpleNamespace(history=SimpleNamespace(val_acc=[score_fn(hp)]))

    return fake


def test_grid_search_finds_a_planted_optimum(monkeypatch):
    ds = _toy_dataset(n=20, seed=26)
    monkeypatch.setattr(cnn, "train", _fake_train_scoring(lambda hp: hp.base_filters / 32.0))
    result = grid_search(
        ds,
        {"batch_size": [100], "kernel_length": [3], "base_filters": [4, 8, 16], "activation": ["elu"]},
        folds=2,
        seed=0,
    )
    assert result.winner.base_filters == 16
    assert [hp.base_filters for hp, _ in result.ranked] == [16, 8, 4]
    assert result.ranked[0][1] == pytest.approx(0.5)
    assert dict(result.marginals["base_filters"]) == {4: 0.125, 8: 0.25, 16: 0.5}


def test_grid_search_marginals_are_means_over_combos(monkeypatch):
    ds = _toy_dataset(n=20, seed=26)
    score = lambda hp: hp.base_filters / 32.0 + (0.25 if hp.activation == "elu" else 0.0)  # noqa: E731
    monkeypatch.setattr(cnn, "train", _fake_train_scoring(score))
    grids = {"batch_size": [50], "kernel_length": [3], "base_filters": [4, 8], "activation": ["relu", "elu"]}
    result = grid_search(ds, grids, folds=2, seed=0)
    # combo scores: (4, relu) 0.125, (4, elu) 0.375, (8, relu) 0.25, (8, elu) 0.5
    assert result.marginals == {
        "batch_size": [(50, 0.3125)],
        "kernel_length": [(3, 0.3125)],
        "base_filters": [(4, 0.25), (8, 0.375)],
        "activation": [("relu", 0.1875), ("elu", 0.4375)],
    }


def test_grid_search_tie_keeps_earliest_combo(monkeypatch):
    ds = _toy_dataset(n=20, seed=27)
    monkeypatch.setattr(cnn, "train", _fake_train_scoring(lambda hp: 0.7))
    grids = {"batch_size": [50, 100], "kernel_length": [1], "base_filters": [4], "activation": ["relu", "tanh"]}
    result = grid_search(ds, grids, folds=2, seed=0)
    assert result.winner == grid_combinations(grids)[0]


def test_grid_search_real_training_smoke():
    ds = _toy_dataset(n=40, seed=28, n_classes=5)
    result = grid_search(
        ds,
        {"batch_size": [50], "kernel_length": [2], "base_filters": [4], "activation": ["elu"]},
        folds=2,
        seed=0,
        epochs=3,
    )
    assert len(result.ranked) == 1
    assert 0.0 <= result.ranked[0][1] <= 1.0


# ------------------------------------------------------------------ predict


def test_predict_probabilities_are_a_distribution():
    model = init_model(HP_SMALL, seed=29)
    rows = np.random.default_rng(30).normal(size=(1000, 12))
    probs = forward(model, rows)
    assert np.all(probs >= 0) and np.all(probs <= 1)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    one = predict(model, rows[0])
    assert one.class_index == int(np.argmax(one.probabilities))
    assert one.class_name == model.class_names[one.class_index]


def test_predict_invariant_to_dense_bias_shift():
    model = init_model(HP_SMALL, seed=31)
    rows = np.random.default_rng(32).normal(size=(50, 12))
    before = forward(model, rows)
    model.dense.bias += 7.5
    after = forward(model, rows)
    assert np.allclose(before, after, atol=1e-12)
    assert np.array_equal(before.argmax(axis=1), after.argmax(axis=1))


# --------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    ds = _toy_dataset(n=20, seed=33)
    hp = CnnHyperparams(batch_size=50, kernel_length=3, base_filters=4, n_classes=2)
    model = train(ds, hp, seed=2, val=ds, epochs=3)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    rows = np.random.default_rng(34).normal(size=(16, 12))
    assert np.array_equal(forward(model, rows), forward(loaded, rows))
    assert loaded.hp == model.hp
    assert loaded.class_names == model.class_names
    assert loaded.history.val_acc == model.history.val_acc
    assert np.array_equal(loaded.input_mean, model.input_mean)


def test_checkpoint_with_an_off_grid_type_is_rejected(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(init_model(HP_SMALL, seed=35), path)
    payload = json.loads(path.read_text())
    payload["hyperparams"]["batch_size"] = 100.0
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="batch_size"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    model = init_model(HP_SMALL, seed=35)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _small_model():
    """A q=4 model with every checkpoint field set: weights, input scaling, two epochs."""
    model = init_model(HP_SMALL, seed=35, class_names=["a", "b", "c", "d", "e"])
    rng = np.random.default_rng(36)
    for p in parameters(model):
        p[...] = rng.normal(size=p.shape)
    model.input_mean, model.input_std = rng.normal(size=12), rng.uniform(0.5, 2.0, size=12)
    model.history = TrainingHistory([0.01, 0.01], [1.6, 1.2], [0.4, 0.6], [0.5, 0.75])
    return model


def _format_3(model) -> dict:
    """What the format-3 writer made of ``model``: each layer's shape, weights and activation."""
    return {
        "format_version": 3,
        "hyperparams": asdict(model.hp),
        "class_names": model.class_names,
        "input_mean": model.input_mean.tolist(),
        "input_std": model.input_std.tolist(),
        "conv_layers": [
            {"shape": list(layer.weights.shape), "weights": layer.weights.ravel().tolist(),
             "bias": layer.bias.tolist(), "activation": layer.activation}
            for layer in model.conv_layers
        ],
        "dense": {"shape": list(model.dense.weights.shape),
                  "weights": model.dense.weights.ravel().tolist(),
                  "bias": model.dense.bias.tolist()},
        "history": asdict(model.history),
    }


def test_checkpoint_holds_the_hyperparams_and_each_parameter_array_flat(tmp_path):
    model = _small_model()
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    assert list(payload) == ["format_version", "hyperparams", "class_names", "input_mean",
                             "input_std", "history", "parameters"]
    assert payload["format_version"] == 4
    assert payload["hyperparams"] == asdict(HP_SMALL)
    assert payload["parameters"] == [p.ravel().tolist() for p in parameters(model)]


def test_save_refuses_a_model_its_hyperparams_do_not_describe(tmp_path):
    path = tmp_path / "model.json"
    for change in (
        lambda m: setattr(m.conv_layers[2], "activation", "relu"),
        lambda m: m.conv_layers.pop(),
        lambda m: setattr(m.dense, "bias", np.zeros(4)),
        lambda m: setattr(m.conv_layers[0], "weights", m.conv_layers[0].weights.astype(np.float32)),
        lambda m: setattr(m, "input_std", np.ones(5)),
    ):
        model = _small_model()
        change(model)
        with pytest.raises(ValueError, match="describes"):
            save_checkpoint(model, path)
        assert not path.exists()


HOSTILE_CHECKPOINTS = {
    "empty list": lambda payload, model: "[]",
    "5000 open brackets": lambda payload, model: "[" * 5000,
    "no parameters": lambda payload, model: json.dumps(
        {k: v for k, v in payload.items() if k != "parameters"}),
    "format 3": lambda payload, model: json.dumps(_format_3(model)),
    "another base_filters": lambda payload, model: json.dumps(
        {**payload, "hyperparams": {**payload["hyperparams"], "base_filters": 8}}),
    "input_mean of 5": lambda payload, model: json.dumps(
        {**payload, "input_mean": payload["input_mean"][:5]}),
}


@pytest.mark.parametrize("damage", HOSTILE_CHECKPOINTS)
def test_checkpoint_loader_refuses_a_hostile_file_naming_its_path(tmp_path, damage):
    model = _small_model()
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    path.write_text(HOSTILE_CHECKPOINTS[damage](json.loads(path.read_text()), model))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_checkpoint_loader_checks_sizes_before_it_allocates(tmp_path):
    # a 399-byte file whose hyperparams imply a 102 MB dense layer, and which stores no array
    payload = {"format_version": 4, "hyperparams": {**asdict(CnnHyperparams(base_filters=4)),
                                                    "n_classes": 200_000},
               "class_names": [], "input_mean": [0.0] * 12, "input_std": [1.0] * 12,
               "history": {"lr": [], "train_loss": [], "train_acc": [], "val_acc": []},
               "parameters": []}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(f"{path}: parameters must be a list of 12")):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _json_paths(value, path=()):
    """Each place in a JSON value, visiting only the first and last item of a list."""
    yield path
    if isinstance(value, dict):
        keys = list(value)
    else:
        keys = sorted({0, len(value) - 1}) if isinstance(value, list) and value else []
    for key in keys:
        yield from _json_paths(value[key], (*path, key))


def _json_kind(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


@functools.cache
def _small_checkpoint_text() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(_small_model(), Path(tmp) / "model.json")
        return (Path(tmp) / "model.json").read_text()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _damaged(damage, where, amount, value) -> str:
    """The small checkpoint's text after one ``damage`` at the JSON path ``where``."""
    text = _small_checkpoint_text()
    if damage == "truncate":
        return text[: amount % len(text)]
    root = {"": json.loads(text)}  # a parent for the top level
    nodes = [root[""]]
    for key in where:
        nodes.append(nodes[-1][key])
    parent, key = (nodes[-2], where[-1]) if where else (root, "")
    target = nodes[-1]
    if damage == "drop" and where:
        del parent[key]
    elif damage == "swap":  # a value of another JSON type: ``value``, or else null or 0
        parent[key] = next(v for v in (value, None, 0) if _json_kind(v) != _json_kind(target))
    elif damage == "resize":  # the innermost list on the path gets ``amount`` % (2n + 3) items
        items = next((node for node in reversed(nodes) if isinstance(node, list)), None)
        if items is not None:
            size = amount % (2 * len(items) + 3)
            size += size == len(items)
            items[size:] = []
            items += [items[-1] if items else value] * (size - len(items))
    elif damage == "wrap":  # in 1 + ``amount`` lists, written out by hand past json's depth limit
        parent[key] = marker = "\x00wrapped\x00"
        nested = "[" * (1 + amount) + json.dumps(target) + "]" * (1 + amount)
        return json.dumps(root[""]).replace(json.dumps(marker), nested)
    return json.dumps(root[""])


@settings(max_examples=100, deadline=None)
@given(
    damage=st.sampled_from(["drop", "swap", "resize", "wrap", "truncate"]),
    # every place in the small checkpoint, found when the first example is drawn
    where=st.deferred(lambda: st.sampled_from(list(_json_paths(json.loads(
        _small_checkpoint_text()))))),
    amount=st.integers(0, 5000),
    value=JSON_VALUES,
)
# files the format-3 loader failed on: a KeyError, an AttributeError, a scalar bias broadcast
# over its layer, a RecursionError, an input_mean of 5 loaded without a word
@example(damage="drop", where=("parameters",), amount=0, value=None)
@example(damage="swap", where=(), amount=0, value=[])
@example(damage="swap", where=("parameters", 11), amount=0, value=7)
@example(damage="wrap", where=("history",), amount=4999, value=None)
@example(damage="resize", where=("input_mean",), amount=5, value=None)
# files that pass size checks alone: numpy reads true as 1.0, null as NaN and "1.5" as 1.5,
# and init_model raises a TypeError for a string n_classes
@example(damage="swap", where=("parameters", 0, 0), amount=0, value=True)
@example(damage="swap", where=("input_std", 0), amount=0, value=None)
@example(damage="swap", where=("parameters", 1, 0), amount=0, value="1.5")
@example(damage="swap", where=("hyperparams", "n_classes"), amount=0, value="x")
@example(damage="truncate", where=(), amount=100, value=None)
def test_damaged_checkpoint_loads_as_the_same_model_or_raises_value_error(
    damage, where, amount, value
):
    model = _small_model()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(_damaged(damage, where, amount, value))
        try:
            loaded = load_checkpoint(path)
        except ValueError as exc:
            assert str(path) in str(exc)
            return
    rows = np.random.default_rng(37).normal(size=(8, 12))
    assert np.array_equal(forward(loaded, rows), forward(model, rows))
    assert np.array_equal(loaded.input_mean, model.input_mean)
    assert np.array_equal(loaded.input_std, model.input_std)
