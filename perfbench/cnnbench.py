"""cnn-paper and cnn-grid: the from-scratch CNN, timed from outside.

cnn-paper trains the paper's configuration (batch 100, K=3, q=32, ELU,
525,893 parameters), whose time goes to the conv4/conv5 matmuls. cnn-grid
runs ``grid_search`` over small-q combos, whose time goes to elementwise
activations, Adam's per-array loop and per-step Python overhead.

Epoch and step times come from timestamps taken at the epoch's scheduler
update and around each ``loss_and_grads`` + ``adam_step`` pair, by patching
those module attributes for the duration of the run.
"""

from __future__ import annotations

import copy
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

import numpy as np

import checks
from harness import geomean, median

COUNT = 1159
SETUP_REPEATS = 3

PAPER_HP = dict(batch_size=100, kernel_length=3, base_filters=32, activation="elu")
PAPER_PARAMS = 525_893
PAPER_EPOCHS = 20
SMOKE_PAPER_EPOCHS = 10
PAPER_FLOOR = 0.90

GRID = {"batch_size": [100], "kernel_length": [3], "base_filters": [4, 8], "activation": ["relu", "elu"]}
GRID_FOLDS = 3
GRID_EPOCHS = 2
SMOKE_GRID_FOLDS = 2
SMOKE_GRID_EPOCHS = 2
PROBE_GRID_FOLDS = 2
PROBE_GRID_EPOCHS = 2
GRID_FLOOR = 0.5  # chance is 0.2 on five balanced classes


def build_dataset(seed: int, count: int):
    from vibsense import LabeledDataset, extract_features, simulate_corpus

    windows = simulate_corpus(count, seed=seed)
    return LabeledDataset.from_vectors([extract_features(w) for w in windows],
                                       [w.source for w in windows])


def _setup(run):
    """Build the feature dataset several times; setup_s is the median."""
    times = []
    for _ in range(1 if run.smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        ds = build_dataset(run.seed, COUNT)
        times.append(time.perf_counter() - t0)
    run.metrics["setup_s"] = median(times)
    run.notes["setup_s"] = times
    run.dataset = ds
    return ds


def _dataset(run):
    ds = getattr(run, "dataset", None)
    if ds is None:
        ds = run.dataset = build_dataset(run.seed, COUNT)
    return ds


class Clock:
    """Epoch-end and step timestamps of every ``cnn.train`` call in a block.

    With ``keep_best`` it also copies the parameters at each epoch that
    improves the validation accuracy of the current ``train`` call, so the
    model that validation would select can be tested afterwards.
    """

    def __init__(self, keep_best: bool = False):
        self.keep_best = keep_best
        self.epoch_ends: list[float] = []
        self.steps: dict[tuple, list[float]] = defaultdict(list)  # (q, activation) -> seconds
        self.best: tuple[float, list | None] = (-1.0, None)
        self._model = None
        self._step = (None, 0.0)

    @contextmanager
    def attached(self, cnn):
        saved = cnn.loss_and_grads, cnn.adam_step, cnn.PlateauScheduler, cnn.init_model
        loss_and_grads, adam_step, scheduler, init_model = saved
        clock = self

        def timed_loss_and_grads(model, *args, **kwargs):
            clock._step = ((model.hp.base_filters, model.hp.activation), time.perf_counter())
            return loss_and_grads(model, *args, **kwargs)

        def timed_adam_step(*args, **kwargs):
            adam_step(*args, **kwargs)
            key, start = clock._step
            clock.steps[key].append(time.perf_counter() - start)

        def tracked_init_model(*args, **kwargs):
            clock._model = init_model(*args, **kwargs)
            clock.best = (-1.0, None)
            return clock._model

        class TimedScheduler(scheduler):
            def update(self, val_acc):
                clock.epoch_ends.append(time.perf_counter())
                if clock.keep_best and val_acc > clock.best[0]:
                    clock.best = (val_acc, [p.copy() for p in cnn.parameters(clock._model)])
                return super().update(val_acc)

        cnn.loss_and_grads, cnn.adam_step, cnn.PlateauScheduler, cnn.init_model = (
            timed_loss_and_grads, timed_adam_step, TimedScheduler, tracked_init_model)
        try:
            yield self
        finally:
            cnn.loss_and_grads, cnn.adam_step, cnn.PlateauScheduler, cnn.init_model = saved

    def step_count(self) -> int:
        return sum(len(v) for v in self.steps.values())

    def step_ms(self) -> float:
        """Median step of each model configuration, then their geometric mean.

        Configurations differ in step cost, so a median over all steps of a
        grid would sit on the gap between two of them; the geometric mean
        moves with a change to any one configuration.
        """
        return 1e3 * geomean([median(v) for v in self.steps.values()])


def _full_batch(name):
    """Span namer for cnn.forward / loss_and_grads: full batches only, keyed by q."""
    def name_of(model, batch, *args, **kwargs):
        if len(batch) != model.hp.batch_size:
            return None
        return f"cnn.q{model.hp.base_filters}.{name}"
    return name_of


def _adam_name(params, *args, **kwargs):
    return f"cnn.q{params[0].shape[0]}.adam_step"


def _traced_cnn(run, cnn, stack: ExitStack) -> None:
    t = run.tracer
    stack.enter_context(t.patch(cnn, "forward", _full_batch("forward")))
    stack.enter_context(t.patch(cnn, "loss_and_grads", _full_batch("loss_and_grads")))
    stack.enter_context(t.patch(cnn, "adam_step", _adam_name))


def step_flop(hp, input_len: int = 12) -> float:
    """Matmul FLOPs of one training step: conv forward, dW and dX, plus the dense layer."""
    n, k = hp.batch_size, hp.kernel_length
    channels = [1] + hp.channel_counts()
    conv = sum(2 * n * input_len * k * c_in * c_out for c_in, c_out in zip(channels, channels[1:]))
    dense = 2 * n * channels[-1] * hp.n_classes
    return float(3 * (conv + dense))


# ---------------------------------------------------------------- cnn-paper


def _train_paper(run, ds, epochs: int, clock: Clock | None = None):
    from vibsense import baselines, cnn

    train_ds, val_ds, test_ds = baselines.split(ds, (0.7, 0.1, 0.2), seed=run.seed, stratified=True)
    hp = cnn.CnnHyperparams(**PAPER_HP)
    models, epoch_walls = [], []
    with ExitStack() as stack:
        if clock is not None:
            stack.enter_context(clock.attached(cnn))
        _traced_cnn(run, cnn, stack)
        # A clock means a timed workload run; without one (a probe) train once.
        rounds = run.until_deadline() if clock is not None else range(1)
        for _ in rounds:
            start = time.perf_counter()
            first = len(clock.epoch_ends) if clock is not None else 0
            model = cnn.train(train_ds, hp, seed=run.seed, val=val_ds, epochs=epochs)
            if clock is not None:
                ends = [start] + clock.epoch_ends[first:]
                epoch_walls += [b - a for a, b in zip(ends, ends[1:])]
            models.append(model)
    return models, epoch_walls, test_ds


def _checkpoint_roundtrip(run, model, x_test) -> list[str]:
    from vibsense import cnn

    path = run.work / "cnn_checkpoint.json"
    probs = cnn.forward(model, x_test)
    for _ in range(3 if run.traced else 1):
        with run.tracer.span("cnn.save_checkpoint"):
            cnn.save_checkpoint(model, path)
        with run.tracer.span("cnn.load_checkpoint"):
            loaded = cnn.load_checkpoint(path)
    if not np.array_equal(cnn.forward(loaded, x_test), probs):
        return ["reloaded checkpoint does not reproduce the probabilities bit for bit"]
    return []


def _gradient_problems(run, ds) -> list[str]:
    """Finite differences on a small q=4 model against ``loss_and_grads``."""
    from vibsense import cnn

    hp = cnn.CnnHyperparams(base_filters=4, kernel_length=3, activation="elu")
    model = cnn.init_model(hp, seed=run.seed)
    rng = np.random.default_rng(run.seed)
    rows = ds.rows[rng.choice(len(ds), 6, replace=False)]
    x = (rows - ds.rows.mean(axis=0)) / ds.rows.std(axis=0)
    y = ds.labels[rng.choice(len(ds), 6, replace=False)]

    def loss():
        probs = cnn.forward(model, x)
        return float(-np.mean(np.log(probs[np.arange(len(y)), y])))

    _, grads, _ = cnn.loss_and_grads(model, x, y)
    return checks.check_gradients(loss, grads, cnn.parameters(model), rng)


def _paper_layer_metrics(run, model) -> None:
    t, m = run.tracer, run.metrics
    for name in ("forward", "loss_and_grads", "adam_step"):
        m[f"cnn.q32.{name}_ms"] = t.median(f"cnn.q32.{name}", 1e3)
    m["cnn.q32.step_flop"] = step_flop(model.hp)
    m["cnn.q32.gflops"] = m["cnn.q32.step_flop"] / (m["cnn.q32.loss_and_grads_ms"] * 1e-3) / 1e9
    m["cnn.save_checkpoint_ms"] = t.median("cnn.save_checkpoint", 1e3)
    m["cnn.load_checkpoint_ms"] = t.median("cnn.load_checkpoint", 1e3)


def workload_paper(run) -> None:
    from vibsense import cnn

    ds = _setup(run)
    clock = Clock(keep_best=True)
    epochs = SMOKE_PAPER_EPOCHS if run.smoke else PAPER_EPOCHS
    models, epoch_walls, test_ds = _train_paper(run, ds, epochs, clock)
    run.attempted += clock.step_count()

    model = models[-1]
    if any(mm.history.train_loss != model.history.train_loss for mm in models):
        run.problems.append("training runs with one seed gave different loss histories")
    n_params = sum(p.size for p in cnn.parameters(model))
    if n_params != PAPER_PARAMS:
        run.problems.append(f"paper model has {n_params} parameters, expected {PAPER_PARAMS}")
    x_test = (test_ds.rows - model.input_mean) / model.input_std
    selected = copy.deepcopy(model)
    for param, value in zip(cnn.parameters(selected), clock.best[1]):
        param[...] = value
    run.expect(checks.check_accuracy(cnn.forward(selected, x_test), test_ds.labels, PAPER_FLOOR),
               "cnn test at the best-validation epoch")
    run.expect(_checkpoint_roundtrip(run, model, x_test), "checkpoint")
    run.expect(_gradient_problems(run, ds), "gradients")

    run.notes.update(rounds=len(models), epoch_s=epoch_walls)
    run.metrics.update(unit_s=median(epoch_walls), op_ms=clock.step_ms())
    if run.traced:
        run.metrics["bench.traced_unit_s"] = median(epoch_walls)
        _paper_layer_metrics(run, model)


def probe_paper(run) -> None:
    """The q=32 layers for a traced run of another workload: one epoch."""
    models, _, test_ds = _train_paper(run, _dataset(run), epochs=1)
    model = models[-1]
    run.expect(_checkpoint_roundtrip(run, model, (test_ds.rows - model.input_mean) / model.input_std),
               "checkpoint")
    _paper_layer_metrics(run, model)


# ---------------------------------------------------------------- cnn-grid


def _grid(run, ds, folds: int, epochs: int, clock: Clock | None = None):
    from vibsense import cnn

    results, walls = [], []
    with ExitStack() as stack:
        if clock is not None:
            stack.enter_context(clock.attached(cnn))
        _traced_cnn(run, cnn, stack)
        stack.enter_context(run.tracer.patch(cnn, "train", lambda *a, **k: "cnn.grid_search.fold_fit"))
        for _ in run.until_deadline() if clock is not None else range(1):
            t0 = time.perf_counter()
            results.append(cnn.grid_search(ds, grids=GRID, folds=folds, seed=run.seed, epochs=epochs))
            walls.append(time.perf_counter() - t0)
    return results, walls


def _grid_layer_metrics(run) -> None:
    t, m = run.tracer, run.metrics
    for name in ("forward", "loss_and_grads", "adam_step"):
        m[f"cnn.q4.{name}_ms"] = t.median(f"cnn.q4.{name}", 1e3)
    m["cnn.grid_search.fold_fit_s"] = t.median("cnn.grid_search.fold_fit")


def workload_grid(run) -> None:
    from vibsense import cnn

    ds = _setup(run)
    clock = Clock()
    folds, epochs = (SMOKE_GRID_FOLDS, SMOKE_GRID_EPOCHS) if run.smoke else (GRID_FOLDS, GRID_EPOCHS)
    results, walls = _grid(run, ds, folds, epochs, clock)
    run.attempted += clock.step_count()

    result = results[-1]
    if any(r.ranked != result.ranked for r in results):
        run.problems.append("grid searches with one seed ranked differently")
    run.expect(checks.check_ranking(result.ranked, result.winner, cnn.grid_combinations(GRID),
                                    GRID_FLOOR), "grid ranking")

    run.notes.update(rounds=len(results), grid_s=walls,
                     ranking=[(repr(hp), score) for hp, score in result.ranked])
    run.metrics.update(unit_s=median(walls), op_ms=clock.step_ms())
    if run.traced:
        run.metrics["bench.traced_unit_s"] = median(walls)
        _grid_layer_metrics(run)


def probe_grid(run) -> None:
    """The small-q layers for a traced run of another workload: a short grid."""
    _grid(run, _dataset(run), PROBE_GRID_FOLDS, PROBE_GRID_EPOCHS)
    _grid_layer_metrics(run)
