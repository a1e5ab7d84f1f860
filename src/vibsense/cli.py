"""Command-line front end: one subcommand per pipeline stage.

Every subcommand writes byte-identical artifacts for identical inputs and
seed; failures exit nonzero with a message naming the stage. Each imports
the modules it runs when it runs, so `serve` and `report` start without numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

from .errors import VibsenseError
from .schema import DEFAULT_GRIDS, EPOCHS, FEATURE_COLUMNS, CnnHyperparams, StructureClass

_SPLIT = (0.7, 0.1, 0.2)  # the paper's train, validation and test shares


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _in_path(args, name, relative) -> Path:
    """Input path: explicit flag first, else <out>/<relative>."""
    value = getattr(args, name)
    return Path(value) if value is not None else Path(args.out) / relative


def _load_dataset(args):
    from . import baselines
    from .features import read_feature_csv

    path = _in_path(args, "features", "features.csv")
    vectors, labels = read_feature_csv(path)
    if any(lbl is None for lbl in labels):
        raise ValueError(f"{path}: every row needs a class label")
    return baselines.LabeledDataset.from_vectors(
        vectors, [StructureClass.from_name(lbl) for lbl in labels]
    )


def cmd_simulate(args) -> int:
    from .signalsim import DEFAULT_PROFILES, simulate_corpus, write_window_csv

    out = _out_dir(args)
    wanted = map(StructureClass.from_name, args.classes or [])  # none: all five classes
    windows = simulate_corpus(args.count, {c: DEFAULT_PROFILES[c] for c in wanted}, seed=args.seed)
    win_dir = out / "windows"
    win_dir.mkdir(exist_ok=True)
    for i, window in enumerate(windows):
        write_window_csv(window, win_dir / f"win_{i:05d}_{window.source.value}.csv")
    print(f"simulate: wrote {len(windows)} windows to {win_dir}")
    return 0


def _window_files(args):
    win_dir = _in_path(args, "windows", "windows")
    files = sorted(win_dir.glob("win_*.csv"), key=lambda p: p.name)  # = path order, cheaper
    if not files:
        raise FileNotFoundError(f"no window CSVs under {win_dir}")
    return files


# Windows per kernel call: bounds the memory of a large corpus.
_EXTRACT_BATCH = 4096


def _per_window(kernel, windows) -> list:
    """``kernel``'s row for each window, one call per batch of equal-length windows."""
    import numpy as np

    batches = {}  # windows of one length stack into one call; a corpus has one length
    for i, window in enumerate(windows):
        batches.setdefault((len(window), i // _EXTRACT_BATCH), []).append(i)
    results = {}
    for idx in batches.values():
        results.update(zip(idx, kernel(np.stack([windows[i].samples for i in idx]))))
    return [results[i] for i in range(len(windows))]


def cmd_extract(args) -> int:
    from .features import FeatureVector, extract_feature_matrix, write_feature_csv
    from .signalsim import read_window_csv

    out = _out_dir(args)
    windows = [read_window_csv(path) for path in _window_files(args)]
    vectors = [FeatureVector.from_array(row) for row in _per_window(extract_feature_matrix, windows)]
    labels = [window.source.value if window.source else None for window in windows]
    target = out / "features.csv"
    write_feature_csv(target, vectors, labels)
    print(f"extract: wrote {len(vectors)} rows to {target}")
    return 0


def cmd_spectral_check(args) -> int:
    from .features import FLATNESS_THRESHOLD, spectral_profiles, table_text
    from .signalsim import read_window_csv

    out = _out_dir(args)
    files = _window_files(args)
    reports = _per_window(spectral_profiles, [read_window_csv(path) for path in files])
    rows = [[path.name, r.dominant_bin, r.dominance_ratio, int(r.dominance_ratio < FLATNESS_THRESHOLD)]
            for path, r in zip(files, reports)]
    target = out / "spectral_report.csv"
    target.write_text(table_text(["file", "dominant_bin", "dominance_ratio", "flat"], rows))
    print(
        f"spectral-check: {sum(row[-1] for row in rows)}/{len(rows)} windows below dominance ratio "
        f"{FLATNESS_THRESHOLD:g}; report at {target}"
    )
    return 0


def cmd_select(args) -> int:
    from . import selection

    out = _out_dir(args)
    if args.correlations:
        report = selection.read_correlation_csv(Path(args.correlations).read_text())
    else:
        report = selection.correlation_table(_load_dataset(args))
    mask = selection.select_features(report)
    (out / "correlation.csv").write_text(selection.correlation_csv(report))
    chosen = [name for name, keep in zip(report.features, mask) if keep]
    (out / "selected_features.json").write_text(json.dumps(chosen, indent=2) + "\n")
    print(f"select: kept {chosen}")
    return 0


def _selected_columns(out: Path):
    """Column mask and names from a previous `select` run; all columns without one or for []."""
    import numpy as np

    chosen_path = out / "selected_features.json"
    try:
        names = json.loads(chosen_path.read_text()) if chosen_path.exists() else []
    except (json.JSONDecodeError, RecursionError):
        names = None  # rejected below, like any content that is not a list of names
    if not isinstance(names, list) or any(name not in FEATURE_COLUMNS for name in names):
        raise ValueError(f"{chosen_path}: want a JSON list of names from {list(FEATURE_COLUMNS)}")
    mask = np.array([not names or name in names for name in FEATURE_COLUMNS])
    return mask, [name for name, keep in zip(FEATURE_COLUMNS, mask) if keep]


def cmd_train_knn(args) -> int:
    from . import baselines, svgplots

    out = _out_dir(args)
    ds = _load_dataset(args)
    mask, names = _selected_columns(out)
    ds_sel = ds.select_columns(mask)
    train_ds, _, test_ds = baselines.split(ds_sel, _SPLIT, seed=args.seed, stratified=True)

    best_k, curve = baselines.sweep_k(train_ds, seed=args.seed)
    model = baselines.knn_fit(train_ds)
    preds = baselines.knn_predict_batch(model, test_ds.rows, best_k)
    metrics = baselines.evaluate(preds, test_ds.labels, len(ds.classes))

    _write_metrics(out / "knn_metrics.csv", metrics, ds.classes)
    class_names = [c.value for c in ds.classes]
    svgplots.save_svg(
        svgplots.heatmap(
            metrics.confusion, class_names, class_names, title=f"k-NN confusion (k={best_k})"
        ),
        out / "knn_confusion.svg",
    )
    _save_k_curve(curve, out / "knn_k_curve.svg")
    print(
        f"train-knn: features={names} k={best_k} "
        f"test_accuracy={metrics.accuracy:.4f}"
    )
    return 0


def cmd_sweep_k(args) -> int:
    from . import baselines
    from .features import table_text

    out = _out_dir(args)
    ds = _load_dataset(args)
    mask, _ = _selected_columns(out)
    best_k, curve = baselines.sweep_k(ds.select_columns(mask), seed=args.seed)
    (out / "k_curve.csv").write_text(table_text(["k", "cv_accuracy"], sorted(curve.items())))
    _save_k_curve(curve, out / "k_curve.svg")
    print(f"sweep-k: best_k={best_k}")
    return 0


def _save_k_curve(curve: dict[int, float], path) -> None:
    from . import svgplots

    ks = sorted(curve)
    svgplots.save_svg(
        svgplots.line_chart(
            [("CV accuracy", ks, [curve[k] for k in ks])],
            title="k sweep",
            x_label="k",
            y_label="accuracy",
        ),
        path,
    )


def _write_metrics(path, metrics, classes) -> None:
    from .features import table_text

    rows = [
        *zip([c.value for c in classes], metrics.precision, metrics.recall, metrics.f1),
        ["macro", metrics.macro_precision, metrics.macro_recall, metrics.macro_f1],
        ["accuracy", metrics.accuracy, "", ""],
    ]
    Path(path).write_text(table_text(["class", "precision", "recall", "f1"], rows))


def _write_history_csv(path, history) -> None:
    from .features import table_text

    columns = dataclasses.asdict(history)
    rows = [(epoch, *row) for epoch, row in enumerate(zip(*columns.values()), start=1)]
    Path(path).write_text(table_text(["epoch", *columns], rows))


# `grid-search --reduced-grid`: the paper's grid cut to 4 combos at batch 100, K=3.
_REDUCED_GRID = {"batch_size": [100], "kernel_length": [3], "base_filters": [4, 8],
                 "activation": ["relu", "elu"]}


def cmd_train_cnn(args) -> int:
    from . import baselines, cnn

    out = _out_dir(args)
    ds = _load_dataset(args)
    hp = CnnHyperparams(**{axis: getattr(args, axis) for axis in DEFAULT_GRIDS})
    train_ds, val_ds, test_ds = baselines.split(ds, _SPLIT, seed=args.seed, stratified=True)
    model = cnn.train(train_ds, hp, seed=args.seed, val=val_ds, epochs=args.epochs)
    cnn.save_checkpoint(model, out / "cnn_checkpoint.json")
    _write_history_csv(out / "cnn_history.csv", model.history)

    preds = cnn.predict(model, test_ds.rows).argmax(axis=1)
    metrics = baselines.evaluate(preds, test_ds.labels, len(ds.classes))
    _write_metrics(out / "cnn_metrics.csv", metrics, ds.classes)
    print(f"train-cnn: {_hp_str(hp)} test_accuracy={metrics.accuracy:.4f}")
    return 0


def _hp_str(hp: CnnHyperparams) -> str:
    return (
        f"batch={hp.batch_size} K={hp.kernel_length} q={hp.base_filters} "
        f"act={hp.activation}"
    )


def cmd_grid_search(args) -> int:
    from . import cnn
    from .features import table_text

    out = _out_dir(args)
    result = cnn.grid_search(
        _load_dataset(args), grids=_REDUCED_GRID if args.reduced_grid else None,
        folds=args.folds, seed=args.seed, epochs=args.epochs,
    )
    rows = [
        (rank, *(getattr(hp, key) for key in DEFAULT_GRIDS), score)
        for rank, (hp, score) in enumerate(result.ranked, start=1)
    ]
    (out / "grid_ranking.csv").write_text(
        table_text(["rank", *DEFAULT_GRIDS, "mean_cv_accuracy"], rows)
    )
    for key, pairs in result.marginals.items():
        (out / f"grid_marginal_{key}.csv").write_text(table_text([key, "mean_cv_accuracy"], pairs))
    (out / "grid_winner.json").write_text(
        json.dumps(dataclasses.asdict(result.winner), indent=2) + "\n"
    )
    print(f"grid-search: winner {_hp_str(result.winner)}")
    return 0


def cmd_fit_height(args) -> int:
    from . import heightfit, svgplots
    from .signalsim import REFERENCE_LAWS, building_series

    out = _out_dir(args)
    lines = []
    for idx, (name, law) in enumerate(sorted(REFERENCE_LAWS.items())):
        windows = [
            building_series(law, floor, noise_sd=2.0, seed=args.seed * 7919 + idx * 101 + floor)
            for floor in range(1, args.floors + 1)
        ]
        observations = heightfit.floor_profile(windows, law.orientation)
        analysis = heightfit.height_analysis(observations)
        lines.append(f"{name}: {analysis.fit.equation()}  verdict={analysis.verdict}")
        svgplots.save_svg(
            svgplots.scatter_chart(
                [o.floor_index for o in observations],
                [o.mean_amplitude for o in observations],
                line=(analysis.fit.slope, analysis.fit.intercept),
                title=f"{name} ({law.orientation})",
                x_label="floor",
                y_label="mean amplitude (ADC)",
            ),
            out / f"height_{name}.svg",
        )
    (out / "height_fits.txt").write_text("\n".join(lines) + "\n")
    print("fit-height: " + "; ".join(lines))
    return 0


def cmd_serve(args) -> int:
    if not 0 <= args.port <= 65535:  # bind() raises OverflowError
        raise ValueError(f"--port must be between 0 and 65535, got {args.port}")
    from . import telemetry

    store = _in_path(args, "store", "telemetry.jsonl")
    Path(store).parent.mkdir(parents=True, exist_ok=True)
    server = telemetry.TelemetryServer(store, host=args.host, port=args.port)
    print(f"serve: listening on {server.url} store={store}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_emulate_node(args) -> int:
    from . import telemetry
    from .signalsim import DEFAULT_PROFILES

    endpoint = args.endpoint if args.endpoint is not None else args.store
    if endpoint is None:
        raise ValueError("emulate-node needs --endpoint (URL) or --store (dry-run file)")
    profile = DEFAULT_PROFILES[StructureClass.from_name(args.structure)]
    time_fn = None
    if args.base_time_ms is not None:
        ticks = iter(range(10**9))
        time_fn = lambda: args.base_time_ms + next(ticks) * max(int(args.interval * 1000), 1)
    sent = telemetry.node_emulator(
        profile,
        endpoint,
        interval_s=args.interval,
        count=args.count,
        seed=args.seed,
        node_id=args.node_id,
        site=args.site,
        start_seq=args.start_seq,
        time_fn=time_fn,
    )
    print(f"emulate-node: delivered {len(sent)} records to {endpoint}")
    return 0


def cmd_report(args) -> int:
    from . import telemetry

    store = _in_path(args, "store", "telemetry.jsonl")
    records = telemetry.scan_store(store)
    index = telemetry.StoreIndex(map(telemetry.record_key, records))
    per_label = Counter(r.label.value if r.label else "-" for r in records)
    print(f"report: {len(records)} records, {len(index.by_node)} nodes")
    for status in index.node_statuses():
        print(
            f"  node {status.node_id}: count={status.record_count} "
            f"last_seen_ms={status.last_seen_ms}"
        )
    for label in sorted(per_label):
        print(f"  label {label}: count={per_label[label]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vibsense",
        description="Vibration-sensing pipeline: simulate, featurize, select, "
        "classify, fit, and ship telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, *, seed=True, out=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", default="out")
        return p

    p = command("simulate", cmd_simulate, "generate a labeled window corpus")
    p.add_argument("--count", type=int, default=1159)
    p.add_argument("--classes", nargs="+", default=None)

    p = command("extract", cmd_extract, "window CSVs -> feature table", seed=False)
    p.add_argument("--windows", default=None)

    p = command("spectral-check", cmd_spectral_check, "dominant-bin flatness report", seed=False)
    p.add_argument("--windows", default=None)

    p = command("select", cmd_select, "correlation table + feature mask", seed=False)
    p.add_argument("--features", default=None)
    p.add_argument("--correlations", default=None,
                   help="apply the rule to an existing correlation CSV instead")

    p = command("train-knn", cmd_train_knn, "sweep k, fit, evaluate on held-out split")
    p.add_argument("--features", default=None)

    p = command("sweep-k", cmd_sweep_k, "cross-validated accuracy per k")
    p.add_argument("--features", default=None)

    p = command("train-cnn", cmd_train_cnn, "train the 1D CNN")
    p.add_argument("--features", default=None)
    p.add_argument("--epochs", type=int, default=EPOCHS)
    paper = CnnHyperparams()
    for axis in DEFAULT_GRIDS:
        default = getattr(paper, axis)
        p.add_argument("--" + axis.replace("_", "-"), type=type(default), default=default)

    p = command("grid-search", cmd_grid_search, "hyperparameter grid with CV")
    p.add_argument("--features", default=None)
    p.add_argument("--epochs", type=int, default=EPOCHS)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--reduced-grid", action="store_true")

    p = command("fit-height", cmd_fit_height, "mean amplitude vs floor fits")
    p.add_argument("--floors", type=int, default=6)

    p = command("serve", cmd_serve, "run the telemetry ingestion service", seed=False)
    p.add_argument("--store", default=None)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)

    p = command("emulate-node", cmd_emulate_node, "post synthetic records to a service", out=False)
    p.add_argument("--structure", default="building")
    p.add_argument("--endpoint", default=None)
    p.add_argument("--store", default=None, help="dry-run sink when no endpoint")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--interval", type=float, default=0.0)
    p.add_argument("--node-id", default=None)
    p.add_argument("--site", default=None)
    p.add_argument("--start-seq", type=int, default=0)
    p.add_argument("--base-time-ms", type=int, default=None)

    p = command("report", cmd_report, "summarize a telemetry store", seed=False)
    p.add_argument("--store", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (VibsenseError, OSError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
