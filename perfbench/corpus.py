"""corpus-cli: the paper's classical path as a user runs it.

Seven CLI stages, each a fresh ``python -m vibsense`` process, over a seeded
1159-window corpus (the paper's size). Time goes to per-window Python in
signalsim and features, to CSV I/O, to sweep_k and to package import.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

import checks
from harness import fresh_import_s, geomean, median, run_cli

COUNT = 1159
SMOKE_COUNT = 150
FLOORS = 10
IMPORT_REPEATS = 5
SPECTRAL_SAMPLE = 16  # windows whose spectrum is recomputed by a direct DFT
LAYER_SAMPLE = 200  # windows written and read back per-call in the layer probe

STAGES = ("simulate", "extract", "spectral-check", "select", "sweep-k", "train-knn", "fit-height")


def _stage_args(stage: str, out: str, seed: int, count: int) -> list[str]:
    args = [stage, "--out", out]
    if stage == "simulate":
        args += ["--count", str(count)]
    if stage in ("simulate", "sweep-k", "train-knn", "fit-height"):
        args += ["--seed", str(seed)]
    if stage == "fit-height":
        args += ["--floors", str(FLOORS)]
    return args


def run_chain(run, out, count: int, count_ops: bool = True) -> tuple[float, dict]:
    """One pass of the seven stages; returns (wall seconds, stage -> (wall, stdout))."""
    results = {}
    t0 = time.perf_counter()
    for stage in STAGES:
        with run.tracer.span(f"cli.{stage}"):
            wall, proc = run_cli(_stage_args(stage, str(out), run.seed, count))
        results[stage] = (wall, proc.stdout)
        if count_ops:
            run.attempted += 1
        if proc.returncode != 0:
            run.failed += int(count_ops)
            run.problems.append(f"{stage} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return time.perf_counter() - t0, results


def _digest(out) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_outputs(run, out, count: int, train_knn_stdout: str) -> None:
    files = sorted((out / "windows").glob("win_*.csv"))
    per_class = [sum(1 for f in files if f.stem.endswith(c)) for c in checks.CLASSES]
    expected_split = checks._apportion(count, [0.2] * 5)
    if per_class != expected_split:
        run.problems.append(f"simulate: class split {per_class}, expected {expected_split}")
    run.expect(checks.check_features(files, out / "features.csv"), "extract")
    sample = sorted(np.random.default_rng(run.seed).choice(len(files), SPECTRAL_SAMPLE, replace=False))
    run.expect(checks.check_spectral(files, out / "spectral_report.csv", sample), "spectral-check")
    run.expect(checks.check_selection(out / "features.csv", out / "correlation.csv",
                                      out / "selected_features.json"), "select")
    run.expect(checks.check_knn(out, run.seed, train_knn_stdout), "sweep-k/train-knn")
    run.expect(checks.check_height((out / "height_fits.txt").read_text()), "fit-height")


def workload(run) -> None:
    count = SMOKE_COUNT if run.smoke else COUNT
    imports = [fresh_import_s() for _ in range(2 if run.smoke else IMPORT_REPEATS)]
    out = run.work / "chain"
    chains, digests = [], []
    stage_walls = {stage: [] for stage in STAGES}
    for _ in run.until_deadline():
        wall, results = run_chain(run, out, count)
        chains.append(wall)
        for stage, (w, _) in results.items():
            stage_walls[stage].append(w)
        digests.append(_digest(out))
    if len(set(digests)) != 1:
        run.problems.append("repeated chains with one seed wrote different artifacts")
    check_outputs(run, out, count, results["train-knn"][1])
    run.notes.update(chains=len(chains), chain_s=chains, import_s=imports,
                     train_knn_stdout=results["train-knn"][1])
    run.metrics.update(
        setup_s=median(imports),
        unit_s=median(chains),
        # Stages differ in cost, so a median over them would follow whichever
        # ranks fourth; the geometric mean of their medians moves with each.
        op_ms=1e3 * geomean([median(w) for w in stage_walls.values()]),
    )
    if run.traced:
        run.metrics["bench.traced_unit_s"] = median(chains)
        _layer_metrics(run, out, count, imports)


def probe(run) -> None:
    """The corpus layers for a traced run of another workload: one chain."""
    imports = [fresh_import_s() for _ in range(3)]
    out = run.work / "probe-chain"
    run_chain(run, out, SMOKE_COUNT if run.smoke else COUNT, count_ops=False)
    _layer_metrics(run, out, SMOKE_COUNT if run.smoke else COUNT, imports)


def _layer_metrics(run, out, count: int, imports) -> None:
    """Spans around the public functions each CLI stage calls, in this process."""
    from vibsense import baselines, features, heightfit, selection, signalsim, svgplots

    t = run.tracer
    with t.span("signalsim.simulate_corpus"):
        windows = signalsim.simulate_corpus(count, seed=run.seed)
    sample = windows[:: max(1, len(windows) // LAYER_SAMPLE)]
    scratch = run.work / "layers"
    scratch.mkdir(parents=True, exist_ok=True)
    for i, window in enumerate(sample):
        with t.span("signalsim.write_window_csv"):
            signalsim.write_window_csv(window, scratch / f"w{i}.csv")
    for i in range(len(sample)):
        with t.span("signalsim.read_window_csv"):
            signalsim.read_window_csv(scratch / f"w{i}.csv")
    vectors = []
    for window in windows:
        with t.span("features.extract_features"):
            vectors.append(features.extract_features(window))
    for window in sample:
        with t.span("features.spectral_profile"):
            features.spectral_profile(window)
    labels = [w.source.value for w in windows]
    for _ in range(3):
        with t.span("features.write_feature_csv"):
            features.write_feature_csv(scratch / "features.csv", vectors, labels)
        with t.span("features.read_feature_csv"):
            features.read_feature_csv(scratch / "features.csv")

    ds = baselines.LabeledDataset.from_vectors(vectors, [w.source for w in windows])
    for _ in range(5):
        with t.span("selection.correlation_table"):
            report = selection.correlation_table(ds)
    for _ in range(10):
        for r in report.r:
            with t.span("selection.p_value"):
                selection.p_value(float(r), len(ds))
    ds_sel = ds.select_columns(selection.select_features(report))
    train, _, test = baselines.split(ds_sel, (0.7, 0.1, 0.2), seed=run.seed, stratified=True)
    for _ in range(5):
        with t.span("baselines.knn_fit"):
            model = baselines.knn_fit(train)
    with t.span("baselines.sweep_k"):
        k, curve = baselines.sweep_k(train, seed=run.seed)
    for _ in range(5):
        with t.span("baselines.knn_predict_batch"):
            preds = baselines.knn_predict_batch(model, test.rows, k)
    for _ in range(20):
        with t.span("baselines.evaluate"):
            metrics = baselines.evaluate(preds, test.labels, len(ds.classes))

    for idx, (name, law) in enumerate(sorted(signalsim.REFERENCE_LAWS.items())):
        series = [signalsim.building_series(law, f, noise_sd=2.0, seed=run.seed * 7919 + idx * 101 + f)
                  for f in range(1, FLOORS + 1)]
        observations = heightfit.floor_profile(series, law.orientation)
        for _ in range(5):
            with t.span("heightfit.height_analysis"):
                heightfit.height_analysis(observations, expected_sign="positive" if law.slope > 0 else "negative")
    names = [c.value for c in ds.classes]
    charts = [
        svgplots.heatmap(metrics.confusion, names, names, title="confusion"),
        svgplots.line_chart([("CV accuracy", sorted(curve), [curve[k] for k in sorted(curve)])]),
    ]
    for i in range(10):
        with t.span("svgplots.save_svg"):
            svgplots.save_svg(charts[i % 2], scratch / f"chart{i % 2}.svg")

    m = run.metrics
    m["vibsense.import_s"] = median(imports)
    for stage in STAGES:
        m[f"cli.{stage}_s"] = t.median(f"cli.{stage}")
    m["signalsim.simulate_corpus_s"] = t.median("signalsim.simulate_corpus")
    for name, scale in (
        ("signalsim.write_window_csv_us", 1e6), ("signalsim.read_window_csv_us", 1e6),
        ("features.extract_features_us", 1e6), ("features.spectral_profile_us", 1e6),
        ("features.write_feature_csv_ms", 1e3), ("features.read_feature_csv_ms", 1e3),
        ("selection.correlation_table_ms", 1e3), ("selection.p_value_us", 1e6),
        ("baselines.knn_fit_ms", 1e3), ("baselines.knn_predict_batch_ms", 1e3),
        ("baselines.sweep_k_s", 1.0), ("baselines.evaluate_us", 1e6),
        ("heightfit.height_analysis_us", 1e6), ("svgplots.save_svg_ms", 1e3),
    ):
        m[name] = t.median(name.rsplit("_", 1)[0], scale)
