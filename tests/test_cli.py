import dataclasses
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import urllib.request
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import FIELD_CORRELATIONS
from vibsense import cli, features, selection, signalsim, telemetry
from vibsense.features import FEATURE_COLUMNS


def _tree(path):
    return {p.name: p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Small simulated corpus with features extracted, shared read-only."""
    out = tmp_path_factory.mktemp("corpus")
    assert cli.main(["simulate", "--seed", "3", "--count", "100", "--out", str(out)]) == 0
    assert cli.main(["extract", "--windows", str(out / "windows"), "--out", str(out)]) == 0
    return out


# ----------------------------------------------------------------- simulate


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["simulate", "--seed", "7", "--count", "25", "--out", str(out)]) == 0
    assert _tree(a) == _tree(b)
    names = sorted(p.name for p in (a / "windows").iterdir())
    assert len(names) == 25
    assert names[0].startswith("win_00000_")


def test_simulate_class_filter(tmp_path):
    out = tmp_path / "out"
    assert cli.main(
        ["simulate", "--seed", "1", "--count", "10", "--classes", "railline", "--out", str(out)]
    ) == 0
    names = [p.name for p in (out / "windows").iterdir()]
    assert len(names) == 10
    assert all("railline" in n for n in names)


def test_simulate_building_only_writes_the_default_building_windows(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["simulate", "--seed", "4", "--count", "3", "--classes", "building",
                     "--out", str(out)]) == 0
    paths = sorted((out / "windows").iterdir())
    assert [p.name for p in paths] == [f"win_{i:05d}_building.csv" for i in range(3)]
    building = signalsim.StructureClass.BUILDING
    want = signalsim.simulate_corpus(3, {building: signalsim.DEFAULT_PROFILES[building]}, seed=4)
    got = [signalsim.read_window_csv(p) for p in paths]
    assert [w.samples.tolist() for w in got] == [w.samples.tolist() for w in want]


def test_simulate_negative_count_exits_2(tmp_path, capsys):
    assert cli.main(["simulate", "--count", "-1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "simulate: count must be >= 0\n"
    assert not (tmp_path / "out" / "windows").exists()


# ------------------------------------------------------------------ extract


def test_extract_row_count_and_idempotence(corpus_dir, tmp_path):
    features = (corpus_dir / "features.csv").read_text()
    assert len(features.strip().splitlines()) == 101  # header + one row per window
    out = tmp_path / "again"
    assert cli.main(
        ["extract", "--windows", str(corpus_dir / "windows"), "--out", str(out)]
    ) == 0
    assert (out / "features.csv").read_text() == features


def test_extract_without_windows_exits_2(tmp_path, capsys):
    code = cli.main(["extract", "--windows", str(tmp_path / "nowhere"), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("extract:")


@pytest.mark.parametrize(
    "head, data",
    [
        ("# rate_hz=200 class=building floor=- orient=-", "0,5\n1\n2,7\n"),
        ("# rate_hz=200 class=building orient=-", "0,5\n1,6\n2,7\n"),
    ],
    ids=["data line without an adc cell", "header without floor"],
)
def test_extract_on_a_malformed_window_exits_2(tmp_path, capsys, head, data):
    windows = tmp_path / "windows"
    windows.mkdir()
    (windows / "win_00000_building.csv").write_text(f"{head}\nt_index,adc\n{data}")
    code = cli.main(["extract", "--windows", str(windows), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("extract: ") and "win_00000_building.csv" in err


def test_extract_stacks_windows_of_each_length(tmp_path):
    windows = tmp_path / "windows"
    windows.mkdir()
    lengths = [40, 64, 40, 5, 64]
    made = []
    for i, length in enumerate(lengths):
        samples = np.random.default_rng(i).integers(0, 1024, size=length).astype(np.int32)
        made.append(signalsim.RawWindow(samples, 200.0, signalsim.StructureClass.BUILDING))
        signalsim.write_window_csv(made[-1], windows / f"win_{i:05d}_building.csv")
    assert cli.main(["extract", "--windows", str(windows), "--out", str(tmp_path)]) == 0
    vectors, labels = features.read_feature_csv(tmp_path / "features.csv")
    assert vectors == [features.extract_features(w) for w in made]
    assert labels == ["building"] * len(lengths)


# ------------------------------------------------------------------- select


def test_select_from_external_correlation_table(tmp_path):
    r = np.array([FIELD_CORRELATIONS[name][0] for name in FEATURE_COLUMNS])
    p = np.array([FIELD_CORRELATIONS[name][1] for name in FEATURE_COLUMNS])
    report = selection.CorrelationReport(list(FEATURE_COLUMNS), r, p, n=0)
    table = tmp_path / "field_correlations.csv"
    table.write_text(selection.correlation_csv(report))

    out = tmp_path / "out"
    assert cli.main(["select", "--correlations", str(table), "--out", str(out)]) == 0
    chosen = json.loads((out / "selected_features.json").read_text())
    assert chosen == ["mean", "std_dev", "max", "rms", "avg_peak_value"]
    assert (out / "correlation.csv").read_text() == table.read_text()


def test_select_on_computed_corpus(corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert cli.main(
        ["select", "--features", str(corpus_dir / "features.csv"), "--out", str(out)]
    ) == 0
    chosen = json.loads((out / "selected_features.json").read_text())
    assert set(chosen) <= set(FEATURE_COLUMNS)
    lines = (out / "correlation.csv").read_text().strip().splitlines()
    assert lines[0] == "Features,Correlation value,Prediction value"
    assert len(lines) == 13


def test_select_missing_input_exits_2(tmp_path, capsys):
    code = cli.main(["select", "--features", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("select:")


@pytest.mark.parametrize(
    "text, where",
    [
        ("Features,Correlation value,Prediction value\nMean\n", "line 2"),
        ("Features,Correlation value,Prediction value\nMean,0.7,x\n", "line 2"),
        ("Features,Correlation value\nMean,0.7,0.01\n", "line 1"),
        ("Features,Correlation value,Prediction value\nmean,0.7,0.01\nbogus,0.1,0.5\n", "line 3"),
        ("Features,Correlation value,Prediction value\nMean,0.7,0.01\n", "line 2"),
        ("Features,Correlation value,Prediction value\nmean,0.7,0.01\nmean,0.7,0.01\n",
         "line 3"),
        ("Features,Correlation value,Prediction value\nrms,0.7,0.01\nmean,5.0,-1.0\n", "line 3"),
        ("Features,Correlation value,Prediction value\nmean,-1.5,0.01\n", "line 2"),
        ("Features,Correlation value,Prediction value\nmean,0.7,1.5\n", "line 2"),
        ("Features,Correlation value,Prediction value\nmean,nan,0.01\n", "line 2"),
        ("Features,Correlation value,Prediction value\nmean,0.7,nan\n", "line 2"),
        ("Features,Correlation value,Prediction value\nmean,inf,0.01\n", "line 2"),
        ("Features,Correlation value,Prediction value\nmean,0.7,-inf\n", "line 2"),
    ],
    ids=["short row", "cell not a number", "wrong header", "unknown name", "name in the wrong case",
         "repeated name", "r and p out of range", "r below -1", "p above 1", "r nan", "p nan",
         "r inf", "p -inf"],
)
def test_select_on_a_malformed_correlation_table_exits_2(tmp_path, capsys, text, where):
    table = tmp_path / "correlations.csv"
    table.write_text(text)
    code = cli.main(["select", "--correlations", str(table), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("select:") and where in err


def _sweep_k_refuses_a_cell(corpus_dir, tmp_path, capsys, column, cell):
    lines = (corpus_dir / "features.csv").read_text().splitlines()
    row = lines[3].split(",")
    row[FEATURE_COLUMNS.index(column)] = cell
    lines[3] = ",".join(row)
    table = tmp_path / "features.csv"
    table.write_text("\n".join(lines) + "\n")
    code = cli.main(["sweep-k", "--features", str(table), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("sweep-k:") and f"{table} line 4" in err


@pytest.mark.parametrize("cell", ["inf", "nan", "many"])
def test_a_bad_peak_count_in_features_exits_2(corpus_dir, tmp_path, capsys, cell):
    _sweep_k_refuses_a_cell(corpus_dir, tmp_path, capsys, "num_peaks", cell)


@pytest.mark.parametrize(
    "column, cell", [("mean", "nan"), ("mean", "inf"), ("kurtosis", "-inf")],
    ids=["mean nan", "mean inf", "kurtosis -inf"],
)
def test_a_non_finite_feature_cell_exits_2(corpus_dir, tmp_path, capsys, column, cell):
    _sweep_k_refuses_a_cell(corpus_dir, tmp_path, capsys, column, cell)


@pytest.mark.parametrize("command", ["sweep-k", "train-knn"])
@pytest.mark.parametrize(
    "text",
    ["5", '"rms"', '["rms", "mean", "bogus"]', '["bogus"]', "[rms]"],
    ids=["a number", "a string", "an unknown name among known ones", "only unknown names",
         "not JSON"],
)
def test_a_malformed_feature_selection_exits_2(corpus_dir, tmp_path, capsys, command, text):
    out = tmp_path / "out"
    out.mkdir()
    chosen = out / "selected_features.json"
    chosen.write_text(text)
    code = cli.main([command, "--features", str(corpus_dir / "features.csv"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{command}:") and str(chosen) in err


@pytest.mark.parametrize(
    "text, used", [('["rms", "mean"]', ["mean", "rms"]), ("[]", FEATURE_COLUMNS)]
)
def test_train_knn_prints_the_columns_it_uses(corpus_dir, tmp_path, capsys, text, used):
    out = tmp_path / "out"
    out.mkdir()
    (out / "selected_features.json").write_text(text)
    assert cli.main(["train-knn", "--features", str(corpus_dir / "features.csv"),
                     "--out", str(out)]) == 0
    assert f"train-knn: features={used} " in capsys.readouterr().out


def test_train_knn_on_too_few_rows_per_class_names_the_folds(tmp_path, capsys):
    # 60 windows leave 8 training rows per class for sweep_k's 10 folds
    out = tmp_path / "out"
    assert cli.main(["simulate", "--count", "60", "--out", str(out)]) == 0
    assert cli.main(["extract", "--out", str(out)]) == 0
    assert cli.main(["train-knn", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.match(r"train-knn: folds=10 exceeds the largest class size [0-9]\n", err), err


# ----------------------------------------------------------- model commands


def test_full_pipeline_smoke(corpus_dir, capsys):
    out = str(corpus_dir)
    features = str(corpus_dir / "features.csv")
    assert cli.main(["select", "--features", features, "--out", out]) == 0
    assert cli.main(["train-knn", "--seed", "0", "--features", features, "--out", out]) == 0
    assert cli.main(
        [
            "train-cnn", "--seed", "0", "--features", features, "--out", out,
            "--epochs", "3", "--base-filters", "4",
        ]
    ) == 0
    captured = capsys.readouterr().out
    assert "train-knn:" in captured and "train-cnn:" in captured
    for name in (
        "correlation.csv",
        "selected_features.json",
        "knn_metrics.csv",
        "knn_confusion.svg",
        "knn_k_curve.svg",
        "cnn_checkpoint.json",
        "cnn_history.csv",
        "cnn_metrics.csv",
    ):
        assert (corpus_dir / name).exists(), name
    # each metrics file ends with a parsable accuracy row
    for name in ("knn_metrics.csv", "cnn_metrics.csv"):
        last = (corpus_dir / name).read_text().strip().splitlines()[-1]
        accuracy = float(last.split(",")[1])
        assert 0.0 <= accuracy <= 1.0
    history = (corpus_dir / "cnn_history.csv").read_text().strip().splitlines()
    assert len(history) == 4  # header + 3 epochs


def test_sweep_k_artifacts(corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert cli.main(
        ["sweep-k", "--seed", "0", "--features", str(corpus_dir / "features.csv"), "--out", str(out)]
    ) == 0
    lines = (out / "k_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "k,cv_accuracy"
    assert len(lines) == 31
    assert all(0.0 <= float(ln.split(",")[1]) <= 1.0 for ln in lines[1:])
    ET.fromstring((out / "k_curve.svg").read_text())


def test_grid_search_artifacts(corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert cli.main(
        [
            "grid-search", "--seed", "0", "--features", str(corpus_dir / "features.csv"),
            "--out", str(out), "--reduced-grid", "--folds", "2", "--epochs", "2",
        ]
    ) == 0
    ranking = (out / "grid_ranking.csv").read_text().strip().splitlines()
    assert len(ranking) == 5  # header + 4 reduced-grid combos
    winner = json.loads((out / "grid_winner.json").read_text())
    assert winner["batch_size"] == 100 and winner["kernel_length"] == 3
    assert winner["base_filters"] in (4, 8)
    assert winner["activation"] in ("relu", "elu")
    for key in ("batch_size", "kernel_length", "base_filters", "activation"):
        assert (out / f"grid_marginal_{key}.csv").exists()


def test_train_cnn_rejects_bad_activation(corpus_dir, tmp_path, capsys):
    code = cli.main(
        [
            "train-cnn", "--features", str(corpus_dir / "features.csv"),
            "--out", str(tmp_path), "--activation", "gelu", "--epochs", "1",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("train-cnn:")


@pytest.mark.parametrize(
    "command", [["train-cnn", "--epochs", "0"], ["train-cnn", "--epochs", "-3"],
                ["grid-search", "--epochs", "0", "--reduced-grid", "--folds", "2"]],
    ids=["train-cnn 0", "train-cnn -3", "grid-search 0"],
)
def test_fewer_than_one_epoch_exits_2(corpus_dir, tmp_path, capsys, command):
    out = tmp_path / "out"
    code = cli.main([*command, "--features", str(corpus_dir / "features.csv"), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"{command[0]}: epochs must be >= 1, got {command[2]}\n"
    assert list(out.iterdir()) == []


def test_unknown_flag_is_a_usage_error(corpus_dir):
    for argv in (["simulate", "--bogus"], ["--config", "run.json", "simulate"]):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(argv)
        assert exc_info.value.code != 0


# ------------------------------------------------------------ spectral/fits


def test_spectral_check_reports_every_window(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(
        ["spectral-check", "--windows", str(corpus_dir / "windows"), "--out", str(out)]
    ) == 0
    lines = (out / "spectral_report.csv").read_text().strip().splitlines()
    assert lines[0] == "file,dominant_bin,dominance_ratio,flat"
    assert len(lines) == 101
    assert "spectral-check:" in capsys.readouterr().out


def test_spectral_check_batches_windows_of_each_length(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_EXTRACT_BATCH", 2)  # several batches per length
    windows = tmp_path / "windows"
    windows.mkdir()
    rng = np.random.default_rng(4)
    made = [rng.integers(0, 1024, size=length) for length in (64, 100, 64, 100, 64)]
    made += [np.full(100, 63), np.tile([1, 0], 50)]  # ratio 1, and a zero median: ratio inf
    for i, samples in enumerate(made):
        window = signalsim.RawWindow(samples.astype(np.int32), 200.0, signalsim.StructureClass.BUILDING)
        signalsim.write_window_csv(window, windows / f"win_{i:05d}_building.csv")
    assert cli.main(["spectral-check", "--windows", str(windows), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectral_report.csv").read_text().splitlines()[1:]
    for i, (line, samples) in enumerate(zip(lines, made, strict=True)):
        one = features.spectral_profile(signalsim.RawWindow(samples, 200.0))
        flat = int(one.dominance_ratio < features.FLATNESS_THRESHOLD)
        assert line == f"win_{i:05d}_building.csv,{one.dominant_bin},{one.dominance_ratio!r},{flat}"
    assert lines[-2].split(",")[2:] == ["1.0", "1"] and lines[-1].split(",")[2:] == ["inf", "0"]


def test_fit_height_writes_fits_and_charts(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["fit-height", "--seed", "0", "--floors", "5", "--out", str(out)]) == 0
    lines = (out / "height_fits.txt").read_text().strip().splitlines()
    assert len(lines) == 4
    by_name = dict(line.split(":", 1) for line in lines)
    assert "verdict=positive" in by_name["building1_vertical"]
    assert "verdict=positive" in by_name["building2_vertical"]
    assert "verdict=negative" in by_name["building1_horizontal"]
    assert "verdict=negative" in by_name["building2_horizontal"]
    for name in by_name:
        ET.fromstring((out / f"height_{name}.svg").read_text())


# ---------------------------------------------------------------- telemetry


def test_emulate_node_dry_run_and_report(tmp_path, capsys):
    sinks = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for sink in sinks:
        assert cli.main(
            [
                "emulate-node", "--store", str(sink), "--count", "4", "--seed", "5",
                "--structure", "flyover", "--base-time-ms", "1000",
            ]
        ) == 0
    assert sinks[0].read_bytes() == sinks[1].read_bytes()
    records = telemetry.scan_store(sinks[0])
    assert [r.seq for r in records] == [0, 1, 2, 3]
    assert [r.timestamp_ms for r in records] == [1000, 1001, 1002, 1003]

    capsys.readouterr()
    assert cli.main(["report", "--store", str(sinks[0])]) == 0
    report = capsys.readouterr().out
    assert "report: 4 records, 1 nodes" in report
    assert "node flyover-node: count=4" in report
    assert "label flyover: count=4" in report


def test_emulate_node_against_live_service(tmp_path):
    store = tmp_path / "store.jsonl"
    with telemetry.TelemetryServer(store) as srv:
        assert cli.main(
            [
                "emulate-node", "--endpoint", srv.url, "--count", "3", "--seed", "2",
                "--structure", "railline", "--node-id", "cli-node",
            ]
        ) == 0
    records = telemetry.scan_store(store)
    assert [r.seq for r in records] == [0, 1, 2]
    assert all(r.node_id == "cli-node" for r in records)


def test_emulate_node_dry_run_rerun_stores_each_seq_once(tmp_path, capsys):
    sink = tmp_path / "s.jsonl"
    for count in ("10", "5"):
        assert cli.main(["emulate-node", "--store", str(sink), "--count", count, "--seed", "1"]) == 0
    assert [r.seq for r in telemetry.scan_store(sink)] == list(range(10))
    assert "delivered 5 records" in capsys.readouterr().out  # a duplicate counts as delivered
    assert cli.main(["report", "--store", str(sink)]) == 0
    report = capsys.readouterr().out
    assert "report: 10 records, 1 nodes" in report
    assert "node building-node: count=10" in report


def test_emulate_node_needs_a_destination(capsys):
    assert cli.main(["emulate-node", "--count", "1"]) == 2
    assert "emulate-node:" in capsys.readouterr().err


def test_emulate_node_unknown_structure_exits_2(tmp_path, capsys):
    sink = tmp_path / "s.jsonl"
    assert cli.main(["emulate-node", "--structure", "castle", "--store", str(sink)]) == 2
    assert capsys.readouterr().err == "emulate-node: unknown structure class 'castle'\n"
    assert not sink.exists()


def test_report_totals_match_scan(tmp_path, capsys):
    sink = tmp_path / "sink.jsonl"
    for structure, count in (("building", 3), ("concrete_overbridge", 2)):
        assert cli.main(
            ["emulate-node", "--store", str(sink), "--count", str(count),
             "--structure", structure, "--node-id", f"{structure}-n"]
        ) == 0
    capsys.readouterr()
    assert cli.main(["report", "--store", str(sink)]) == 0
    out = capsys.readouterr().out
    records = telemetry.scan_store(sink)
    assert f"report: {len(records)} records, 2 nodes" in out
    assert "label building: count=3" in out
    assert "label concrete_overbridge: count=2" in out


def _features_with_a_long_cell(corpus_dir, tmp_path):
    lines = (corpus_dir / "features.csv").read_text().splitlines(keepends=True)
    lines[2] = "9" * 140_000 + lines[2]  # a cell longer than csv.field_size_limit()
    (tmp_path / "features.csv").write_text("".join(lines))
    return ["--features", "features.csv"], "features.csv line 3: "


def _deeply_nested_selection(corpus_dir, tmp_path):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "selected_features.json").write_text("[" * 5000)
    return ["--features", str(corpus_dir / "features.csv"), "--out", "out"], "selected_features.json"


def _store_with_a_deeply_nested_line(corpus_dir, tmp_path):
    assert cli.main(["emulate-node", "--store", str(tmp_path / "s.jsonl"), "--count", "2"]) == 0
    with open(tmp_path / "s.jsonl", "ab") as fh:
        fh.write(b"[" * 5000 + b"\n")
    return ["--store", "s.jsonl"], "s.jsonl line 3: body: "


def _flags(*argv, where):
    return lambda corpus_dir, tmp_path: (list(argv), where)


@pytest.mark.parametrize(
    "stage, make",
    [
        ("serve", _flags("--port", "70000", "--store", "s.jsonl", where="65535")),
        ("serve", _flags("--port", "-1", "--store", "s.jsonl", where="65535")),
        *[("emulate-node", _flags("--interval", value, "--store", "s.jsonl", where="interval"))
          for value in ("inf", "1e300", "nan", "-1")],
        ("select", _features_with_a_long_cell),
        ("sweep-k", _deeply_nested_selection),
        ("report", _store_with_a_deeply_nested_line),
    ],
    ids=["port 70000", "port -1", "interval inf", "interval 1e300", "interval nan",
         "interval -1", "long csv cell", "nested selection", "nested store line"],
)
def test_a_hostile_input_exits_2_without_a_traceback(corpus_dir, tmp_path, stage, make):
    argv, where = make(corpus_dir, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "vibsense", stage, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"{stage}: ") and where in done.stderr, done.stderr
    assert "Traceback" not in done.stderr
    if stage in ("serve", "emulate-node"):  # refused before the store is opened
        assert not (tmp_path / "s.jsonl").exists()


# --------------------------------------------------------------- defaults


def test_omitted_seed_and_out_take_their_defaults(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    for run, flags in ((a, []), (b, ["--seed", "0", "--out", "out"])):
        run.mkdir()
        monkeypatch.chdir(run)
        assert cli.main(["simulate", "--count", "8", *flags]) == 0
    assert _tree(a / "out") == _tree(b / "out")
    assert len(_tree(a / "out")) == 8


def test_out_flag_alone_threads_through_the_pipeline(tmp_path, monkeypatch):
    # downstream stages must find their inputs under --out, not under a
    # literal ./out relative to wherever the process happens to run
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    run = tmp_path / "run"
    assert cli.main(["simulate", "--seed", "3", "--count", "100", "--out", str(run)]) == 0
    assert cli.main(["extract", "--out", str(run)]) == 0
    assert cli.main(["select", "--out", str(run)]) == 0
    assert cli.main(["sweep-k", "--seed", "3", "--out", str(run)]) == 0
    assert (run / "features.csv").exists()
    assert (run / "correlation.csv").exists()
    assert (run / "k_curve.csv").exists()
    assert not (elsewhere / "out").exists()

    assert cli.main(["emulate-node", "--structure", "building", "--count", "2",
                     "--interval", "0", "--store", str(run / "telemetry.jsonl")]) == 0
    assert cli.main(["report", "--out", str(run)]) == 0
    assert not (elsewhere / "out").exists()


# The classical chain on 80 windows, seed 5; train-cnn and grid-search are left out of
# the golden test because their last bits depend on the BLAS summation order.
_CLASSICAL_CHAIN = [
    ["simulate", "--count", "80"], ["extract"], ["spectral-check"], ["select"],
    ["sweep-k"], ["train-knn"], ["fit-height"],
]


def _run_chain(stages, out):
    for stage in stages:
        seed = [] if stage[0] in ("extract", "spectral-check", "select") else ["--seed", "5"]
        assert cli.main([*stage, *seed, "--out", str(out)]) == 0, stage


def test_the_pipeline_writes_identical_artifacts_for_a_fixed_seed(tmp_path, capsys):
    stages = [*_CLASSICAL_CHAIN, ["train-cnn", "--epochs", "1", "--base-filters", "4"]]
    trees, stdouts = [], []
    for run in ("a", "b"):
        out = tmp_path / run
        _run_chain(stages, out)
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
        stdouts.append(capsys.readouterr().out.replace(str(out), "OUT"))
    assert len(trees[0]) == 80 + 17  # the windows and every stage's artifacts
    assert trees[0] == trees[1]
    assert stdouts[0] == stdouts[1]


def test_the_classical_chain_writes_the_recorded_bytes(tmp_path):
    """Every file's SHA-256 against a manifest recorded before the table and SVG
    writers were unified; regenerate it only for an intended change of bytes."""
    want = json.loads((Path(__file__).parent / "data" / "cli_chain_sha256.json").read_text())
    out = tmp_path / "out"
    _run_chain(_CLASSICAL_CHAIN, out)
    got = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.rglob("*")) if p.is_file()}
    assert got == want


# ------------------------------------------------------------------ imports


def _vibsense_child(argv, cwd):
    """A ``python -X importtime -m vibsense`` child; its import log goes to cwd/importtime.txt."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    with open(cwd / "importtime.txt", "w") as log:
        return subprocess.Popen([sys.executable, "-X", "importtime", "-m", "vibsense", *argv],
                                cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=log, text=True)


def _imported(cwd) -> set[str]:
    lines = (cwd / "importtime.txt").read_text().splitlines()
    return {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}


def _imports_of(argv, cwd) -> set[str]:
    child = _vibsense_child(argv, cwd)
    out, _ = child.communicate(timeout=120)
    assert child.returncode == 0, out
    return _imported(cwd)


def test_serve_and_report_start_without_numpy(tmp_path):
    store = tmp_path / "s.jsonl"
    assert cli.main(["emulate-node", "--store", str(store), "--count", "3"]) == 0
    record = telemetry.scan_store(store)[-1]
    with _vibsense_child(["serve", "--store", str(store), "--port", "0"], tmp_path) as child:
        try:
            url = re.search(r"listening on (\S+)", child.stdout.readline())[1]
            body = telemetry.encode_record(dataclasses.replace(record, seq=record.seq + 1))
            request = urllib.request.Request(url + "/ingest", data=body, method="POST")
            with urllib.request.urlopen(request, timeout=10) as resp:
                assert resp.status == 201
            with urllib.request.urlopen(url + "/records", timeout=10) as resp:
                assert len(json.loads(resp.read())["records"]) == 4
        finally:
            child.send_signal(signal.SIGINT)  # serve stops on KeyboardInterrupt and exits 0
        assert child.wait(timeout=30) == 0
    served = _imported(tmp_path)
    assert "vibsense.telemetry" in served and "http.server" in served
    assert "numpy" not in served
    assert "numpy" not in _imports_of(["report", "--store", str(store)], tmp_path)


@pytest.mark.parametrize("stage", ["fit-height", "extract"])
def test_a_corpus_stage_imports_neither_the_cnn_nor_the_server(corpus_dir, tmp_path, stage):
    argv = ["--floors", "2"] if stage == "fit-height" else ["--windows", str(corpus_dir / "windows")]
    imported = _imports_of([stage, *argv, "--out", str(tmp_path)], tmp_path)
    assert "vibsense.signalsim" in imported
    assert not {"vibsense.cnn", "vibsense.telemetry", "http.server"} & imported


def test_train_cnn_imports_no_telemetry(corpus_dir, tmp_path):
    argv = ["train-cnn", "--features", str(corpus_dir / "features.csv"), "--epochs", "1",
            "--base-filters", "4", "--out", str(tmp_path)]
    imported = _imports_of(argv, tmp_path)
    assert "vibsense.cnn" in imported
    assert not {"vibsense.telemetry", "http.server"} & imported
