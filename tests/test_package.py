import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vibsense

REPO = Path(__file__).resolve().parents[1]

# Removing a public name is a deliberate change: update this list with it.
PUBLIC_NAMES = [
    "BuildingLaw", "ClassProfile", "CnnHyperparams", "CnnModel", "CorrelationReport",
    "DEFAULT_PROFILES", "DegenerateFitError", "DeliveryError", "DivergenceError",
    "FEATURE_COLUMNS", "FLATNESS_THRESHOLD", "FeatureVector", "FitResult", "FloorObservation",
    "HeightAnalysis", "InsufficientDataError", "InvalidSignalError", "LabeledDataset", "Metrics",
    "NodeStatus", "PlateauScheduler", "ProfileRangeError", "REFERENCE_LAWS", "RawWindow",
    "SchemaError", "SpectrumReport", "StoreError", "StructureClass", "TelemetryRecord",
    "TelemetryServer", "UndefinedCorrelationError", "VibsenseError", "append_store", "baselines",
    "building_series", "cnn", "correlation_csv", "correlation_table", "decode_record",
    "encode_record", "errors", "evaluate", "extract_feature_matrix", "extract_features",
    "features", "find_peaks", "floor_profile", "forward", "front_end", "gnb_predict", "gnb_train",
    "grid_combinations", "grid_search", "heatmap", "height_analysis", "heightfit", "init_model",
    "knn_fit", "knn_predict", "knn_predict_batch", "layer_output_sizes", "line_chart",
    "linear_fit", "load_checkpoint", "node_emulator", "p_value", "pearson_r", "predict",
    "read_correlation_csv", "read_feature_csv", "read_window_csv", "save_checkpoint", "save_svg",
    "scan_store", "scatter_chart", "select_features", "selection", "signalsim",
    "simulate_corpus", "spectral_profile", "split", "svgplots", "sweep_k", "synth_window",
    "telemetry", "train", "write_feature_csv", "write_window_csv",
]


def test_public_surface_is_pinned():
    assert sorted(vibsense.__all__) == PUBLIC_NAMES


def _repo_files():
    skip = {".git", "__pycache__", ".pytest_cache"}
    return {
        p: p.stat().st_mtime_ns
        for p in REPO.rglob("*")
        if p.is_file() and skip.isdisjoint(p.relative_to(REPO).parts)
    }


@pytest.mark.parametrize("script", sorted(p.name for p in (REPO / "demos").glob("*.py")))
def test_demo_runs_from_a_copy_and_writes_nothing_into_the_repo(tmp_path, script):
    demos = shutil.copytree(REPO / "demos", tmp_path / "demos")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    before = _repo_files()
    done = subprocess.run([sys.executable, str(demos / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert _repo_files() == before
