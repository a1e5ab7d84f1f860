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
    "knn_fit", "knn_predict_batch", "layer_output_sizes", "line_chart",
    "linear_fit", "load_checkpoint", "node_emulator", "p_value", "pearson_r", "predict",
    "read_correlation_csv", "read_feature_csv", "read_window_csv", "save_checkpoint", "save_svg",
    "scan_store", "scatter_chart", "select_features", "selection", "signalsim",
    "simulate_corpus", "spectral_profile", "split", "svgplots", "sweep_k", "synth_window",
    "telemetry", "train", "write_feature_csv", "write_window_csv",
]


def test_public_surface_is_pinned():
    assert sorted(vibsense.__all__) == PUBLIC_NAMES


def _in_a_fresh_process(code):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_vibsense_loads_no_submodule_until_a_name_is_used():
    _in_a_fresh_process("""
import sys
import vibsense

def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("vibsense."))

assert loaded() == [], loaded()
assert set(vibsense.__all__) <= set(dir(vibsense))
try:
    vibsense.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("vibsense.no_such_name resolved")
vibsense.StructureClass, vibsense.FeatureVector, vibsense.CnnHyperparams, vibsense.StoreError
assert loaded() == ["vibsense.errors", "vibsense.schema"], loaded()
""")


def test_every_public_name_resolves_lazily_to_the_object_its_module_defines():
    _in_a_fresh_process("""
import vibsense
from vibsense import schema

star = {}
exec("from vibsense import *", star)
assert sorted(set(star) - {"__builtins__"}) == vibsense.__all__
for name in vibsense.__all__:
    value = getattr(vibsense, name)
    assert star[name] is value, name
    defined = getattr(vibsense, vibsense._MODULE_OF[name])
    assert value is (defined if defined.__name__ == "vibsense." + name else getattr(defined, name))
# moved, not copied: the modules that compute with these names share schema's objects
assert vibsense.signalsim.StructureClass is schema.StructureClass
assert vibsense.features.FeatureVector is schema.FeatureVector
assert vibsense.features.FEATURE_COLUMNS is schema.FEATURE_COLUMNS
for name in ("CnnHyperparams", "DEFAULT_GRIDS", "DEPTH", "EPOCHS"):
    assert getattr(vibsense.cnn, name) is getattr(schema, name), name
""")


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
