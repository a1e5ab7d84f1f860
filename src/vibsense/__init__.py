"""vibsense: vibration-sensing pipeline for structure classification.

Synthetic piezo/ADC signal generation, 12-statistic window features,
correlation-driven feature selection, k-NN and Gaussian NB baselines, a
from-scratch 1D CNN, floor-height amplitude fits, and a telemetry path
(node emulator -> HTTP ingestion -> append-only store).

The package imports lazily (PEP 562): ``import vibsense`` loads no
submodule, and a public name imports its module on first access, so a
process that only serves telemetry never imports numpy.
"""

import sys

__version__ = "0.1.0"

# Each public name and the module that defines it; a module's own name maps to itself.
_MODULE_OF = {
    **{module: module for module in ["baselines", "cnn", "errors", "features", "heightfit",
                                     "selection", "signalsim", "svgplots", "telemetry"]},
    **dict.fromkeys(["LabeledDataset", "Metrics", "evaluate", "gnb_predict", "gnb_train",
                     "knn_fit", "knn_predict_batch", "split", "sweep_k"],
                    "baselines"),
    **dict.fromkeys(["CnnModel", "PlateauScheduler", "forward", "grid_combinations",
                     "grid_search", "init_model", "layer_output_sizes", "load_checkpoint",
                     "predict", "save_checkpoint", "train"], "cnn"),
    **dict.fromkeys(["DegenerateFitError", "DeliveryError", "DivergenceError",
                     "InsufficientDataError", "InvalidSignalError", "ProfileRangeError",
                     "SchemaError", "StoreError", "UndefinedCorrelationError", "VibsenseError"],
                    "errors"),
    **dict.fromkeys(["FLATNESS_THRESHOLD", "SpectrumReport", "extract_feature_matrix",
                     "extract_features", "find_peaks", "read_feature_csv", "spectral_profile",
                     "write_feature_csv"], "features"),
    **dict.fromkeys(["FitResult", "FloorObservation", "HeightAnalysis", "floor_profile",
                     "height_analysis", "linear_fit"], "heightfit"),
    **dict.fromkeys(["CnnHyperparams", "FEATURE_COLUMNS", "FeatureVector", "StructureClass"],
                    "schema"),
    **dict.fromkeys(["CorrelationReport", "correlation_csv", "correlation_table", "p_value",
                     "pearson_r", "read_correlation_csv", "select_features"], "selection"),
    **dict.fromkeys(["DEFAULT_PROFILES", "REFERENCE_LAWS", "BuildingLaw", "ClassProfile",
                     "RawWindow", "building_series", "front_end", "read_window_csv",
                     "simulate_corpus", "synth_window", "write_window_csv"], "signalsim"),
    **dict.fromkeys(["heatmap", "line_chart", "save_svg", "scatter_chart"], "svgplots"),
    **dict.fromkeys(["NodeStatus", "TelemetryRecord", "TelemetryServer", "append_store",
                     "decode_record", "encode_record", "node_emulator", "scan_store"],
                    "telemetry"),
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{_MODULE_OF[name]}"
    __import__(qualified)  # the import statement's own path, so -X importtime lists the module
    module = sys.modules[qualified]
    value = globals()[name] = module if _MODULE_OF[name] == name else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
