"""vibsense: vibration-sensing pipeline for structure classification.

Synthetic piezo/ADC signal generation, 12-statistic window features,
correlation-driven feature selection, k-NN and Gaussian NB baselines, a
from-scratch 1D CNN, floor-height amplitude fits, and a telemetry path
(node emulator -> HTTP ingestion -> append-only store).
"""

from .baselines import (
    LabeledDataset,
    Metrics,
    evaluate,
    gnb_predict,
    gnb_train,
    knn_fit,
    knn_predict,
    knn_predict_batch,
    split,
    sweep_k,
)
from .cnn import (
    CnnHyperparams,
    CnnModel,
    PlateauScheduler,
    forward,
    grid_combinations,
    grid_search,
    init_model,
    layer_output_sizes,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from .errors import (
    DegenerateFitError,
    DeliveryError,
    DivergenceError,
    InsufficientDataError,
    InvalidSignalError,
    ProfileRangeError,
    SchemaError,
    StoreError,
    UndefinedCorrelationError,
    VibsenseError,
)
from .features import (
    FEATURE_COLUMNS,
    FLATNESS_THRESHOLD,
    FeatureVector,
    SpectrumReport,
    extract_feature_matrix,
    extract_features,
    find_peaks,
    read_feature_csv,
    spectral_profile,
    write_feature_csv,
)
from .heightfit import (
    FitResult,
    FloorObservation,
    HeightAnalysis,
    floor_profile,
    height_analysis,
    linear_fit,
)
from .selection import (
    CorrelationReport,
    correlation_csv,
    correlation_table,
    p_value,
    pearson_r,
    read_correlation_csv,
    select_features,
)
from .signalsim import (
    DEFAULT_PROFILES,
    REFERENCE_LAWS,
    BuildingLaw,
    ClassProfile,
    RawWindow,
    StructureClass,
    building_series,
    front_end,
    read_window_csv,
    simulate_corpus,
    synth_window,
    write_window_csv,
)
from .svgplots import heatmap, line_chart, save_svg, scatter_chart
from .telemetry import (
    NodeStatus,
    TelemetryRecord,
    TelemetryServer,
    append_store,
    decode_record,
    encode_record,
    node_emulator,
    scan_store,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
