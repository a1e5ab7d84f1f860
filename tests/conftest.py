"""Shared reference tables and oracle helpers for the test suite.

FIELD_SAMPLE_ROWS and FIELD_CORRELATIONS are hand-recorded summaries of the
1,159-window field dataset this pipeline was originally run against. The raw
field windows are not redistributable, so tests validate arithmetic and
selection logic against these published summary numbers, and validate the
statistical machinery against synthetic corpora plus independent oracles.
"""

import math
import os
from pathlib import Path

import numpy as np

import vibsense
from vibsense import FEATURE_COLUMNS


def child_env(**extra):
    """os.environ for a Python child process that imports this vibsense, plus ``extra``.

    pyproject's ``pythonpath`` reaches the pytest process only, so a child that must import
    the package when it is not installed gets its source directory as PYTHONPATH.
    """
    return {**os.environ, "PYTHONPATH": str(Path(vibsense.__file__).parents[1]), **extra}


# One summary row per structure class, in FEATURE_COLUMNS order
# (mean, mode, median, std_dev, max, min, rms, num_peaks, avg_peak_value,
# skewness, kurtosis, crest_factor).
FIELD_SAMPLE_ROWS = {
    "building": [20.16, 19, 21, 10.38, 96, 0, 22.68, 651, 26.59, 1.9, 10.03, 4.23],
    "flyover": [28.21, 0, 0, 35.72, 255, 0, 45.52, 579, 66, 1.68, 3.68, 5.6],
    "railline": [62.86, 5, 63, 1.89, 66, 37, 62.89, 498, 63.77, -4.81, 49.46, 1.05],
    "steel_overbridge": [154.67, 0, 0, 178.66, 747, 0, 236.31, 613, 297.05, 1.19, 0.85, 3.16],
    "concrete_overbridge": [24.9, 68, 0, 24.45, 259, 0, 34.9, 630, 44.88, 1.78, 7.29, 7.42],
}

# Feature-vs-label (r, p) pairs computed on the full field dataset.
FIELD_CORRELATIONS = {
    "mean": (0.716656053, 0.000000023),
    "median": (0.090901681, 0.190540928),
    "mode": (0.154416336, 0.025589244),
    "std_dev": (0.584570249, 0.00000163),
    "max": (0.406880713, 0.000000041),
    "min": (0.26979996, 0.000078),
    "rms": (0.784558941, 0.000000001),
    "num_peaks": (-0.274614018, 0.0000572),
    "avg_peak_value": (0.756443394, 0.000000017),
    "skewness": (0.228503295, 0.000875476),
    "kurtosis": (0.123029244, 0.075948388),
    "crest_factor": (0.195535324, 0.004549568),
}


def field_correlation_arrays():
    """(r, p) arrays in FEATURE_COLUMNS order."""
    r = np.array([FIELD_CORRELATIONS[name][0] for name in FEATURE_COLUMNS])
    p = np.array([FIELD_CORRELATIONS[name][1] for name in FEATURE_COLUMNS])
    return r, p


def naive_features(samples):
    """Single-pass pure-Python reference for the 12 window statistics.

    Deliberately shares no code with the library implementation: plain loops,
    no numpy. Returns a dict keyed like FEATURE_COLUMNS.
    """
    xs = [float(v) for v in samples]
    n = len(xs)
    mean = sum(xs) / n

    ordered = sorted(xs)
    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0

    counts = {}
    for v in samples:
        key = int(v)
        counts[key] = counts.get(key, 0) + 1
    best = max(counts.values())
    mode = float(min(k for k, c in counts.items() if c == best))

    m2 = sum((x - mean) ** 2 for x in xs) / n
    m3 = sum((x - mean) ** 3 for x in xs) / n
    m4 = sum((x - mean) ** 4 for x in xs) / n
    std = math.sqrt(m2)
    rms = math.sqrt(sum(x * x for x in xs) / n)
    x_max = max(xs)
    x_min = min(xs)

    peaks = [i for i in range(1, n - 1) if xs[i] > xs[i - 1] and xs[i] > xs[i + 1]]
    avg_peak = sum(xs[i] for i in peaks) / len(peaks) if peaks else 0.0

    skew = m3 / d if (d := m2**1.5) > 0 else 0.0
    kurt = m4 / d - 3.0 if (d := m2**2) > 0 else 0.0
    crest = x_max / rms if rms > 0 else 0.0

    return {
        "mean": mean,
        "mode": mode,
        "median": median,
        "std_dev": std,
        "max": x_max,
        "min": x_min,
        "rms": rms,
        "num_peaks": len(peaks),
        "avg_peak_value": avg_peak,
        "skewness": skew,
        "kurtosis": kurt,
        "crest_factor": crest,
    }


def close_rel(a, b, rel=1e-9):
    """|a - b| <= rel * max(1, |b|): relative with an absolute floor at 1."""
    return abs(a - b) <= rel * max(1.0, abs(b))
