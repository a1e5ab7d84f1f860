"""The 12 time-domain window statistics and the DC-removed spectrum check.

Conventions (fixed here, used everywhere else):

* ``std_dev`` is the population form (divide by n), so that
  ``std**2 + mean**2 == rms**2`` holds exactly.
* ``mode`` is the most frequent integer ADC value, smallest value on ties.
* ``skewness`` is the biased Fisher-Pearson form ``m3 / m2**1.5`` and
  ``kurtosis`` the biased excess form ``m4 / m2**2 - 3``; both are 0 for
  zero-variance windows.
* a peak is a strict local maximum over both neighbors, endpoints excluded;
  ``avg_peak_value`` is the mean sample value at peak indices (0 if none).
* ``crest_factor`` is ``max / rms``; 0 for an all-zero window.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from .errors import InsufficientDataError
from .signalsim import RawWindow

CSV_HEADERS = [
    "Mean",
    "Mode",
    "Median",
    "Standard deviation",
    "Max",
    "Min",
    "RMS",
    "Number of peaks",
    "Average of peak values",
    "Skewness",
    "Kurtosis",
    "Creast factor",
]

LABEL_HEADER = "Type of structure"


@dataclass(frozen=True)
class FeatureVector:
    """The 12 time-domain statistics of one window, in dataset column order."""

    mean: float
    mode: float
    median: float
    std_dev: float
    max: float
    min: float
    rms: float
    num_peaks: int
    avg_peak_value: float
    skewness: float
    kurtosis: float
    crest_factor: float

    def as_array(self) -> np.ndarray:
        """Values in :data:`FEATURE_COLUMNS` order."""
        return np.array([getattr(self, name) for name in FEATURE_COLUMNS], dtype=float)

    @classmethod
    def from_array(cls, values) -> "FeatureVector":
        kwargs = dict(zip(FEATURE_COLUMNS, map(float, values)))
        kwargs["num_peaks"] = int(round(kwargs["num_peaks"]))
        return cls(**kwargs)


# Canonical CSV column order for feature tables (label column last).
FEATURE_COLUMNS = [f.name for f in fields(FeatureVector)]


@dataclass(frozen=True)
class SpectrumReport:
    """DC-removed DFT magnitudes with a dominant-bin flatness summary."""

    bin_magnitudes: np.ndarray  # bins 1..n//2
    dominant_bin: int
    dominance_ratio: float


#: dominance_ratio at or above this declares an obvious frequency component.
FLATNESS_THRESHOLD = 10.0


def _peak_mask(x: np.ndarray) -> np.ndarray:
    """Strict local maxima along the last axis, endpoints excluded (length N - 2)."""
    return (x[..., 1:-1] > x[..., :-2]) & (x[..., 1:-1] > x[..., 2:])


def find_peaks(samples) -> list[int]:
    """Indices of strict local maxima (greater than both neighbors).

    Endpoints are never peaks; inputs shorter than 3 yield no peaks.
    """
    return list(np.flatnonzero(_peak_mask(np.asarray(samples))) + 1)


def extract_features(window: RawWindow) -> FeatureVector:
    """The 12 statistics of one window: the one-row case of :func:`extract_feature_matrix`."""
    return FeatureVector.from_array(extract_feature_matrix(np.reshape(window.samples, (1, -1)))[0])


def extract_feature_matrix(samples) -> np.ndarray:
    """The 12 statistics of each row of an (n, N) sample array, as (n, 12).

    Columns follow :data:`FEATURE_COLUMNS`. The moments keep the per-window
    arithmetic (numpy ``centered**3``, Python-float ``m2**1.5``), as other
    forms change the last bits. Raises InsufficientDataError below 4 samples.
    """
    x = np.asarray(samples, dtype=float)
    n, length = x.shape
    if length < 4:
        raise InsufficientDataError(f"window has {length} samples, need >= 4")
    mean = np.mean(x, axis=1)
    centered = x - mean[:, None]
    m2, m3, m4 = (np.mean(centered**p, axis=1) for p in (2, 3, 4))
    rms = np.sqrt(np.mean(x * x, axis=1))
    ordered = np.sort(x, axis=1)
    # mode: the first longest run of one integer in the sorted row (smallest value on ties)
    ints = ordered.astype(np.int64)
    run = np.cumsum(np.diff(ints, axis=1, prepend=ints[:, :1] - 1) != 0) - 1
    run_length = np.bincount(run)[run].reshape(ints.shape)
    is_peak = _peak_mask(x)
    num_peaks = is_peak.sum(axis=1)
    peak_sum = np.where(is_peak, x[:, 1:-1], 0.0).sum(axis=1)
    var = m2.tolist()  # zero-variance windows take skewness and kurtosis 0
    columns = {
        "mean": mean,
        "mode": ints[np.arange(n), run_length.argmax(axis=1)],
        "median": ordered[:, (length - 1) // 2 : length // 2 + 1].mean(axis=1),  # as np.median
        "std_dev": np.sqrt(m2),
        "max": ordered[:, -1],
        "min": ordered[:, 0],
        "rms": rms,
        "num_peaks": num_peaks,
        "avg_peak_value": np.divide(peak_sum, num_peaks, out=np.zeros(n), where=num_peaks > 0),
        "skewness": [a / v**1.5 if v > 0 else 0.0 for a, v in zip(m3.tolist(), var)],
        "kurtosis": [b / v**2 - 3.0 if v > 0 else 0.0 for b, v in zip(m4.tolist(), var)],
        "crest_factor": np.divide(ordered[:, -1], rms, out=np.zeros(n), where=rms > 0),
    }
    return np.column_stack([columns[name] for name in FEATURE_COLUMNS])


def spectral_profile(window: RawWindow) -> SpectrumReport:
    """DC-removed DFT magnitudes and the dominant-bin-to-median ratio.

    A broadband window keeps the ratio near 1; a planted tone pushes it far
    above :data:`FLATNESS_THRESHOLD`. A constant window reports ratio 1.
    """
    x = np.asarray(window.samples, dtype=float)
    if x.size < 8:
        raise InsufficientDataError(f"window has {x.size} samples, need >= 8")
    mags = np.abs(np.fft.rfft(x - np.mean(x)))[1:]  # bins 1..n//2
    dominant = int(np.argmax(mags)) + 1
    peak = float(mags[dominant - 1])
    med = float(np.median(mags))
    if peak == 0.0:
        ratio = 1.0
    elif med == 0.0:
        ratio = float("inf")
    else:
        ratio = peak / med
    return SpectrumReport(bin_magnitudes=mags, dominant_bin=dominant, dominance_ratio=ratio)


def table_text(header, rows) -> str:
    """Comma-joined lines ending in newlines; a float cell (numpy too) as its bit-exact repr."""
    return "".join(
        ",".join(repr(float(c)) if isinstance(c, (float, np.floating)) else str(c) for c in row)
        + "\n"
        for row in [header, *rows]
    )


def write_feature_csv(path, vectors, labels=None) -> None:
    """Feature table in dataset column order, label column last.

    ``labels`` is an optional per-row list of class-name strings; omitted
    rows (or a missing list) leave the label cell empty.
    """
    vectors = list(vectors)
    if labels is not None and len(labels) != len(vectors):
        raise ValueError("labels must match vectors in length")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADERS + [LABEL_HEADER])
        for i, fv in enumerate(vectors):
            cells = [repr(getattr(fv, name)) for name in FEATURE_COLUMNS]
            label = labels[i] if labels is not None else None
            writer.writerow(cells + [label if label is not None else ""])


def read_feature_csv(path):
    """Inverse of :func:`write_feature_csv` -> (vectors, labels).

    Labels come back as strings; empty cells as None. Raises ValueError on a
    header that does not match the canonical column order, or naming the line
    of a cell that is not a number (or, for the peak count, not finite).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADERS + [LABEL_HEADER]:
            raise ValueError(f"unexpected header in {path}")
        vectors, labels = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(CSV_HEADERS) + 1:
                raise ValueError(f"row with {len(row)} cells in {path}")
            try:
                vectors.append(FeatureVector.from_array([float(c) for c in row[:-1]]))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
            labels.append(row[-1] or None)
    return vectors, labels
