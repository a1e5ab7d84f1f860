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
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .schema import FEATURE_COLUMNS, FeatureVector
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

    Columns follow :data:`FEATURE_COLUMNS`, bit for bit as the per-window
    ``np.mean((x - x.mean())**p)`` and ``m2**1.5``. If all samples are integers
    and each row's range ``hi - lo`` is below the row length, the 3rd and 4th
    powers come from a per-row table of ``(lo + k) - mean`` (exact ``lo + k``)
    gathered with ``x - lo``; other input powers each sample. Raises
    InsufficientDataError below 4 samples.
    """
    x = np.asarray(samples, dtype=float)
    n, length = x.shape
    if length < 4:
        raise InsufficientDataError(f"window has {length} samples, need >= 4")
    mean = np.add.reduce(x, axis=1) / length  # np.mean's own sum and divide, without its wrapper
    centered = x - mean[:, None]
    ordered = np.sort(x, axis=1)
    lo, hi = ordered[:, 0], ordered[:, -1]
    ints = ordered.astype(np.int64)
    span = (hi - lo).max(initial=0)
    if span < length and (ordered == ints).all():
        table = (lo[:, None] + np.arange(span + 1)) - mean[:, None]
        at = (x - lo[:, None]).astype(np.intp) + np.arange(0, table.size, table.shape[1])[:, None]
        m3, m4 = ((table**p).take(at) for p in (3, 4))  # flat indices into the C-ordered table
    else:
        m3, m4 = centered**3, centered**4
    m2, m3, m4 = (np.add.reduce(c, axis=1) / length for c in (centered * centered, m3, m4))
    rms = np.sqrt(np.add.reduce(x * x, axis=1) / length)
    # mode: the first longest run of one integer in the sorted row (smallest value on ties)
    change = np.ones(ints.shape, dtype=bool)
    np.not_equal(ints[:, 1:], ints[:, :-1], out=change[:, 1:])
    run = np.cumsum(change) - 1
    run_length = np.bincount(run)[run].reshape(ints.shape)
    is_peak = _peak_mask(x)
    num_peaks = is_peak.sum(axis=1)
    peak_sum = np.where(is_peak, x[:, 1:-1], 0.0).sum(axis=1)
    middle = ordered[:, (length - 1) // 2 : length // 2 + 1]  # as np.median
    var = m2.tolist()  # zero-variance windows take skewness and kurtosis 0
    columns = {
        "mean": mean,
        "mode": ints[np.arange(n), run_length.argmax(axis=1)],
        "median": np.add.reduce(middle, axis=1) / middle.shape[1],
        "std_dev": np.sqrt(m2),
        "max": hi,
        "min": lo,
        "rms": rms,
        "num_peaks": num_peaks,
        "avg_peak_value": np.divide(peak_sum, num_peaks, out=np.zeros(n), where=num_peaks > 0),
        "skewness": [a / v**1.5 if v > 0 else 0.0 for a, v in zip(m3.tolist(), var)],
        "kurtosis": [b / v**2 - 3.0 if v > 0 else 0.0 for b, v in zip(m4.tolist(), var)],
        "crest_factor": np.divide(hi, rms, out=np.zeros(n), where=rms > 0),
    }
    out = np.empty((n, len(FEATURE_COLUMNS)))
    for i, name in enumerate(FEATURE_COLUMNS):
        out[:, i] = columns[name]
    return out


def spectral_profile(window: RawWindow) -> SpectrumReport:
    """DC-removed DFT magnitudes and the dominant-bin-to-median ratio.

    A broadband window keeps the ratio near 1; a planted tone pushes it far
    above :data:`FLATNESS_THRESHOLD`. A constant window reports ratio 1.
    """
    return spectral_profiles(np.reshape(window.samples, (1, -1)))[0]


def spectral_profiles(samples) -> list[SpectrumReport]:
    """:func:`spectral_profile` of each row of an (n, N) array; InsufficientDataError below 8."""
    x = np.asarray(samples, dtype=float)
    if x.shape[1] < 8:
        raise InsufficientDataError(f"window has {x.shape[1]} samples, need >= 8")
    mags = np.abs(np.fft.rfft(x - x.mean(axis=1, keepdims=True), axis=1))[:, 1:]
    tops, meds = np.argmax(mags, axis=1).tolist(), np.median(mags, axis=1).tolist()
    peaks = [float(row[top]) for row, top in zip(mags, tops)]
    ratios = [1.0 if p == 0 else float("inf") if m == 0 else p / m for p, m in zip(peaks, meds)]
    return [SpectrumReport(*report) for report in zip(mags, [t + 1 for t in tops], ratios)]


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
    of a cell that is not a number (or, for the peak count, not finite) or
    that csv cannot read.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
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
        except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    return vectors, labels
