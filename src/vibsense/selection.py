"""Pearson correlation of features against the class label, with p-values.

The label enters as an integer encoding in canonical class order (building 0,
flyover 1, railline 2, steel overbridge 3, concrete overbridge 4). Selection
keeps features with |r| >= R_MIN and p < P_MAX, the paper's rule (0.4, 5e-5),
which picks out mean, standard deviation, max, RMS and average-of-peaks on
the reference correlation table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import LabeledDataset
from .errors import UndefinedCorrelationError
from .features import FEATURE_COLUMNS, table_text

CORRELATION_CSV_HEADERS = ["Features", "Correlation value", "Prediction value"]

R_MIN = 0.4
P_MAX = 5e-5


@dataclass
class CorrelationReport:
    features: list[str]
    r: np.ndarray
    p: np.ndarray
    n: int


def pearson_r(x, y) -> float:
    """Pearson correlation via population moments. Raises UndefinedCorrelationError
    if a sequence is constant (min == max), and ValueError on non-finite input or
    if a mean squared deviation overflows to inf or underflows to 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length 1-D sequences")
    if len(x) < 3:
        raise ValueError("need at least 3 points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    if x.min() == x.max() or y.min() == y.max():
        raise UndefinedCorrelationError("correlation undefined for a constant sequence")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below, with a reason
        xd = x - x.mean()
        yd = y - y.mean()
        sx = np.sqrt(np.mean(xd**2))
        sy = np.sqrt(np.mean(yd**2))
    for name, s in (("x", sx), ("y", sy)):
        if not 0 < s < np.inf:
            raise ValueError(f"the mean squared deviation of {name} "
                             f"{'underflows to 0' if s == 0 else 'overflows'} in float64")
    r = float(np.mean(xd * yd) / (sx * sy))
    return min(1.0, max(-1.0, r))


def p_value(r: float, n: int) -> float:
    """Two-sided p of observing |r| under the null, exact t distribution.

    Uses t = r * sqrt((n - 2) / (1 - r^2)) with n - 2 degrees of freedom;
    the tail mass comes from the regularized incomplete beta function, so
    extreme thresholds (5e-5 at n ~ 1000) stay accurate. scipy loads on the
    first call, so only the commands that select features pay its import.
    """
    from scipy.special import betainc

    if n < 3:
        raise ValueError("need n >= 3")
    if not -1 <= r <= 1:
        raise ValueError("r must lie in [-1, 1]")
    if abs(r) == 1.0:
        return 0.0
    df = n - 2
    t2 = r * r * df / (1.0 - r * r)
    return float(betainc(df / 2.0, 0.5, df / (df + t2)))


def correlation_table(
    ds: LabeledDataset, feature_names: list[str] | None = None
) -> CorrelationReport:
    """Per-feature r and p against the class index; ValueError unless ``feature_names``
    (by default :data:`FEATURE_COLUMNS`) holds one name per column of ``ds``."""
    names = list(FEATURE_COLUMNS if feature_names is None else feature_names)
    if len(names) != ds.rows.shape[1]:
        raise ValueError(f"{len(names)} feature names for {ds.rows.shape[1]} columns; "
                         "pass feature_names for a subset of the columns")
    if len(ds) < 3:
        raise ValueError("need at least 3 samples")
    encoded = ds.labels.astype(float)
    if np.unique(encoded).size < 2:
        raise UndefinedCorrelationError("correlation undefined for a single-class dataset")

    r = np.empty(ds.rows.shape[1])
    p = np.empty(ds.rows.shape[1])
    for j in range(ds.rows.shape[1]):
        r[j] = pearson_r(ds.rows[:, j], encoded)
        p[j] = p_value(r[j], len(ds))
    return CorrelationReport(features=names, r=r, p=p, n=len(ds))


def select_features(report: CorrelationReport) -> np.ndarray:
    """Boolean mask of features whose |r| >= R_MIN and p < P_MAX."""
    return (np.abs(report.r) >= R_MIN) & (report.p < P_MAX)


def correlation_csv(report: CorrelationReport) -> str:
    return table_text(CORRELATION_CSV_HEADERS, zip(report.features, report.r, report.p))


def read_correlation_csv(text: str) -> CorrelationReport:
    """Parse a Features/Correlation/Prediction CSV into a report; ValueError names a bad line."""
    lines = [(i, ln.split(",")) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != CORRELATION_CSV_HEADERS:
        raise ValueError(f"line 1: want the header {','.join(CORRELATION_CSV_HEADERS)}")
    features, r, p = [], [], []
    for lineno, row in lines[1:]:
        try:
            name, r_cell, p_cell = row
            r.append(float(r_cell))
            p.append(float(p_cell))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: want a name and two numbers: {exc}") from None
        if not (-1.0 <= r[-1] <= 1.0 and 0.0 <= p[-1] <= 1.0):
            raise ValueError(f"line {lineno}: want r in [-1, 1] and p in [0, 1], got {r_cell}, {p_cell}")
        if name not in FEATURE_COLUMNS or name in features:
            raise ValueError(f"line {lineno}: want each name once, from {list(FEATURE_COLUMNS)}; "
                             f"got {name!r}")
        features.append(name)
    return CorrelationReport(features=features, r=np.array(r), p=np.array(p), n=0)
