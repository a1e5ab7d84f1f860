"""Pearson correlation of features against the class label, with p-values.

The label enters as an integer encoding in canonical class order (building 0,
flyover 1, railline 2, steel overbridge 3, concrete overbridge 4). Selection
keeps features with |r| >= R_MIN and p < P_MAX, the paper's rule (0.4, 5e-5),
which picks out mean, standard deviation, max, RMS and average-of-peaks on
the reference correlation table.
"""

from __future__ import annotations

import math
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
    if a sequence is constant (min == max), and ValueError on non-finite input.

    Each sequence is first scaled by the power of two that brings its largest
    magnitude into [0.5, 1). That is exact and leaves r's bits as they were at
    ordinary scales, and no product of deviations overflows or goes subnormal."""
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
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    y = np.ldexp(y, -np.frexp(np.abs(y).max())[1])
    xd = x - x.mean()
    yd = y - y.mean()
    r = float(np.mean(xd * yd) / (np.sqrt(np.mean(xd**2)) * np.sqrt(np.mean(yd**2))))
    return min(1.0, max(-1.0, r))


def p_value(r: float, n: int) -> float:
    """Two-sided p of observing |r| under the null, exact t distribution.

    With t = r * sqrt((n - 2) / (1 - r^2)) on n - 2 degrees of freedom, the tail
    mass is I_{1-r^2}((n - 2) / 2, 1/2), the regularized incomplete beta function,
    so extreme thresholds (5e-5 at n ~ 1000) stay accurate.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not -1 <= r <= 1:
        raise ValueError("r must lie in [-1, 1]")
    if abs(r) == 1.0:
        return 0.0
    r2 = r * r
    if r2 == 0.0:  # r = 0, or so small that the tail is 1 to rounding
        return 1.0
    return _betainc((n - 2) / 2.0, 0.5, 1.0 - r2, r2)


_BETAINC_MAX_TERMS = 1000  # p_value needs at most 56 from n = 3 to 10^7
_TINY = 1e-300  # Lentz's guard against a zero denominator


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b) for 0 < x < 1, given y = 1 - x apart.

    Lentz's method (Numerical Recipes 3rd ed. §5.2) evaluates DiDonato and
    Morris's continued fraction (ACM TOMS 18(3), 1992, Algorithm 708, BFRAC),
    whose terms take lambda = a - (a + b) x from whichever of x and y is smaller:
    the Numerical Recipes §6.4 fraction computes 1 - (a + b) x / (a + 1), which
    cancels to ~1e-10 relative when a ~ 1e6 and x ~ 1. The fraction converges
    fast for x < (a + 1) / (a + b + 2), so beyond that I_x(a, b) is taken as
    1 - I_y(b, a).
    """
    flip = x > (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x, y = b, a, y, x
    log_x = math.log(x) if x < 0.5 else math.log1p(-y)
    log_y = math.log(y) if y < 0.5 else math.log1p(-x)
    front = math.exp(a * log_x + b * log_y - _log_beta(a, b))  # x^a y^b / B(a, b)
    if front == 0.0:
        return 1.0 if flip else 0.0
    lam = a - (a + b) * x if x < y else (a + b) * y - b
    f = c = (1.0 + lam) * a / (a + 1.0)
    d = 0.0
    for n in range(1, _BETAINC_MAX_TERMS + 1):
        w = a + 2 * n - 1
        alpha = n * (b - n) * (a + n - 1) * (a + b + n - 1) * x * x / (w * w)
        beta = n + n * (b - n) * x / w + (a + n) * (1.0 + lam + n * (1.0 + y)) / (w + 2)
        d = beta + alpha * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = beta + alpha / c
        c = c if abs(c) > _TINY else _TINY
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-15:
            return 1.0 - front / f if flip else front / f
    raise ArithmeticError(f"incomplete beta I_{x}({a}, {b}): no convergence "
                          f"in {_BETAINC_MAX_TERMS} terms")


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b). Once the larger argument reaches 30, lgamma(a) - lgamma(a + b)
    comes from Stirling's series, where two lgammas would lose ~1e-16 of a ln a."""
    a, b = max(a, b), min(a, b)
    if a < 30:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (math.lgamma(b) + b - b * math.log(a) - (a + b - 0.5) * math.log1p(b / a)
            + _stirling_remainder(a) - _stirling_remainder(a + b))


def _stirling_remainder(a: float) -> float:
    """lgamma(a) - ((a - 1/2) ln a - a + ln sqrt(2 pi)), to rounding for a >= 30."""
    z = 1.0 / (a * a)
    return (1 / 12 - z * (1 / 360 - z * (1 / 1260 - z / 1680))) / a


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
