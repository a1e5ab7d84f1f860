"""Linear least squares relating mean window amplitude to floor index.

Vertical (floor-surface) vibration grows with floor index; horizontal
(pillar-surface) vibration shrinks. ``height_analysis`` fits the line and
reports the slope-sign verdict, flagging a mismatch against an expected sign
without failing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError
from .signalsim import RawWindow


@dataclass(frozen=True)
class FloorObservation:
    floor_index: int
    orientation: str
    mean_amplitude: float


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual_rms: float
    n: int

    def equation(self) -> str:
        return f"mean_amplitude = {self.slope:.6g} * floor_index + {self.intercept:.6g}"


def linear_fit(points) -> FitResult:
    """Ordinary least squares y = m*x + c from (x, y) pairs."""
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError("need at least 2 (x, y) points")
    x, y = pts[:, 0], pts[:, 1]
    if np.all(x == x[0]):
        raise DegenerateFitError("all x values identical; slope undefined")
    xm, ym = x.mean(), y.mean()
    m = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    c = float(ym - m * xm)
    resid = y - (m * x + c)
    return FitResult(m, c, float(np.sqrt(np.mean(resid**2))), len(pts))


def floor_profile(windows: list[RawWindow], orientation: str) -> list[FloorObservation]:
    """One observation per floor: mean of the per-window sample means."""
    per_floor: dict[int, list[float]] = {}
    floors_seen = set()
    for w in windows:
        if w.floor_index is None:
            raise ValueError("window lacks a floor_index")
        floors_seen.add(w.floor_index)
        if w.orientation == orientation:
            per_floor.setdefault(w.floor_index, []).append(float(np.mean(w.samples)))
    missing = sorted(floors_seen - set(per_floor))
    if missing:
        raise ValueError(f"no {orientation} windows for floors {missing}")
    return [
        FloorObservation(floor, orientation, float(np.mean(means)))
        for floor, means in sorted(per_floor.items())
    ]


#: slopes with |m| below this count as flat
FLAT_SLOPE_TOL = 0.05


@dataclass(frozen=True)
class HeightAnalysis:
    fit: FitResult
    verdict: str  # "positive" | "negative" | "flat"
    sign_mismatch: bool


def height_analysis(
    observations: list[FloorObservation], expected_sign: str | None = None
) -> HeightAnalysis:
    """Fit amplitude vs floor and classify the slope sign."""
    fit = linear_fit([(o.floor_index, o.mean_amplitude) for o in observations])
    if abs(fit.slope) < FLAT_SLOPE_TOL:
        verdict = "flat"
    elif fit.slope > 0:
        verdict = "positive"
    else:
        verdict = "negative"
    mismatch = expected_sign is not None and verdict != expected_sign
    return HeightAnalysis(fit=fit, verdict=verdict, sign_mismatch=mismatch)
