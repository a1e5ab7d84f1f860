"""The names a parser, a wire record or a checkpoint header needs, without numpy.

The structure classes, the 12 feature columns and the CNN's grid axes live
here, so that the CLI's parser, ``vibsense serve`` and ``vibsense report``
can use them without importing numpy or the modules that compute with it.
``signalsim``, ``features`` and ``cnn`` import these same objects.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum


class StructureClass(Enum):
    """The five structure categories, in canonical (encoding) order."""

    BUILDING = "building"
    FLYOVER = "flyover"
    RAILLINE = "railline"
    STEEL_OVERBRIDGE = "steel_overbridge"
    CONCRETE_OVERBRIDGE = "concrete_overbridge"

    @classmethod
    def from_name(cls, name: str) -> "StructureClass":
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown structure class {name!r}") from None


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

    def as_array(self):
        """Values in :data:`FEATURE_COLUMNS` order, as a float numpy array."""
        import numpy as np

        return np.array([getattr(self, name) for name in FEATURE_COLUMNS], dtype=float)

    @classmethod
    def from_array(cls, values) -> "FeatureVector":
        kwargs = dict(zip(FEATURE_COLUMNS, map(float, values)))
        kwargs["num_peaks"] = int(round(kwargs["num_peaks"]))
        return cls(**kwargs)


# Canonical CSV column order for feature tables (label column last).
FEATURE_COLUMNS = [f.name for f in fields(FeatureVector)]


# The paper's grid: the legal values of each CnnHyperparams axis, in grid order.
DEFAULT_GRIDS = {
    "batch_size": [50, 100, 200, 400],
    "kernel_length": [1, 2, 3, 4],
    "base_filters": [4, 8, 16, 32],
    "activation": ["relu", "elu", "tanh", "sigmoid"],
}

DEPTH = 5  # conv blocks
EPOCHS = 1000


@dataclass(frozen=True)
class CnnHyperparams:
    batch_size: int = 100
    kernel_length: int = 3
    base_filters: int = 32
    activation: str = "elu"
    n_classes: int = 5

    def __post_init__(self):
        for axis, legal in DEFAULT_GRIDS.items():
            value = getattr(self, axis)
            if type(value) is not type(legal[0]) or value not in legal:
                raise ValueError(f"{axis} must be one of {legal}, got {value!r}")
        if type(self.n_classes) is not int or self.n_classes < 1:
            raise ValueError(f"n_classes must be a positive integer, got {self.n_classes!r}")

    def channel_counts(self) -> list[int]:
        return [2**r * self.base_filters for r in range(DEPTH)]
