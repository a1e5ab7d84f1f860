"""Class-conditioned synthetic vibration signals and the analog front end.

The front-end model mirrors the sensing chain: piezo voltage -> x100
amplifier -> 10-bit ADC sampling at 200 Hz over 8-second windows. Synthetic
signals are Gaussian background noise plus a Poisson train of exponentially
decaying impulses (foot strikes, passing vehicles) on a DC pedestal, clamped
to the ADC range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InvalidSignalError, ProfileRangeError
from .schema import StructureClass


ORIENT_VERTICAL = "vertical"
ORIENT_HORIZONTAL = "horizontal"


# The sensing chain, fixed as in the paper: x100 amplifier, 10-bit ADC
# against a 5 V reference, 200 Hz sampling over 8-second windows.
GAIN = 100.0
VREF = 5.0
ADC_MAX = 1023
SAMPLE_RATE_HZ = 200.0
WINDOW_S = 8.0
WINDOW_SAMPLES = 1600  # SAMPLE_RATE_HZ * WINDOW_S


@dataclass(frozen=True)
class ClassProfile:
    """Generative parameters for one structure class, in ADC counts."""

    structure: StructureClass
    base_noise_rms: float
    impulse_rate: float  # events per second
    impulse_amplitude_mean: float
    impulse_amplitude_sd: float
    impulse_decay_tau: float  # seconds
    dc_offset: float

    def __post_init__(self):
        nonneg = (
            self.base_noise_rms,
            self.impulse_rate,
            self.impulse_amplitude_mean,
            self.impulse_amplitude_sd,
            self.dc_offset,
        )
        if any(v < 0 for v in nonneg):
            raise ValueError("amplitude fields and impulse_rate must be >= 0")
        if self.impulse_decay_tau <= 0:
            raise ValueError("impulse_decay_tau must be > 0")


@dataclass
class RawWindow:
    """One window of integer ADC samples with sampling metadata."""

    samples: np.ndarray
    sample_rate_hz: float
    source: StructureClass | None = None
    floor_index: int | None = None
    orientation: str | None = None

    def __len__(self):
        return len(self.samples)


@dataclass(frozen=True)
class BuildingLaw:
    """Linear mean-amplitude-vs-floor law, ``mean = m * floor + c``."""

    slope: float
    intercept: float
    orientation: str = ORIENT_VERTICAL


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # np.round is half-to-even; the ADC model rounds halves away from zero.
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _quantize(level: np.ndarray) -> np.ndarray:
    counts = _round_half_away(np.asarray(level, dtype=float))
    return np.clip(counts, 0, ADC_MAX).astype(np.int32)


def front_end(analog) -> RawWindow:
    """Push an analog voltage trace through amplifier, ADC and clamping.

    Each sample maps to ``clamp(round(v * GAIN / VREF * ADC_MAX), 0, ADC_MAX)``
    with round-half-away-from-zero. Length is preserved.
    """
    volts = np.asarray(analog, dtype=float)
    if not np.all(np.isfinite(volts)):
        raise InvalidSignalError("analog input contains non-finite samples")
    counts = _quantize(volts * GAIN / VREF * ADC_MAX)
    return RawWindow(samples=counts, sample_rate_hz=SAMPLE_RATE_HZ)


def synth_window(profile: ClassProfile, seed: int = 0) -> RawWindow:
    """Generate one labeled window for ``profile``, deterministic in ``seed``.

    Signal model: DC pedestal + Gaussian noise + Poisson-arrival impulses
    with exponential decay, then quantized and clamped to the ADC range.
    """
    rng = np.random.default_rng(seed)
    n = WINDOW_SAMPLES
    t = np.arange(n) / SAMPLE_RATE_HZ

    level = profile.dc_offset + rng.normal(0.0, profile.base_noise_rms or 0.0, n)
    n_events = rng.poisson(profile.impulse_rate * WINDOW_S)
    if n_events:
        starts = rng.uniform(0.0, WINDOW_S, n_events)
        amps = rng.normal(
            profile.impulse_amplitude_mean, profile.impulse_amplitude_sd, n_events
        )
        np.maximum(amps, 0.0, out=amps)
        for t0, amp in zip(starts, amps):
            i0 = int(np.searchsorted(t, t0))
            if i0 >= n or amp == 0.0:
                continue
            decay = (t[i0:] - t0) / profile.impulse_decay_tau
            level[i0:] += amp * np.exp(-np.minimum(decay, 50.0))

    return RawWindow(
        samples=_quantize(level), sample_rate_hz=SAMPLE_RATE_HZ, source=profile.structure
    )


def building_series(
    law: BuildingLaw,
    floor_index: int,
    noise_sd: float = 0.0,
    seed: int = 0,
) -> RawWindow:
    """Window whose expected mean equals ``law.slope * floor + law.intercept``."""
    if floor_index < 0:
        raise ValueError("floor_index must be >= 0")
    expected = law.slope * floor_index + law.intercept
    if not 0 <= expected <= ADC_MAX:
        raise ProfileRangeError(f"expected mean {expected:.2f} outside ADC range [0, {ADC_MAX}]")
    rng = np.random.default_rng(seed)
    level = expected + (rng.normal(0.0, noise_sd, WINDOW_SAMPLES) if noise_sd > 0 else 0.0)
    return RawWindow(
        samples=_quantize(level),
        sample_rate_hz=SAMPLE_RATE_HZ,
        floor_index=floor_index,
        orientation=law.orientation,
    )


# Generative profiles per class, calibrated so the grand mean of window means
# lands near the observed per-class scale (building ~20, flyover ~28,
# railline ~63, steel ~155, concrete ~25 ADC counts) while keeping the five
# classes separable in the 12-feature space.
DEFAULT_PROFILES: dict[StructureClass, ClassProfile] = {profile.structure: profile for profile in (
    ClassProfile(
        structure=StructureClass.BUILDING,
        base_noise_rms=7.0,
        impulse_rate=1.2,
        impulse_amplitude_mean=28.0,
        impulse_amplitude_sd=12.0,
        impulse_decay_tau=0.06,
        dc_offset=19.0,
    ),
    ClassProfile(
        structure=StructureClass.FLYOVER,
        base_noise_rms=14.0,
        impulse_rate=3.5,
        impulse_amplitude_mean=50.0,
        impulse_amplitude_sd=25.0,
        impulse_decay_tau=0.13,
        dc_offset=0.0,
    ),
    ClassProfile(
        structure=StructureClass.RAILLINE,
        base_noise_rms=1.9,
        impulse_rate=0.25,
        impulse_amplitude_mean=3.0,
        impulse_amplitude_sd=1.0,
        impulse_decay_tau=0.1,
        dc_offset=63.0,
    ),
    ClassProfile(
        structure=StructureClass.STEEL_OVERBRIDGE,
        base_noise_rms=55.0,
        impulse_rate=3.0,
        impulse_amplitude_mean=280.0,
        impulse_amplitude_sd=140.0,
        impulse_decay_tau=0.16,
        dc_offset=0.0,
    ),
    ClassProfile(
        structure=StructureClass.CONCRETE_OVERBRIDGE,
        base_noise_rms=9.0,
        impulse_rate=0.55,
        impulse_amplitude_mean=105.0,
        impulse_amplitude_sd=35.0,
        impulse_decay_tau=0.35,
        dc_offset=0.0,
    ),
)}

# Published mean-amplitude-vs-floor laws: two buildings, vertical (floor
# surface) slopes positive, horizontal (pillar surface) slopes negative.
REFERENCE_LAWS: dict[str, BuildingLaw] = {
    "building1_vertical": BuildingLaw(0.12, 20.3, ORIENT_VERTICAL),
    "building2_vertical": BuildingLaw(4.46, 21.2, ORIENT_VERTICAL),
    "building1_horizontal": BuildingLaw(-0.2, 28.2, ORIENT_HORIZONTAL),
    "building2_horizontal": BuildingLaw(-0.6, 29.9, ORIENT_HORIZONTAL),
}


# Orientation <-> its code in a window CSV's metadata line
_ORIENT_CODES = {ORIENT_VERTICAL: "v", ORIENT_HORIZONTAL: "h", None: "-"}
_ORIENT_FROM_CODE = {code: orientation for orientation, code in _ORIENT_CODES.items()}


# Text of each value in the ADC range; other values go through str().
_ADC_TEXT = {v: str(v) for v in range(ADC_MAX + 1)}


@lru_cache(maxsize=8)
def _row_prefixes(n: int) -> tuple[str, ...]:
    return tuple(f"\n{i}," for i in range(n))


def write_window_csv(window: RawWindow, path) -> None:
    """Persist a window as ``t_index,adc`` CSV with a metadata comment line.

    Each adc cell is ``int(sample)``, so float samples truncate toward zero.
    """
    cls = window.source.value if window.source is not None else "-"
    floor = str(window.floor_index) if window.floor_index is not None else "-"
    samples = np.asarray(window.samples)
    values = samples.tolist() if samples.dtype.kind in "iu" else list(map(int, samples.tolist()))
    parts = [""] * (2 * len(values))
    parts[0::2] = _row_prefixes(len(values))
    try:
        parts[1::2] = map(_ADC_TEXT.__getitem__, values)
    except KeyError:
        parts[1::2] = map(str, values)
    Path(path).write_text(
        f"# rate_hz={round(window.sample_rate_hz)} class={cls} "
        f"floor={floor} orient={_ORIENT_CODES[window.orientation]}\n"
        "t_index,adc" + "".join(parts) + "\n"
    )


def read_window_csv(path) -> RawWindow:
    """Inverse of :func:`write_window_csv`.

    Raises ValueError naming ``path`` for a missing metadata key, a missing
    or non-integer cell, or a data line that does not hold two cells.
    """
    lines = Path(path).read_text().strip().split("\n", 2)
    if len(lines) < 3 or not lines[0].startswith("#"):
        raise ValueError(f"{path}: not a window CSV")
    head, _, body = lines
    try:
        cells = np.fromstring(body.replace("\n", ","), dtype=np.int64, sep=",")
    except ValueError:
        raise ValueError(f"{path}: a data cell is missing or not an integer") from None
    # Each cell is -?[0-9]+: with digits and minus signs gone the body reads
    # ",\n,\n...,", and no minus sign stands alone (fromstring reads "-" as 0).
    n_lines = cells.size // 2
    layout = body.encode().translate(None, b"0123456789-")
    # "-" first: a two-character search over a body of commas costs about 100 times more
    lone_sign = "-" in body and ("-," in body or "-\n" in body or body.endswith("-"))
    if cells.size % 2 or layout != b",\n" * (n_lines - 1) + b"," or lone_sign:
        raise ValueError(f"{path}: every data line must hold two integer cells, t_index,adc")
    samples = cells[1::2].astype(np.int32)
    if not np.array_equal(samples, cells[1::2]):
        raise ValueError(f"{path}: an adc value is outside the int32 range")
    meta = dict(item.partition("=")[::2] for item in head.lstrip("# ").split())
    try:
        return RawWindow(
            samples=samples,
            sample_rate_hz=float(meta["rate_hz"]),
            source=None if meta["class"] == "-" else StructureClass(meta["class"]),
            floor_index=None if meta["floor"] == "-" else int(meta["floor"]),
            orientation=_ORIENT_FROM_CODE[meta["orient"]],
        )
    except (KeyError, ValueError) as exc:  # a key missing, or a value it cannot hold
        raise ValueError(f"{path}: bad metadata line {head!r}: {exc!r}") from None


def simulate_corpus(
    count: int = 1159,
    profiles: dict[StructureClass, ClassProfile] | None = None,
    seed: int = 0,
) -> list[RawWindow]:
    """Generate a labeled corpus of ``count`` windows across the five classes.

    Counts per class follow largest-remainder apportionment of an even split;
    window seeds derive deterministically from ``seed``.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    profiles = profiles or DEFAULT_PROFILES
    classes = list(profiles)
    shares = _apportion(count, [1.0 / len(classes)] * len(classes))
    windows = []
    k = 0
    for cls, n_cls in zip(classes, shares):
        for _ in range(n_cls):
            windows.append(synth_window(profiles[cls], seed=seed * 1_000_003 + k))
            k += 1
    return windows


def _apportion(total: int, ratios) -> list[int]:
    """Largest-remainder split of ``total`` items by ``ratios``."""
    exact = [total * r for r in ratios]
    counts = [math.floor(e) for e in exact]
    leftover = total - sum(counts)
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts
