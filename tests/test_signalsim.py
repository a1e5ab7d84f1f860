import numpy as np
import pytest

from conftest import FIELD_SAMPLE_ROWS
from vibsense.errors import InvalidSignalError, ProfileRangeError
from vibsense.signalsim import (
    ADC_MAX,
    DEFAULT_PROFILES,
    ORIENT_HORIZONTAL,
    ORIENT_VERTICAL,
    REFERENCE_LAWS,
    BuildingLaw,
    ClassProfile,
    RawWindow,
    SAMPLE_RATE_HZ,
    WINDOW_S,
    WINDOW_SAMPLES,
    StructureClass,
    _apportion,
    building_series,
    front_end,
    read_window_csv,
    simulate_corpus,
    synth_window,
    write_window_csv,
)


# ------------------------------------------------------------------ front end


def test_front_end_zero_volts():
    out = front_end(np.zeros(100))
    assert np.all(out.samples == 0)
    assert len(out) == 100


def test_front_end_saturates_at_adc_max():
    # 0.05 V * gain 100 = 5 V = vref -> full scale; anything above clips
    for volts in (0.05, 0.07, 2.0):
        out = front_end(np.full(16, volts))
        assert np.all(out.samples == 1023)


def test_front_end_midscale_rounds_half_away():
    # 0.025 V -> 0.5 * 1023 = 511.5 -> 512
    out = front_end(np.full(8, 0.025))
    assert np.all(out.samples == 512)


def test_front_end_clamps_negative_to_zero():
    out = front_end(np.full(8, -0.3))
    assert np.all(out.samples == 0)


def test_front_end_rejects_non_finite():
    with pytest.raises(InvalidSignalError):
        front_end([0.0, np.nan, 0.0])


def test_front_end_monotone():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.uniform(-0.01, 0.06, size=64)
        b = a + rng.uniform(0, 0.02, size=64)
        out_a = front_end(a).samples
        out_b = front_end(b).samples
        assert np.all(out_a <= out_b)


def test_config_validation():
    assert ADC_MAX == 2**10 - 1
    assert WINDOW_SAMPLES == round(SAMPLE_RATE_HZ * WINDOW_S) == 1600


# ---------------------------------------------------------------- synthesis


def test_synth_deterministic():
    profile = DEFAULT_PROFILES[StructureClass.FLYOVER]
    a = synth_window(profile, seed=42)
    b = synth_window(profile, seed=42)
    c = synth_window(profile, seed=43)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert a.source is StructureClass.FLYOVER
    assert len(a) == 1600


def test_synth_degenerate_profile_is_dc():
    profile = ClassProfile(
        structure=StructureClass.RAILLINE,
        base_noise_rms=0.0,
        impulse_rate=0.0,
        impulse_amplitude_mean=0.0,
        impulse_amplitude_sd=0.0,
        impulse_decay_tau=0.1,
        dc_offset=63.0,
    )
    out = synth_window(profile, seed=1)
    assert np.all(out.samples == 63)


def test_synth_fuzz_stays_in_adc_range():
    rng = np.random.default_rng(99)
    for k in range(1000):
        profile = ClassProfile(
            structure=StructureClass.BUILDING,
            base_noise_rms=float(rng.uniform(0, 300)),
            impulse_rate=float(rng.uniform(0, 10)),
            impulse_amplitude_mean=float(rng.uniform(0, 2000)),
            impulse_amplitude_sd=float(rng.uniform(0, 500)),
            impulse_decay_tau=float(rng.uniform(0.01, 1.0)),
            dc_offset=float(rng.uniform(0, 1200)),
        )
        s = synth_window(profile, seed=k).samples
        assert s.min() >= 0 and s.max() <= 1023
        assert np.issubdtype(s.dtype, np.integer)


def test_profile_validation():
    with pytest.raises(ValueError):
        ClassProfile(StructureClass.BUILDING, -1, 0, 0, 0, 0.1, 0)
    with pytest.raises(ValueError):
        ClassProfile(StructureClass.BUILDING, 0, 0, 0, 0, 0.0, 0)


def test_default_profiles_match_field_scale():
    # grand mean of window means within +-30% of each field-table row mean
    for cls, profile in DEFAULT_PROFILES.items():
        target = FIELD_SAMPLE_ROWS[cls.value][0]
        means = [
            float(np.mean(synth_window(profile, seed=1000 + k).samples))
            for k in range(400)
        ]
        grand = float(np.mean(means))
        assert 0.7 * target <= grand <= 1.3 * target, (cls, grand, target)


def test_steel_profile_calibration_bulk():
    # the widest-range class gets a deeper check: 10k windows, +-30% band
    profile = DEFAULT_PROFILES[StructureClass.STEEL_OVERBRIDGE]
    target = FIELD_SAMPLE_ROWS["steel_overbridge"][0]
    acc = 0.0
    for k in range(10_000):
        acc += float(np.mean(synth_window(profile, seed=k).samples))
    grand = acc / 10_000
    assert 0.7 * target <= grand <= 1.3 * target


# ------------------------------------------------------------ building series


def test_building_series_zero_noise_means():
    # with no noise the window is a quantized constant, so the mean sits
    # within rounding distance of the law
    for law in REFERENCE_LAWS.values():
        for floor in range(0, 11):
            out = building_series(law, floor)
            want = law.slope * floor + law.intercept
            assert abs(float(np.mean(out.samples)) - want) <= 0.5
            assert out.floor_index == floor
            assert out.orientation == law.orientation


def test_building_series_examples():
    assert float(np.mean(building_series(BuildingLaw(0, 50.0), 3).samples)) == 50.0
    out = building_series(BuildingLaw(-0.6, 29.9, ORIENT_HORIZONTAL), 10)
    assert abs(float(np.mean(out.samples)) - 23.9) <= 0.5


def test_building_series_range_errors():
    with pytest.raises(ValueError):
        building_series(BuildingLaw(1.0, 10.0), -1)
    with pytest.raises(ProfileRangeError):
        building_series(BuildingLaw(4.46, 21.2), 300)
    with pytest.raises(ProfileRangeError):
        building_series(BuildingLaw(-0.6, 2.0), 10)


def test_building_series_noisy_mean_is_unbiased():
    law = REFERENCE_LAWS["building2_vertical"]
    means = [
        float(np.mean(building_series(law, 4, noise_sd=3.0, seed=s).samples))
        for s in range(200)
    ]
    want = law.slope * 4 + law.intercept
    assert abs(float(np.mean(means)) - want) <= 0.5


# ---------------------------------------------------------------------- csv


def test_window_csv_round_trip(tmp_path):
    window = synth_window(DEFAULT_PROFILES[StructureClass.BUILDING], seed=5)
    window.floor_index = 3
    window.orientation = ORIENT_VERTICAL
    path = tmp_path / "w.csv"
    write_window_csv(window, path)
    back = read_window_csv(path)
    assert np.array_equal(back.samples, window.samples)
    assert back.sample_rate_hz == 200.0
    assert back.source is StructureClass.BUILDING
    assert back.floor_index == 3
    assert back.orientation == ORIENT_VERTICAL


def test_window_csv_unlabeled_round_trip(tmp_path):
    window = front_end(np.full(10, 0.01))
    path = tmp_path / "w.csv"
    write_window_csv(window, path)
    back = read_window_csv(path)
    assert back.source is None and back.floor_index is None
    assert back.orientation is None


def test_window_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_index,adc\n0,1\n")
    with pytest.raises(ValueError):
        read_window_csv(path)


def _line_by_line_csv(window):
    """The window CSV as a per-line f-string writer lays it out."""
    lines = [
        f"# rate_hz={round(window.sample_rate_hz)} class={window.source.value} floor=- orient=-",
        "t_index,adc",
    ]
    lines.extend(f"{i},{int(v)}" for i, v in enumerate(window.samples))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "samples",
    [
        np.array([0, 1, 1023, 17, 5], dtype=np.int32),
        np.array([-3, 0, 1024, 70000, -2**31, 2**31 - 1], dtype=np.int32),
        np.array([0.9, -0.9, 2.5, -2.5, 1023.99, 1e6 + 0.5]),
        np.array([3, 1, 4], dtype=np.int64),
    ],
)
def test_window_csv_bytes_match_the_line_by_line_layout(tmp_path, samples):
    window = RawWindow(samples=samples, sample_rate_hz=200.0, source=StructureClass.FLYOVER)
    path = tmp_path / "w.csv"
    write_window_csv(window, path)
    assert path.read_bytes() == _line_by_line_csv(window).encode()
    assert read_window_csv(path).samples.tolist() == [int(v) for v in samples]


def test_window_csv_reads_crlf_line_endings(tmp_path):
    window = synth_window(DEFAULT_PROFILES[StructureClass.RAILLINE], seed=2)
    path = tmp_path / "w.csv"
    write_window_csv(window, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    back = read_window_csv(path)
    assert np.array_equal(back.samples, window.samples)
    assert back.source is StructureClass.RAILLINE


@pytest.mark.parametrize(
    "text",
    [
        "0,6\n1\n2,8\n",  # a line without its adc cell
        "0,6\n1,\n2,8\n",  # an empty adc cell
        "0,6\n1,x\n2,8\n",  # a non-integer adc cell
        "0,6\n1,7.5\n2,8\n",
        "0,6\n1, \n2,8\n",  # a blank adc cell
        "0,6\n1,-\n2,8\n",  # a sign without digits
        "0,6\n1,+7\n2,8\n",
        "0,6\n\n1,7\n",  # a blank line inside the data
        "0,6\n1,7,9\n2,8\n",  # a third cell
        "0,6,1\n7\n2,8\n",  # cells that add up but sit on the wrong lines
        "0,6\n1,99999999999\n",  # an adc value beyond int32
    ],
)
def test_window_csv_rejects_malformed_data_naming_the_file(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text("# rate_hz=200 class=building floor=- orient=-\nt_index,adc\n" + text)
    with pytest.raises(ValueError, match="bad.csv"):
        read_window_csv(path)


@pytest.mark.parametrize(
    "head",
    [
        "# rate_hz=200 class=building orient=-",  # no floor
        "# class=building floor=- orient=-",  # no rate
        "# rate_hz=200 class=building floor orient=-",  # a key without a value
        "# rate_hz=fast class=building floor=- orient=-",
        "# rate_hz=200 class=castle floor=- orient=-",
        "# rate_hz=200 class=building floor=- orient=sideways",
    ],
)
def test_window_csv_rejects_bad_metadata_naming_the_file(tmp_path, head):
    path = tmp_path / "bad.csv"
    path.write_text(head + "\nt_index,adc\n0,6\n1,7\n")
    with pytest.raises(ValueError, match="bad.csv"):
        read_window_csv(path)


# -------------------------------------------------------------------- corpus


def test_apportion_examples():
    assert _apportion(1159, (0.7, 0.1, 0.2)) == [811, 116, 232]
    assert _apportion(100, (0.8, 0.2)) == [80, 20]
    assert _apportion(57, [0.2] * 5) == [12, 12, 11, 11, 11]


def test_apportion_always_sums():
    rng = np.random.default_rng(1)
    for _ in range(200):
        parts = int(rng.integers(2, 6))
        w = rng.uniform(0.1, 1, parts)
        ratios = w / w.sum()
        total = int(rng.integers(1, 500))
        counts = _apportion(total, ratios)
        assert sum(counts) == total and all(c >= 0 for c in counts)


def test_simulate_corpus_counts_and_determinism():
    a = simulate_corpus(57, seed=9)
    b = simulate_corpus(57, seed=9)
    assert len(a) == 57
    per_class = {cls: 0 for cls in StructureClass}
    for w in a:
        per_class[w.source] += 1
    assert sorted(per_class.values(), reverse=True) == [12, 12, 11, 11, 11]
    assert all(np.array_equal(x.samples, y.samples) for x, y in zip(a, b))
