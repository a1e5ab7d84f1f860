import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIELD_SAMPLE_ROWS, close_rel, naive_features
from vibsense.errors import InsufficientDataError, InvalidSignalError
from vibsense.features import (
    CSV_HEADERS,
    FEATURE_COLUMNS,
    FLATNESS_THRESHOLD,
    LABEL_HEADER,
    FeatureVector,
    extract_feature_matrix,
    extract_features,
    find_peaks,
    read_feature_csv,
    spectral_profile,
    spectral_profiles,
    table_text,
    write_feature_csv,
)
from vibsense.signalsim import (
    ClassProfile,
    RawWindow,
    StructureClass,
    simulate_corpus,
    synth_window,
)


def _window(samples, rate=200.0):
    return RawWindow(samples=np.asarray(samples), sample_rate_hz=rate)


def _random_windows(n, seed=0):
    """Mix of generator output and raw integer noise, all >= 16 samples."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        if i % 2:
            length = int(rng.integers(16, 400))
            out.append(_window(rng.integers(0, 1024, size=length)))
        else:
            profile = ClassProfile(
                structure=StructureClass.BUILDING,
                base_noise_rms=float(rng.uniform(0, 40)),
                impulse_rate=float(rng.uniform(0, 4)),
                impulse_amplitude_mean=float(rng.uniform(0, 300)),
                impulse_amplitude_sd=float(rng.uniform(0, 100)),
                impulse_decay_tau=float(rng.uniform(0.02, 0.5)),
                dc_offset=float(rng.uniform(0, 200)),
            )
            out.append(synth_window(profile, seed=int(rng.integers(0, 2**63))))
    return out


# ---------------------------------------------------------------- hand values


def test_constant_window():
    fv = extract_features(_window([5, 5, 5, 5]))
    assert fv.mean == 5 and fv.median == 5 and fv.mode == 5
    assert fv.std_dev == 0 and fv.max == 5 and fv.min == 5 and fv.rms == 5
    assert fv.num_peaks == 0 and fv.avg_peak_value == 0
    # zero-variance convention: skewness and kurtosis defined as 0
    assert fv.skewness == 0 and fv.kurtosis == 0
    assert fv.crest_factor == 1.0


def test_all_zero_window():
    fv = extract_features(_window([0, 0, 0, 0, 0]))
    assert fv.rms == 0 and fv.crest_factor == 0


def test_alternating_window():
    # [0,3,0,3,0]: mean 1.2, std sqrt(2.16), rms sqrt(3.6), peaks at 1 and 3
    fv = extract_features(_window([0, 3, 0, 3, 0]))
    assert fv.mean == pytest.approx(1.2, abs=1e-12)
    assert fv.median == 0 and fv.mode == 0
    assert fv.std_dev == pytest.approx(math.sqrt(2.16), rel=1e-12)
    assert fv.max == 3 and fv.min == 0
    assert fv.rms == pytest.approx(math.sqrt(3.6), rel=1e-12)
    assert fv.num_peaks == 2
    assert fv.avg_peak_value == 3
    assert fv.crest_factor == pytest.approx(3 / math.sqrt(3.6), rel=1e-12)


def test_field_table_crest_consistency():
    # crest = max / rms reproduces the recorded crest column within 0.01
    cols = {name: i for i, name in enumerate(FEATURE_COLUMNS)}
    for row in FIELD_SAMPLE_ROWS.values():
        recomputed = row[cols["max"]] / row[cols["rms"]]
        assert abs(recomputed - row[cols["crest_factor"]]) < 0.01


def test_mode_prefers_smallest_on_tie():
    fv = extract_features(_window([9, 2, 9, 2, 7]))
    assert fv.mode == 2
    assert naive_features([9, 2, 9, 2, 7])["mode"] == 2


def test_window_too_short():
    with pytest.raises(InsufficientDataError):
        extract_features(_window([1, 2, 3]))


# ------------------------------------------------------------- naive oracle


def test_matches_naive_reference():
    for window in _random_windows(200, seed=11):
        got = extract_features(window)
        want = naive_features(window.samples)
        for name in FEATURE_COLUMNS:
            assert close_rel(getattr(got, name), want[name]), (
                f"{name}: {getattr(got, name)!r} vs {want[name]!r}"
            )


EDGE_WINDOWS = {
    "constant": [5, 5, 5, 5, 5, 5],  # m2 = 0
    "all zero": [0] * 7,  # rms = 0
    "no peaks": [1, 2, 3, 4, 5, 6, 7, 8],
    "mode tie": [9, 2, 9, 2, 7, 3],  # smallest tied value wins
    "four samples": [3, 1, 4, 1],
}


def test_feature_matrix_rows_equal_the_one_window_path_bit_for_bit():
    windows = simulate_corpus(200, seed=17)
    matrix = extract_feature_matrix(np.stack([w.samples for w in windows]))
    assert matrix.shape == (200, len(FEATURE_COLUMNS))
    for row, window in zip(matrix, windows):
        assert (row == extract_features(window).as_array()).all()
        want = naive_features(window.samples)
        assert all(close_rel(got, want[name]) for got, name in zip(row, FEATURE_COLUMNS))


@pytest.mark.parametrize("name", list(EDGE_WINDOWS))
def test_feature_matrix_edge_windows(name):
    samples = np.array(EDGE_WINDOWS[name], dtype=np.int32)
    (row,) = extract_feature_matrix(samples[None, :])
    assert (row == extract_features(_window(samples)).as_array()).all()
    want = naive_features(samples)
    for got, column in zip(row, FEATURE_COLUMNS):
        assert close_rel(got, want[column]), (column, got, want[column])


@pytest.mark.parametrize("tail", [1e-100, 4.78458439e-144])
def test_the_reference_agrees_where_a_power_of_the_variance_underflows(tail):
    samples = [0.0, 0.0, 0.0, tail]
    (row,) = extract_feature_matrix(np.array([samples]))
    want = naive_features(samples)
    for got, column in zip(row, FEATURE_COLUMNS):
        assert close_rel(got, want[column]), (column, got, want[column])


def test_feature_matrix_stacks_edge_windows_of_one_length():
    rows = [[5] * 6, [0] * 6, [1, 2, 3, 4, 5, 6], [9, 2, 9, 2, 7, 3]]
    matrix = extract_feature_matrix(np.array(rows))
    for got, samples in zip(matrix, rows):
        assert (got == extract_features(_window(samples)).as_array()).all()


def test_feature_matrix_needs_four_samples_and_two_axes():
    with pytest.raises(InsufficientDataError):
        extract_feature_matrix(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        extract_feature_matrix(np.zeros(8))


def test_identity_std_mean_rms():
    for window in _random_windows(100, seed=23):
        fv = extract_features(window)
        assert close_rel(fv.std_dev**2 + fv.mean**2, fv.rms**2)
        assert fv.min <= fv.mean <= fv.max
        assert fv.min <= fv.median <= fv.max
        if fv.rms > 0:
            assert close_rel(fv.crest_factor * fv.rms, fv.max)


def test_scale_equivariance():
    base = np.asarray(_random_windows(1, seed=5)[0].samples)
    fv0 = extract_features(_window(base))
    for alpha in (2.0, 3, 7):
        fv = extract_features(_window(base * alpha))
        for name in ("mean", "median", "mode", "std_dev", "max", "min", "rms"):
            assert close_rel(getattr(fv, name), alpha * getattr(fv0, name), 1e-12)
        assert close_rel(fv.avg_peak_value, alpha * fv0.avg_peak_value, 1e-12)
        for name in ("skewness", "kurtosis", "crest_factor"):
            assert close_rel(getattr(fv, name), getattr(fv0, name), 1e-9)
        assert fv.num_peaks == fv0.num_peaks


@given(st.lists(st.integers(0, 1023), min_size=4, max_size=64))
@settings(max_examples=200)
def test_feature_invariants_hold_for_any_window(samples):
    fv = extract_features(_window(samples))
    assert fv.min <= fv.mean <= fv.max
    assert fv.min <= fv.median <= fv.max
    assert fv.std_dev >= 0 and fv.num_peaks >= 0
    assert close_rel(fv.std_dev**2 + fv.mean**2, fv.rms**2)
    if fv.rms > 0:
        assert close_rel(fv.crest_factor * fv.rms, fv.max)


_INT32 = np.iinfo(np.int32)


@st.composite
def _sample_matrices(draw):
    """(n, N) matrices whose rows take the power table or the elementwise fallback."""
    n, length = draw(st.integers(0, 4)), draw(st.integers(4, 40))
    kinds = draw(st.lists(st.sampled_from(["adc", "narrow", "wide", "float", "constant"]),
                          min_size=1, max_size=2))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "float":  # non-integer samples: the elementwise path
            cells = st.floats(-1e4, 1e4, allow_nan=False)
        elif kind == "adc":  # a range at or above the length falls back
            cells = st.integers(0, 1023)
        elif kind == "narrow":  # a range below the length anywhere in int32, extremes included
            top = _INT32.max - length + 1
            lo = draw(st.sampled_from([_INT32.min, top]) | st.integers(_INT32.min, top))
            cells = st.integers(lo, lo + length - 1)
        elif kind == "wide":
            cells = st.integers(_INT32.min, _INT32.max)
        else:
            cells = st.just(draw(st.integers(_INT32.min, _INT32.max)))
        rows.append(draw(st.lists(cells, min_size=length, max_size=length)))
    return np.array(rows, dtype=float if "float" in kinds else np.int32).reshape(n, length)


@given(_sample_matrices())
@example(np.array([[0.0, 0.0, 0.0, 1e-100]]))  # m2**2 underflows to 0
@example(np.array([[0.0, 0.0, 0.0, 4.78458439e-144]]))  # m2**1.5 and m2**2 underflow
@settings(max_examples=300, deadline=None)
def test_feature_matrix_moments_equal_the_elementwise_formula_bit_for_bit(samples):
    x = samples.astype(float)
    m2, m3, m4 = (np.mean((x - x.mean(1)[:, None]) ** p, axis=1) for p in (2, 3, 4))
    var = m2.tolist()
    skewness = [a / v**1.5 if v**1.5 > 0 else 0.0 for a, v in zip(m3.tolist(), var)]
    kurtosis = [b / v**2 - 3.0 if v**2 > 0 else 0.0 for b, v in zip(m4.tolist(), var)]
    matrix = extract_feature_matrix(samples)
    assert matrix.shape == (len(samples), len(FEATURE_COLUMNS))
    column = {name: matrix[:, i].tolist() for i, name in enumerate(FEATURE_COLUMNS)}
    assert column["std_dev"] == np.sqrt(m2).tolist()
    assert column["skewness"] == skewness and column["kurtosis"] == kurtosis
    for row, window in zip(matrix, samples):
        assert (row == extract_features(_window(window)).as_array()).all()


@st.composite
def _matrices_with_a_refused_row(draw):
    """An (n, N) float matrix and the index of its first row with a sample that is
    not finite or not in [-2**63, 2**63); the rows before it are in range."""
    n, length = draw(st.integers(1, 4)), draw(st.integers(4, 12))
    cells = st.lists(st.floats(-(2.0**62), 2.0**62), min_size=length, max_size=length)
    rows = [draw(cells) for _ in range(n)]
    bad = draw(st.integers(0, n - 1))
    unholdable = st.floats(allow_nan=True).filter(lambda v: not -(2.0**63) <= v < 2.0**63)
    rows[bad][draw(st.integers(0, length - 1))] = draw(unholdable)
    return np.array(rows), bad


@given(_matrices_with_a_refused_row())
@example((np.array([[0.0, 0.0, 0.0, 1e78]]), 0))  # m2**2 raised OverflowError
@example((np.array([[0.0, 0.0, 0.0, 1e155]]), 0))  # NaN skewness and kurtosis
@example((np.array([[1e30, 1e30, 1e30, 2.0]]), 0))  # the int64 mode wrapped to -2**63
@example((np.array([[math.nan, 1.0, 2.0, 3.0]]), 0))  # mode 1, skewness and kurtosis 0
@example((np.array([[math.inf, 1.0, 2.0, 3.0]]), 0))
@example((np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 2.0**63]]), 1))
@settings(max_examples=100, deadline=None)
def test_feature_matrix_refuses_a_sample_it_cannot_hold(case):
    samples, row = case
    with pytest.raises(InvalidSignalError, match=f"^row {row}: "):
        extract_feature_matrix(samples)


def test_feature_matrix_takes_both_ends_of_the_sample_range():
    (row,) = extract_feature_matrix(np.array([[-(2.0**63), 0.0, 0.0, 2.0**63 - 1024]]))
    assert np.isfinite(row).all()
    assert row[FEATURE_COLUMNS.index("mode")] == 0.0


def test_feature_matrix_of_no_rows_has_twelve_columns():
    for dtype in (np.int32, float):
        assert extract_feature_matrix(np.zeros((0, 1600), dtype=dtype)).shape == (0, 12)


# ------------------------------------------------------------------- peaks


def test_find_peaks_examples():
    assert find_peaks(list(range(10))) == []
    assert find_peaks([0, 3, 0, 3, 0]) == [1, 3]
    assert find_peaks([1, 2]) == []
    # plateaus are not strict maxima
    assert find_peaks([0, 2, 2, 0]) == []


def test_find_peaks_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.integers(0, 50, size=int(rng.integers(3, 300)))
        want = [
            i for i in range(1, len(x) - 1) if x[i] > x[i - 1] and x[i] > x[i + 1]
        ]
        assert find_peaks(x) == want


# ----------------------------------------------------------------- spectrum


def test_spectral_planted_tone():
    n = 1600
    tone = 512 + 100 * np.sin(2 * np.pi * 5 * np.arange(n) / n)
    report = spectral_profile(_window(np.rint(tone).astype(int)))
    assert report.dominant_bin == 5
    assert report.dominance_ratio > FLATNESS_THRESHOLD
    assert len(report.bin_magnitudes) == n // 2


def test_spectral_constant_window():
    report = spectral_profile(_window([63] * 64))
    assert report.dominance_ratio == 1.0
    assert np.allclose(report.bin_magnitudes, 0, atol=1e-9)


def test_spectral_broadband_noise_is_flat():
    rng = np.random.default_rng(7)
    report = spectral_profile(_window(rng.integers(400, 600, size=1600)))
    assert report.dominance_ratio < FLATNESS_THRESHOLD


def test_spectral_dc_removed():
    # a big DC offset must not register as a frequency component
    x = np.zeros(64) + 900
    x[10] += 1
    report = spectral_profile(_window(x))
    assert report.dominance_ratio < FLATNESS_THRESHOLD


def _spectrum_by_formula(samples):
    """The per-window spectrum: rfft of the DC-removed row, argmax and median of bins 1..N//2."""
    x = np.asarray(samples, dtype=float)
    mags = np.abs(np.fft.rfft(x - np.mean(x)))[1:]
    peak, med = float(mags.max()), float(np.median(mags))
    ratio = 1.0 if peak == 0.0 else float("inf") if med == 0.0 else peak / med
    return mags.tolist(), int(np.argmax(mags)) + 1, ratio


SPECTRUM_ROWS = {  # first row of a 64-sample batch -> its dominance ratio
    "planted tone": (np.rint(512 + 100 * np.sin(2 * np.pi * 5 * np.arange(64) / 64)), None),
    "constant": (np.full(64, 63), 1.0),  # zero peak
    "median zero": (np.tile([1, 0], 32), float("inf")),  # the Nyquist bin alone
}


@pytest.mark.parametrize("name", list(SPECTRUM_ROWS))
def test_spectral_profiles_rows_equal_the_one_window_path_bit_for_bit(name):
    first, ratio = SPECTRUM_ROWS[name]
    batch = np.vstack([first, np.random.default_rng(3).integers(400, 600, size=(3, 64))])
    reports = spectral_profiles(batch.astype(np.int32))
    assert len(reports) == len(batch)
    for samples, report in zip(batch, reports):
        one = spectral_profile(_window(samples.astype(np.int32)))
        got = (report.bin_magnitudes.tolist(), report.dominant_bin, report.dominance_ratio)
        assert got == (one.bin_magnitudes.tolist(), one.dominant_bin, one.dominance_ratio)
        assert got == _spectrum_by_formula(samples)
    if ratio is None:
        assert reports[0].dominant_bin == 5 and reports[0].dominance_ratio > FLATNESS_THRESHOLD
    else:
        assert reports[0].dominance_ratio == ratio


def test_spectral_too_short():
    with pytest.raises(InsufficientDataError):
        spectral_profile(_window([1, 2, 3, 4, 5, 6, 7]))
    with pytest.raises(InsufficientDataError):
        spectral_profiles(np.zeros((3, 7)))


# ---------------------------------------------------------------------- csv


def test_feature_csv_round_trip(tmp_path):
    vectors = [extract_features(w) for w in _random_windows(20, seed=2)]
    labels = [None if i % 5 == 0 else "building" for i in range(20)]
    path = tmp_path / "features.csv"
    write_feature_csv(path, vectors, labels)

    header = path.read_text().splitlines()[0]
    assert header.split(",")[0] == CSV_HEADERS[0]
    assert header.endswith(LABEL_HEADER)

    got_vectors, got_labels = read_feature_csv(path)
    assert got_labels == labels
    for a, b in zip(got_vectors, vectors):
        assert a == b  # repr round-trip is exact


def test_table_text_exact():
    text = table_text(
        ["id", "name", "value", "note"],
        [[7, "a", 0.1, np.float64(0.5)], [8, "b", float("inf"), ""], [9, "c", 1 / 3, -0.0]],
    )
    assert text == "id,name,value,note\n7,a,0.1,0.5\n8,b,inf,\n9,c,0.3333333333333333,-0.0\n"
    assert float(text.splitlines()[3].split(",")[2]) == 1 / 3  # a float cell reads back bit-exact
    assert table_text(["k", "v"], []) == "k,v\n"


def test_feature_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_feature_csv(path)


def test_feature_csv_rejects_short_row(tmp_path):
    path = tmp_path / "short.csv"
    write_feature_csv(path, [FeatureVector(*([1.0] * 7), 1, *([1.0] * 4))])
    lines = path.read_text().splitlines()
    lines[1] = "1,2,3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_feature_csv(path)
