import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.special
import scipy.stats

from conftest import child_env, field_correlation_arrays
from vibsense import selection
from vibsense.baselines import LabeledDataset
from vibsense.errors import UndefinedCorrelationError
from vibsense.features import FEATURE_COLUMNS
from vibsense.selection import (
    CORRELATION_CSV_HEADERS,
    CorrelationReport,
    correlation_csv,
    correlation_table,
    p_value,
    pearson_r,
    read_correlation_csv,
    select_features,
)


def field_report() -> CorrelationReport:
    r, p = field_correlation_arrays()
    return CorrelationReport(features=list(FEATURE_COLUMNS), r=r, p=p, n=1159)


# ---------------------------------------------------------------- pearson_r


def test_pearson_hand_formula():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [2.0, 4.0, 6.0, 9.0]
    n = 4
    sx = sum(x)
    sy = sum(y)
    sxy = sum(a * b for a, b in zip(x, y))
    sxx = sum(a * a for a in x)
    syy = sum(b * b for b in y)
    want = (n * sxy - sx * sy) / math.sqrt((n * sxx - sx**2) * (n * syy - sy**2))
    assert pearson_r(x, y) == pytest.approx(want, abs=1e-12)


def test_pearson_self_and_flip():
    x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    assert pearson_r(x, x) == pytest.approx(1.0, abs=5e-16)
    assert pearson_r(x, -x) == pytest.approx(-1.0, abs=5e-16)
    assert -1.0 <= pearson_r(x, -x) <= pearson_r(x, x) <= 1.0


def test_pearson_symmetry_and_affine_invariance():
    rng = np.random.default_rng(8)
    x = rng.normal(size=60)
    y = rng.normal(size=60)
    r = pearson_r(x, y)
    assert pearson_r(y, x) == pytest.approx(r, abs=1e-14)
    assert pearson_r(2.5 * x + 7, y) == pytest.approx(r, abs=1e-12)
    assert pearson_r(-2.5 * x + 7, y) == pytest.approx(-r, abs=1e-12)


def test_pearson_matches_scipy():
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.normal(size=int(rng.integers(10, 300)))
        y = rng.normal(size=len(x)) + 0.3 * x
        ref = scipy.stats.pearsonr(x, y)
        assert pearson_r(x, y) == pytest.approx(ref.statistic, abs=1e-12)
        assert p_value(pearson_r(x, y), len(x)) == pytest.approx(
            ref.pvalue, rel=1e-9, abs=1e-300
        )


def test_pearson_errors():
    with pytest.raises(UndefinedCorrelationError):
        pearson_r([1, 1, 1, 1], [1, 2, 3, 4])
    # constant means min == max, whatever the rounding of the mean leaves as deviations
    for constant in ([0.1] * 3, [0.3] * 5):
        with pytest.raises(UndefinedCorrelationError, match="constant"):
            pearson_r(constant, list(range(len(constant))))
        with pytest.raises(UndefinedCorrelationError, match="constant"):
            pearson_r(list(range(len(constant))), constant)
    with pytest.raises(ValueError):
        pearson_r([1, 2], [1, 2])
    with pytest.raises(ValueError):
        pearson_r([1, 2, 3], [1, 2])
    for bad in (math.nan, math.inf, -math.inf):  # no longer clamped to -1.0 or 1.0
        with pytest.raises(ValueError, match="finite"):
            pearson_r([1, 2, bad, 4], [1, 2, 3, 4])
        with pytest.raises(ValueError, match="finite"):
            pearson_r([1, 2, 3, 4], [bad, 2, 3, 4])


@pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-161, 1e-170])
def test_pearson_holds_r_at_any_finite_scale(scale):
    # unscaled, the squares overflow (1e200), go subnormal (1e-160, 1e-161) or underflow
    # to 0 (1e-170); 1e-161 gave 0.97059 and 1e200 a refusal before each sequence was
    # scaled by a power of two
    want = pearson_r([1, 2, 3, 5], [1, 2, 3, 4])
    column = [scale * v for v in (1, 2, 3, 5)]
    assert pearson_r(column, [1, 2, 3, 4]) == pytest.approx(want, abs=1e-15)
    assert pearson_r([1, 2, 3, 4], column) == pytest.approx(want, abs=1e-15)
    assert pearson_r(column, [scale * v for v in (1, 2, 3, 4)]) == pytest.approx(want, abs=1e-15)
    assert pearson_r(column, [4, 3, 2, 1]) == pytest.approx(-want, abs=1e-15)


def test_pearson_power_of_two_scaling_keeps_the_unscaled_bits():
    def unscaled(x, y):
        xd, yd = x - x.mean(), y - y.mean()
        r = float(np.mean(xd * yd) / (np.sqrt(np.mean(xd**2)) * np.sqrt(np.mean(yd**2))))
        return min(1.0, max(-1.0, r))

    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(3, 400))
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-40, 40)
        y = (rng.normal(size=n) + rng.uniform(-2, 2) * x) * 10.0 ** rng.uniform(-40, 40)
        assert pearson_r(x, y) == unscaled(x, y)
    labels = np.repeat(np.arange(5.0), 40)  # integer columns, as correlation_table meets them
    for _ in range(100):
        column = rng.integers(0, 1024, size=labels.size) + 50.0 * labels
        assert pearson_r(column, labels) == unscaled(column, labels)


# ------------------------------------------------------------------ p_value


def test_p_value_limits():
    assert p_value(0.0, 50) == 1.0
    assert p_value(1.0, 50) == 0.0
    assert p_value(-1.0, 50) == 0.0
    with pytest.raises(ValueError):
        p_value(1.5, 50)
    with pytest.raises(ValueError):
        p_value(0.2, 2)


def test_importing_the_package_leaves_scipy_unloaded():
    # scipy is only a test oracle: no module of the package imports it, at the top or lazily
    code = ("import importlib, pkgutil, sys, vibsense\n"
            "for m in pkgutil.iter_modules(vibsense.__path__):\n"
            "    if m.name != '__main__':  # that one runs the CLI\n"
            "        importlib.import_module('vibsense.' + m.name)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("n", [3, 80, 1159, 10**4, 10**5, 10**6])
def test_p_value_matches_scipy_betainc(n):
    # r on the grid k / 2**20, so that r*r and 1 - r*r are exact and both sides see one x
    df = n - 2
    r_max = min(1.0, math.sqrt(1500.0 / df))  # beyond sqrt(1500 / df), p < 1e-300
    ks = np.unique(np.linspace(1, r_max * 2**20 - 1, 240).round().astype(int))
    bound = 1e-11 if n <= 2000 else 1e-10
    for r in ks / 2**20:
        want = float(scipy.special.betainc(df / 2, 0.5, 1.0 - r * r))
        for signed in (r, -r):
            got = p_value(float(signed), n)
            if want > 1e-300:
                assert got == pytest.approx(want, rel=bound, abs=0), (n, r)
            else:
                assert got < 1e-300, (n, r, got)


def test_p_value_raises_rather_than_returning_an_unconverged_fraction(monkeypatch):
    assert p_value(0.3, 1159) > 0
    monkeypatch.setattr(selection, "_BETAINC_MAX_TERMS", 3)
    with pytest.raises(ArithmeticError, match="no convergence in 3 terms"):
        p_value(0.3, 1159)


def test_p_value_monotone():
    rs = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95]
    ps = [p_value(r, 40) for r in rs]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    ns = [5, 10, 50, 200, 1000]
    ps = [p_value(0.3, n) for n in ns]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    # two-sided symmetry
    assert p_value(-0.37, 77) == p_value(0.37, 77)


def test_p_value_matches_permutation_oracle():
    # construct (x, y) with sample r exactly 0.5 at n=102, then compare the
    # closed-form p against a 1e6-permutation estimate's 99% CI
    n, r_target = 102, 0.5
    rng = np.random.default_rng(12345)
    x = np.arange(n, dtype=float)
    zx = (x - x.mean()) / x.std()
    e = rng.normal(size=n)
    e -= e.mean()
    e -= zx * (e @ zx) / n
    ze = e / e.std()
    y = r_target * zx + math.sqrt(1 - r_target**2) * ze
    r_obs = pearson_r(x, y)
    assert abs(r_obs - r_target) < 1e-12

    zy = (y - y.mean()) / y.std()
    total, chunk = 1_000_000, 50_000
    base = np.tile(np.arange(n), (chunk, 1))
    perm_rng = np.random.default_rng(777)
    hits = 0
    for _ in range(total // chunk):
        idx = perm_rng.permuted(base, axis=1)
        r_perm = (zy[idx] @ zx) / n
        hits += int(np.sum(np.abs(r_perm) >= abs(r_obs) - 1e-12))

    p = p_value(r_obs, n)
    lo = scipy.stats.beta.ppf(0.005, hits, total - hits + 1) if hits else 0.0
    hi = scipy.stats.beta.ppf(0.995, hits + 1, total - hits)
    assert lo <= p <= hi, (hits, p, lo, hi)


# ---------------------------------------------------------- select_features


def test_select_reproduces_field_choice():
    mask = select_features(field_report())
    chosen = {name for name, keep in zip(FEATURE_COLUMNS, mask) if keep}
    assert chosen == {"mean", "std_dev", "max", "rms", "avg_peak_value"}


def test_select_zero_correlations_empty():
    report = CorrelationReport(list(FEATURE_COLUMNS), np.zeros(12), np.ones(12), 100)
    assert not select_features(report).any()


# ---------------------------------------------------------- correlation_table


def _dataset(rows, labels):
    return LabeledDataset(np.asarray(rows, dtype=float), np.asarray(labels))


def test_correlation_table_perfect_predictor():
    rng = np.random.default_rng(2)
    labels = np.repeat(np.arange(5), 20)
    rows = np.column_stack([labels.astype(float), rng.normal(size=100)])
    report = correlation_table(_dataset(rows, labels), feature_names=["hit", "noise"])
    assert report.features == ["hit", "noise"]
    assert report.r[0] == pytest.approx(1.0, abs=1e-12)
    assert report.p[0] <= 1e-10
    assert report.n == 100


def test_correlation_table_noise_feature_stays_insignificant():
    labels = np.repeat(np.arange(5), 200)
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        rows = rng.normal(size=(1000, 1))
        report = correlation_table(_dataset(rows, labels), feature_names=["x"])
        assert abs(report.r[0]) < 0.1
        assert report.p[0] > 0.001


def test_correlation_table_shuffled_labels_center_zero():
    rng = np.random.default_rng(6)
    labels = np.repeat(np.arange(5), 60)
    rows = (labels.astype(float) + rng.normal(0, 1, 300)).reshape(-1, 1)
    rs = []
    for _ in range(200):
        perm = rng.permutation(300)
        report = correlation_table(_dataset(rows, labels[perm]), feature_names=["x"])
        rs.append(report.r[0])
    assert abs(float(np.mean(rs))) < 0.02


def test_correlation_table_errors():
    with pytest.raises(UndefinedCorrelationError):
        correlation_table(_dataset([[1.0], [2.0], [3.0]], [2, 2, 2]), feature_names=["x"])
    with pytest.raises(ValueError):
        correlation_table(_dataset([[1.0], [2.0]], [0, 1]), feature_names=["x"])


def test_correlation_table_wants_one_name_per_column():
    labels = np.repeat(np.arange(5), 4)
    rows = np.random.default_rng(9).normal(size=(20, len(FEATURE_COLUMNS))) + labels[:, None]
    ds = _dataset(rows, labels)
    assert correlation_table(ds).features == list(FEATURE_COLUMNS)
    subset = ds.select_columns([name in ("mean", "std_dev", "rms") for name in FEATURE_COLUMNS])
    with pytest.raises(ValueError, match="3 columns"):  # was labelled mean, mode, median
        correlation_table(subset)
    report = correlation_table(subset, feature_names=["mean", "std_dev", "rms"])
    assert report.features == ["mean", "std_dev", "rms"]
    for names in (["a", "b"], ["a", "b", "c", "d"], []):  # ["a", "b"] dropped the third row
        with pytest.raises(ValueError, match=f"{len(names)} feature names for 3 columns"):
            correlation_table(subset, feature_names=names)


# ---------------------------------------------------------------------- csv


def test_correlation_csv_round_trip():
    report = field_report()
    text = correlation_csv(report)
    assert text.splitlines()[0] == ",".join(CORRELATION_CSV_HEADERS)
    back = read_correlation_csv(text)
    assert back.features == report.features
    assert np.array_equal(back.r, report.r)
    assert np.array_equal(back.p, report.p)
