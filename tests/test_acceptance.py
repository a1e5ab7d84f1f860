"""End-to-end gate: ten checks that pin the toolkit's headline behavior.

Each test covers one contract, prints a one-line verdict with the measured
value, and asserts a wall-clock budget. The 1159-window run (test 7) uses
the built-in class profiles; its accuracy floors are deliberately below the
hand-recorded field results, which a fresh synthetic corpus cannot be
expected to reproduce exactly.
"""

import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import FIELD_CORRELATIONS, FIELD_SAMPLE_ROWS, child_env, close_rel, naive_features
from vibsense import baselines, cnn, selection, telemetry
from vibsense.baselines import LabeledDataset
from vibsense.cnn import CnnHyperparams, PlateauScheduler
from vibsense.features import (
    FEATURE_COLUMNS,
    FLATNESS_THRESHOLD,
    extract_features,
    spectral_profile,
)
from vibsense.heightfit import height_analysis, linear_fit, FloorObservation
from vibsense.signalsim import (
    DEFAULT_PROFILES,
    ClassProfile,
    RawWindow,
    StructureClass,
    simulate_corpus,
    synth_window,
)
from vibsense.telemetry import TelemetryServer, encode_record, scan_store


class _Budget:
    """Context manager asserting a wall-clock budget on exit."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.t0

    def __exit__(self, exc_type, *rest):
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"budget exceeded: {self.elapsed:.1f}s > {self.seconds}s"
            )
        return False


def test_c01_crest_factor_consistency_on_field_rows():
    with _Budget(1.0) as budget:
        worst = 0.0
        for name, row in FIELD_SAMPLE_ROWS.items():
            crest, rms, peak = row[11], row[6], row[4]
            err = abs(crest - peak / rms)
            worst = max(worst, err)
            assert err <= 0.01, name
        # the implementation uses the same definition
        window = synth_window(DEFAULT_PROFILES[StructureClass.BUILDING], seed=5)
        fv = extract_features(window)
        assert fv.crest_factor == pytest.approx(fv.max / fv.rms, abs=1e-12)
    print(f"\n[1] crest = max/rms on all 5 field rows, worst |err| {worst:.4f} "
          f"(<= 0.01): PASS in {budget.elapsed:.2f}s")


def test_c02_selection_rule_picks_the_field_five():
    with _Budget(1.0) as budget:
        r = np.array([FIELD_CORRELATIONS[n][0] for n in FEATURE_COLUMNS])
        p = np.array([FIELD_CORRELATIONS[n][1] for n in FEATURE_COLUMNS])
        report = selection.CorrelationReport(list(FEATURE_COLUMNS), r, p, n=212)
        assert selection.R_MIN == 0.4 and selection.P_MAX == 5e-5
        mask = selection.select_features(report)
        chosen = {n for n, keep in zip(report.features, mask) if keep}
        assert chosen == {"mean", "std_dev", "max", "rms", "avg_peak_value"}
    print(f"\n[2] rule (r>=0.4, p<5e-5) on the field correlation table keeps "
          f"exactly {sorted(chosen)}: PASS in {budget.elapsed:.2f}s")


def test_c03_feature_extraction_matches_naive_reference():
    rng = np.random.default_rng(2024)
    profiles = list(DEFAULT_PROFILES.values())
    with _Budget(10.0) as budget:
        for i in range(1000):
            if i % 2 == 0:
                n = int(rng.integers(4, 400))
                samples = rng.integers(0, 1024, size=n)
                window = RawWindow(samples=samples, sample_rate_hz=200)
            else:
                window = synth_window(profiles[i % 5], seed=int(rng.integers(2**32)))
            fv = extract_features(window)
            want = naive_features(window.samples)
            for field in FEATURE_COLUMNS:
                got = getattr(fv, field)
                assert close_rel(got, want[field]), (i, field, got, want[field])
            assert abs(fv.std_dev**2 + fv.mean**2 - fv.rms**2) <= 1e-9 * max(1.0, fv.rms**2)
    print(f"\n[3] 1000 random windows match the naive reference on all 12 fields "
          f"(rel 1e-9) and satisfy std^2+mean^2=rms^2: PASS in {budget.elapsed:.2f}s")


def test_c04_architecture_sizes_and_grid_cardinality():
    with _Budget(1.0) as budget:
        hp = CnnHyperparams(base_filters=32, kernel_length=3)
        sizes = cnn.layer_output_sizes(hp)
        assert sizes == [
            (12, 32), (12, 64), (12, 128), (12, 256), (12, 512), (1, 512), (1, 5),
        ]
        combos = cnn.grid_combinations()
        assert len(combos) == 256
        assert len(set(combos)) == 256
    print(f"\n[4] layer sizes for q=32, K=3 walk (12,32) to (1,5) as documented; "
          f"hyperparameter grid has 256 points: PASS in {budget.elapsed:.2f}s")


def test_c05_analytic_gradients_match_finite_differences():
    h = 1e-5
    hp = CnnHyperparams(batch_size=50, kernel_length=3, base_filters=4, activation="elu")
    worst_ratio = 0.0
    with _Budget(120.0) as budget:
        for seed in range(5):
            model = cnn.init_model(hp, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            x = rng.normal(size=(8, 12))
            y = rng.integers(0, 5, size=8)
            _, grads, _ = cnn.loss_and_grads(model, x, y)

            def loss_at():
                _, cache = cnn.forward(model, x, return_cache=True)
                return cnn.cross_entropy(cache["log_probs"], y)

            for p, g in zip(cnn.parameters(model), grads):
                flat = p.ravel()
                numeric = np.empty(flat.size)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = loss_at()
                    flat[i] = orig - h
                    down = loss_at()
                    flat[i] = orig
                    numeric[i] = (up - down) / (2 * h)
                analytic = g.ravel()
                ratio = np.linalg.norm(analytic - numeric) / (
                    np.linalg.norm(analytic) + np.linalg.norm(numeric)
                )
                worst_ratio = max(worst_ratio, ratio)
                assert ratio < 1e-4
                # elementwise: rel 1e-4 with an absolute floor where the FD
                # roundoff (eps*|L|/2h ~ 1e-11) dominates tiny coordinates
                assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-9)
    print(f"\n[5] central differences (h=1e-5) confirm every gradient over 5 seeds, "
          f"worst norm ratio {worst_ratio:.2e} (< 1e-4): PASS in {budget.elapsed:.1f}s")


def test_c06_plateau_decay_after_35_stalled_epochs():
    with _Budget(1.0) as budget:
        scheduler = PlateauScheduler()
        for _ in range(35):
            scheduler.update(0.5)  # never improves after the first epoch
        assert scheduler.lr == 0.01 * 0.8**3
        assert scheduler.n_decays == 3
    print(f"\n[6] constant validation signal for 35 epochs yields lr "
          f"{scheduler.lr!r} == 0.01 * 0.8**3 exactly: PASS in {budget.elapsed:.2f}s")


def test_c07_synthetic_corpus_accuracy_floors():
    with _Budget(600.0) as budget:
        windows = simulate_corpus(1159, seed=0)
        vectors = [extract_features(w) for w in windows]
        labels = [w.source for w in windows]
        ds = LabeledDataset.from_vectors(vectors, labels)
        assert len(ds) == 1159

        train_ds, val_ds, test_ds = baselines.split(
            ds, (0.7, 0.1, 0.2), seed=0, stratified=True
        )

        # route 1: correlation-selected features into the k-NN baseline
        report = selection.correlation_table(ds)
        mask = selection.select_features(report)
        if not mask.any():
            mask = np.ones(len(FEATURE_COLUMNS), dtype=bool)
        fit_ds = baselines.LabeledDataset(
            np.vstack([train_ds.rows, val_ds.rows]),
            np.concatenate([train_ds.labels, val_ds.labels]),
            ds.classes,
        ).select_columns(mask)
        best_k, _ = baselines.sweep_k(fit_ds, k_range=range(1, 31), folds=10, seed=0)
        knn_model = baselines.knn_fit(fit_ds)
        knn_preds = baselines.knn_predict_batch(
            knn_model, test_ds.select_columns(mask).rows, best_k
        )
        knn_acc = float(np.mean(knn_preds == test_ds.labels))

        # route 2: the CNN on all 12 features
        hp = CnnHyperparams(batch_size=100, kernel_length=3, base_filters=32, activation="elu")
        model = cnn.train(train_ds, hp, seed=0, val=val_ds, epochs=150)
        test_x = (test_ds.rows - model.input_mean) / model.input_std
        cnn_preds = cnn.forward(model, test_x).argmax(axis=1)
        cnn_acc = float(np.mean(cnn_preds == test_ds.labels))

        assert knn_acc >= 0.85, f"k-NN accuracy {knn_acc:.4f} below floor"
        assert cnn_acc >= 0.90, f"CNN accuracy {cnn_acc:.4f} below floor"
        assert cnn_acc >= knn_acc - 0.02, f"CNN {cnn_acc:.4f} trails k-NN {knn_acc:.4f}"
    print(f"\n[7] seeded 1159-window corpus: k-NN (k={best_k}, selected features) "
          f"{knn_acc:.4f} >= 0.85, CNN {cnn_acc:.4f} >= 0.90 and >= kNN-0.02: "
          f"PASS in {budget.elapsed:.0f}s")


def test_c08_height_slope_recovery_under_noise():
    with _Budget(30.0) as budget:
        floors = np.arange(11)
        outcomes = {}
        for slope, intercept in ((4.46, 21.2), (-0.6, 29.9)):
            rng = np.random.default_rng(808)
            slopes = []
            verdicts = []
            for _ in range(100):
                ys = slope * floors + intercept + rng.normal(0.0, 1.0, 11)
                fit = linear_fit(np.column_stack([floors, ys]))
                slopes.append(fit.slope)
                obs = [
                    FloorObservation(int(f), "floor_surface", float(y))
                    for f, y in zip(floors, ys)
                ]
                verdicts.append(height_analysis(obs).verdict)
            outcomes[slope] = (float(np.median(slopes)), verdicts)

        median_up, verdicts_up = outcomes[4.46]
        assert abs(median_up - 4.46) <= 0.15 * 4.46
        assert verdicts_up.count("positive") >= 95
        median_down, verdicts_down = outcomes[-0.6]
        assert verdicts_down.count("negative") >= 95
    print(f"\n[8] 100 noisy 11-floor runs: median slope {median_up:.3f} within 15% "
          f"of 4.46 with {verdicts_up.count('positive')} positives; slope -0.6 gives "
          f"{verdicts_down.count('negative')} negatives: PASS in {budget.elapsed:.1f}s")


def test_c09_spectral_flatness_separates_noise_from_tones():
    with _Budget(30.0) as budget:
        broadband = ClassProfile(
            structure=StructureClass.BUILDING,
            base_noise_rms=20.0,
            impulse_rate=0.0,
            impulse_amplitude_mean=0.0,
            impulse_amplitude_sd=0.0,
            impulse_decay_tau=0.1,
            dc_offset=512.0,
        )
        flat_hits = 0
        noise_ratios = []
        for seed in range(100):
            report = spectral_profile(synth_window(broadband, seed=seed))
            noise_ratios.append(report.dominance_ratio)
            flat_hits += report.dominance_ratio < FLATNESS_THRESHOLD
        assert flat_hits >= 95

        tone_hits = 0
        cycles = 200  # 25 Hz over an 8 s window
        t = np.arange(1600)
        tone_ratios = []
        for seed in range(100):
            rng = np.random.default_rng(9000 + seed)
            samples = np.rint(
                512 + 150.0 * np.sin(2 * np.pi * cycles * t / 1600) + rng.normal(0, 5, 1600)
            ).astype(int)
            report = spectral_profile(RawWindow(samples=samples, sample_rate_hz=200))
            tone_ratios.append(report.dominance_ratio)
            tone_hits += report.dominance_ratio > FLATNESS_THRESHOLD
            assert report.dominant_bin == cycles
        assert tone_hits == 100
    print(f"\n[9] broadband noise flat in {flat_hits}/100 (max ratio "
          f"{max(noise_ratios):.1f}); planted 25 Hz tone dominant in {tone_hits}/100 "
          f"(min ratio {min(tone_ratios):.0f}): PASS in {budget.elapsed:.1f}s")


def _field_record(node, seq):
    from vibsense.features import FeatureVector

    fv = FeatureVector.from_array(np.array(FIELD_SAMPLE_ROWS["building"], dtype=float))
    return telemetry.TelemetryRecord(
        node_id=node,
        timestamp_ms=1_700_000_000_000 + seq,
        seq=seq,
        features=fv,
        label=StructureClass.BUILDING,
    )


def _spawn_server(store):
    proc = subprocess.Popen(
        [sys.executable, "-m", "vibsense", "serve", "--store", str(store), "--port", "0"],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = proc.stdout.readline()
    assert line.startswith("serve: listening on "), line
    url = line.split()[3]
    return proc, url


def test_c10_ingestion_concurrency_durability_and_dedup(tmp_path):
    import urllib.request

    def post(url, record):
        req = urllib.request.Request(
            url + "/ingest", data=encode_record(record), method="POST"
        )
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status
        except urllib.error.HTTPError as exc:
            return exc.code

    with _Budget(60.0) as budget:
        # phase 1: 100 concurrent posts from 10 nodes into one service
        store = tmp_path / "store.jsonl"
        with TelemetryServer(store) as srv:
            def deliver(node_idx):
                return [
                    post(srv.url, _field_record(f"node-{node_idx:02d}", seq))
                    for seq in range(10)
                ]

            with ThreadPoolExecutor(max_workers=10) as pool:
                statuses = list(pool.map(deliver, range(10)))
            assert all(s == 201 for row in statuses for s in row)
            assert post(srv.url, _field_record("node-03", 7)) == 409  # replay
            counts = {s.node_id: s.record_count for s in srv.state.node_statuses()}
        assert counts == {f"node-{i:02d}": 10 for i in range(10)}
        stored = scan_store(store)
        assert len(stored) == 100
        per_node = {}
        for r in stored:
            per_node.setdefault(r.node_id, set()).add(r.seq)
        assert all(seqs == set(range(10)) for seqs in per_node.values())

        # phase 2: kill -9 after acks; every acked record must survive
        store2 = tmp_path / "kill.jsonl"
        proc, url = _spawn_server(store2)
        try:
            acked = []
            for seq in range(3):
                assert post(url, _field_record("survivor", seq)) == 201
                acked.append(seq)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
        survivors = scan_store(store2)
        assert [r.seq for r in survivors] == acked  # zero acked records lost

        # phase 3: restart on the same store; retries dedup, nothing doubles
        proc, url = _spawn_server(store2)
        try:
            statuses = [post(url, _field_record("survivor", seq)) for seq in range(10)]
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert statuses[:3] == [409, 409, 409]
        assert statuses[3:] == [201] * 7
        final = scan_store(store2)
        assert sorted(r.seq for r in final) == list(range(10))
        assert len(final) == 10
    print(f"\n[10] 100 concurrent posts stored once each; replay answers 409; "
          f"kill -9 after ack lost 0 of {len(acked)} acked records and a restart "
          f"dedups retries: PASS in {budget.elapsed:.1f}s")
