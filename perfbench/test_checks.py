"""Tests of the benchmark's own output checks.

Each check must pass on the program's real output, taken from a smoke run of
its workload, and reject a planted wrong one. Run with

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

import harness

harness.bootstrap()

import checks  # noqa: E402
import cnnbench  # noqa: E402
import corpus  # noqa: E402
import ingest  # noqa: E402


def smoke_run(work, workload):
    return harness.Run(workload, seed=0, seconds=0, trace=False, smoke=True, work=work)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    run = smoke_run(tmp_path_factory.mktemp("corpus"), "corpus-cli")
    corpus.workload(run)
    return run, run.work / "chain"


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    run = smoke_run(tmp_path_factory.mktemp("ingest"), "ingest")
    ingest.workload(run)
    return run


def _copy(chain_dir, tmp_path, *names):
    for name in names:
        shutil.copy(chain_dir / name, tmp_path / name)
    return tmp_path


def _windows(chain_dir):
    return sorted((chain_dir / "windows").glob("win_*.csv"))


def test_corpus_smoke_passes_every_check(chain):
    run, _ = chain
    assert run.problems == []
    assert (run.attempted, run.failed) == (len(corpus.STAGES), 0)


def test_feature_check_rejects_a_perturbed_cell(chain, tmp_path):
    _, out = chain
    lines = (out / "features.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[6] = repr(float(cells[6]) * (1 + 1e-7))  # RMS
    lines[3] = ",".join(cells)
    planted = tmp_path / "features.csv"
    planted.write_text("\n".join(lines) + "\n")
    assert checks.check_features(_windows(out), out / "features.csv") == []
    assert checks.check_features(_windows(out), planted)


def test_spectral_check_rejects_a_wrong_ratio(chain, tmp_path):
    _, out = chain
    lines = (out / "spectral_report.csv").read_text().splitlines()
    name, dominant, ratio, flat = lines[1].split(",")
    lines[1] = ",".join([name, dominant, repr(float(ratio) * 1.001), flat])
    planted = tmp_path / "spectral_report.csv"
    planted.write_text("\n".join(lines) + "\n")
    assert checks.check_spectral(_windows(out), planted, [0])


def test_selection_check_rejects_a_wrong_p_value(chain, tmp_path):
    _, out = chain
    lines = (out / "correlation.csv").read_text().splitlines()
    name, r, p = lines[1].split(",")
    lines[1] = ",".join([name, r, repr(float(p) * 1.001)])
    planted = tmp_path / "correlation.csv"
    planted.write_text("\n".join(lines) + "\n")
    assert checks.check_selection(out / "features.csv", planted, out / "selected_features.json")


def _write_metrics_csv(path, table):
    lines = ["class,precision,recall,f1"]
    lines += [f"{c},{table[c][0]!r},{table[c][1]!r},{table[c][2]!r}" for c in checks.CLASSES]
    lines.append("macro,{!r},{!r},{!r}".format(*table["macro"]))
    lines.append(f"accuracy,{table['accuracy']!r},,")
    path.write_text("\n".join(lines) + "\n")


def test_knn_check_rejects_a_flipped_prediction(chain, tmp_path):
    run, out = chain
    stdout = run.notes["train_knn_stdout"]
    planted = _copy(out, tmp_path, "features.csv", "selected_features.json", "k_curve.csv")
    rows, labels = checks.read_feature_table(out / "features.csv")
    codes = checks.class_codes(labels)
    cols = [checks.FEATURES.index(n) for n in json.loads((out / "selected_features.json").read_text())]
    rows = rows[:, cols]
    train, _, test = checks.stratified_split(codes, (0.7, 0.1, 0.2), run.seed)
    k = checks.best_k(checks.cv_curve(rows[train], codes[train], run.seed))
    preds = checks.knn_brute(rows[train], codes[train], rows[test], k)

    _write_metrics_csv(planted / "knn_metrics.csv", checks.classification_table(preds, codes[test]))
    assert checks.check_knn(planted, run.seed, stdout) == []
    flipped = preds.copy()
    flipped[0] = (flipped[0] + 1) % len(checks.CLASSES)
    _write_metrics_csv(planted / "knn_metrics.csv", checks.classification_table(flipped, codes[test]))
    assert checks.check_knn(planted, run.seed, stdout)


def test_height_check_rejects_a_wrong_slope_sign(chain):
    _, out = chain
    text = (out / "height_fits.txt").read_text()
    assert checks.check_height(text) == []
    first = text.splitlines()[0]
    slope = first.split("= ")[1].split(" *")[0]
    planted = text.replace(f"= {slope} *", f"= {-float(slope):g} *", 1)
    assert checks.check_height(planted)


def test_ingest_smoke_counts_only_the_torn_restart_as_failed(ingested):
    mix = sum(ingest.SMOKE_MIX.values()) * ingest.CLIENTS
    assert ingested.problems == []
    assert (ingested.attempted, ingested.failed) == (mix + 1, 1)


def _unserved(tmp_path):
    """A Server whose port nothing listens on, so every request is refused."""
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    server = ingest.Server(tmp_path / "store.jsonl", tmp_path / "server.log")
    server.port = port
    return server


def test_ingest_counts_a_refused_request_as_failed(tmp_path):
    run = smoke_run(tmp_path, "ingest")
    fleet = ingest.Fleet(0, ingest.SMOKE_NODES, ingest.SMOKE_PER_NODE)
    _, results, before = ingest.load_round(run, _unserved(tmp_path), fleet, 0, ingest.SMOKE_MIX)
    planned = sum(ingest.SMOKE_MIX.values()) * ingest.CLIENTS
    assert len(results) == planned
    assert ingest.check_round(run, fleet, results, before) == planned
    assert run.problems and not fleet.acked


def test_ingest_counts_the_requests_of_a_stopped_client_as_failed(tmp_path, monkeypatch):
    def stops_after_one(run, server, fleet, client, ops, results):
        results.append((ops[0][0], None, 0.0, None))  # then the thread ends early

    monkeypatch.setattr(ingest, "client_loop", stops_after_one)
    run = smoke_run(tmp_path, "ingest")
    fleet = ingest.Fleet(0, ingest.SMOKE_NODES, ingest.SMOKE_PER_NODE)
    _, results, before = ingest.load_round(run, _unserved(tmp_path), fleet, 0, ingest.SMOKE_MIX)
    planned = sum(ingest.SMOKE_MIX.values()) * ingest.CLIENTS
    assert len(results) == planned
    assert ingest.check_round(run, fleet, results, before) == planned
    assert any("stopped after 1 of" in p for p in run.problems)


def test_durability_check_rejects_a_dropped_acknowledged_record(ingested, tmp_path):
    from vibsense import telemetry

    stored = [(r.node_id, r.seq) for r in telemetry.scan_store(ingested.store)]
    assert checks.check_durability(ingested.fleet.acked, stored) == []
    node, seq = sorted(ingested.fleet.acked)[0]
    kept = [line for line in ingested.store.read_bytes().splitlines(keepends=True)
            if f'"node_id":"{node}","timestamp_ms"'.encode() not in line or f'"seq":{seq},'.encode() not in line]
    planted = tmp_path / "store.jsonl"
    planted.write_bytes(b"".join(kept))
    stored = [(r.node_id, r.seq) for r in telemetry.scan_store(planted)]
    assert checks.check_durability(ingested.fleet.acked, stored)


def test_replay_check_rejects_a_201():
    assert checks.check_replays([409, 409]) == []
    assert checks.check_replays([409, 201])


def test_records_check_follows_filter_sort_and_limit():
    recs = [{"seq": s, "timestamp_ms": 100 - s} for s in range(5)]
    assert [r["seq"] for r in checks.expected_records(recs, since_ms=97)] == [3, 2, 1, 0]
    assert [r["seq"] for r in checks.expected_records(recs, limit=2)] == [4, 3]


def test_gradient_check_rejects_a_wrong_gradient():
    from vibsense import cnn

    model = cnn.init_model(cnn.CnnHyperparams(base_filters=4), seed=0)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(4, 12)), np.array([0, 1, 2, 3])

    def loss():
        return float(-np.mean(np.log(cnn.forward(model, x)[np.arange(4), y])))

    _, grads, _ = cnn.loss_and_grads(model, x, y)
    params = cnn.parameters(model)
    assert checks.check_gradients(loss, grads, params, np.random.default_rng(1)) == []
    grads[0] = grads[0] + 1e-3
    assert checks.check_gradients(loss, grads, params, np.random.default_rng(1))


def test_ranking_check_rejects_an_unsorted_ranking():
    combos = ["a", "b", "c"]
    assert checks.check_ranking([("b", 0.9), ("a", 0.8), ("c", 0.7)], "b", combos, 0.5) == []
    assert checks.check_ranking([("a", 0.8), ("b", 0.9), ("c", 0.7)], "a", combos, 0.5)
    assert checks.check_ranking([("b", 0.9), ("a", 0.8), ("c", 0.7)], "a", combos, 0.5)


@pytest.mark.parametrize("workload", [cnnbench.workload_paper, cnnbench.workload_grid])
def test_cnn_smoke_passes_every_check(workload, tmp_path):
    run = smoke_run(tmp_path, "cnn")
    workload(run)
    assert run.problems == []
    assert run.attempted > 0 and run.failed == 0
