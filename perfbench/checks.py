"""Independent checks of the program's outputs.

Every check recomputes what a stage should have produced from its inputs,
without calling the stage under test, or tests a property the method must
have. Each returns a list of problems, empty when the output is right.
Nothing here compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
from scipy import stats

# The documented formats: feature order, CSV headers and class encoding.
FEATURES = (
    "mean", "mode", "median", "std_dev", "max", "min", "rms", "num_peaks",
    "avg_peak_value", "skewness", "kurtosis", "crest_factor",
)
FEATURE_HEADERS = (
    "Mean", "Mode", "Median", "Standard deviation", "Max", "Min", "RMS",
    "Number of peaks", "Average of peak values", "Skewness", "Kurtosis",
    "Creast factor", "Type of structure",
)
CLASSES = ("building", "flyover", "railline", "steel_overbridge", "concrete_overbridge")
WIRE_FEATURES = FEATURES[:-1] + ("creast_factor",)

# Published mean-amplitude-vs-floor slopes of the two instrumented buildings.
PUBLISHED_SLOPES = {
    "building1_vertical": 0.12,
    "building2_vertical": 4.46,
    "building1_horizontal": -0.2,
    "building2_horizontal": -0.6,
}
SLOPE_TOLERANCE = 0.05

MAX_REPORTED = 5  # problems listed per check before summarising


def _close(a: float, b: float, rel: float, floor: float = 1.0) -> bool:
    return abs(a - b) <= rel * max(floor, abs(a), abs(b))


def _capped(problems: list[str]) -> list[str]:
    if len(problems) > MAX_REPORTED:
        return problems[:MAX_REPORTED] + [f"... and {len(problems) - MAX_REPORTED} more"]
    return problems


# ---------------------------------------------------------------- features


def read_window(path) -> tuple[str, list[int]]:
    """(class name, samples) of a window CSV, parsed without the program."""
    lines = Path(path).read_text().splitlines()
    meta = dict(item.split("=", 1) for item in lines[0].lstrip("# ").split())
    return meta["class"], [int(line.split(",")[1]) for line in lines[2:] if line]


def window_stats(xs: list[int]) -> dict[str, float]:
    """The 12 statistics in plain Python, following the documented conventions."""
    n = len(xs)
    mean = math.fsum(xs) / n
    dev = [x - mean for x in xs]
    m2 = math.fsum(d * d for d in dev) / n
    rms = math.sqrt(math.fsum(x * x for x in xs) / n)
    counts = Counter(xs)
    top = max(counts.values())
    ordered = sorted(xs)
    half = n // 2
    peaks = [xs[i] for i in range(1, n - 1) if xs[i] > xs[i - 1] and xs[i] > xs[i + 1]]
    if m2 > 0:
        skew = math.fsum(d ** 3 for d in dev) / n / m2 ** 1.5
        kurt = math.fsum(d ** 4 for d in dev) / n / m2 ** 2 - 3.0
    else:
        skew = kurt = 0.0
    return {
        "mean": mean,
        "mode": float(min(v for v, c in counts.items() if c == top)),
        "median": float(ordered[half]) if n % 2 else (ordered[half - 1] + ordered[half]) / 2,
        "std_dev": math.sqrt(m2),
        "max": float(ordered[-1]),
        "min": float(ordered[0]),
        "rms": rms,
        "num_peaks": float(len(peaks)),
        "avg_peak_value": math.fsum(peaks) / len(peaks) if peaks else 0.0,
        "skewness": skew,
        "kurtosis": kurt,
        "crest_factor": ordered[-1] / rms if rms > 0 else 0.0,
    }


def read_feature_table(path) -> tuple[np.ndarray, list[str]]:
    """(rows in FEATURES order, class names) of a feature CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != FEATURE_HEADERS:
            raise ValueError(f"{path}: unexpected header {header}")
        rows, labels = [], []
        for cells in reader:
            rows.append([float(c) for c in cells[:-1]])
            labels.append(cells[-1])
    return np.array(rows), labels


def check_features(window_paths, feature_csv, rel: float = 1e-9) -> list[str]:
    """Every cell against a plain-Python recomputation, plus std^2 + mean^2 = rms^2."""
    rows, labels = read_feature_table(feature_csv)
    if len(rows) != len(window_paths):
        return [f"{len(rows)} feature rows for {len(window_paths)} windows"]
    problems = []
    for path, row, label in zip(window_paths, rows, labels):
        cls, xs = read_window(path)
        if label != cls:
            problems.append(f"{Path(path).name}: label {label!r}, window says {cls!r}")
        ref = window_stats(xs)
        for j, name in enumerate(FEATURES):
            if not _close(row[j], ref[name], rel):
                problems.append(f"{Path(path).name}: {name}={row[j]!r}, recomputed {ref[name]!r}")
        mean, std, rms = row[0], row[3], row[6]
        if not _close(std * std + mean * mean, rms * rms, rel):
            problems.append(f"{Path(path).name}: std^2 + mean^2 != rms^2")
    return _capped(problems)


# ---------------------------------------------------------------- spectrum


def direct_dft_magnitudes(xs) -> np.ndarray:
    """|X_k| for k = 1..n//2 of the DC-removed window, by the DFT sum itself."""
    x = np.asarray(xs, dtype=float)
    x = x - x.mean()
    n = len(x)
    k = np.arange(1, n // 2 + 1)[:, None]
    angle = 2.0 * np.pi * ((k * np.arange(n)[None, :]) % n) / n
    return np.hypot(np.cos(angle) @ x, np.sin(angle) @ x)


def check_spectral(window_paths, report_csv, sample: list[int], threshold: float = 10.0) -> list[str]:
    """Dominant bin and dominance ratio of sampled windows, from a direct DFT."""
    lines = Path(report_csv).read_text().splitlines()
    if lines[0] != "file,dominant_bin,dominance_ratio,flat" or len(lines) - 1 != len(window_paths):
        return [f"report has {len(lines) - 1} rows for {len(window_paths)} windows"]
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    for name, _, ratio, flat in rows:
        if int(flat) != int(float(ratio) < threshold):
            problems.append(f"{name}: flat={flat} but ratio={ratio}")
    for i in sample:
        name, dominant, ratio, _ = rows[i]
        if name != Path(window_paths[i]).name:
            problems.append(f"row {i} names {name}, expected {Path(window_paths[i]).name}")
            continue
        mags = direct_dft_magnitudes(read_window(window_paths[i])[1])
        ref_bin = int(np.argmax(mags)) + 1
        ref_ratio = mags[ref_bin - 1] / float(np.median(mags))
        if int(dominant) != ref_bin and not _close(mags[int(dominant) - 1], mags[ref_bin - 1], 1e-9):
            problems.append(f"{name}: dominant bin {dominant}, DFT says {ref_bin}")
        if not _close(float(ratio), ref_ratio, 1e-6):
            problems.append(f"{name}: ratio {ratio}, DFT says {ref_ratio!r}")
    return _capped(problems)


# ---------------------------------------------------------------- selection


def class_codes(labels) -> np.ndarray:
    return np.array([CLASSES.index(lbl) for lbl in labels])


def reference_correlations(rows: np.ndarray, codes: np.ndarray):
    """Pearson r from numpy.corrcoef and two-sided Student-t p per column."""
    n = len(codes)
    r = np.array([np.corrcoef(rows[:, j], codes)[0, 1] for j in range(rows.shape[1])])
    t = np.abs(r) * np.sqrt((n - 2) / np.maximum(1.0 - r * r, 1e-300))
    p = 2.0 * stats.t.sf(t, n - 2)
    return r, p


def check_selection(feature_csv, correlation_csv, selected_json,
                    r_min: float = 0.4, p_max: float = 5e-5) -> list[str]:
    rows, labels = read_feature_table(feature_csv)
    r, p = reference_correlations(rows, class_codes(labels))
    lines = Path(correlation_csv).read_text().splitlines()
    problems = []
    if len(lines) - 1 != len(FEATURES):
        return [f"correlation table has {len(lines) - 1} rows"]
    for j, line in enumerate(lines[1:]):
        name, r_txt, p_txt = line.split(",")
        if name != FEATURES[j]:
            problems.append(f"row {j} is {name}, expected {FEATURES[j]}")
        if not _close(float(r_txt), r[j], 1e-9):
            problems.append(f"{name}: r={r_txt}, corrcoef gives {r[j]!r}")
        if not (p[j] < 1e-300 and float(p_txt) < 1e-300) and not _close(float(p_txt), p[j], 1e-6, floor=0):
            problems.append(f"{name}: p={p_txt}, Student-t gives {p[j]!r}")
    expected = [FEATURES[j] for j in range(len(FEATURES)) if abs(r[j]) >= r_min and p[j] < p_max]
    chosen = json.loads(Path(selected_json).read_text())
    if chosen != expected:
        problems.append(f"selected {chosen}, the rule gives {expected}")
    return _capped(problems)


# ---------------------------------------------------------------- k-NN


def _apportion(total: int, ratios) -> list[int]:
    exact = [total * r for r in ratios]
    counts = [math.floor(e) for e in exact]
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def stratified_split(codes: np.ndarray, ratios, seed: int) -> list[np.ndarray]:
    """The documented split: per class, a seeded shuffle cut by largest remainder."""
    rng = np.random.default_rng(seed)
    parts: list[list[int]] = [[] for _ in ratios]
    for cls in np.unique(codes):
        members = np.flatnonzero(codes == cls)
        members = members[rng.permutation(len(members))]
        start = 0
        for part, count in zip(parts, _apportion(len(members), ratios)):
            part.extend(members[start : start + count])
            start += count
    return [np.sort(np.array(part, dtype=int)) for part in parts]


def fold_assignments(codes: np.ndarray, folds: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out = np.empty(len(codes), dtype=int)
    for cls in np.unique(codes):
        members = np.flatnonzero(codes == cls)
        members = members[rng.permutation(len(members))]
        out[members] = np.arange(len(members)) % folds
    return out


def neighbour_orders(train: np.ndarray, queries: np.ndarray) -> list[np.ndarray]:
    """Training rows by distance from each query, z-scored on the training rows.

    Equal distances keep the lower training row first.
    """
    mean, std = train.mean(axis=0), train.std(axis=0)
    keep = std > 0
    z_train = (train[:, keep] - mean[keep]) / std[keep]
    z_query = (queries[:, keep] - mean[keep]) / std[keep]
    orders = []
    for q in z_query:
        d2 = ((z_train - q) ** 2).sum(axis=1)
        orders.append(np.argsort(d2, kind="stable"))
    return orders


def vote(neighbour_labels, n_classes: int = len(CLASSES)) -> int:
    """Majority label; a tie goes to the smallest class index."""
    counts = [0] * n_classes
    for label in neighbour_labels:
        counts[label] += 1
    return counts.index(max(counts))


def knn_brute(train, train_codes, queries, k: int) -> np.ndarray:
    return np.array([vote(train_codes[o[:k]]) for o in neighbour_orders(train, queries)])


def cv_curve(rows, codes, seed: int, folds: int = 10, ks=range(1, 31)) -> dict[int, float]:
    assignment = fold_assignments(codes, folds, seed)
    curve = {k: 0.0 for k in ks}
    for fold in range(folds):
        tr, va = assignment != fold, assignment == fold
        orders = neighbour_orders(rows[tr], rows[va])
        labels_tr, labels_va = codes[tr], codes[va]
        for k in curve:
            if k > tr.sum():
                continue
            preds = np.array([vote(labels_tr[o[:k]]) for o in orders])
            curve[k] += float(np.mean(preds == labels_va)) / folds
    return curve


def best_k(curve: dict[int, float]) -> int:
    return max(curve, key=lambda k: (curve[k], -k))


def classification_table(preds, codes, n_classes: int = len(CLASSES)) -> dict:
    """Per-class precision, recall and F1 (0/0 counts as 0), macro means, accuracy."""
    table = {}
    for c in range(n_classes):
        tp = int(np.sum((preds == c) & (codes == c)))
        predicted, actual = int(np.sum(preds == c)), int(np.sum(codes == c))
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        table[CLASSES[c]] = (precision, recall, f1)
    table["macro"] = tuple(float(np.mean([table[c][i] for c in CLASSES])) for i in range(3))
    table["accuracy"] = float(np.mean(preds == codes))
    return table


def read_metrics_csv(path) -> dict:
    table = {}
    for line in Path(path).read_text().splitlines()[1:]:
        name, *cells = line.split(",")
        if name == "accuracy":
            table[name] = float(cells[0])
        else:
            table[name] = tuple(float(c) for c in cells)
    return table


def check_metrics_table(found: dict, expected: dict) -> list[str]:
    problems = []
    for name, ref in expected.items():
        got = found.get(name)
        refs, gots = (ref, got) if isinstance(ref, tuple) else ((ref,), (got,))
        if got is None or any(not _close(g, r, 1e-12, floor=1e-12) for g, r in zip(gots, refs)):
            problems.append(f"{name}: {got}, recomputed {ref}")
    for name, cells in found.items():
        if name in CLASSES:  # the macro F1 is a mean of these, not 2PR/(P+R)
            precision, recall, f1 = cells
            ref_f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            if not _close(f1, ref_f1, 1e-12, floor=1e-12):
                problems.append(f"{name}: F1 {f1} is not 2PR/(P+R) = {ref_f1}")
    return problems


def check_knn(out_dir, seed: int, train_knn_stdout: str, floor: float = 0.85) -> list[str]:
    """k sweep curves, the chosen k and the test-set metrics, by brute force."""
    out = Path(out_dir)
    rows, labels = read_feature_table(out / "features.csv")
    codes = class_codes(labels)
    chosen = json.loads((out / "selected_features.json").read_text())
    rows = rows[:, [FEATURES.index(name) for name in chosen]]
    problems = []

    curve = cv_curve(rows, codes, seed)
    for line in (out / "k_curve.csv").read_text().splitlines()[1:]:
        k_txt, acc_txt = line.split(",")
        if not _close(float(acc_txt), curve[int(k_txt)], 1e-12, floor=1e-12):
            problems.append(f"k_curve k={k_txt}: {acc_txt}, brute force {curve[int(k_txt)]!r}")

    train_idx, _, test_idx = stratified_split(codes, (0.7, 0.1, 0.2), seed)
    k = best_k(cv_curve(rows[train_idx], codes[train_idx], seed))
    match = re.search(r"\bk=(\d+)\b", train_knn_stdout)
    if match is None or int(match.group(1)) != k:
        problems.append(f"train-knn chose {match and match.group(1)}, brute-force sweep gives k={k}")
    preds = knn_brute(rows[train_idx], codes[train_idx], rows[test_idx], k)
    expected = classification_table(preds, codes[test_idx])
    problems += check_metrics_table(read_metrics_csv(out / "knn_metrics.csv"), expected)
    if expected["accuracy"] < floor:
        problems.append(f"test accuracy {expected['accuracy']:.4f} below {floor}")
    return _capped(problems)


# ---------------------------------------------------------------- height fits


def check_height(text: str) -> list[str]:
    """Each fitted slope has its published law's sign and lies near it."""
    fits = {}
    for line in text.splitlines():
        match = re.match(r"(\w+): mean_amplitude = (\S+) \* floor_index \+ (\S+)\s+verdict=(\w+)", line)
        if match:
            fits[match.group(1)] = (float(match.group(2)), match.group(4))
    problems = []
    for name, ref in PUBLISHED_SLOPES.items():
        if name not in fits:
            problems.append(f"no fit for {name}")
            continue
        slope, verdict = fits[name]
        sign = "positive" if ref > 0 else "negative"
        if math.copysign(1, slope) != math.copysign(1, ref) or verdict != sign:
            problems.append(f"{name}: slope {slope} verdict {verdict}, law has {sign} slope {ref}")
        elif abs(slope - ref) > SLOPE_TOLERANCE:
            problems.append(f"{name}: slope {slope} is more than {SLOPE_TOLERANCE} from {ref}")
    return problems


# ---------------------------------------------------------------- CNN


def check_accuracy(probs: np.ndarray, codes: np.ndarray, floor: float) -> list[str]:
    acc = float(np.mean(np.argmax(probs, axis=1) == codes))
    return [] if acc >= floor else [f"test accuracy {acc:.4f} below {floor}"]


def check_gradients(loss_fn, grads, params, rng, per_array: int = 3,
                    eps: float = 1e-6, rel: float = 1e-4, abs_tol: float = 1e-7) -> list[str]:
    """Central finite differences of ``loss_fn()`` against analytic ``grads``.

    ``params`` are the arrays ``loss_fn`` reads; entries are nudged in place
    and restored.
    """
    problems = []
    for a, (p, g) in enumerate(zip(params, grads)):
        for flat in rng.choice(p.size, size=min(per_array, p.size), replace=False):
            idx = np.unravel_index(flat, p.shape)
            saved = p[idx]
            p[idx] = saved + eps
            up = loss_fn()
            p[idx] = saved - eps
            down = loss_fn()
            p[idx] = saved
            fd = (up - down) / (2 * eps)
            if abs(fd - g[idx]) > abs_tol + rel * abs(fd):
                problems.append(f"param {a} {idx}: analytic {g[idx]!r}, finite difference {fd!r}")
    return problems


def check_ranking(ranked, winner, combos, floor: float) -> list[str]:
    """Grid ranking: every combo once, sorted by score, winner first and above floor."""
    problems = []
    scores = [score for _, score in ranked]
    if sorted(map(repr, (hp for hp, _ in ranked))) != sorted(map(repr, combos)):
        problems.append("ranking does not hold every combo exactly once")
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append(f"ranking not sorted: {scores}")
    if not ranked or ranked[0][0] != winner:
        problems.append("winner is not ranked first")
    elif scores[0] < floor:
        problems.append(f"winner scores {scores[0]:.4f}, below {floor}")
    return problems


# ---------------------------------------------------------------- telemetry


def check_durability(acked, stored) -> list[str]:
    """Every acknowledged (node_id, seq) is in the store exactly once."""
    counts = Counter(stored)
    problems = [f"acked {key} stored {counts[key]} times" for key in acked if counts[key] != 1]
    dupes = [key for key, n in counts.items() if n > 1 and key not in acked]
    problems += [f"{key} stored {counts[key]} times" for key in dupes]
    return _capped(problems)


def check_replays(statuses) -> list[str]:
    bad = [s for s in statuses if s != 409]
    return [f"{len(bad)} of {len(statuses)} replays answered {sorted(set(bad))}, not 409"] if bad else []


def expected_records(node_records: list[dict], since_ms=None, limit=None) -> list[dict]:
    """The /records answer for one node: filter by since_ms, sort, cut to limit."""
    chosen = [r for r in node_records if since_ms is None or r["timestamp_ms"] >= since_ms]
    chosen.sort(key=lambda r: (r["timestamp_ms"], r["seq"]))
    return chosen if limit is None else chosen[:limit]


def check_nodes(answer: list[dict], exact: dict, bounds: dict, last_seen_of) -> list[str]:
    """/nodes: exact for nodes whose writer was idle, consistent for the rest.

    ``exact`` maps node -> record count known at request time; ``bounds`` maps
    node -> (lowest, highest) count possible; ``last_seen_of(node, count)``
    gives the newest timestamp of a node holding ``count`` records.
    """
    problems = []
    nodes = [n["node_id"] for n in answer]
    if nodes != sorted(bounds):
        problems.append(f"/nodes lists {len(nodes)} nodes, expected {len(bounds)} in order")
    for entry in answer:
        node, count = entry["node_id"], entry["record_count"]
        low, high = bounds.get(node, (None, None))
        if node in exact and count != exact[node]:
            problems.append(f"{node}: count {count}, expected {exact[node]}")
        elif low is not None and not low <= count <= high:
            problems.append(f"{node}: count {count} outside [{low}, {high}]")
        if entry["last_seen_ms"] != last_seen_of(node, count):
            problems.append(f"{node}: last_seen_ms {entry['last_seen_ms']} does not match count {count}")
    return _capped(problems)
