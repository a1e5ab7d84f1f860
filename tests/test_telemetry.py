import errno
import gc
import http.client
import json
import os
import re
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from http.server import ThreadingHTTPServer
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import FIELD_SAMPLE_ROWS, child_env
from vibsense import telemetry
from vibsense.errors import DeliveryError, SchemaError, StoreError
from vibsense.features import FeatureVector
from vibsense.signalsim import DEFAULT_PROFILES, StructureClass
from vibsense.telemetry import (
    WIRE_FEATURE_KEYS,
    StoreIndex,
    TelemetryRecord,
    TelemetryServer,
    append_store,
    decode_record,
    encode_record,
    node_emulator,
    record_key,
    record_wire_dict,
    scan_store,
)

_TOP_LEVEL_KEYS = ("node_id", "timestamp_ms", "seq", "features", "label", "site")


def _vector(seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-100, 1000, 12)
    vals[7] = rng.integers(0, 700)  # num_peaks is a count
    return FeatureVector.from_array(vals)


def _record(node="node-a", ts=1_700_000_000_000, seq=0, label=None, site=None, seed=0):
    return TelemetryRecord(
        node_id=node,
        timestamp_ms=ts,
        seq=seq,
        features=_vector(seed),
        label=label,
        site=site,
    )


def _http(method, url, body=None):
    req = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(url, record):
    return _http("POST", url + "/ingest", encode_record(record))


# -------------------------------------------------------------- wire format


def test_wire_dict_reference_row():
    fv = FeatureVector.from_array(FIELD_SAMPLE_ROWS["building"])
    record = TelemetryRecord("node-a", 1000, 0, fv, StructureClass.BUILDING, "yard")
    d = record_wire_dict(record)
    assert list(d) == list(_TOP_LEVEL_KEYS)
    assert list(d["features"]) == list(WIRE_FEATURE_KEYS)
    assert d["features"]["mean"] == 20.16
    assert d["features"]["creast_factor"] == 4.23
    assert d["label"] == "building"
    assert encode_record(record) == (
        b'{"node_id":"node-a","timestamp_ms":1000,"seq":0,"features":{"mean":20.16,'
        b'"mode":19.0,"median":21.0,"std_dev":10.38,"max":96.0,"min":0.0,"rms":22.68,'
        b'"num_peaks":651,"avg_peak_value":26.59,"skewness":1.9,"kurtosis":10.03,'
        b'"creast_factor":4.23},"label":"building","site":"yard"}'
    )


def test_encode_decode_round_trip_bulk():
    rng = np.random.default_rng(42)
    classes = list(StructureClass)
    for i in range(10_000):
        record = TelemetryRecord(
            node_id=f"node-{i % 17}",
            timestamp_ms=int(rng.integers(1, 2**53)),
            seq=int(rng.integers(0, 2**31)),
            features=_vector(i),
            label=classes[i % 6] if i % 6 < 5 else None,
            site="roof" if i % 3 == 0 else None,
        )
        assert decode_record(encode_record(record)) == record


@settings(max_examples=150, deadline=None)
@given(
    node_id=st.text(min_size=1, max_size=30),
    timestamp_ms=st.integers(min_value=1, max_value=2**53),
    seq=st.integers(min_value=0, max_value=2**31),
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=12,
        max_size=12,
    ),
    label=st.sampled_from(list(StructureClass) + [None]),
    site=st.one_of(st.none(), st.text(max_size=20)),
)
def test_round_trip_property(node_id, timestamp_ms, seq, values, label, site):
    record = TelemetryRecord(
        node_id=node_id,
        timestamp_ms=timestamp_ms,
        seq=seq,
        features=FeatureVector.from_array(np.array(values)),
        label=label,
        site=site,
    )
    assert decode_record(encode_record(record)) == record


def test_decode_rejects_truncated_and_malformed_bodies():
    encoded = encode_record(_record())
    # 5000 "[" make json.loads raise RecursionError, which no handler caught
    for raw in (encoded[:-7], b"\xff\xfe{", b"[1,2]", b"", b"null", b"[" * 5000):
        with pytest.raises(SchemaError) as exc_info:
            decode_record(raw)
        assert exc_info.value.field == "body"


def _mutated(mutate):
    obj = record_wire_dict(_record(label=StructureClass.RAILLINE, site="pit"))
    mutate(obj)
    return json.dumps(obj).encode()


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda o: o.pop("seq"), "seq"),
        (lambda o: o.pop("features"), "features"),
        (lambda o: o.update(extra=1), "extra"),
        (lambda o: o.update(label="castle"), "label"),
        (lambda o: o.update(label=3), "label"),
        (lambda o: o.update(site=5), "site"),
        (lambda o: o.update(node_id=""), "node_id"),
        (lambda o: o.update(timestamp_ms=-5), "timestamp_ms"),
        (lambda o: o.update(timestamp_ms=10.5), "timestamp_ms"),
        (lambda o: o.update(seq=-1), "seq"),
        (lambda o: o.update(seq=True), "seq"),
        (lambda o: o["features"].pop("rms"), "features.rms"),
        (lambda o: o["features"].update(mean=True), "features.mean"),
        (lambda o: o["features"].update(mode="x"), "features.mode"),
        (lambda o: o["features"].update(extra=0.0), "features.extra"),
        (lambda o: o.update(features=[1, 2]), "features"),
        pytest.param(lambda o: o.pop("node_id"), "node_id", id="missing node_id"),
        pytest.param(lambda o: o.pop("timestamp_ms"), "timestamp_ms", id="missing timestamp_ms"),
        pytest.param(lambda o: o.update(features=None), "features", id="null features"),
        pytest.param(lambda o: o["features"].update(median=None), "features.median",
                     id="null feature"),
        pytest.param(lambda o: o["features"].update(max=[1.0]), "features.max", id="list feature"),
        pytest.param(lambda o: o["features"].update(num_peaks=True), "features.num_peaks",
                     id="bool feature"),
        pytest.param(lambda o: o.update(label=True), "label", id="bool label"),
    ],
)
def test_decode_names_the_offending_field(mutate, field):
    with pytest.raises(SchemaError) as exc_info:
        decode_record(_mutated(mutate))
    assert exc_info.value.field == field


def test_decode_rejects_non_finite_numbers():
    obj = record_wire_dict(_record())
    obj["features"]["skewness"] = 92233720.5  # sentinel swapped for an overflow literal
    body = json.dumps(obj).replace("92233720.5", "1e999").encode()
    with pytest.raises(SchemaError) as exc_info:
        decode_record(body)
    assert exc_info.value.field == "features.skewness"


def test_decode_rejects_an_integer_beyond_float64():
    obj = record_wire_dict(_record())
    obj["features"]["num_peaks"] = 10**400
    with pytest.raises(SchemaError) as exc_info:
        decode_record(json.dumps(obj).encode())
    assert exc_info.value.field == "features.num_peaks"


def test_decode_rejects_an_integer_past_the_int_digit_limit():
    # json.loads raises a plain ValueError here, which no handler caught
    body = encode_record(_record()).replace(b'"seq":0', b'"seq":' + b"1" * 5000)
    with pytest.raises(SchemaError) as exc_info:
        decode_record(body)
    assert exc_info.value.field == "body"


# A store open reads a line through telemetry._line_pattern() when it matches
# and through decode_record otherwise. Each number spelling below, JSON or not,
# decode_record accepts or refuses; the fast path must refuse what it refuses,
# and give the key and the answer it gives for what it accepts.
_NUMBER_SPELLINGS = [
    b"1e999", b"-1e999", b"1" * 401, b"1e100", b"2.5E-300", b"-0", b"1.50", b"1E5", b"1e05",
    b"0.00012345678901234568", b"1" * 17, b"1" * 18, b"9" * 17 + b".5e99", b"-0.0", b"NaN",
    b"Infinity", b"01", b"1.", b".5", b"+1", b"true", b'"1"',
]
_PRINTABLE = st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=12)
_PLAIN = st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters='"\\'),
                 min_size=1, max_size=12)  # strings the fast path reads
_MODEST = st.floats(1e-90, 1e15) | st.floats(-1e15, -1e-90) | st.sampled_from([0.0, -0.0])


def _respell(record, how, data):
    """A store line for ``record``: encode_record's, or one spelled another way."""
    wire = record_wire_dict(record)
    if how == "number":
        key = data.draw(st.sampled_from(WIRE_FEATURE_KEYS))
        wire["features"][key] = 92233720.5  # a sentinel, swapped for the spelling
        spelled = data.draw(st.sampled_from(_NUMBER_SPELLINGS))
        return encode_record(_decoded(wire)).replace(b"92233720.5", spelled)
    if how == "raw non-ASCII":
        return json.dumps(wire, separators=(",", ":"), ensure_ascii=False).encode()
    if how == "spaced":
        return json.dumps(wire).encode()
    if how == "reordered":
        return json.dumps(dict(reversed(wire.items())), separators=(",", ":")).encode()
    if how == "unknown label":
        wire["label"] = "castle"
    elif how == "no site":
        del wire["site"]
    return json.dumps(wire, separators=(",", ":")).encode()


def _decoded(wire):
    return decode_record(json.dumps(wire))


@settings(max_examples=400, deadline=None)
@given(
    node_id=_PLAIN | _PRINTABLE | st.text(min_size=1, max_size=12),
    values=st.lists(_MODEST, min_size=12, max_size=12)
    | st.lists(
        st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**20), 10**20),
        min_size=12,
        max_size=12,
    ),
    label=st.sampled_from(list(StructureClass) + [None]),
    site=st.none() | _PLAIN | st.text(max_size=12),
    how=st.sampled_from(["canonical"] * 3 + ["number"] * 3
                        + ["raw non-ASCII", "spaced", "reordered", "unknown label", "no site"]),
    data=st.data(),
)
def test_store_open_fast_path_agrees_with_decode_record(node_id, values, label, site, how, data):
    features = dict(zip(WIRE_FEATURE_KEYS, values))
    wire = {"node_id": node_id, "timestamp_ms": 1_700_000_000_000, "seq": 7,
            "features": features, "label": label and label.value, "site": site}
    try:
        record = _decoded(wire)
    except SchemaError:  # an integer feature past float64
        return
    _check_fast_path(_respell(record, how, data))


@pytest.mark.parametrize("spelled", _NUMBER_SPELLINGS)
@pytest.mark.parametrize("key", ["mean", "num_peaks", "creast_factor"])
def test_store_open_fast_path_reads_each_number_spelling(spelled, key):
    line = encode_record(_record(label=StructureClass.FLYOVER, site="yard"))
    key = key.encode()
    _check_fast_path(re.sub(b'"%s":[^,}]+' % key, b'"%s":%s' % (key, spelled), line))


def _check_fast_path(line):
    """The store open's key and answer for ``line`` are decode_record's, or both refuse it."""
    try:
        want = decode_record(line)
    except SchemaError:
        assert telemetry._line_pattern().fullmatch(line) is None, line
        with pytest.raises(StoreError, match=r"^s\.jsonl line 1: "):
            telemetry._load("s.jsonl", [line])
        return
    keys, loaded = telemetry._load("s.jsonl", [line])
    assert keys == [record_key(want)]
    assert StoreIndex(keys, loaded).line(0) == encode_record(want)


def _canonical_store(path, count):
    records = [_record(node=f"node-{i % 7}", ts=1000 + i, seq=i, seed=i,
                       label=list(StructureClass)[i % 5], site="yard" if i % 2 else None)
               for i in range(count)]
    path.write_bytes(b"".join(encode_record(r) + b"\n" for r in records))
    return records


def _counting(monkeypatch, name):
    calls = []
    real = getattr(telemetry, name)
    monkeypatch.setattr(telemetry, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_store_open_decodes_no_canonical_line(tmp_path, monkeypatch):
    records = _canonical_store(tmp_path / "s.jsonl", 200)
    decodes = _counting(monkeypatch, "decode_record")
    state = telemetry._ServiceState(tmp_path / "s.jsonl")
    try:
        assert decodes == []
        assert state.index.max_seq == {r.node_id: r.seq for r in records}  # seqs rise
        assert state.query() == [encode_record(r) for r in records]
    finally:
        state.close()


def test_first_answer_of_canonical_loaded_lines_encodes_nothing(tmp_path, monkeypatch):
    records = _canonical_store(tmp_path / "s.jsonl", 200)
    want = [
        json.dumps({"records": [record_wire_dict(r) for r in _want(records, node)]},
                   separators=(",", ":")).encode()
        for node in ("node-3", None)
    ]
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        encodes = _counting(monkeypatch, "encode_record")
        for node, body in zip(("node-3", None), want):
            query = "" if node is None else f"?node_id={node}"
            with urllib.request.urlopen(srv.url + "/records" + query, timeout=10) as resp:
                assert resp.read() == body
    assert encodes == []


def test_store_error_names_the_line_that_overflows(tmp_path):
    path = tmp_path / "s.jsonl"
    _canonical_store(path, 80)
    lines = path.read_bytes().split(b"\n")
    lines[56] = re.sub(rb'"skewness":[^,]+', b'"skewness":1e999', lines[56])
    path.write_bytes(b"\n".join(lines))
    message = f"{path} line 57: features.skewness: must be finite"
    for open_store in (scan_store, telemetry._ServiceState, TelemetryServer):
        with pytest.raises(StoreError) as exc_info:
            open_store(path)
        assert str(exc_info.value) == message


def test_store_error_names_the_line_nested_past_the_recursion_limit(tmp_path):
    path = tmp_path / "s.jsonl"
    _canonical_store(path, 5)
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"[" * 5000
    path.write_bytes(b"\n".join(lines))
    for open_store in (scan_store, telemetry._ServiceState, TelemetryServer):
        with pytest.raises(StoreError, match=f"^{re.escape(str(path))} line 3: body: not valid JSON"):
            open_store(path)


def test_record_validation_direct():
    fv = _vector()
    with pytest.raises(SchemaError):
        TelemetryRecord("", 1000, 0, fv)
    with pytest.raises(SchemaError):
        TelemetryRecord("n", 0, 0, fv)
    with pytest.raises(SchemaError):
        TelemetryRecord("n", 1000, -1, fv)
    with pytest.raises(SchemaError):
        TelemetryRecord("n", 1000, 0, {"mean": 1.0})
    bad = FeatureVector(*([float("nan")] + [0.0] * 11))
    with pytest.raises(SchemaError) as exc_info:
        TelemetryRecord("n", 1000, 0, bad)
    assert exc_info.value.field == "features.mean"


# -------------------------------------------------------------------- store


def test_store_append_scan_round_trip(tmp_path):
    path = tmp_path / "store.jsonl"
    records = [
        _record(node=f"node-{i % 3}", ts=1000 + i, seq=i // 3, seed=i) for i in range(50)
    ]
    for r in records:
        append_store(path, r)
    assert scan_store(path) == records


def test_store_empty_file(tmp_path):
    path = tmp_path / "store.jsonl"
    path.touch()
    assert scan_store(path) == []


def test_store_torn_trailing_line_is_skipped(tmp_path):
    path = tmp_path / "store.jsonl"
    records = [_record(seq=i, seed=i) for i in range(4)]
    for r in records:
        append_store(path, r)
    with open(path, "ab") as fh:
        fh.write(encode_record(_record(seq=4))[:25])  # crash artifact, no newline
    with pytest.warns(UserWarning, match="torn"):
        got = scan_store(path)
    assert got == records


def test_store_line_without_newline_is_torn_even_when_it_decodes(tmp_path):
    # every append writes line and newline at once, so a last line without
    # its newline was never acknowledged; the server cuts it on open too
    path = tmp_path / "store.jsonl"
    path.write_bytes(encode_record(_record(seq=0)) + b"\n" + encode_record(_record(seq=1)))
    with pytest.warns(UserWarning, match="torn"):
        assert scan_store(path) == [_record(seq=0)]


def test_store_interior_corruption_raises(tmp_path):
    path = tmp_path / "store.jsonl"
    lines = [encode_record(_record(seq=i, seed=i)) for i in range(3)]
    lines[1] = lines[1][:30]  # mangled but followed by a valid line
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(StoreError, match="line 2"):
        scan_store(path)


def test_store_bulk_scan_matches_line_count(tmp_path):
    path = tmp_path / "store.jsonl"
    base = encode_record(_record())
    with open(path, "wb") as fh:
        for i in range(100_000):
            fh.write(encode_record(_record(seq=i)) if i % 1000 == 0 else base)
            fh.write(b"\n")
    records = scan_store(path)
    assert len(records) == 100_000
    assert path.read_bytes().count(b"\n") == 100_000


def test_store_survives_a_torn_write_at_every_offset(tmp_path):
    # a restart is a fresh server state over the same store; the HTTP loop
    # plays no part in opening the store
    records = [_record(seq=i, seed=i) for i in range(4)]
    lines = [encode_record(r) + b"\n" for r in records]
    path = tmp_path / "store.jsonl"
    for cut in range(len(lines[2]) + 1):  # records 0 and 1 were acknowledged
        path.write_bytes(lines[0] + lines[1] + lines[2][:cut])
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            state = telemetry._ServiceState(path)
        assert any("torn" in str(w.message) for w in seen) == (0 < cut < len(lines[2])), cut
        # the node resends the record it saw no answer for, then goes on
        landed = cut == len(lines[2])
        assert state.ingest(records[2]) == ("duplicate" if landed else "stored"), cut
        assert state.ingest(records[3]) == "stored", cut
        state.close()
        state = telemetry._ServiceState(path)  # the restart after the tear must come up
        assert state.query() == [encode_record(r) for r in records], cut
        state.close()
        assert path.read_bytes() == b"".join(lines), cut


def test_append_store_after_a_torn_tail_keeps_the_store_readable(tmp_path):
    path = tmp_path / "store.jsonl"
    append_store(path, _record(seq=0))
    with open(path, "ab") as fh:  # a crash mid-append leaves a prefix, no newline
        fh.write(encode_record(_record(seq=5))[:30])
    append_store(path, _record(seq=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the torn bytes are gone, not skipped
        assert scan_store(path) == [_record(seq=0), _record(seq=1)]
        with TelemetryServer(path) as srv:
            status, payload = _http("GET", srv.url + "/records?node_id=node-a")
    assert status == 200 and [r["seq"] for r in payload["records"]] == [0, 1]


def test_creating_the_store_fsyncs_its_directory_once(tmp_path, monkeypatch):
    real_fsync, synced = os.fsync, []

    def noting_fsync(fd):  # True for the store's directory
        synced.append(os.path.samestat(os.fstat(fd), os.stat(tmp_path)))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", noting_fsync)
    for name, open_store in (("appended.jsonl", lambda path: append_store(path, _record())),
                             ("served.jsonl", lambda path: telemetry._ServiceState(path).close())):
        for times in (1, 0):  # the open that creates the file, then a reopen
            synced.clear()
            open_store(tmp_path / name)
            assert synced.count(True) == times, (name, synced)


# ------------------------------------------------------------------- server


def test_server_post_get_and_durability(tmp_path):
    path = tmp_path / "store.jsonl"
    record = _record(label=StructureClass.FLYOVER, site="pier")
    with TelemetryServer(path) as srv:
        assert srv.port > 0 and str(srv.port) in srv.url
        status, payload = _post(srv.url, record)
        assert status == 201
        assert payload == {"node_id": "node-a", "seq": 0}
        # acked means fsynced: the line must be on disk while the server runs
        assert scan_store(path) == [record]
        status, payload = _http("GET", srv.url + "/records")
        assert status == 200
        assert payload["records"] == [record_wire_dict(record)]
        status, payload = _http("GET", srv.url + "/nodes")
        assert status == 200
        assert payload["nodes"] == [
            {"node_id": "node-a", "last_seen_ms": record.timestamp_ms, "record_count": 1}
        ]


def test_server_duplicate_and_stale_seq(tmp_path):
    path = tmp_path / "store.jsonl"
    with TelemetryServer(path) as srv:
        assert _post(srv.url, _record(seq=5))[0] == 201
        status, payload = _post(srv.url, _record(seq=5))
        assert status == 409
        assert payload["max_seq"] == 5
        status, _ = _post(srv.url, _record(seq=3))  # stale out-of-order
        assert status == 409
        assert _post(srv.url, _record(seq=6))[0] == 201
    assert [r.seq for r in scan_store(path)] == [5, 6]


def test_server_schema_errors_return_400(tmp_path):
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        obj = record_wire_dict(_record())
        obj["label"] = "castle"
        status, payload = _http("POST", srv.url + "/ingest", json.dumps(obj).encode())
        assert status == 400
        assert payload["field"] == "label"
        for body in (b"{nope", b"[" * 5000):
            status, payload = _http("POST", srv.url + "/ingest", body)
            assert status == 400
            assert payload["field"] == "body"
    assert scan_store(tmp_path / "s.jsonl") == []


def test_server_write_failure_returns_503_then_recovers(tmp_path, monkeypatch):
    path = tmp_path / "s.jsonl"
    real_write = os.write

    def write_then_fill_the_disk(fd, data):  # 40 bytes reach the file, then the disk is full
        real_write(fd, data[:40])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with TelemetryServer(path) as srv:
        assert _post(srv.url, _record(seq=0))[0] == 201
        before = path.read_bytes()
        monkeypatch.setattr(os, "write", write_then_fill_the_disk)
        assert _post(srv.url, _record(seq=1))[0] == 503
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert _post(srv.url, _record(seq=1))[0] == 201
    assert [r.seq for r in scan_store(path)] == [0, 1]


def test_server_after_a_failed_fsync_answers_503_until_a_restart(tmp_path, monkeypatch):
    path = tmp_path / "s.jsonl"
    real_fsync, failures = os.fsync, [OSError(errno.EIO, os.strerror(errno.EIO))]

    def fsync_failing_once(fd):
        if failures:
            raise failures.pop()
        real_fsync(fd)

    with TelemetryServer(path) as srv:
        assert _post(srv.url, _record(seq=0))[0] == 201
        monkeypatch.setattr(os, "fsync", fsync_failing_once)
        assert _post(srv.url, _record(seq=1))[0] == 503
        assert not failures  # fsync is healthy again, but the page cache may have lost a write
        status, payload = _post(srv.url, _record(seq=1))
        assert status == 503 and "restart" in payload["error"]
        assert _post(srv.url, _record(seq=2))[0] == 503
    with TelemetryServer(path) as srv:  # the restart re-reads the store
        assert _post(srv.url, _record(seq=1))[0] == 201
        assert _post(srv.url, _record(seq=0))[0] == 409
    assert [r.seq for r in scan_store(path)] == [0, 1]


# A _ServiceState whose file size limit ends 100 bytes past a one-record store: seq 1's
# write stops there (EFBIG; SIGXFSZ ignored), then with the limit lifted seq 1 and 2 go in.
_FILE_SIZE_LIMIT_CHILD = """
import os, resource, signal, sys
from vibsense.errors import StoreError
from vibsense.features import FeatureVector
from vibsense.telemetry import TelemetryRecord, _ServiceState

store, limited = sys.argv[1], sys.argv[2] == "limited"
features = FeatureVector.from_array([i + 0.25 for i in range(12)])
state = _ServiceState(store)
ingest = lambda seq: state.ingest(TelemetryRecord("node-a", 1_700_000_000_000 + seq, seq, features))
ingest(0)
if limited:
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (os.path.getsize(store) + 100, hard))
    try:
        ingest(1)
    except StoreError as exc:
        print("StoreError:", exc)
    resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
print(ingest(1), ingest(2))
state.close()
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE and SIGXFSZ")
def test_an_append_cut_short_by_the_file_size_limit_leaves_nothing_behind(tmp_path):
    stored = {}
    for run in ("limited", "unlimited"):
        store = tmp_path / f"{run}.jsonl"
        done = subprocess.run([sys.executable, "-c", _FILE_SIZE_LIMIT_CHILD, str(store), run],
                              env=child_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        stored[run] = done.stdout, store.read_bytes()
    out, data = stored["limited"]
    assert out.startswith("StoreError:") and "File too large" in out, out
    assert out.endswith("stored stored\n"), out
    assert [r.seq for r in scan_store(tmp_path / "limited.jsonl")] == [0, 1, 2]
    assert data == stored["unlimited"][1]


def test_server_unknown_paths_and_bad_params(tmp_path):
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        assert _http("POST", srv.url + "/other", b"{}")[0] == 404
        assert _http("GET", srv.url + "/other")[0] == 404
        assert _http("GET", srv.url + "/records?since_ms=abc")[0] == 400
        assert _http("GET", srv.url + "/records?limit=xyz")[0] == 400
        assert _http("GET", srv.url + "/records?limit=-1")[0] == 400


def test_server_records_query_is_read_strictly(tmp_path):
    # a blank node_id is not the all-nodes form, and integers are ASCII digits
    # as for Content-Length: no "+", "_", spaces or other scripts' digits
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        assert _post(srv.url, _record(ts=1001))[0] == 201
        for query in ["node_id=", "node_id", "since_ms=1_001", "since_ms=+1001", "since_ms=",
                      "since_ms=--1", "limit=+3", "limit=%203%20", "limit=3_0", "limit=%D9%A3",
                      "limit=-0", "node_id=node-a&limit=", "since_ms=" + "1" * 4301,
                      # unknown names and repeats are refused, not ignored or read once
                      "nodeid=node-a", "node_id=node-a&bogus=1", "node_id=node-a&node_id=node-b",
                      "limit=1&limit=5"]:
            status, payload = _http("GET", srv.url + "/records?" + query)
            assert status == 400, query
            assert payload["error"].split()[0] in ("node_id", "since_ms", "limit", "nodeid",
                                                   "bogus"), query
        for query, count in [("since_ms=-5", 1), ("since_ms=1001", 1), ("since_ms=1002", 0),
                             ("limit=03", 1), ("limit=0", 0), ("node_id=node-a", 1),
                             ("node_id=node-a&since_ms=0001001", 1)]:
            status, payload = _http("GET", srv.url + "/records?" + query)
            assert (status, len(payload["records"])) == (200, count), query


def _raw_request(port, request: bytes) -> tuple[bytes, dict]:
    """Send raw bytes, read until the server closes; (status line, JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0], json.loads(body)


_RECORD_BODY = encode_record(_record())
_BODY_LENGTH = len(_RECORD_BODY)


@pytest.mark.parametrize(
    "header",
    [b"Content-Length: abc\r\n", b"Content-Length: -1\r\n", b"",
     b"Content-Length: +%d\r\n" % _BODY_LENGTH,  # int() takes a sign and "_"; 1*DIGIT does not
     b"Content-Length: %s\r\n" % "_".join(str(_BODY_LENGTH)).encode(),
     # RFC 9112 6.3: differing values are unrecoverable, whichever comes first
     b"Content-Length: %d\r\nContent-Length: 5\r\n" % _BODY_LENGTH,
     b"Content-Length: 5\r\nContent-Length: %d\r\n" % _BODY_LENGTH],
)
def test_server_bad_content_length_gets_400(tmp_path, header):
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        request = b"POST /ingest HTTP/1.1\r\nHost: x\r\n" + header + b"\r\n" + encode_record(_record())
        status, payload = _raw_request(srv.port, request)
        assert status.split()[1] == b"400"
        assert payload["field"] == "body"
        assert _post(srv.url, _record())[0] == 201  # no handler thread is left stuck
    assert scan_store(tmp_path / "s.jsonl") == [_record()]


@pytest.mark.parametrize(
    "spell", ["0" * 4400 + "{}", " {} \t", "{0}\r\nContent-Length: {0}"],
    ids=["4400 zeros", "whitespace", "identical repeat"],  # RFC 9110 8.6 lets a repeat through
)
def test_server_content_length_allows_leading_zeros_and_whitespace(tmp_path, spell):
    length = spell.format(_BODY_LENGTH)
    head = f"POST /ingest HTTP/1.1\r\nConnection: close\r\nContent-Length:{length}"
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        status, _ = _raw_request(srv.port, head.encode() + b"\r\n\r\n" + encode_record(_record()))
        assert status.split()[1] == b"201"
    assert scan_store(tmp_path / "s.jsonl") == [_record()]


def test_server_oversized_body_gets_413_without_reading_it(tmp_path):
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        for length in (b"1000000000", b"9" * 5000):  # int() refuses a str of over 4300 digits
            with socket.create_connection(("127.0.0.1", srv.port), timeout=1) as sock:
                t0 = time.perf_counter()
                sock.sendall(b"POST /ingest HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n")
                reply = b""
                while chunk := sock.recv(65536):  # the server closes: no body is awaited
                    reply += chunk
                elapsed = time.perf_counter() - t0
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.split(b"\r\n")[0].split()[1] == b"413"
            assert json.loads(body)["field"] == "body"
            assert elapsed < 1.0
        assert _post(srv.url, _record())[0] == 201


def test_server_stalled_request_gets_408_or_is_closed(tmp_path, monkeypatch):
    monkeypatch.setattr(telemetry._Handler, "timeout", 0.3)
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        baseline = threading.active_count()
        t0 = time.perf_counter()
        stalled_body = b"POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{\"node"
        status, payload = _raw_request(srv.port, stalled_body)
        assert status.split()[1] == b"408"
        assert payload["field"] == "body"
        with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as sock:
            sock.sendall(b"POST /ingest HTTP/1.1\r\nHost: x\r\n")  # headers never end
            assert sock.recv(65536) == b""  # closed without a reply
        assert time.perf_counter() - t0 < 3.0
        deadline = time.monotonic() + 5
        while threading.active_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= baseline  # no handler thread is held
        assert _post(srv.url, _record())[0] == 201
    assert scan_store(tmp_path / "s.jsonl") == [_record()]


def _trickle(port, head: bytes, trickled: bytes, gap: float, give_up: float):
    """Send ``head``, then ``trickled`` a byte every ``gap`` s until the server answers or
    closes; its reply (None if it did neither within ``give_up`` s) and the seconds taken."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        t0 = time.monotonic()
        sock.sendall(head)
        for byte in trickled:
            sock.sendall(bytes([byte]))
            if select.select([sock], [], [], gap)[0]:
                break
            if time.monotonic() - t0 > give_up:
                return None, time.monotonic() - t0
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
        return reply, time.monotonic() - t0


_TRICKLED_POST = b"POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % _BODY_LENGTH


@pytest.mark.parametrize(
    "head, trickled", [(b"", _TRICKLED_POST), (_TRICKLED_POST, _RECORD_BODY)],
    ids=["request line and headers", "body"],
)
def test_server_trickled_request_is_cut_at_its_deadline(tmp_path, monkeypatch, head, trickled):
    # each byte comes before the 1 s per-recv wait ends, so only a deadline over the request stops it
    monkeypatch.setattr(telemetry._Handler, "timeout", 1.0)
    monkeypatch.setattr(telemetry, "MAX_CONNECTIONS", 1)  # the trickler holds the one handler
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        reply, elapsed = _trickle(srv.port, head, trickled, gap=0.6, give_up=3.0)
        assert reply is not None, "the trickled request was never cut"
        assert elapsed < 1.0 + 0.8
        if head:  # its line and headers were read whole: the body's end never came
            assert reply.split(b" ", 2)[1] == b"408"
        else:
            assert reply == b""  # closed without a reply
        assert _post(srv.url, _record())[0] == 201
    assert scan_store(tmp_path / "s.jsonl") == [_record()]


def test_server_over_its_connection_cap_answers_503_and_starts_no_thread(tmp_path, monkeypatch):
    monkeypatch.setattr(telemetry, "MAX_CONNECTIONS", 2)
    before = set(threading.enumerate())  # sets: an earlier test's workers may still be ending
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        started = set(threading.enumerate()) - before
        assert len(started) == 1 + 2  # the serve loop and two handler threads
        idle = [socket.create_connection(("127.0.0.1", srv.port), timeout=5) for _ in range(2)]
        try:
            with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as third:
                reply = b""
                while chunk := third.recv(65536):  # answered and closed at once
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.split(b"\r\n")[0] == b"HTTP/1.1 503 Service Unavailable"
            assert b"\r\nConnection: close" in head and "error" in json.loads(body)
            assert set(threading.enumerate()) - before <= started  # none started for the three
            # the server ends one idle connection; the next connection takes its handler
            idle[0].sendall(b"GET /nodes HTTP/1.1\r\nConnection: close\r\n\r\n")
            reply = b""
            while chunk := idle[0].recv(65536):
                reply += chunk
            assert reply.startswith(b"HTTP/1.1 200 ")
            assert _post(srv.url, _record())[0] == 201
        finally:
            for sock in idle:
                sock.close()
    assert scan_store(tmp_path / "s.jsonl") == [_record()]


def _threads_end(before):
    deadline = time.monotonic() + 2
    while set(threading.enumerate()) - before and time.monotonic() < deadline:
        time.sleep(0.01)
    return not set(threading.enumerate()) - before


def test_server_threads_end_after_stop(tmp_path):
    before = set(threading.enumerate())
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        assert _post(srv.url, _record())[0] == 201
        assert _http("GET", srv.url + "/nodes")[0] == 200
    assert _threads_end(before)
    # a server never start()ed has its workers from construction on: stop() alone ends them
    srv = TelemetryServer(tmp_path / "s.jsonl")
    assert len(set(threading.enumerate()) - before) == telemetry.MAX_CONNECTIONS
    srv.stop()
    assert _threads_end(before)


@pytest.mark.parametrize("port", ["in use", 70000])
def test_server_whose_bind_fails_starts_no_thread(tmp_path, port):
    with TelemetryServer(tmp_path / "other.jsonl") as other:
        before = set(threading.enumerate())
        with pytest.raises((OSError, OverflowError)):
            TelemetryServer(tmp_path / "s.jsonl", port=other.port if port == "in use" else port)
        assert set(threading.enumerate()) <= before


def test_server_keep_alive_requests_are_not_delayed(tmp_path):
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        conn = http.client.HTTPConnection(srv.host, srv.port, timeout=5)
        try:
            times = []
            for _ in range(20):
                t0 = time.perf_counter()
                conn.request("GET", "/nodes")
                resp = conn.getresponse()
                assert resp.status == 200 and json.loads(resp.read()) == {"nodes": []}
                times.append(time.perf_counter() - t0)
        finally:
            conn.close()
    assert sorted(times)[len(times) // 2] < 0.010


def _exchange(port, request: bytes) -> tuple[list[bytes], bool]:
    """Send raw bytes; the status codes answered within 2 s, and whether the server closed."""
    reply, closed = b"", True
    with socket.create_connection(("127.0.0.1", port), timeout=2) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except TimeoutError:
            closed = False
    return re.findall(rb"^HTTP/1\.1 (\d{3}) ", reply, re.MULTILINE), closed


# a complete request of its own, sent as the body of another
_INNER_REQUEST = b"GET /records?node_id=zz HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.mark.parametrize("target, status", [(b"GET /nodes", b"200"), (b"POST /nope", b"404")])
def test_server_answers_a_body_it_does_not_read_once_and_closes(tmp_path, target, status):
    head = b"%s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % (target, len(_INNER_REQUEST))
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        assert _exchange(srv.port, head + _INNER_REQUEST) == ([status], True)


@pytest.mark.parametrize(
    "framing, body, status",
    [(b"Content-Length: %d\r\n" % _BODY_LENGTH, _RECORD_BODY, b"400"),  # framed either way
     (b"", b"%x\r\n%s\r\n0\r\n\r\n" % (len(_RECORD_BODY), _RECORD_BODY), b"411")],
    ids=["with Content-Length", "chunked only"],
)
def test_server_refuses_transfer_encoding_and_closes(tmp_path, framing, body, status):
    head = b"POST /ingest HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n" + framing
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        assert _exchange(srv.port, head + b"\r\n" + body) == ([status], True)
        assert _http("GET", srv.url + "/records")[1] == {"records": []}


def test_server_on_a_corrupt_store_leaves_no_open_socket(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_bytes(b"{not a record\n" + encode_record(_record()) + b"\n")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(StoreError):
            TelemetryServer(path)
        gc.collect()
    assert not [w for w in seen if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("port", [70000, -1])
def test_server_on_a_port_out_of_range_leaves_no_open_store(tmp_path, port):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(OverflowError):
            TelemetryServer(tmp_path / "s.jsonl", port=port)
        gc.collect()
    assert not [w for w in seen if issubclass(w.category, ResourceWarning)]


def test_server_is_the_http_server_it_runs(tmp_path):
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        assert isinstance(srv, ThreadingHTTPServer)
        assert srv.server_address == ("127.0.0.1", srv.port) and srv.port > 0


def test_server_idle_stop_is_quick(tmp_path):
    srv = TelemetryServer(tmp_path / "s.jsonl").start()
    t0 = time.perf_counter()
    srv.stop()
    assert time.perf_counter() - t0 < 0.2


def test_server_stop_without_start_returns(tmp_path):
    srv = TelemetryServer(tmp_path / "s.jsonl")
    stopper = threading.Thread(target=srv.stop, daemon=True)
    stopper.start()
    stopper.join(5)
    assert not stopper.is_alive()


def test_server_record_query_filters(tmp_path):
    with TelemetryServer(tmp_path / "s.jsonl") as srv:
        for node, ts, seq in [
            ("node-a", 2000, 0),
            ("node-b", 1000, 0),
            ("node-a", 3000, 1),
            ("node-b", 3000, 1),
        ]:
            assert _post(srv.url, _record(node=node, ts=ts, seq=seq))[0] == 201

        _, payload = _http("GET", srv.url + "/records")
        order = [(r["timestamp_ms"], r["seq"], r["node_id"]) for r in payload["records"]]
        assert order == [(1000, 0, "node-b"), (2000, 0, "node-a"), (3000, 1, "node-a"), (3000, 1, "node-b")]

        _, payload = _http("GET", srv.url + "/records?node_id=node-b")
        assert [r["timestamp_ms"] for r in payload["records"]] == [1000, 3000]

        _, payload = _http("GET", srv.url + "/records?since_ms=2000")  # inclusive
        assert [r["timestamp_ms"] for r in payload["records"]] == [2000, 3000, 3000]

        _, payload = _http("GET", srv.url + "/records?limit=2")
        assert [r["timestamp_ms"] for r in payload["records"]] == [1000, 2000]


def test_server_records_body_is_the_canonical_encoding(tmp_path):
    path = tmp_path / "store.jsonl"
    stored = [
        _record(node="node-a", ts=3000, seq=0, seed=1),
        _record(node="n\u00f6de-\u03b2", ts=2000, seq=0, seed=2, site="d\u00e4ck"),
        _record(node="node-a", ts=1000, seq=1, seed=3, label=StructureClass.FLYOVER),
        _record(node="n\u00f6de-\u03b2", ts=2000, seq=1, seed=4),
    ]
    lines = [encode_record(r) for r in stored]
    # decode_record accepts this line, but its key order and spacing are not canonical
    loose = dict(reversed(record_wire_dict(stored[2]).items()))
    lines[2] = json.dumps(loose, separators=(", ", ": "), ensure_ascii=False).encode()
    path.write_bytes(b"\n".join(lines) + b"\n")
    posted = _record(node="node-a", ts=2000, seq=2, seed=5)
    every = stored + [posted]
    beta = urllib.parse.quote("n\u00f6de-\u03b2")
    cases = [
        ("", _want(every)),
        ("?node_id=node-a", _want(every, "node-a")),
        (f"?node_id={beta}", _want(every, "n\u00f6de-\u03b2")),
        ("?node_id=node-a&since_ms=2000", _want(every, "node-a", 2000)),  # inclusive
        ("?node_id=node-a&since_ms=3001", []),  # past the last record
        ("?since_ms=2000&limit=3", _want(every, None, 2000, 3)),
        ("?node_id=node-a&limit=0", []),
        ("?node_id=node-a&limit=2", _want(every, "node-a", None, 2)),
        ("?node_id=node-unknown", []),
    ]
    with TelemetryServer(path) as srv:
        assert _post(srv.url, posted)[0] == 201
        for _ in range(2):  # the first answer encodes a loaded record, the second reuses it
            for query, want in cases:
                with urllib.request.urlopen(srv.url + "/records" + query, timeout=10) as resp:
                    body = resp.read()
                expected = {"records": [record_wire_dict(r) for r in want]}
                assert body == json.dumps(expected, separators=(",", ":")).encode(), query
    assert scan_store(path) == every


def test_server_restart_keeps_dedup_state(tmp_path):
    path = tmp_path / "store.jsonl"
    with TelemetryServer(path) as srv:
        for seq in range(5):
            assert _post(srv.url, _record(seq=seq, seed=seq))[0] == 201
    with TelemetryServer(path) as srv:  # fresh process state, same store
        assert _post(srv.url, _record(seq=4, seed=4))[0] == 409
        assert _post(srv.url, _record(seq=5, seed=5))[0] == 201
        _, payload = _http("GET", srv.url + "/nodes")
        assert payload["nodes"][0]["record_count"] == 6
    assert [r.seq for r in scan_store(path)] == list(range(6))


def test_server_dedups_against_the_largest_seq_of_a_store_out_of_order(tmp_path):
    # a dry-run sink appends without dedup, so a rerun leaves seqs 0-9 then 0-4
    path = tmp_path / "store.jsonl"
    for count in (10, 5):
        for seq in range(count):
            append_store(path, _record(seq=seq, seed=seq))
    with TelemetryServer(path) as srv:
        assert srv.state.index.max_seq == {"node-a": 9}
        status, payload = _post(srv.url, _record(seq=7, seed=7))
        assert status == 409 and payload["max_seq"] == 9
    assert len(scan_store(path)) == 15


def test_server_concurrent_posts(tmp_path):
    path = tmp_path / "store.jsonl"
    with TelemetryServer(path) as srv:
        def deliver(node_idx):
            statuses = []
            for seq in range(5):
                status, _ = _post(
                    srv.url, _record(node=f"node-{node_idx}", ts=1000 + seq, seq=seq)
                )
                statuses.append(status)
            return statuses

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(deliver, range(4)))
        assert all(s == 201 for statuses in results for s in statuses)
        _, payload = _http("GET", srv.url + "/nodes")
        assert [n["record_count"] for n in payload["nodes"]] == [5, 5, 5, 5]
    by_node = {}
    for r in scan_store(path):
        by_node.setdefault(r.node_id, []).append(r.seq)
    assert all(sorted(seqs) == list(range(5)) for seqs in by_node.values())


# ------------------------------------------------- service state vs a model

_MODEL_NODES = ("node-a", "node-b", "n\u00f6de-\u03b3")  # one non-ASCII id


def _want(acked, node_id=None, since_ms=None, limit=None):
    """The reference answer: filter, stable sort by (timestamp_ms, seq), slice."""
    got = [
        r for r in acked
        if (node_id is None or r.node_id == node_id)
        and (since_ms is None or r.timestamp_ms >= since_ms)
    ]
    got.sort(key=lambda r: (r.timestamp_ms, r.seq))
    return got if limit is None else got[:limit]


class ServiceStateMachine(RuleBasedStateMachine):
    """``_ServiceState`` through ingests, tears and restarts, against the list of acked records."""

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp()
        self.path = f"{self.dir}/store.jsonl"
        self.state = telemetry._ServiceState(self.path)
        self.acked = []  # the model: every acknowledged record, in append order

    def teardown(self):
        self.state.close()
        shutil.rmtree(self.dir)

    def _of(self, node):
        return [r for r in self.acked if r.node_id == node]

    def _ingest_new(self, node, ts, gap, seed):
        seq = max((r.seq for r in self._of(node)), default=-1) + gap
        site = "d\u00e4ck" if seed % 2 else None
        record = _record(node=node, ts=ts, seq=seq, seed=seed, site=site)
        assert self.state.ingest(record) == "stored"
        self.acked.append(record)

    def _next_record(self, node, seed):
        """The node's next seq, one ms past its latest timestamp."""
        seq = max((r.seq for r in self._of(node)), default=-1) + 1
        last = max((r.timestamp_ms for r in self._of(node)), default=1)
        return _record(node=node, ts=last + 1, seq=seq, seed=seed)

    def _restart(self, torn=b""):
        self.state.close()
        with open(self.path, "ab") as fh:  # a crash mid-append leaves a prefix, no newline
            fh.write(torn)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a torn tail is cut with a warning
            self.state = telemetry._ServiceState(self.path)
        assert scan_store(self.path) == self.acked  # every ack survives every restart

    @rule(node=st.sampled_from(_MODEL_NODES), step=st.integers(0, 3), gap=st.integers(1, 3),
          seed=st.integers(0, 3))
    def new_record(self, node, step, gap, seed):
        last = max((r.timestamp_ms for r in self._of(node)), default=1)
        self._ingest_new(node, last + step, gap, seed)  # step 0: a timestamp tie

    @precondition(lambda self: self.acked)
    @rule(data=st.data(), back=st.integers(1, 5), seed=st.integers(0, 3))
    def earlier_timestamp(self, data, back, seed):
        node = data.draw(st.sampled_from(sorted({r.node_id for r in self.acked})))
        last = max(r.timestamp_ms for r in self._of(node))
        self._ingest_new(node, max(1, last - back), 1, seed)

    @precondition(lambda self: self.acked)
    @rule(data=st.data())
    def replay(self, data):
        assert self.state.ingest(data.draw(st.sampled_from(self.acked))) == "duplicate"

    @precondition(lambda self: self.acked)
    @rule(data=st.data(), seed=st.integers(4, 7))
    def out_of_order_seq(self, data, seed):
        old = data.draw(st.sampled_from(self.acked))
        seq = data.draw(st.integers(0, max(r.seq for r in self._of(old.node_id))))
        stale = _record(node=old.node_id, ts=old.timestamp_ms + 1, seq=seq, seed=seed)
        assert self.state.ingest(stale) == "duplicate"  # dedup is against the largest seq

    @precondition(lambda self: self.acked)
    @rule(data=st.data(), seed=st.integers(4, 7))
    def append_without_dedup(self, data, seed):
        # append_store does not dedup, so a store can hold a node's seqs out
        # of order and even a repeated (timestamp_ms, seq)
        old = data.draw(st.sampled_from(self.acked))
        self.state.close()
        again = _record(node=old.node_id, ts=old.timestamp_ms, seq=old.seq, seed=seed)
        append_store(self.path, again)
        self.acked.append(again)
        self.state = telemetry._ServiceState(self.path)

    @rule(node=st.sampled_from(_MODEL_NODES), seed=st.integers(0, 3),
          spelling=st.sampled_from(["spaced", "1.50"]))
    def append_loose_line(self, node, seed, spelling):
        # a line decode_record reads but encode_record does not write, so a
        # restart mixes lines the pattern reads with lines decode_record reads
        record = self._next_record(node, seed)
        if spelling == "spaced":
            line = json.dumps(record_wire_dict(record)).encode()
        else:  # the pattern matches this line, but the answer must say 1.5
            record = replace(record, features=replace(record.features, mean=1.5))
            line = encode_record(record).replace(b'"mean":1.5,', b'"mean":1.50,')
        self.state.close()
        with open(self.path, "ab") as fh:
            fh.write(line + b"\n")
        self.acked.append(record)
        self.state = telemetry._ServiceState(self.path)

    @rule(node=st.sampled_from(_MODEL_NODES), data=st.data())
    def torn_append(self, node, data):
        line = encode_record(_record(node=node, seq=10**6))
        self._restart(torn=line[: data.draw(st.integers(1, len(line)))])

    @rule(node=st.sampled_from(_MODEL_NODES), data=st.data(), seed=st.integers(0, 3))
    def torn_tail_then_append_store(self, node, data, seed):
        # a crash mid-append, then append_store before any server opens the store
        torn = encode_record(_record(node=node, seq=10**6))
        self.state.close()
        with open(self.path, "ab") as fh:
            fh.write(torn[: data.draw(st.integers(1, len(torn)))])
        record = self._next_record(node, seed)
        append_store(self.path, record)
        self.acked.append(record)
        self._restart()

    @rule(node=st.sampled_from(_MODEL_NODES), data=st.data(), seed=st.integers(0, 3))
    def append_fails_after_k_bytes(self, node, data, seed):
        record = self._next_record(node, seed)
        k = data.draw(st.integers(0, len(encode_record(record)) + 1))  # + 1: the newline too
        real_write, size = os.write, os.path.getsize(self.path)

        def write_k_then_fill_the_disk(fd, buf):
            real_write(fd, buf[:k])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with mock.patch.object(os, "write", write_k_then_fill_the_disk), \
                pytest.raises(StoreError):
            self.state.ingest(record)
        assert os.path.getsize(self.path) == size  # not acknowledged, and nothing left behind

    @rule()
    def restart(self):
        self._restart()

    @rule(node=st.sampled_from(_MODEL_NODES + ("node-unknown",)),
          since=st.none() | st.integers(0, 40), limit=st.none() | st.integers(0, 6))
    def query_node(self, node, since, limit):
        want = _want(self.acked, node, since, limit)
        assert self.state.query(node, since, limit) == [encode_record(r) for r in want]

    @rule(since=st.none() | st.integers(0, 40), limit=st.none() | st.integers(0, 6))
    def query_all(self, since, limit):
        want = _want(self.acked, None, since, limit)
        assert self.state.query(None, since, limit) == [encode_record(r) for r in want]

    @rule()
    def node_statuses(self):
        want = [
            telemetry.NodeStatus(node, max(r.timestamp_ms for r in mine), len(mine))
            for node in sorted({r.node_id for r in self.acked})
            for mine in [self._of(node)]
        ]
        assert self.state.node_statuses() == want

    @rule()
    def scan_like_report(self):
        index = StoreIndex(map(record_key, scan_store(self.path)))
        assert index.node_statuses() == self.state.node_statuses()

    @invariant()
    def max_seq_per_node(self):
        want = {}
        for r in self.acked:
            want[r.node_id] = max(want.get(r.node_id, -1), r.seq)
        assert self.state.index.max_seq == want


TestServiceStateMachine = ServiceStateMachine.TestCase
TestServiceStateMachine.settings = settings(
    derandomize=True, database=None, max_examples=40, stateful_step_count=30, deadline=None
)


# ----------------------------------------------------------------- emulator


def test_emulator_dry_run_file_sink(tmp_path):
    sink = tmp_path / "sink.jsonl"
    profile = DEFAULT_PROFILES[StructureClass.RAILLINE]
    sent = node_emulator(profile, str(sink), interval_s=0.0, count=5, seed=3)
    assert [r.seq for r in sent] == [0, 1, 2, 3, 4]
    assert all(r.label is StructureClass.RAILLINE for r in sent)
    assert all(r.node_id == "railline-node" for r in sent)
    assert scan_store(sink) == sent


def test_emulator_is_deterministic_given_a_clock(tmp_path):
    profile = DEFAULT_PROFILES[StructureClass.BUILDING]
    kwargs = dict(interval_s=0.0, count=4, time_fn=lambda: 1234, site="roof")
    a = node_emulator(profile, str(tmp_path / "a.jsonl"), seed=9, **kwargs)
    b = node_emulator(profile, str(tmp_path / "b.jsonl"), seed=9, **kwargs)
    c = node_emulator(profile, str(tmp_path / "c.jsonl"), seed=10, **kwargs)
    assert [encode_record(r) for r in a] == [encode_record(r) for r in b]
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert a[0].features != c[0].features


def test_emulator_live_server_rerun_is_exactly_once(tmp_path):
    path = tmp_path / "store.jsonl"
    profile = DEFAULT_PROFILES[StructureClass.STEEL_OVERBRIDGE]
    with TelemetryServer(path) as srv:
        first = node_emulator(
            profile, srv.url, interval_s=0.0, count=5, seed=7, time_fn=lambda: 99
        )
        assert len(first) == 5
        assert len(scan_store(path)) == 5
        # a restarted node re-sends the same payloads; dedup answers 409 and
        # the emulator treats that as delivered, so nothing lands twice
        again = node_emulator(
            profile, srv.url, interval_s=0.0, count=5, seed=7, time_fn=lambda: 99
        )
        assert len(again) == 5
        stored = scan_store(path)
        assert len(stored) == 5
        assert [r.features for r in stored] == [r.features for r in first]


def test_emulator_takes_an_upper_case_scheme_as_a_url(tmp_path, monkeypatch):
    # a scheme is case-insensitive (RFC 3986 3.1); this one was taken for a store path
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "store.jsonl"
    profile = DEFAULT_PROFILES[StructureClass.BUILDING]
    with TelemetryServer(path) as srv:
        url = f"HTTP://{srv.host}:{srv.port}/ingest"
        sent = node_emulator(profile, url, interval_s=0.0, count=2, seed=0)
    assert scan_store(path) == sent
    assert [p.name for p in tmp_path.iterdir()] == ["store.jsonl"]


def test_emulator_custom_identity_and_start_seq(tmp_path):
    sink = tmp_path / "sink.jsonl"
    profile = DEFAULT_PROFILES[StructureClass.CONCRETE_OVERBRIDGE]
    sent = node_emulator(
        profile, str(sink), interval_s=0.0, count=3, seed=1,
        node_id="lab-7", site="yard", start_seq=10,
    )
    assert [r.seq for r in sent] == [10, 11, 12]
    assert all(r.node_id == "lab-7" and r.site == "yard" for r in sent)


def test_emulator_rejected_schema_aborts_without_retry(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(telemetry, "_post_once", lambda *a: calls.append(a) or 400)
    profile = DEFAULT_PROFILES[StructureClass.BUILDING]
    with pytest.raises(DeliveryError) as exc_info:
        node_emulator(profile, "http://127.0.0.1:1/", interval_s=0.0, count=3, seed=0)
    assert exc_info.value.delivered == 0
    assert len(calls) == 1


def test_emulator_gives_up_after_retries(monkeypatch):
    # bind-then-close to get a port with nothing listening
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    monkeypatch.setattr(telemetry, "MAX_RETRIES", 1)
    monkeypatch.setattr(telemetry, "BACKOFF_S", 0.001)
    monkeypatch.setattr(telemetry, "POST_TIMEOUT_S", 0.5)
    profile = DEFAULT_PROFILES[StructureClass.BUILDING]
    with pytest.raises(DeliveryError, match="giving up on seq 0 after 1 retries") as exc_info:
        node_emulator(profile, f"http://127.0.0.1:{port}/", interval_s=0.0, count=2, seed=0)
    assert exc_info.value.delivered == 0


def test_emulator_transient_failure_is_retried(monkeypatch):
    calls = {"n": 0}

    def flaky(url, body, timeout):
        calls["n"] += 1
        if calls["n"] == 1:
            raise urllib.error.URLError("connection refused")
        return 201

    monkeypatch.setattr(telemetry, "_post_once", flaky)
    monkeypatch.setattr(telemetry, "BACKOFF_S", 0.001)
    profile = DEFAULT_PROFILES[StructureClass.BUILDING]
    sent = node_emulator(profile, "http://127.0.0.1:1/", interval_s=0.0, count=2, seed=0)
    assert len(sent) == 2
    assert calls["n"] == 3  # one retry for the first record, clean second


def test_emulator_paces_on_the_monotonic_clock(tmp_path):
    sink = tmp_path / "sink.jsonl"
    profile = DEFAULT_PROFILES[StructureClass.RAILLINE]
    start = time.monotonic()
    sent = node_emulator(profile, str(sink), interval_s=0.1, count=5, seed=0)
    elapsed = time.monotonic() - start
    assert len(sent) == 5
    # ticks at t0 + {0, .1, .2, .3, .4}: the schedule is absolute, so work
    # time does not accumulate into drift
    assert 0.4 <= elapsed < 0.7


def test_emulator_count_validation(tmp_path):
    profile = DEFAULT_PROFILES[StructureClass.BUILDING]
    assert node_emulator(profile, str(tmp_path / "s.jsonl"), count=0) == []
    with pytest.raises(ValueError):
        node_emulator(profile, str(tmp_path / "s.jsonl"), count=-1)


@pytest.mark.parametrize("interval", [float("inf"), 1e300, float("nan"), -1.0, 86_400.5])
def test_emulator_refuses_an_interval_it_cannot_sleep_before_sending(tmp_path, interval):
    profile = DEFAULT_PROFILES[StructureClass.BUILDING]
    with pytest.raises(ValueError, match="^interval_s must be between 0 and 86400"):
        node_emulator(profile, str(tmp_path / "s.jsonl"), interval_s=interval, count=1)
    assert not (tmp_path / "s.jsonl").exists()
