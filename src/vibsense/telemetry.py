"""Sensor-to-server path: wire format, ingestion service, store, emulator.

Records travel as canonical compact JSON with a fixed key order, one object
per line in the append-only store. The service acknowledges a POST with 201
only after the line is flushed and fsynced, so an acknowledged record
survives a process kill. Duplicate suppression is per (node_id, seq): the
store keeps per-node seq strictly increasing, and a re-POST (or an
out-of-order stale seq) is answered with 409 so a retrying sender can treat
it as already delivered.
"""

from __future__ import annotations

import functools
import io
import json
import os
import queue
import re
import socket
import sys
import threading
import time
import urllib.parse
import warnings
from bisect import bisect_left, insort
from dataclasses import MISSING, asdict, dataclass, fields
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DeliveryError, SchemaError, StoreError
from .schema import FEATURE_COLUMNS, FeatureVector, StructureClass

if TYPE_CHECKING:
    from .signalsim import ClassProfile

# wire order follows the dataset column order; "creast_factor" is the
# (sic) spelling used throughout the record schema
_WIRE_RENAMES = {"crest_factor": "creast_factor"}
WIRE_FEATURE_KEYS = tuple(_WIRE_RENAMES.get(name, name) for name in FEATURE_COLUMNS)
_WIRE_FIELDS = tuple(zip(FEATURE_COLUMNS, WIRE_FEATURE_KEYS))  # (attribute, wire key)

MAX_BODY_BYTES = 64 * 1024  # a POST body above this gets 413; one record is about 440 bytes
# a request must arrive whole this long after its first byte, or it gets 408 (body
# incomplete) or is closed; between keep-alive requests, each recv waits this long
REQUEST_TIMEOUT_S = 10.0
MAX_CONNECTIONS = 32  # connections served at once, each by a reused handler thread; one more gets 503
STOP_POLL_S = 0.05  # how often a serve loop checks for stop() or a signal; stop() waits up to this
# node_emulator's delivery policy: a failed record is retried up to MAX_RETRIES
# times, retry k (from 0) after BACKOFF_S * 2**k s; each POST waits POST_TIMEOUT_S.
MAX_RETRIES = 8
BACKOFF_S = 0.05
POST_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class TelemetryRecord:
    node_id: str
    timestamp_ms: int
    seq: int
    features: FeatureVector
    label: StructureClass | None = None
    site: str | None = None

    def __post_init__(self):
        if not isinstance(self.node_id, str) or not self.node_id:
            raise SchemaError("node_id", "must be a non-empty string")
        if not _is_number(self.timestamp_ms, int) or self.timestamp_ms <= 0:
            raise SchemaError("timestamp_ms", "must be a positive integer")
        if not _is_number(self.seq, int) or self.seq < 0:
            raise SchemaError("seq", "must be a non-negative integer")
        if not isinstance(self.features, FeatureVector):
            raise SchemaError("features", "must be a FeatureVector")
        for name, key in _WIRE_FIELDS:
            value = getattr(self.features, name)
            if not _is_number(value):
                raise SchemaError(f"features.{key}", "must be a number")
            if not abs(value) <= sys.float_info.max:  # NaN, infinities and ints past float64
                raise SchemaError(f"features.{key}", "must be finite")


_TOP_LEVEL_KEYS = tuple(f.name for f in fields(TelemetryRecord))
_REQUIRED_KEYS = tuple(f.name for f in fields(TelemetryRecord) if f.default is MISSING)


@dataclass(frozen=True)
class NodeStatus:
    node_id: str
    last_seen_ms: int
    record_count: int


def _is_number(value, kinds=(int, float)) -> bool:
    """isinstance(value, kinds), except that a bool is not a number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def record_wire_dict(record: TelemetryRecord) -> dict:
    """Plain dict in canonical key order (JSON-ready)."""
    # getattr, not as_array: num_peaks stays an int on the wire
    features = {key: getattr(record.features, name) for name, key in _WIRE_FIELDS}
    return {
        "node_id": record.node_id,
        "timestamp_ms": record.timestamp_ms,
        "seq": record.seq,
        "features": features,
        "label": record.label.value if record.label is not None else None,
        "site": record.site,
    }


_compact_json = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps(separators=...)


def encode_record(record: TelemetryRecord) -> bytes:
    """Canonical compact JSON, fixed key order, UTF-8."""
    return _compact_json(record_wire_dict(record)).encode("utf-8")


def _check_keys(obj: dict, required, allowed, prefix: str = "") -> None:
    for key in required:
        if key not in obj:
            raise SchemaError(prefix + key, "missing")
    for key in obj:
        if key not in allowed:
            raise SchemaError(prefix + key, "unexpected field")


def decode_record(raw: bytes | str) -> TelemetryRecord:
    """Strict inverse of :func:`encode_record`: this checks the structure, the record its values.

    Raises
    ------
    SchemaError
        Naming the offending field: missing or unexpected key, wrong type,
        non-finite number, unknown label, or undecodable bytes.
    """
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError("body", f"not valid UTF-8: {exc}") from exc
    try:
        obj = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also an integer past 4300 digits, or deep nesting
        raise SchemaError("body", f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("body", "top level must be an object")

    _check_keys(obj, _REQUIRED_KEYS, _TOP_LEVEL_KEYS)
    features = obj["features"]
    if not isinstance(features, dict):
        raise SchemaError("features", "must be an object")
    _check_keys(features, WIRE_FEATURE_KEYS, WIRE_FEATURE_KEYS, "features.")

    label = obj.get("label")
    if label is not None:
        if not isinstance(label, str):
            raise SchemaError("label", "must be a string or null")
        try:
            label = StructureClass(label)
        except ValueError:
            raise SchemaError("label", f"unknown label {label!r}") from None
    site = obj.get("site")
    if site is not None and not isinstance(site, str):
        raise SchemaError("site", "must be a string or null")

    return TelemetryRecord(
        node_id=obj["node_id"],
        timestamp_ms=obj["timestamp_ms"],
        seq=obj["seq"],
        features=FeatureVector(**{name: features[key] for name, key in _WIRE_FIELDS}),
        label=label,
        site=site,
    )


class _FsyncError(StoreError):
    """An fsync failed: the page cache may hold bytes that the disk does not."""


def _open_store(store_path):
    """``store_path`` opened for unbuffered appends, with any torn tail cut off.

    A torn tail, the bytes after the last newline, was never acknowledged;
    left in place, the next append would extend it into a line that no read
    decodes. A store whose last byte is a newline is not read. Creating the
    file fsyncs its directory too, so that after a power loss the file that
    took the first acknowledgement still exists (Pillai et al., OSDI 2014).
    """
    created = not os.path.exists(store_path)
    fh = open(store_path, "a+b", buffering=0)
    try:
        fd = fh.fileno()
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            os.ftruncate(fd, Path(store_path).read_bytes().rfind(b"\n") + 1)
            os.fsync(fd)
        if created:
            dir_fd = os.open(os.path.dirname(os.path.abspath(store_path)), os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
    except BaseException:
        fh.close()
        raise
    return fh


def _append_durable(fh, record: TelemetryRecord) -> bytes:
    """Write one record line to the unbuffered ``fh`` and fsync it; return the line.

    On a failed write or fsync the file is cut back to its old end, so that no
    part of the line stays for a later append to complete, and StoreError is
    raised: :class:`_FsyncError` if the write went through and the fsync failed.
    """
    line = encode_record(record)
    fd = fh.fileno()
    end = os.lseek(fd, 0, os.SEEK_END)
    error = StoreError
    try:
        rest = memoryview(line + b"\n")
        while rest:  # a short write (a full disk, a file size limit) writes the rest or fails
            rest = rest[os.write(fd, rest) :]
        error = _FsyncError
        os.fsync(fd)
    except OSError as exc:
        try:
            os.ftruncate(fd, end)
        except OSError as cut:  # part of the line stays in the file
            raise error(f"append to {fh.name} failed: {exc}; cutting it off failed: {cut}")
        raise error(f"append to {fh.name} failed: {exc}") from exc
    return line


def append_store(store_path, record: TelemetryRecord) -> None:
    """Durably append one record (write, fsync), or leave the store as it was, but for a
    torn tail, which is cut off first."""
    try:
        with _open_store(store_path) as fh:
            _append_durable(fh, record)
    except OSError as exc:  # open or close; _append_durable raises StoreError itself
        raise StoreError(f"append to {store_path} failed: {exc}") from exc


def _store_lines(store_path) -> list[bytes]:
    """The newline-terminated lines, without their newlines."""
    data = Path(store_path).read_bytes()
    end = data.rfind(b"\n") + 1
    if end < len(data):
        warnings.warn(
            f"skipping {len(data) - end} torn trailing bytes in {store_path}", stacklevel=3
        )
    return data[:end].split(b"\n")[:-1]


def _decode_line(store_path, lineno: int, line: bytes) -> TelemetryRecord:
    try:
        return decode_record(line)
    except SchemaError as exc:
        raise StoreError(f"{store_path} line {lineno}: {exc}") from exc


def scan_store(store_path) -> list[TelemetryRecord]:
    """All records in append order.

    Bytes after the last newline are a torn write (a crash artifact: every
    append writes its line and newline at once) and are skipped with a
    warning. A malformed line anywhere else means real corruption and raises
    :class:`StoreError`.
    """
    lines = _store_lines(store_path)
    return [_decode_line(store_path, lineno, line) for lineno, line in enumerate(lines, start=1)]


def record_key(record: TelemetryRecord) -> tuple[str, int, int]:
    """``(node_id, timestamp_ms, seq)``, what a :class:`StoreIndex` keeps of a record."""
    return record.node_id, record.timestamp_ms, record.seq


@functools.cache  # compiled on the first store open, not on every import
def _line_pattern() -> re.Pattern:
    """A store line as encode_record writes it, holding only values decode_record
    accepts: no spaces, strings of printable ASCII without '"', '\\' or escapes,
    and numbers no longer than a repr (17 integer digits, 20 fraction digits and
    a 2-digit exponent at most), so that none overflows."""
    text = rb"[ !#-\[\]-~]"
    # "|)" in place of ")?": the pattern matches a line about a quarter faster
    number = rb"(-?(?:0|[1-9][0-9]{0,16})(?:\.[0-9]{1,20}|)(?:[eE][-+]?[0-9]{1,2}|))"
    return re.compile(
        rb'\{"node_id":"(%s+)","timestamp_ms":([1-9][0-9]{0,18}),"seq":(0|[1-9][0-9]{0,18}),'
        rb'"features":\{%s\},"label":(?:null|"(?:%s)"),"site":(?:null|"%s*")\}'
        % (text, b",".join(b'"%s":%s' % (key.encode(), number) for key in WIRE_FEATURE_KEYS),
           b"|".join(re.escape(c.value.encode()) for c in StructureClass), text)
    )


def _load(store_path, lines) -> tuple[list, list]:
    """Each line's ``(node_id, timestamp_ms, seq)``, and what :meth:`StoreIndex.line` starts
    from: the :func:`_line_pattern` match, or else ``encode_record(decode_record(line))``."""
    keys, loaded = [], []
    fullmatch = _line_pattern().fullmatch
    for lineno, line in enumerate(lines, start=1):
        match = fullmatch(line)
        if match:
            keys.append((match[1].decode("ascii"), int(match[2]), int(match[3])))
            loaded.append(match)
        else:
            record = _decode_line(store_path, lineno, line)
            keys.append(record_key(record))
            loaded.append(encode_record(record))
    return keys, loaded


class StoreIndex:
    """Each record's line in append order, each node's keys in order, and per-node max seq.

    ``by_node[node]`` holds one ``(timestamp_ms, seq, position)`` key per
    record, sorted; ``position`` indexes ``lines`` and breaks ties in append
    order, as a stable sort by ``(timestamp_ms, seq)`` would. It starts from
    the :func:`record_key` of each record in the store and, to answer queries
    about them, from what ``_load`` gives for their lines; an index that only
    counts records can leave those out.
    """

    def __init__(self, keys=(), lines=()):
        # per record: its canonical line, or until its first answer checks that, the match
        self.lines: list[bytes | re.Match] = list(lines)
        self.by_node: dict[str, list[tuple[int, int, int]]] = {}
        self.max_seq: dict[str, int] = {}
        for position, key in enumerate(keys):
            self._add_key(*key, position)
        for node_keys in self.by_node.values():
            node_keys.sort()  # one sort per node, linear when its timestamps run forward

    def add(self, record: TelemetryRecord, line: bytes) -> None:
        keys = self._add_key(*record_key(record), len(self.lines))
        self.lines.append(line)
        insort(keys, keys.pop())  # the new key moves to its place

    def _add_key(self, node: str, timestamp_ms: int, seq: int, position: int) -> list:
        """Append a key to the end of its node's list; return that list."""
        keys = self.by_node.setdefault(node, [])
        keys.append((timestamp_ms, seq, position))
        self.max_seq[node] = max(self.max_seq.get(node, -1), seq)
        return keys

    def line(self, position: int) -> bytes:
        """The canonical line of the record at ``position``, worked out at most once."""
        line = self.lines[position]
        if isinstance(line, re.Match):  # the line itself if json spells its numbers so, not "1.50"
            numbers = b"[" + b",".join(line.groups()[3:]) + b"]"  # the groups after node, time, seq
            canonical = _compact_json(json.loads(numbers)).encode() == numbers
            line = line.string if canonical else encode_record(decode_record(line.string))
            self.lines[position] = line
        return line

    def node_statuses(self) -> list[NodeStatus]:
        # a node's last key holds its latest timestamp
        return [NodeStatus(n, keys[-1][0], len(keys)) for n, keys in sorted(self.by_node.items())]


class _ServiceState:
    """Store handle plus in-memory index, shared by handler threads.

    After a failed fsync the state latches: the page cache may hold bytes the
    disk does not (Rebello et al., USENIX ATC 2020), so every later ingest
    raises StoreError until a new state re-reads the store. A failed write
    latches nothing.
    """

    def __init__(self, store_path):
        self.lock = threading.Lock()
        lines = _store_lines(store_path) if os.path.exists(store_path) else []
        self.index = StoreIndex(*_load(store_path, lines))
        self._fh = _open_store(store_path)
        self._latched = None  # the fsync error every ingest raises again, once there is one

    def ingest(self, record: TelemetryRecord) -> str:
        """'stored' | 'duplicate'; raises StoreError on write failure."""
        with self.lock:
            if self._latched:
                raise StoreError(f"{self._latched}; restart to re-read the store")
            if record.seq <= self.index.max_seq.get(record.node_id, -1):
                return "duplicate"
            try:
                self.index.add(record, _append_durable(self._fh, record))
            except _FsyncError as exc:
                self._latched = str(exc)
                raise
            return "stored"

    def node_statuses(self) -> list[NodeStatus]:
        with self.lock:
            return self.index.node_statuses()

    def query(self, node_id=None, since_ms=None, limit=None) -> list[bytes]:
        """Canonical lines in ``(timestamp_ms, seq)`` order: one node's records or all of them,
        from ``since_ms`` on (inclusive), at most ``limit``."""
        index, keys = self.index, []
        since = () if since_ms is None else (since_ms,)  # sorts before each key from since_ms on
        with self.lock:
            chosen = index.by_node.values() if node_id is None else [index.by_node.get(node_id, [])]
            for node_keys in chosen:
                start = bisect_left(node_keys, since)
                keys += node_keys[start : None if limit is None else start + limit]
        keys.sort()  # one node's keys are in order already, so theirs is a linear sort
        # unlocked: positions never move, and a racing first answer stores the same bytes
        return [index.line(position) for _, _, position in keys[:limit]]

    def close(self):
        self._fh.close()


# The /records parameters, each at most once; integers in ASCII digits, as for
# Content-Length (int() would also take "+3", "1_001" and " 3 "), and no more
# digits than int() reads
_QUERY_SPELLINGS = {
    "node_id": (".+", "non-empty", str),
    "since_ms": ("-?[0-9]{1,4300}", "an integer", int),
    "limit": ("[0-9]{1,4300}", "a non-negative integer", int),
}


class _RequestReads(socket.SocketIO):
    """A connection's reads, under one deadline per request.

    While it waits for a request's first byte, each recv may take ``timeout`` s.
    From that byte on, the rest of the request (its line, headers and body) must
    arrive within ``timeout`` s however it is spread over recvs, so a client that
    trickles a request cannot hold a handler thread (slowloris, Hansen 2009).
    """

    def __init__(self, sock: socket.socket, timeout: float):
        super().__init__(sock, "rb")
        self.timeout = timeout
        self.deadline = None  # time.monotonic() by which the request must be in, from its first byte

    def readinto(self, b):
        if self.deadline is None:
            wait = self.timeout
        else:
            wait = self.deadline - time.monotonic()
            if wait <= 0:  # settimeout(0) would make the socket non-blocking instead
                raise TimeoutError("request deadline passed")
        self._sock.settimeout(wait)
        n = super().readinto(b)
        if n and self.deadline is None:
            self.deadline = time.monotonic() + self.timeout
        return n


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Buffered output: headers and body leave in one write. Two small writes
    # on a keep-alive connection would stall the body behind the client's
    # delayed ACK (Nagle), about 40 ms per request.
    wbufsize = -1
    timeout = REQUEST_TIMEOUT_S  # each request's deadline; also the wait of each idle recv and send

    def setup(self):
        # StreamRequestHandler.setup, with rfile reading through _RequestReads
        self.connection = self.request
        self._reads = _RequestReads(self.connection, self.timeout)
        self.rfile = io.BufferedReader(self._reads)
        self.wfile = self.connection.makefile("wb", self.wbufsize)

    def handle_one_request(self):
        self._reads.deadline = None  # the next request's deadline starts at its first byte
        super().handle_one_request()

    def _send(self, status: int, payload: dict):
        self._send_body(status, _compact_json(payload).encode("utf-8"))

    def _send_body(self, status: int, body: bytes):
        self.connection.settimeout(self.timeout)  # the answer's own wait, not what the request left
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def parse_request(self):
        """http.server's parsing, then the framing rules of RFC 9112 6.1 for a request body."""
        if not super().parse_request():
            return False
        # a body no handler reads would be taken for the next request, so its connection
        # closes after the answer unless do_POST reads it
        self._close_after_body = self.close_connection
        self.close_connection |= self.command == "POST" or "Content-Length" in self.headers
        if "Transfer-Encoding" not in self.headers:  # chunked is refused, not parsed (cf. 7.1)
            return True
        self.close_connection = True
        status = 400 if "Content-Length" in self.headers else 411
        self._send(status, {"error": "Transfer-Encoding is not supported", "field": "body"})
        return False

    def do_POST(self):  # noqa: N802 (http.server API)
        if urllib.parse.urlsplit(self.path).path != "/ingest":
            self._send(404, {"error": "unknown path"})
            return
        lengths = {v.strip(" \t") for v in self.headers.get_all("Content-Length", [""])}
        raw = lengths.pop()  # a missing header reads as ""
        # RFC 9110 8.6: 1*DIGIT, so no sign or "_"; RFC 9112 6.3: values that differ are an error
        if lengths or not (raw.isascii() and raw.isdigit()):
            self._send(
                400, {"error": "Content-Length must be one non-negative integer", "field": "body"}
            )
            return
        # 9 significant digits already exceed MAX_BODY_BYTES, and int() refuses over 4300
        length = int(raw.lstrip("0")[:9] or 0)
        if length > MAX_BODY_BYTES:
            self._send(413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes", "field": "body"})
            return
        try:
            body = self.rfile.read(length)
        except TimeoutError:  # the body's end never came
            self._send(408, {"error": f"body incomplete after {self.timeout} s", "field": "body"})
            return
        self.close_connection = self._close_after_body
        try:
            record = decode_record(body)
        except SchemaError as exc:
            self._send(400, {"error": str(exc), "field": exc.field})
            return
        try:
            outcome = self.server.state.ingest(record)
        except StoreError as exc:
            self._send(503, {"error": str(exc)})
            return
        if outcome == "duplicate":
            self._send(
                409,
                {
                    "error": "duplicate or stale seq",
                    "node_id": record.node_id,
                    "seq": record.seq,
                    "max_seq": self.server.state.index.max_seq[record.node_id],
                },
            )
            return
        self._send(201, {"node_id": record.node_id, "seq": record.seq})

    def do_GET(self):  # noqa: N802
        split = urllib.parse.urlsplit(self.path)
        if split.path == "/nodes":
            statuses = self.server.state.node_statuses()
            self._send(200, {"nodes": [asdict(s) for s in statuses]})
            return
        if split.path == "/records":
            params = urllib.parse.parse_qs(split.query, keep_blank_values=True)
            for name, values in params.items():
                if name not in _QUERY_SPELLINGS:
                    error = f"{name} is not a parameter; want {', '.join(_QUERY_SPELLINGS)}"
                elif len(values) > 1:
                    error = f"{name} is given {len(values)} times"
                elif not re.fullmatch(_QUERY_SPELLINGS[name][0], values[0], re.DOTALL):
                    error = f"{name} must be {_QUERY_SPELLINGS[name][1]}"
                else:
                    continue
                self._send(400, {"error": error})
                return
            args = {name: _QUERY_SPELLINGS[name][2](values[0]) for name, values in params.items()}
            lines = self.server.state.query(**args)
            # each line is encode_record's output: the bytes of _send(200, {"records": [...]})
            self._send_body(200, b'{"records":[' + b",".join(lines) + b"]}")
            return
        self._send(404, {"error": "unknown path"})

    def log_message(self, format, *args):  # quiet by default
        pass


# what a connection over MAX_CONNECTIONS gets (RFC 9110 15.6.4) before it is closed
_BUSY_BODY = _compact_json({"error": "too many connections; retry later"}).encode()
_BUSY_REPLY = (
    b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\nConnection: close\r\n\r\n%s" % (len(_BUSY_BODY), _BUSY_BODY)
)


class TelemetryServer(ThreadingHTTPServer):
    """Threaded HTTP ingestion service over a JSON-lines store.

    Usage::

        with TelemetryServer("store.jsonl") as server:
            post(server.url + "/ingest", ...)

    ``port=0`` binds an ephemeral port; read it back from ``server.port``.
    ``serve_forever()`` serves in the calling thread; stop() does not end that loop.
    Connections are served by ``MAX_CONNECTIONS`` handler threads, started with the
    server and reused; a connection that finds them all busy gets 503 and is closed.
    """

    def __init__(self, store_path, host: str = "127.0.0.1", port: int = 0):
        self.state = _ServiceState(store_path)  # before binding: a bad store leaves no open socket
        self._thread = None
        try:
            super().__init__((host, port), _Handler)
        except BaseException:  # OSError, or OverflowError for a port past 65535
            self.state.close()
            raise
        self._pool_size = MAX_CONNECTIONS
        self._slots = threading.BoundedSemaphore(self._pool_size)  # one per connection being served
        self._accepted = queue.SimpleQueue()  # (request, client_address); None ends a worker
        for _ in range(self._pool_size):
            threading.Thread(target=self._serve_connections, daemon=True).start()

    def _serve_connections(self):
        while (accepted := self._accepted.get()) is not None:
            request, client_address = accepted
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                # freed before the close: a client that sees its connection end can connect again
                self._slots.release()
                self.shutdown_request(request)

    def process_request(self, request, client_address):
        """In the accept thread: hand the connection to a worker, or answer 503 without blocking."""
        if self._slots.acquire(blocking=False):
            self._accepted.put((request, client_address))
            return
        request.setblocking(False)
        try:
            request.send(_BUSY_REPLY)  # far below a socket's send buffer
        except OSError:  # the client is gone, or its buffer is full: it gets the close alone
            pass
        self.shutdown_request(request)

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self, poll_interval: float = STOP_POLL_S):
        # a signal may reach any thread, not the one in select(): the loop sees it within a poll
        super().serve_forever(poll_interval)

    def start(self) -> "TelemetryServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self):
        if self._thread is not None:  # shutdown() waits for a serve loop to end
            self.shutdown()
            self._thread.join()
        self.server_close()
        for _ in range(self._pool_size):  # a worker ends after its connection; a daemon, not waited for
            self._accepted.put(None)
        self.state.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def _post_once(url: str, body: bytes, timeout: float) -> int:
    import urllib.error
    import urllib.request

    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status
    except urllib.error.HTTPError as exc:
        return exc.code


def node_emulator(
    profile: ClassProfile,
    endpoint,
    interval_s: float = 8.0,
    count: int = 10,
    seed: int = 0,
    node_id: str | None = None,
    site: str | None = None,
    start_seq: int = 0,
    time_fn=None,
) -> list[TelemetryRecord]:
    """Synthesize, featurize, and deliver one record per tick.

    ``endpoint`` is either an ``http(s)://`` service URL or a file path
    (dry-run sink: the server's store, dedup and durable append without the
    HTTP in between, so a rerun adds only unseen seqs). Transport failures
    and 503s are retried with exponential backoff without skipping seq; a
    409 means the record already landed (e.g. an earlier POST was acked but
    the response got lost), so the emulator moves on. The window for seq k
    is derived from (seed, k), so a restarted emulator re-sends identical
    payloads and the server's dedup keeps the store exactly-once.

    Raises
    ------
    DeliveryError
        After ``MAX_RETRIES`` consecutive failures for one record, or on a
        400 (schema bug, retrying cannot help). ``delivered`` carries the
        number of records acknowledged before the abort.
    """
    from .features import extract_features
    from .signalsim import synth_window

    if count < 0:
        raise ValueError("count must be >= 0")
    if not 0 <= interval_s <= 86_400:  # NaN fails too; time.sleep overflows on 1e300 s
        raise ValueError(f"interval_s must be between 0 and 86400 (a day), got {interval_s}")
    node_id = node_id or f"{profile.structure.value}-node"
    time_fn = time_fn or (lambda: int(time.time() * 1000))
    # RFC 3986 3.1: a scheme is case-insensitive
    is_http = isinstance(endpoint, str) and endpoint.lower().startswith(("http://", "https://"))
    if is_http:
        url = endpoint if endpoint.endswith("/ingest") else endpoint.rstrip("/") + "/ingest"
    sink = None if is_http else _ServiceState(endpoint)

    sent = []
    t0 = time.monotonic()
    try:
        for i in range(count):
            wait = t0 + i * interval_s - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            seq = start_seq + i
            window = synth_window(profile, seed=seed * 1_000_003 + seq)
            record = TelemetryRecord(
                node_id=node_id,
                timestamp_ms=time_fn(),
                seq=seq,
                features=extract_features(window),
                label=profile.structure,
                site=site,
            )
            if sink is not None:
                sink.ingest(record)  # "duplicate" counts as delivered, as a 409 does
            else:
                body = encode_record(record)
                for attempt in range(MAX_RETRIES + 1):
                    try:
                        status = _post_once(url, body, POST_TIMEOUT_S)
                    except OSError:  # urllib's URLError included
                        status = None  # transport failure
                    if status in (201, 409):
                        break
                    if status == 400:
                        raise DeliveryError(len(sent), f"server rejected seq {seq} with 400")
                    if attempt == MAX_RETRIES:
                        raise DeliveryError(
                            len(sent),
                            f"giving up on seq {seq} after {MAX_RETRIES} retries "
                            f"(last status {status})",
                        )
                    time.sleep(BACKOFF_S * 2**attempt)
            sent.append(record)
    finally:
        if sink is not None:
            sink.close()
    return sent
