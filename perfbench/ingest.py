"""ingest: two closed-loop clients against a ``vibsense serve`` process.

The server starts on a pre-built store of 20,000 records from 100 nodes.
Each client owns half the nodes and, like ``node_emulator``, waits for the
answer to one request before it sends the next. A round is a fixed mix per
client: new records (201 expected), replays of stored records (409
expected), ``GET /records`` and ``GET /nodes``. Every round then tears a copy
of a small store, restarts a server on it, posts one record and restarts
again; that last restart is the round's final operation.
"""

from __future__ import annotations

import gc
import http.client
import json
import random
import select
import shutil
import signal
import subprocess
import threading
import time
import warnings

import checks
from harness import ROOT, child_env, median, vibsense_cmd

NODES, PER_NODE = 100, 200
SMOKE_NODES, SMOKE_PER_NODE = 10, 20
CLIENTS = 2
ROUND_MIX = {"new": 280, "replay": 40, "records": 60, "nodes": 20}  # per client and round
SMOKE_MIX = {"new": 14, "replay": 2, "records": 3, "nodes": 1}
SERVER_STARTS = 3
TORN_BASE_RECORDS = 50
BASE_MS = 1_600_000_000_000
INTERVAL_MS = 8_000
LAYER_SAMPLE = 200


class ServerFailed(RuntimeError):
    pass


class Server:
    """A ``vibsense serve`` subprocess on an ephemeral port."""

    def __init__(self, store, log):
        self.store, self.log = store, log
        self.proc = None
        self.port = None

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait until it listens; return the seconds that took."""
        t0 = time.perf_counter()
        with open(self.log, "ab") as err:
            self.proc = subprocess.Popen(
                vibsense_cmd("serve", "--store", str(self.store), "--port", "0"),
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err, text=True,
            )
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        if "listening on" not in line:
            code = self.proc.poll()
            self.stop()
            raise ServerFailed(f"server on {self.store.name} did not start "
                               f"(exit {code}): {self.log.read_text()[-300:]}")
        self.port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        return elapsed

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        return request(self.port, method, path, body)


def request(port: int, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
    """One request and its answer, on a new connection as ``node_emulator`` makes."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


# ---------------------------------------------------------------- inputs


def node_name(i: int) -> str:
    return f"node-{i:03d}"


def timestamp(node: int, seq: int) -> int:
    return BASE_MS + seq * INTERVAL_MS + node * 7


def make_record(rng: random.Random, node: int, seq: int) -> dict:
    """A wire record with seeded feature values, in the documented key order."""
    features = {name: rng.uniform(0.0, 300.0) for name in checks.WIRE_FEATURES}
    features["num_peaks"] = rng.randrange(0, 800)
    return {
        "node_id": node_name(node),
        "timestamp_ms": timestamp(node, seq),
        "seq": seq,
        "features": features,
        "label": checks.CLASSES[node % len(checks.CLASSES)],
        "site": f"site-{node % 7}",
    }


def wire(record: dict) -> bytes:
    return json.dumps(record, separators=(",", ":")).encode()


class Fleet:
    """What the benchmark knows it stored: every node's records in seq order."""

    def __init__(self, seed: int, nodes: int, per_node: int):
        self.seed = seed
        rng = random.Random(seed)
        self.records = {node_name(n): [make_record(rng, n, s) for s in range(per_node)]
                        for n in range(nodes)}
        self.nodes = nodes
        self.prebuilt = nodes * per_node
        self.acked: set[tuple[str, int]] = set()

    def write_store(self, path, limit=None) -> None:
        lines = [wire(r) for recs in self.records.values() for r in recs][:limit]
        path.write_bytes(b"\n".join(lines) + b"\n")

    def counts(self) -> dict[str, int]:
        return {node: len(recs) for node, recs in self.records.items()}

    def last_seen_of(self, node: str, count: int) -> int:
        return timestamp(int(node.split("-")[1]), count - 1)

    def owned(self, client: int) -> list[int]:
        return [n for n in range(self.nodes) if n % CLIENTS == client]


def plan_round(fleet: Fleet, client: int, rnd: int, mix: dict) -> list[tuple]:
    """The seeded, shuffled operations of one client in one round.

    New records get their seq after the shuffle, so each node's seqs are
    sent in increasing order.
    """
    rng = random.Random(f"{fleet.seed}/{rnd}/{client}")
    owned = fleet.owned(client)
    picks = [(kind, rng.choice(owned)) for kind, count in mix.items() for _ in range(count)]
    rng.shuffle(picks)
    next_seq = {n: len(fleet.records[node_name(n)]) for n in owned}
    ops = []
    for kind, node in picks:
        name = node_name(node)
        if kind == "new":
            ops.append(("new", name, make_record(rng, node, next_seq[node])))
            next_seq[node] += 1
        elif kind == "replay":
            ops.append(("replay", name, rng.choice(fleet.records[name])))
        elif kind == "records":
            known = len(fleet.records[name])
            params = rng.choice(({}, {"since_ms": timestamp(node, rng.randrange(known))},
                                 {"limit": rng.randrange(1, 50)}))
            ops.append(("records", name, params))
        else:
            ops.append(("nodes", name, None))
    return ops


# ---------------------------------------------------------------- load


def _timed(tracer, span: str, server: Server, method: str, path: str, body=None):
    """One request; a transport error is answered as status ``None``."""
    with tracer.span(span):
        t0 = time.perf_counter()
        try:
            status, payload = server.request(method, path, body)
        except (OSError, http.client.HTTPException):
            status, payload = None, b""
        return status, payload, time.perf_counter() - t0


def client_loop(run, server: Server, fleet: Fleet, client: int, ops, results: list) -> None:
    """Closed loop: each request waits for its answer before the next is sent."""
    tracer = run.tracer
    for kind, node, arg in ops:
        if kind in ("new", "replay"):
            status, _, latency = _timed(tracer, "telemetry.post", server, "POST", "/ingest", wire(arg))
            if kind == "new" and status == 201:
                fleet.records[node].append(arg)  # only this client writes this node
                fleet.acked.add((node, arg["seq"]))
            results.append((kind, status, latency, None))
        elif kind == "records":
            query = "&".join([f"node_id={node}"] + [f"{k}={v}" for k, v in arg.items()])
            known = len(fleet.records[node])
            status, payload, latency = _timed(tracer, "telemetry.get_records", server,
                                              "GET", f"/records?{query}")
            results.append((kind, status, latency, (node, arg, known, payload)))
        else:
            own = {node_name(n): len(fleet.records[node_name(n)]) for n in fleet.owned(client)}
            status, payload, latency = _timed(tracer, "telemetry.get_nodes", server, "GET", "/nodes")
            results.append((kind, status, latency, (own, payload)))


def load_round(run, server: Server, fleet: Fleet, rnd: int, mix: dict):
    """Both clients' planned operations; returns (wall seconds, results, counts before).

    A client that stopped early leaves its unsent operations in the results
    with status ``None``, so every round accounts for all 2 x its mix.
    """
    plans = [plan_round(fleet, c, rnd, mix) for c in range(CLIENTS)]
    before = fleet.counts()
    results = [[] for _ in range(CLIENTS)]
    threads = [threading.Thread(target=client_loop, args=(run, server, fleet, c, plans[c], results[c]))
               for c in range(CLIENTS)]
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    wall = time.perf_counter() - t0
    for c, (plan, got) in enumerate(zip(plans, results)):
        if len(got) < len(plan):
            run.problems.append(f"ingest: client {c} stopped after {len(got)} of {len(plan)} requests")
            got += [(kind, None, 0.0, None) for kind, _, _ in plan[len(got):]]
    return wall, [r for rs in results for r in rs], before


def check_round(run, fleet: Fleet, results, before: dict) -> int:
    """Check every answer of a round; return how many requests failed."""
    after = fleet.counts()
    bounds = {node: (before[node], after[node]) for node in after}
    expected = {"new": 201, "replay": 409, "records": 200, "nodes": 200}
    failed = sum(status != expected[kind] for kind, status, _, _ in results)
    problems = [f"{kind} answered {status}" for kind, status, _, _ in results
                if kind != "replay" and status != expected[kind]]
    problems += checks.check_replays([s for kind, s, _, _ in results if kind == "replay"])
    for kind, status, _, detail in results:
        if kind == "records" and status == 200:
            node, params, known, payload = detail
            want = checks.expected_records(fleet.records[node][:known], **params)
            if json.loads(payload)["records"] != want:
                problems.append(f"/records?node_id={node} {params} differs from the records sent")
        elif kind == "nodes" and status == 200:
            own, payload = detail
            problems += checks.check_nodes(json.loads(payload)["nodes"], own, bounds, fleet.last_seen_of)
    run.expect(problems[:5], "ingest")
    return failed


def torn_restart(run, fleet: Fleet, torn_base, rnd: int) -> None:
    """Tear a store copy, restart, ingest one record, restart again.

    The restarts run the server in this process, which opens the store as
    ``vibsense serve`` does without paying an interpreter start. The second
    restart is the counted operation: it must come up and still hold the
    record acknowledged after the tear.
    """
    from vibsense import StoreError, telemetry

    store = run.work / "torn.jsonl"
    shutil.copyfile(torn_base, store)
    line = wire(make_record(random.Random(rnd), 0, 10_000 + rnd))
    with open(store, "ab") as fh:
        fh.write(line[: len(line) // 2])
    record = make_record(random.Random(rnd), fleet.nodes, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the torn line is skipped with a warning, as documented
        try:
            with telemetry.TelemetryServer(store) as server:
                status, _ = request(server.port, "POST", "/ingest", wire(record))
        except StoreError as exc:
            run.problems.append(f"torn store: first restart failed: {exc}")
            return
        if status != 201:
            run.problems.append(f"torn store: post after the tear answered {status}")
        run.attempted += 1
        try:
            again = telemetry.TelemetryServer(store)
        except StoreError:
            run.failed += 1
            return
    with again:
        _, payload = request(again.port, "GET", f"/records?node_id={record['node_id']}")
    if record not in json.loads(payload)["records"]:
        run.problems.append("torn store: acknowledged record lost across restart")


# ---------------------------------------------------------------- runs


def _start_servers(run, store, starts: int) -> tuple[Server, list[float]]:
    """Cold-start the server ``starts`` times on the store; keep the last one running."""
    times = []
    for i in range(starts):
        server = Server(store, run.work / "server.log")
        with run.tracer.span("telemetry.server_start"):
            times.append(server.start())
        if i < starts - 1:
            server.stop()
    return server, times


def _final_checks(run, server: Server, fleet: Fleet, store) -> None:
    from vibsense import telemetry

    status, payload = server.request("GET", "/nodes")
    counts = fleet.counts()
    if status != 200:
        run.problems.append(f"final /nodes answered {status}")
    else:
        run.expect(checks.check_nodes(json.loads(payload)["nodes"], counts,
                                      {n: (c, c) for n, c in counts.items()}, fleet.last_seen_of),
                   "final /nodes")
    server.stop()
    stored = [(r.node_id, r.seq) for r in telemetry.scan_store(store)]
    run.expect(checks.check_durability(fleet.acked, stored), "durability")
    if len(stored) != fleet.prebuilt + len(fleet.acked):
        run.problems.append(f"store holds {len(stored)} records, expected "
                            f"{fleet.prebuilt} pre-built + {len(fleet.acked)} acknowledged")


def _layer_metrics(run, store, fleet: Fleet) -> None:
    from vibsense import telemetry

    t = run.tracer
    lines = store.read_bytes().splitlines()[:LAYER_SAMPLE]
    decoded = []
    for line in lines:
        with t.span("telemetry.decode_record"):
            decoded.append(telemetry.decode_record(line))
    for record in decoded:
        with t.span("telemetry.encode_record"):
            telemetry.encode_record(record)
    scratch = run.work / "append.jsonl"
    for record in decoded[:50]:
        with t.span("telemetry.append_store"):
            telemetry.append_store(scratch, record)
    for _ in range(2):
        with t.span("telemetry.scan_store"):
            telemetry.scan_store(store)
    m = run.metrics
    m["telemetry.encode_record_us"] = t.median("telemetry.encode_record", 1e6)
    m["telemetry.decode_record_us"] = t.median("telemetry.decode_record", 1e6)
    m["telemetry.append_store_ms"] = t.median("telemetry.append_store", 1e3)
    m["telemetry.scan_store_s"] = t.median("telemetry.scan_store")
    m["telemetry.server_start_s"] = t.median("telemetry.server_start")
    m["telemetry.get_records_ms"] = t.median("telemetry.get_records", 1e3)
    m["telemetry.get_nodes_ms"] = t.median("telemetry.get_nodes", 1e3)
    m["telemetry.store_bytes_per_record"] = run.notes["store_bytes"] / fleet.prebuilt


def _prepare(run) -> tuple[Fleet, object]:
    nodes, per_node = (SMOKE_NODES, SMOKE_PER_NODE) if run.smoke else (NODES, PER_NODE)
    fleet = Fleet(run.seed, nodes, per_node)
    store = run.work / "store.jsonl"
    fleet.write_store(store)
    run.notes["store_bytes"] = store.stat().st_size
    # The fleet's records live for the whole run; keep the collector from
    # rescanning them inside timed rounds.
    gc.collect()
    gc.freeze()
    return fleet, store


def workload(run) -> None:
    fleet, store = _prepare(run)
    run.fleet, run.store = fleet, store
    torn_base = run.work / "torn-base.jsonl"
    fleet.write_store(torn_base, limit=TORN_BASE_RECORDS)
    mix = SMOKE_MIX if run.smoke else ROUND_MIX
    server, starts = _start_servers(run, store, 1 if run.smoke else SERVER_STARTS)
    walls, posts = [], []
    try:
        for rnd in run.until_deadline():
            wall, results, before = load_round(run, server, fleet, rnd, mix)
            run.attempted += len(results)
            walls.append(wall)
            posts += [lat for kind, status, lat, _ in results if kind == "new" and status == 201]
            run.failed += check_round(run, fleet, results, before)
            torn_restart(run, fleet, torn_base, rnd)
        _final_checks(run, server, fleet, store)
    finally:
        server.stop()
    run.notes.update(rounds=len(walls), round_s=walls, server_start_s=starts,
                     acked=len(fleet.acked), records_per_s=len(posts) / sum(walls))
    run.metrics.update(setup_s=median(starts), unit_s=median(walls), op_ms=1e3 * median(posts))
    if run.traced:
        run.metrics["bench.traced_unit_s"] = median(walls)
        _layer_metrics(run, store, fleet)


def probe(run) -> None:
    """The telemetry layers for a traced run of another workload: one round."""
    fleet, store = _prepare(run)
    server, _ = _start_servers(run, store, 1)
    try:
        _, results, before = load_round(run, server, fleet, 0, SMOKE_MIX if run.smoke else ROUND_MIX)
        check_round(run, fleet, results, before)
    finally:
        server.stop()
    _layer_metrics(run, store, fleet)
