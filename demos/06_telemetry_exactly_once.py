"""
Node emulator against the ingestion service
===========================================

Run the HTTP service on an ephemeral port, push six windows from an
emulated rail-line node, then replay the exact same sequence numbers.
The replay is acknowledged but deduplicated, so the store ends up with
each record exactly once. Then read the node back through ``GET /records``:
all of it, from a timestamp on (inclusive), and its first few records.
"""

import json
import urllib.parse
import urllib.request
from pathlib import Path

from vibsense import (
    DEFAULT_PROFILES,
    StructureClass,
    TelemetryServer,
    node_emulator,
    scan_store,
)
from vibsense.telemetry import record_wire_dict

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)
store = out / "telemetry.jsonl"
store.unlink(missing_ok=True)

profile = DEFAULT_PROFILES[StructureClass.RAILLINE]

with TelemetryServer(store) as server:
    print(f"service on {server.url}, store {store}")

    sent = node_emulator(profile, server.url, interval_s=0.02, count=6, seed=9)
    print(f"first pass delivered {len(sent)} records")

    # same node, same sequence numbers: every post answers 409 duplicate
    replay = node_emulator(profile, server.url, interval_s=0.02, count=6, seed=9)
    print(f"replay acknowledged {len(replay)} records (deduplicated server-side)")

    for status in server.state.node_statuses():
        print(f"node {status.node_id}: {status.record_count} records, "
              f"last seen t={status.last_seen_ms}")

    # answers come in (timestamp_ms, seq) order; check each against the store itself
    stored = sorted(scan_store(store), key=lambda r: (r.timestamp_ms, r.seq))
    node = sent[0].node_id
    since = stored[2].timestamp_ms
    for params, want in [
        ({"node_id": node}, stored),
        ({"node_id": node, "since_ms": since}, [r for r in stored if r.timestamp_ms >= since]),
        ({"node_id": node, "limit": 4}, stored[:4]),
    ]:
        query = urllib.parse.urlencode(params)
        with urllib.request.urlopen(f"{server.url}/records?{query}", timeout=10) as resp:
            got = json.loads(resp.read())["records"]
        assert got == [record_wire_dict(r) for r in want], query
        print(f"GET /records?{query}: {len(got)} records, as stored")

records = scan_store(store)
print(f"\nstore holds {len(records)} records (exactly once despite the replay)")
for r in records:
    print(f"  seq={r.seq} label={r.label.value} rms={r.features.rms:.2f}")
assert sorted(r.seq for r in records) == list(range(6))
