"""Benchmark of the vibsense pipeline.

Run one workload and print its result as the last line of standard output:

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` records spans around every timed call and reports the
per-layer metrics. ``--smoke`` shrinks every workload so that it finishes in
seconds. The full result, with a description of the machine, is also written
under ``perfbench/out/results/``; ``--compare A.json B.json`` prints the
ratio of every metric of two such files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import traceback

import harness

WORKLOADS = ("corpus-cli", "cnn-paper", "cnn-grid", "ingest")


def _workload_fns():
    import cnnbench
    import corpus
    import ingest

    run_fns = {
        "corpus-cli": corpus.workload,
        "cnn-paper": cnnbench.workload_paper,
        "cnn-grid": cnnbench.workload_grid,
        "ingest": ingest.workload,
    }
    # Layer groups that a traced run of another workload measures by a probe;
    # the key is one metric the group sets.
    probes = (
        ("cli.simulate_s", corpus.probe),
        ("cnn.q32.forward_ms", cnnbench.probe_paper),
        ("cnn.q4.forward_ms", cnnbench.probe_grid),
        ("telemetry.decode_record_us", ingest.probe),
    )
    return run_fns, probes


def execute(run: harness.Run) -> dict:
    """Run the workload (and, when traced, the other layers' probes); return the result line."""
    run_fns, probes = _workload_fns()
    run_fns[run.workload](run)
    if run.traced:
        for key, probe in probes:
            if key not in run.metrics:
                probe(run)
    spec = harness.load_spec()
    wanted = spec["per_layer"] if run.traced else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = run.metrics.get(entry["name"])
        if value is None or not math.isfinite(value) or value == 0:
            raise RuntimeError(f"metric {entry['name']} not measured (got {value!r})")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two result files")
    args = parser.parse_args(argv)
    if args.compare:
        return harness.compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    harness.bootstrap()
    work = harness.OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = harness.Run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, work)
    try:
        line = execute(run)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    path = harness.result_path(args.workload, run.traced, args.seed, args.smoke)
    path.parent.mkdir(parents=True, exist_ok=True)
    full = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, smoke=args.smoke, problems=run.problems,
                notes=run.notes, machine=harness.machine_info())
    if run.traced:
        run.tracer.write(path.with_suffix(".trace.jsonl"))
        full["spans"] = len(run.tracer.spans)
    path.write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
