"""Plumbing shared by the benchmark workloads.

Finds the vibsense sources of the checkout, times calls, records trace spans,
describes the machine, and writes and compares result files. Nothing here
knows about a particular workload.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"


def bootstrap() -> None:
    """Put the checkout's ``src`` first on the path, or stop the run.

    The benchmark measures the sources next to it, never an installed copy,
    so a checkout without ``src/vibsense`` is an error.
    """
    if not (SRC / "vibsense" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no vibsense sources under {SRC}")
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for ``python -m vibsense`` subprocesses of this checkout."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def vibsense_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "vibsense", *args]


def run_cli(args: list[str], timeout: float = 170.0) -> tuple[float, subprocess.CompletedProcess]:
    """Run one CLI command in a fresh interpreter; return (wall seconds, result)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        vibsense_cmd(*args), cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=timeout,
    )
    return time.perf_counter() - t0, proc


def fresh_import_s() -> float:
    """Seconds a fresh interpreter spends in ``import vibsense``."""
    code = (
        "import time; t = time.perf_counter(); import vibsense; "
        "print(repr(time.perf_counter() - t))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip())


def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    return float(statistics.geometric_mean(values))


class Tracer:
    """In-memory span recorder for the traced run.

    A span has a name, a start, an end and the name of the span that encloses
    it on the same thread. A disabled tracer records nothing and patches
    nothing, so the untraced run pays no tracing cost.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, str | None]] = []
        self._stack = threading.local()

    def _parent(self):
        stack = getattr(self._stack, "names", None)
        if stack is None:
            stack = self._stack.names = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._parent()
        parent = stack[-1] if stack else None
        stack.append(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, t0, time.perf_counter(), parent))
            stack.pop()

    @contextmanager
    def patch(self, owner, attr: str, name_of):
        """Record a span around every call of ``owner.attr``.

        ``name_of(*args, **kwargs)`` names the span; ``None`` skips the call.
        The original attribute is restored on exit.
        """
        if not self.enabled:
            yield
            return
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            name = name_of(*args, **kwargs)
            if name is None:
                return original(*args, **kwargs)
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        return [end - start for span, start, end, _ in self.spans if span == name]

    def median(self, name: str, scale: float = 1.0) -> float:
        values = self.durations(name)
        if not values:
            raise KeyError(f"no spans named {name}")
        return median(values) * scale

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")


class Run:
    """One benchmark run: its settings, counters, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.tracer = Tracer(trace)
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: dict = {}

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    def expect(self, problems, what: str) -> None:
        """Record the problems a check returned, prefixed with what it checked."""
        self.problems.extend(f"{what}: {p}" for p in problems)

    def until_deadline(self):
        """Yield round numbers until ``seconds`` have passed; always one round."""
        start = time.perf_counter()
        n = 0
        while n == 0 or time.perf_counter() - start < self.seconds:
            yield n
            n += 1


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
    }


def result_path(workload: str, trace: bool, seed: int, smoke: bool) -> Path:
    kind = "smoke" if smoke else "run"
    return OUT / "results" / f"{workload}-{kind}-trace{int(trace)}-seed{seed}.json"


def compare(path_a: str, path_b: str) -> int:
    """Print, for every metric of two result files, both values and B/A."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    print(f"A: {path_a} ({a.get('workload')}, trace={a.get('trace')}, seed={a.get('seed')})")
    print(f"B: {path_b} ({b.get('workload')}, trace={b.get('trace')}, seed={b.get('seed')})")
    ma, mb = a["metrics"], b["metrics"]
    width = max(len(n) for n in {*ma, *mb})
    for name in sorted({*ma, *mb}):
        va = ma.get(name, {}).get("value")
        vb = mb.get(name, {}).get("value")
        unit = (ma.get(name) or mb.get(name))["unit"]
        ratio = f"{vb / va:.4f}" if va and vb is not None else "-"
        print(f"{name:<{width}}  A={_fmt(va)} {unit}  B={_fmt(vb)} {unit}  B/A={ratio}")
    if not a.get("trace") and b.get("trace") and "unit_s" in ma and "bench.traced_unit_s" in mb:
        base = ma["unit_s"]["value"]
        traced = mb["bench.traced_unit_s"]["value"]
        print(f"tracing overhead on unit_s: {100 * (traced / base - 1):+.2f}% "
              f"(untraced {base:.6g} s, traced {traced:.6g} s)")
    return 0


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"
