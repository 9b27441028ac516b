"""Shared sizing and reporting helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures.  Sizes are
environment-tunable so the default run finishes in minutes while a
paper-scale run stays one flag away:

- ``REPRO_BENCH_SITES``   — websites per cell (default 15; paper: 77);
- ``REPRO_BENCH_REPEATS`` — repeats per vantage×site (default 1; paper: 50);
- ``REPRO_BENCH_DNS``     — DNS queries per vantage (default 25; paper: 100);
- ``REPRO_FULL=1``        — paper-scale dataset sizes.

Each bench prints its table (visible with ``-s``) and writes it under
``benchmarks/results/`` so EXPERIMENTS.md can cite a recorded artifact.

The session also records per-bench wall-clock time and trial throughput
(sampled from the parallel engine's trial counter) into
``benchmarks/results/BENCH_perf.json`` — the artifact the speedup
acceptance numbers are read from.
"""

import json
import os
import platform
import sys
import time

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "") == "1"


def bench_sites(default: int = 15, paper: int = 77) -> int:
    if full_scale():
        return paper
    return int(os.environ.get("REPRO_BENCH_SITES", default))


def bench_repeats(default: int = 1, paper: int = 50) -> int:
    if full_scale():
        return paper
    return int(os.environ.get("REPRO_BENCH_REPEATS", default))


def bench_dns_queries(default: int = 25, paper: int = 100) -> int:
    if full_scale():
        return paper
    return int(os.environ.get("REPRO_BENCH_DNS", default))


def report(name: str, text: str) -> str:
    """Print a bench's table and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print()
    print(text)
    return path


# -- per-bench perf recording -----------------------------------------------

_PERF_RECORDS = []
_CURRENT_METRICS = {}
_CURRENT_RATE = {}


def record_metric(name, value):
    """Attach a named metric (e.g. a MB/s figure) to the bench that is
    currently running; it lands in that bench's BENCH_perf.json entry."""
    _CURRENT_METRICS[name] = value


def record_rate(value, unit):
    """Declare the bench's primary throughput in its own unit.

    Benches that do not run trials (bench_dpi streams bytes, bench_fleet
    counts flow events) record ``rate`` + ``unit`` (e.g.
    ``bytes_per_second``) instead of the trial fields; ``repro perf
    compare`` gates these entries as ``<bench>::<unit>``."""
    _CURRENT_RATE["rate"] = round(float(value), 2)
    _CURRENT_RATE["unit"] = str(unit)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    from repro.experiments.parallel import (
        execution_stats,
        reset_execution_stats,
        trials_completed,
    )

    _CURRENT_METRICS.clear()
    _CURRENT_RATE.clear()
    reset_execution_stats()
    trials_before = trials_completed()
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    trials = trials_completed() - trials_before
    execution = execution_stats()
    record = {
        "bench": item.nodeid,
        "wall_seconds": round(elapsed, 4),
        # Effective counts, not requested ones: maps clamp workers to the
        # task count and sharded runs can collapse to the serial path, so
        # the recorded rate is only honest next to what actually ran.
        "workers": execution["workers"] or 1,
    }
    if execution["shards"]:
        record["shards"] = execution["shards"]
    if trials:
        # Benches that run no trials used to land here with ``trials: 0``
        # and a meaningless rate; the trial fields are now only recorded
        # when they mean something.
        record["trials"] = trials
        record["trials_per_second"] = (
            round(trials / elapsed, 2) if elapsed > 0 else None
        )
    if _CURRENT_RATE:
        record.update(_CURRENT_RATE)
    if _CURRENT_METRICS:
        record["metrics"] = dict(_CURRENT_METRICS)
    _PERF_RECORDS.append(record)


def _existing_benches(path):
    """Previously recorded entries, keyed by bench nodeid.

    Sessions merge instead of overwrite, so running one bench file (the
    CI perf-smoke runs only bench_dpi) does not wipe the table sweeps'
    recorded trajectory."""
    try:
        with open(path) as handle:
            return {
                record["bench"]: record
                for record in json.load(handle).get("benches", [])
                if isinstance(record, dict) and "bench" in record
            }
    except (OSError, ValueError):
        return {}


def _next_run_ordinal(benches):
    """The session's monotonic run number: one past the highest recorded.

    Wall-clock timestamps cannot order perf records — CI runners have
    skewed clocks and reruns land in the same second — so each record
    carries this ordinal instead, and ``repro obs report`` sorts the
    trajectory by it."""
    return max(
        (record.get("run", 0) for record in benches.values()), default=0
    ) + 1


#: History lines kept in BENCH_history.jsonl (oldest dropped first).
_HISTORY_KEEP = 40


def _append_history(path, payload):
    """Append this session's merged perf document as one JSONL line."""
    lines = []
    try:
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
    except OSError:
        pass
    lines.append(json.dumps(payload, sort_keys=True) + "\n")
    with open(path, "w") as handle:
        handle.writelines(lines[-_HISTORY_KEEP:])


def pytest_sessionfinish(session, exitstatus):
    if not _PERF_RECORDS:
        return
    try:
        from repro.experiments.parallel import configured_workers
        workers = configured_workers()
    except Exception:
        workers = None
    path = os.path.join(RESULTS_DIR, "BENCH_perf.json")
    benches = _existing_benches(path)
    run_ordinal = _next_run_ordinal(benches)
    for record in _PERF_RECORDS:
        record["run"] = run_ordinal
        benches[record["bench"]] = record
    payload = {
        "run": run_ordinal,
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "workers": workers,
            "replay": os.environ.get("REPRO_REPLAY", "0") not in ("0", "false", ""),
            "repro_full": full_scale(),
            "run": run_ordinal,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "benches": sorted(benches.values(), key=lambda record: record["bench"]),
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    _append_history(os.path.join(RESULTS_DIR, "BENCH_history.jsonl"), payload)
    _dump_telemetry_snapshot()


def _dump_telemetry_snapshot():
    """The session's merged metrics registry, next to the perf record.

    Worker deltas were already folded in by ``map_trials``, so this is
    the same accounting a serial run would produce; CI uploads it as a
    workflow artifact."""
    try:
        from repro.telemetry import get_registry
        snapshot = get_registry().snapshot()
    except Exception:
        return
    path = os.path.join(RESULTS_DIR, "telemetry_snapshot.json")
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
