"""Parallel trial-execution engine: process-pool fan-out over trials.

Every table in the paper is a vantage × site × repeats sweep (Table 1
alone is 15 rows × 2 keyword modes × 11 vantages × 77 sites × 50 trials)
and every trial is seeded and independent — a fresh topology per trial
means no shared state, which makes the sweep embarrassingly parallel.
This module supplies the deterministic fan-out:

- :func:`map_trials` — an order-preserving map over picklable work-unit
  tuples, executed inline when ``workers == 1`` (byte-identical to the
  historical serial loops) or on a shared :class:`ProcessPoolExecutor`
  otherwise.  Results come back in task order, so any merge downstream
  (rate counting, per-vantage grouping) is independent of scheduling.
- ``REPRO_WORKERS`` — the environment knob every cell runner and bench
  reads through :func:`configured_workers`; ``0`` (or any non-positive
  value) means "all cores".
- a session-wide trial counter that the bench harness samples to report
  trials/sec into ``BENCH_perf.json``.

Determinism contract: trial seeds are computed *before* fan-out (see
:func:`repro.experiments.runner.trial_seed`), each work unit derives all
its randomness from its own seed, and the merge is positional — so for
fixed seeds the results are identical for any worker count.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.env import env_int
from repro.telemetry.flight import get_flight
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import get_tracer

__all__ = [
    "configured_workers",
    "map_trials",
    "note_trials",
    "reset_trial_count",
    "run_sharded",
    "shutdown_pool",
    "trials_completed",
]

#: Target number of chunks handed to each worker; >1 smooths out uneven
#: per-trial cost (a Tor trial simulates ~12 s, a plain HTTP trial ~5 s).
DEFAULT_CHUNKS_PER_WORKER = 4

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_trials_completed = 0


def configured_workers(workers: Optional[int] = None) -> int:
    """Resolve the effective worker count.

    An explicit ``workers`` argument wins; otherwise ``REPRO_WORKERS`` is
    consulted (default 1 — the serial path).  Non-positive values mean
    "one worker per CPU core".
    """
    if workers is None:
        workers = env_int("REPRO_WORKERS", default=1)
    if workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


def shutdown_pool() -> None:
    """Tear down the shared process pool (tests, interpreter exit)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None
        _pool_workers = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor; workers live for the whole sweep.

    Grow-only: the pool is recreated when more workers are needed, never
    torn down for fewer — a small map mid-sweep (3 tasks after a
    10,000-task cell) must not cycle every worker process.  A call that
    needs fewer workers than the pool holds simply submits fewer chunks,
    so surplus processes sleep.  Reuse amortizes both process start-up
    and worker-side warm state (scenario pools, packet free lists)
    across the many cells of a sweep.
    """
    global _pool, _pool_workers
    if _pool is None or _pool_workers < workers:
        shutdown_pool()
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    return _pool


atexit.register(shutdown_pool)


# -- execution-shape accounting (sampled by benchmarks/conftest.py) ---------
_exec_stats = {"workers": 0, "shards": 0}


def reset_execution_stats() -> None:
    """Zero the per-window effective worker/shard high-water marks."""
    _exec_stats["workers"] = 0
    _exec_stats["shards"] = 0


def execution_stats() -> dict:
    """High-water effective worker and shard counts since the last reset.

    ``configured_workers()`` reports what the environment *asked for*;
    these are what the engine actually used — maps clamp the worker count
    to the task count and sharded runs may collapse to the serial path,
    so a bench's recorded throughput is only interpretable against the
    effective values.
    """
    return dict(_exec_stats)


def _note_execution(workers: int, shards: int = 0) -> None:
    _exec_stats["workers"] = max(_exec_stats["workers"], workers)
    _exec_stats["shards"] = max(_exec_stats["shards"], shards)


# -- trial accounting (sampled by benchmarks/conftest.py) -------------------
def note_trials(count: int = 1) -> None:
    """Record ``count`` completed trials in this process."""
    global _trials_completed
    _trials_completed += count


def trials_completed() -> int:
    """Trials completed in (or accounted to) this process so far."""
    return _trials_completed


def reset_trial_count() -> None:
    global _trials_completed
    _trials_completed = 0


def _run_task_with_snapshot(
    payload: Tuple[Callable, Tuple, bool, bool]
) -> Tuple[Any, dict]:
    """Worker-side wrapper: run one task, return its result plus the
    metrics-registry delta it produced.

    The delta (not the full snapshot) is what merges cleanly: a worker
    process is reused for many tasks, so its registry accumulates — the
    parent must see only what *this* task added or counts double.

    The payload carries the parent's trace/flight switches: pool workers
    persist across calls, so environment knobs flipped after pool start
    (``enable_tracer`` in the CLI, ``tracing()`` in tests) would never
    reach them otherwise.  Span trees and flight dumps ride back inside
    the delta dict — :meth:`MetricsRegistry.merge` ignores unknown
    top-level keys, so the channel is free.
    """
    func, task, trace_on, flight_on = payload
    registry = get_registry()
    tracer = get_tracer()
    tracer.enabled = trace_on
    flight = get_flight()
    flight.enabled = flight_on
    if flight_on:
        from repro.telemetry.events import enable_bus

        enable_bus(True)
    # Stale trees/dumps from a task whose parent died mid-merge must not
    # leak into this task's delta.
    tracer.drain()
    flight.drain()
    before = registry.snapshot()
    result = func(task)
    delta = registry.diff(before)
    if trace_on:
        delta["spans"] = tracer.drain()
    dumps = flight.drain()
    if dumps:
        delta["flight"] = dumps
    return result, delta


def _merge_worker_delta(registry, delta: dict) -> None:
    """Fold one worker delta into the parent: metrics, spans, dumps."""
    registry.merge(delta)
    spans = delta.get("spans")
    if spans:
        get_tracer().merge(spans)
    get_flight().adopt(delta.get("flight"))


def _mirrored_trials(
    trials_per_task: Union[int, Sequence[int]], task_count: int
) -> int:
    """Total paper-trials represented by ``task_count`` work units."""
    if isinstance(trials_per_task, int):
        return trials_per_task * task_count
    if len(trials_per_task) != task_count:
        raise ValueError(
            f"trials_per_task has {len(trials_per_task)} entries "
            f"for {task_count} tasks"
        )
    return sum(trials_per_task)


def map_trials(
    func: Callable[[Tuple], Any],
    tasks: Iterable[Tuple],
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    trials_per_task: Union[int, Sequence[int]] = 1,
) -> List[Any]:
    """Order-preserving (possibly parallel) map over trial work units.

    ``func`` must be a module-level callable and every task tuple must be
    picklable.  With one worker the map runs inline in this process, which
    is byte-identical to the pre-engine serial loops; with more, tasks are
    chunked onto the shared process pool and results are collected back in
    task order, so the caller's merge never depends on scheduling.

    The effective worker count is clamped to the task count: a 3-task map
    never engages more than 3 workers, so the chunk layout cannot
    degenerate into idle workers plus one overloaded straggler.

    Each worker task also returns the metrics-registry delta it produced
    (see :mod:`repro.telemetry.metrics`); the parent merges those deltas
    into its own registry.  The merge is order-independent — counters and
    histogram buckets add — so the merged registry equals the one a
    serial run would have built, for any worker count or schedule.

    ``trials_per_task`` tells the parent how many paper-trials one work
    unit performs — a single count shared by every task, or one entry per
    task (fleet client groups differ in size) — keeping the trials/sec
    accounting truthful when the actual counting happens inside worker
    processes.
    """
    tasks = list(tasks)
    effective = min(configured_workers(workers), len(tasks))
    _note_execution(max(1, effective))
    if effective <= 1 or len(tasks) <= 1:
        # Inline path: the trial functions themselves count trials and
        # write the parent registry directly.
        return [func(task) for task in tasks]
    if chunksize is None:
        chunksize = max(1, len(tasks) // (effective * DEFAULT_CHUNKS_PER_WORKER))
    pool = _get_pool(effective)
    trace_on = get_tracer().enabled
    flight_on = get_flight().enabled
    payloads = [(func, task, trace_on, flight_on) for task in tasks]
    registry = get_registry()
    results: List[Any] = []
    for result, delta in pool.map(
        _run_task_with_snapshot, payloads, chunksize=chunksize
    ):
        _merge_worker_delta(registry, delta)
        results.append(result)
    # Worker-process counters are invisible here; mirror their work.
    note_trials(_mirrored_trials(trials_per_task, len(tasks)))
    return results


def _shard_worker(payload: Tuple[Callable, Tuple]) -> List[Any]:
    """Worker-side shard loop: run every task of one shard in order.

    Lives at module level so the payload pickles; per-worker warm state
    (the scenario pool, packet free lists) persists across the shard's
    tasks, which is the point of sharding.
    """
    func, shard = payload
    tracer = get_tracer()
    span = tracer.begin(f"shard[{len(shard)}]", "shard", tasks=len(shard))
    try:
        return [func(task) for task in shard]
    finally:
        tracer.end(span)


def run_sharded(
    func: Callable[[Tuple], Any],
    tasks: Iterable[Tuple],
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    trials_per_task: Union[int, Sequence[int]] = 1,
) -> List[Any]:
    """Partition ``tasks`` into contiguous shards, one worker unit each.

    Where :func:`map_trials` ships every task through the pool
    individually (one pickled payload and one registry delta per task),
    sharding ships ``shards`` payloads total: each worker receives a
    contiguous slice of the task list, runs it serially with its warm
    per-process scenario pool, and returns one result list plus one
    merged telemetry delta.  Contiguity matters — task lists are grouped
    by cell, so a shard's tasks hit the same pooled topologies.

    Results come back in task order (shards are reassembled in slice
    order) and the registry merge is order-independent, so the output is
    identical to :func:`map_trials` for any shard or worker count.
    ``shards`` defaults to the worker count.
    """
    tasks = list(tasks)
    requested = configured_workers(workers)
    if shards is None:
        shards = requested
    shards = max(1, min(shards, len(tasks)))
    if requested <= 1 or shards <= 1 or len(tasks) <= 1:
        _note_execution(1, shards=1)
        return [func(task) for task in tasks]
    _note_execution(min(requested, shards), shards=shards)
    base, extra = divmod(len(tasks), shards)
    slices: List[tuple] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        slices.append(tuple(tasks[start : start + size]))
        start += size
    pool = _get_pool(min(requested, shards))
    trace_on = get_tracer().enabled
    flight_on = get_flight().enabled
    payloads = [
        (_shard_worker, (func, shard), trace_on, flight_on)
        for shard in slices
    ]
    registry = get_registry()
    results: List[Any] = []
    for shard_results, delta in pool.map(
        _run_task_with_snapshot, payloads, chunksize=1
    ):
        _merge_worker_delta(registry, delta)
        results.extend(shard_results)
    note_trials(_mirrored_trials(trials_per_task, len(tasks)))
    return results
