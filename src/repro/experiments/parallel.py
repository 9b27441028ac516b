"""Parallel trial-execution engine: process-pool fan-out over trials.

Every table in the paper is a vantage × site × repeats sweep (Table 1
alone is 15 rows × 2 keyword modes × 11 vantages × 77 sites × 50 trials)
and every trial is seeded and independent — a fresh topology per trial
means no shared state, which makes the sweep embarrassingly parallel.
This module supplies the deterministic fan-out:

- :func:`map_trials` — an order-preserving map over picklable work-unit
  tuples, executed inline when ``workers == 1`` (byte-identical to the
  historical serial loops) or as contiguous task slices on a shared
  :class:`ProcessPoolExecutor` otherwise.  Results come back in task
  order, so any merge downstream (rate counting, per-vantage grouping)
  is independent of scheduling.
- ``REPRO_WORKERS`` — the environment knob every cell runner and bench
  reads through :func:`configured_workers`; ``0`` (or any non-positive
  value) means "all cores".
- a session-wide trial counter that the bench harness samples to report
  trials/sec into ``BENCH_perf.json``;
- :func:`collector_paused` — every trial loop (the inline map and each
  worker slice) runs with CPython's cycle collector off.  Trial state is
  freed by reference counting alone, so the automatic collections a long
  loop would trigger only rescan live state and find nothing.

Determinism contract: trial seeds are computed *before* fan-out (see
:func:`repro.experiments.runner.trial_seed`), each work unit derives all
its randomness from its own seed, and the merge is positional — so for
fixed seeds the results are identical for any worker count.
"""

from __future__ import annotations

import atexit
import gc
import os
from contextlib import contextmanager
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.core.env import env_int
from repro.telemetry.events import get_bus
from repro.telemetry.flight import get_flight
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import get_tracer

__all__ = [
    "collector_paused",
    "configured_workers",
    "map_trials",
    "note_trials",
    "reset_trial_count",
    "shutdown_pool",
    "trials_completed",
]

#: Target number of task slices handed to each worker; >1 smooths out uneven
#: per-trial cost (a Tor trial simulates ~12 s, a plain HTTP trial ~5 s).
DEFAULT_CHUNKS_PER_WORKER = 4

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_trials_completed = 0

#: Cyclic objects the collection at the end of a paused trial loop found.
#: Trial state is acyclic, so this reads 0; anything else names a trial
#: path that builds reference cycles.  How many loops a process runs,
#: and so what it finds, depends on its warm state: an engine counter.
_LOOP_GARBAGE = get_registry().counter("gc.loop_garbage")


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
    needs fewer workers than the pool holds simply submits fewer slices,
    so surplus processes sleep.  Reuse amortizes both process start-up
    and worker-side warm state (scenario pools, packet free lists)
    across the many cells of a sweep.
    """
    global _pool, _pool_workers
    if _pool is None or _pool_workers < workers:
        shutdown_pool()
        # A pool first used inside a paused loop (a nested map) forks
        # with the collector off; each worker switches it back on.
        _pool = ProcessPoolExecutor(max_workers=workers, initializer=gc.enable)
        _pool_workers = workers
    return _pool


atexit.register(shutdown_pool)


# -- execution-shape accounting (sampled by benchmarks/conftest.py) ---------
_exec_stats = {"workers": 0}


def reset_execution_stats() -> None:
    """Zero the per-window effective worker high-water mark."""
    _exec_stats["workers"] = 0


def execution_stats() -> dict:
    """High-water effective worker count since the last reset.

    ``configured_workers()`` reports what the environment *asked for*;
    this is what the engine actually used — maps clamp the worker count
    to the task count, so a bench's recorded throughput is only
    interpretable against the effective value.
    """
    return dict(_exec_stats)


def _note_execution(workers: int) -> None:
    _exec_stats["workers"] = max(_exec_stats["workers"], workers)


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


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the enclosed trial loop with the cycle collector off.

    Every finished trial is freed by reference counting
    (``tests/test_gc_cycles.py`` pins it), so the collections a loop
    triggers would only rescan live state, such as the leased scenarios
    of a fleet wave, and find nothing.  A young-generation collection on
    entry keeps garbage made before the loop out of the count; the one
    on exit adds what the loop left to ``gc.loop_garbage``.

    Does nothing when the collector is already off (a nested map, or a
    caller that turned it off itself) or while the span tracer or the
    event bus is on: those modes retain per-trial records and are not
    pinned acyclic.
    """
    if not gc.isenabled() or get_tracer().enabled or get_bus().enabled:
        yield
        return
    gc.collect(0)
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        _LOOP_GARBAGE.inc(gc.collect(0))


def _run_task_with_snapshot(
    payload: Tuple[Callable, Tuple, bool, bool]
) -> Tuple[Any, dict]:
    """Worker-side wrapper: run one payload (a slice of tasks), return
    its result plus the metrics-registry delta it produced.

    The delta (not the full snapshot) is what merges cleanly: a worker
    process is reused for many slices, so its registry accumulates — the
    parent must see only what *this* slice added or counts double.

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
    # Stale trees/dumps from a slice whose parent died mid-merge must not
    # leak into this slice's delta, and spans the parent had open when it
    # forked this worker must not adopt this slice's spans.
    tracer.clear()
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


def _shard_worker(payload: Tuple[Callable, Tuple]) -> List[Any]:
    """Worker-side slice loop: run every task of one slice in order.

    Lives at module level so the payload pickles; per-worker warm state
    (the scenario pool, packet free lists) persists across the slice's
    tasks.
    """
    func, shard = payload
    tracer = get_tracer()
    span = tracer.begin(f"shard[{len(shard)}]", "shard", tasks=len(shard))
    try:
        with collector_paused():
            return [func(task) for task in shard]
    finally:
        tracer.end(span)


def _slice_bounds(task_count: int, slices: int) -> List[Tuple[int, int]]:
    """``slices`` contiguous near-even ``(start, stop)`` index ranges."""
    base, extra = divmod(task_count, slices)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(slices):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def map_trials(
    func: Callable[[Tuple], Any],
    tasks: Iterable[Tuple],
    workers: Optional[int] = None,
    trials_per_task: Union[int, Sequence[int]] = 1,
) -> List[Any]:
    """Order-preserving (possibly parallel) map over trial work units.

    ``func`` must be a module-level callable and every task tuple must be
    picklable.  With one effective worker the map runs inline in this
    process, which is byte-identical to the pre-engine serial loops.  The
    effective worker count is clamped to the task count, so a 3-task map
    never engages more than 3 workers.

    Otherwise the task list is cut into ``effective ×
    DEFAULT_CHUNKS_PER_WORKER`` contiguous slices (at most one per task).
    Each slice is one pickled payload: a worker runs its tasks in order
    under one ``shard`` span and returns their results plus the
    metrics-registry delta the whole slice produced (see
    :mod:`repro.telemetry.metrics`).  Contiguity matters — task lists are
    grouped by cell, so a slice's tasks hit the same pooled topologies.
    Results are reassembled in task order and the registry merge is
    order-independent (counters and histogram buckets add), so the output
    and the merged registry equal a serial run's for any worker count or
    schedule.

    A worker that dies (a crash, ``os._exit``) breaks the pool: the pool
    is torn down, so the next call builds a fresh one, and a
    :class:`RuntimeError` names the first slice that did not finish.

    ``trials_per_task`` tells the parent how many paper-trials one work
    unit performs — a single count shared by every task, or one entry per
    task (fleet client groups differ in size) — keeping the trials/sec
    accounting truthful when the actual counting happens inside worker
    processes.
    """
    tasks = list(tasks)
    effective = min(configured_workers(workers), len(tasks))
    _note_execution(max(1, effective))
    if effective <= 1:
        # Inline path: the trial functions themselves count trials and
        # write the parent registry directly.
        with collector_paused():
            return [func(task) for task in tasks]
    bounds = _slice_bounds(
        len(tasks), min(len(tasks), effective * DEFAULT_CHUNKS_PER_WORKER)
    )
    trace_on = get_tracer().enabled
    flight_on = get_flight().enabled
    payloads = [
        (_shard_worker, (func, tuple(tasks[start:stop])), trace_on, flight_on)
        for start, stop in bounds
    ]
    registry = get_registry()
    results: List[Any] = []
    finished = 0
    try:
        for slice_results, delta in _get_pool(effective).map(
            _run_task_with_snapshot, payloads
        ):
            _merge_worker_delta(registry, delta)
            results.extend(slice_results)
            finished += 1
    except BrokenProcessPool as exc:
        shutdown_pool()
        start, stop = bounds[finished]
        raise RuntimeError(
            f"a trial worker process died: tasks {start}..{stop - 1} "
            f"of {len(tasks)} did not finish"
        ) from exc
    # Worker-process counters are invisible here; mirror their work.
    note_trials(_mirrored_trials(trials_per_task, len(tasks)))
    return results
