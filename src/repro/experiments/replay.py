"""Deterministic-replay execution tier: per-cell RNG-ledger programs.

The simulate-once-replay-many tier in front of the HTTP trial hot path.
A *cell* is everything about a trial except its seed — vantage, website,
strategy, calibration, keyword flag, forced GFW variant.  The first
trials in a cell run fully instrumented (``repro.rngledger``),
recording their ordered draw fingerprint plus a flat outcome artifact
(the trial-record payload and the trial's telemetry registry delta).
Later trials re-derive only their RNG streams against the stored
fingerprints: if every recorded value-bucket matches, the trial *is* the
recorded one — the artifact is returned and its registry delta folded,
without touching the event heap.

Cells store multiple programs in a shared prefix trie, so the distinct
behaviour classes of one cell (drift off/on, composition draws, NB3
coins, loss patterns) each become replayable after one recording, and a
single walk checks a candidate against every stored program at once.

Divergence accounting follows the snapshot-fork model: the recorded
setup prefix doubles as the checkpoint.  A candidate that matches the
whole setup phase (past the ``("p", "run")`` mark) but diverges inside
the run phase counts as a *fork* — the build/checkpoint work was
validated, only the run must be re-simulated; divergence before the mark
is a plain *miss*.  Either way the trial falls back to full simulation
(and may record a new program, growing the cell's behaviour coverage).

Knobs:

- ``REPRO_REPLAY`` (default off) — the tier as a whole.  It is opt-in
  because fresh-seed sweeps (the common case) almost never hit: each
  recorded program costs a ledger-instrumented simulation and memory,
  and pays back only when a cell's seeds repeat;
- ``REPRO_REPLAY_PROGRAMS`` (default 16) — max recorded programs per
  cell; misses beyond the cap are simulated without recording.

Counters (``MetricsRegistry``): ``replay.hits``, ``replay.misses``,
``replay.forks``, ``replay.programs``, ``replay.bytes_cached``,
``replay.store_conflicts``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.env import env_flag, env_int
from repro.rngledger import RngLedger, StreamSet
from repro.experiments.result_cache import _fingerprint
from repro.telemetry.metrics import get_registry

_REGISTRY = get_registry()
_HITS = _REGISTRY.counter("replay.hits")
_MISSES = _REGISTRY.counter("replay.misses")
_FORKS = _REGISTRY.counter("replay.forks")
_PROGRAMS = _REGISTRY.counter("replay.programs")
_BYTES_CACHED = _REGISTRY.counter("replay.bytes_cached")
_CONFLICTS = _REGISTRY.counter("replay.store_conflicts")

#: Registry instruments owned by the execution engine rather than the
#: simulated trial.  They are stripped from recorded deltas: replaying a
#: trial must fold the *trial's* accounting (outcomes, GFW/DPI/TCP
#: counters, byte histograms) while the engine's own accounting (pool
#: traffic, cache hits, replay counters themselves) keeps describing
#: what the engine actually did this run.
ENGINE_PREFIXES = (
    "scenario.", "pool.", "netsim.", "result_cache.", "replay.", "gc.",
)


def enabled() -> bool:
    """Whether the replay tier is on (``REPRO_REPLAY``, default off)."""
    return env_flag("REPRO_REPLAY", default=False)


def program_cap() -> int:
    """Max recorded programs per cell (``REPRO_REPLAY_PROGRAMS``)."""
    return env_int("REPRO_REPLAY_PROGRAMS", 16, minimum=0)


def cell_key(
    vantage,
    website,
    strategy_id: Optional[str],
    calibration,
    keyword: bool,
    gfw_variant: Optional[str],
) -> str:
    """The replay cell identity: every trial input *except* the seed.

    Same CRC-32-over-repr fingerprinting as the historical-result cache —
    stable across interpreter runs, automatically sensitive to new
    calibration/catalog fields.
    """
    return "|".join(
        (
            "replay",
            f"v{_fingerprint(vantage):08x}",
            f"t{_fingerprint(website):08x}",
            strategy_id or "none",
            f"c{_fingerprint(calibration):08x}",
            "kw" if keyword else "benign",
            gfw_variant or "drawn",
        )
    )


def task_key(task: Tuple, gfw_variant: Optional[str]) -> str:
    """:func:`cell_key` from the runner's standard HTTP task tuple."""
    vantage, website, strategy_id, calibration, _seed, keyword = task
    return cell_key(vantage, website, strategy_id, calibration, keyword, gfw_variant)


class _Node:
    """One prefix-trie state: the next entry spec to evaluate, edges
    keyed by the bucket a candidate draws there, and (at leaves) the
    recorded artifact."""

    __slots__ = ("spec", "edges", "program")

    def __init__(self) -> None:
        self.spec: Optional[tuple] = None
        self.edges: Dict[object, "_Node"] = {}
        self.program: Optional[dict] = None


class _CellStore:
    __slots__ = ("root", "programs")

    def __init__(self) -> None:
        self.root = _Node()
        self.programs = 0


_CELLS: Dict[str, _CellStore] = {}


def clear() -> None:
    """Forget every recorded program (tests; simulator monkeypatching)."""
    _CELLS.clear()


def program_count(key: Optional[str] = None) -> int:
    """Recorded programs in one cell (or across the whole store)."""
    if key is not None:
        cell = _CELLS.get(key)
        return cell.programs if cell is not None else 0
    return sum(cell.programs for cell in _CELLS.values())


def can_record(key: str) -> bool:
    """Whether this cell still has program slots under the cap."""
    cap = program_cap()
    if cap <= 0:
        return False
    cell = _CELLS.get(key)
    return cell is None or cell.programs < cap


def lookup(key: str, seed: int) -> Optional[dict]:
    """Walk the cell's program trie with ``seed``'s re-derived streams.

    Returns the stored artifact on a full-fingerprint match (counted as
    ``replay.hits``) or ``None`` on divergence — counted as
    ``replay.forks`` when the whole setup prefix (past the ``run`` phase
    mark) had matched, ``replay.misses`` otherwise.
    """
    cell = _CELLS.get(key)
    if cell is None:
        _MISSES.inc()
        return None
    node = cell.root
    streams = StreamSet(seed)
    passed_run = False
    while True:
        if node.program is not None:
            _HITS.inc()
            return node.program
        spec = node.spec
        if spec is None:
            # Empty trie (all inserts conflicted away).
            _MISSES.inc()
            return None
        if spec[0] == "p" and spec[1] == "run":
            passed_run = True
        bucket = streams.advance(spec)
        node = node.edges.get(bucket)
        if node is None:
            if passed_run:
                _FORKS.inc()
            else:
                _MISSES.inc()
            return None


def record(key: str, ledger: RngLedger, record_payload: dict, delta: dict) -> None:
    """Insert one recorded trial as a program of ``key``'s cell.

    The registry delta is stripped of engine-owned instruments before
    storage (see :data:`ENGINE_PREFIXES`).  A spec mismatch against the
    stored trie — which would mean the simulator consumed RNG
    nondeterministically — drops the insert and counts
    ``replay.store_conflicts`` instead of corrupting the store.
    """
    if not can_record(key):
        return
    cell = _CELLS.get(key)
    if cell is None:
        cell = _CELLS[key] = _CellStore()
    node = cell.root
    for spec, bucket in ledger.entries:
        if node.program is not None:
            _CONFLICTS.inc()
            return
        if node.spec is None:
            node.spec = spec
        elif node.spec != spec:
            _CONFLICTS.inc()
            return
        child = node.edges.get(bucket)
        if child is None:
            child = node.edges[bucket] = _Node()
        node = child
    if node.spec is not None or node.program is not None:
        _CONFLICTS.inc()
        return
    program = {"record": record_payload, "delta": _strip_delta(delta)}
    node.program = program
    cell.programs += 1
    _PROGRAMS.inc()
    _BYTES_CACHED.inc(
        len(repr(program["record"])) + len(repr(program["delta"]))
    )


def fold(program: dict) -> None:
    """Fold a replayed trial's recorded registry delta into the process
    registry — the telemetry a full simulation of that trial would have
    emitted, without re-instrumenting anything.  Counters add and
    histograms bucket-add (both order-free), so a replayed window's
    merged registry is byte-identical to the simulated one."""
    get_registry().merge(program["delta"])


def _strip_delta(delta: dict) -> dict:
    counters = {
        name: value
        for name, value in delta.get("counters", {}).items()
        if not name.startswith(ENGINE_PREFIXES)
    }
    gauges = {
        name: value
        for name, value in delta.get("gauges", {}).items()
        if not name.startswith(ENGINE_PREFIXES)
    }
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": delta.get("histograms", {}),
    }


def stats() -> Dict[str, int]:
    """Counter snapshot for CLI summaries and CI artifacts."""
    return {
        "cells": len(_CELLS),
        "programs": program_count(),
        "hits": _REGISTRY.counter_value("replay.hits"),
        "misses": _REGISTRY.counter_value("replay.misses"),
        "forks": _REGISTRY.counter_value("replay.forks"),
        "bytes_cached": _REGISTRY.counter_value("replay.bytes_cached"),
        "store_conflicts": _REGISTRY.counter_value("replay.store_conflicts"),
    }
