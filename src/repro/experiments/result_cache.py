"""INTANG-style historical-result reuse for experiment sweeps.

§6 (Fig. 2): INTANG keeps "historical results" per server in its Redis
store, fronted by a main-thread LRU cache, so it never re-measures what
it already knows.  This module applies the same idea one level up — to
the *experiment harness*: a trial's outcome is a pure function of
(workload kind, vantage, target, strategy, calibration, seed, keyword),
so repeated cells in a sweep (Table 1 re-runs, ablation grids,
calibration passes, warm bench iterations) can replay recorded results
instead of re-simulating the whole network.

The store is the same :class:`~repro.core.cache.KeyValueStore` +
:class:`~repro.core.cache.LRUCache` composition INTANG itself uses
(via :class:`~repro.core.cache.FrontedStore`), held process-wide.

Knobs and rules:

- ``REPRO_RESULT_CACHE=0`` disables reuse entirely (default: enabled);
- adaptive-selector trials are **never** cached: the selector mutates
  per-server history between trials, so their outcomes are not pure
  functions of the key (the callers pass ``selector is None`` checks);
- :func:`clear` is the explicit invalidation path — call it after
  changing anything the key does not capture (e.g. monkeypatching
  simulator internals in a test);
- cache lookups happen *before* the process-pool fan-out in the cell
  runners, so fully-cached cells never spawn a worker, and results
  computed by workers are recorded in the parent so the next sweep is
  warm (worker-process caches die with the pool).

Keys fingerprint every input with CRC-32 over the frozen dataclasses'
reprs — stable across interpreter runs (no ``PYTHONHASHSEED``
dependence), cheap, and automatically sensitive to new calibration or
catalog fields.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Optional, Tuple

from repro.core.cache import FrontedStore, KeyValueStore
from repro.core.env import env_flag
from repro.telemetry.metrics import get_registry


def enabled() -> bool:
    """Whether historical-result reuse is on (``REPRO_RESULT_CACHE``)."""
    return env_flag("REPRO_RESULT_CACHE", default=True)


#: id -> (frozen input, its fingerprint).  Holding the input keeps its id
#: unique while the entry lives; a full memo starts over.
_FINGERPRINTS: Dict[int, Tuple[Any, int]] = {}
_FINGERPRINTS_MAX = 1024


def _fingerprint(value: Any) -> int:
    """CRC-32 of ``repr(value)``; the experiment inputs are frozen
    dataclasses whose reprs enumerate every field.

    A sweep passes the same few vantage, target and calibration objects
    to every trial, and a large repr costs tens of microseconds, so
    frozen dataclasses are memoized by identity.
    """
    entry = _FINGERPRINTS.get(id(value))
    if entry is not None:
        return entry[1]
    fingerprint = zlib.crc32(repr(value).encode("utf-8")) & 0xFFFFFFFF
    params = getattr(type(value), "__dataclass_params__", None)
    if params is not None and params.frozen:
        if len(_FINGERPRINTS) >= _FINGERPRINTS_MAX:
            _FINGERPRINTS.clear()
        _FINGERPRINTS[id(value)] = (value, fingerprint)
    return fingerprint


def trial_key(
    kind: str,
    vantage: Any,
    target: Any,
    strategy_id: Optional[str],
    calibration: Any,
    seed: int,
    keyword: bool = True,
    extra: str = "",
) -> str:
    """The canonical cache key of one deterministic trial.

    ``extra`` carries workload-specific inputs outside the common tuple
    (e.g. the DNS query's domain and forwarder toggle).
    """
    return "|".join(
        (
            "trial",
            kind,
            f"v{_fingerprint(vantage):08x}",
            f"t{_fingerprint(target):08x}",
            strategy_id or "none",
            f"c{_fingerprint(calibration):08x}",
            str(seed),
            "kw" if keyword else "benign",
            extra,
        )
    )


# ---------------------------------------------------------------------------
# The process-wide store.  Wall-clock time is irrelevant here (entries
# never carry a TTL — invalidation is explicit), so the store runs on a
# constant clock.
# ---------------------------------------------------------------------------
_store: Optional[FrontedStore] = None


_HITS = get_registry().counter("result_cache.hits")
_MISSES = get_registry().counter("result_cache.misses")


def _get_store() -> FrontedStore:
    global _store
    if _store is None:
        _store = FrontedStore(KeyValueStore(time_source=lambda: 0.0))
    return _store


def lookup(key: str) -> Optional[Dict[str, Any]]:
    """The stored payload for ``key`` — ``{"outcome": str, "record":
    dict-or-None}`` — or None.  Counts a hit/miss either way."""
    if not enabled():
        return None
    payload = _get_store().get(key)
    if payload is None:
        _MISSES.inc()
        return None
    _HITS.inc()
    return payload


def record_outcome(key: str, outcome: str) -> None:
    """Record an outcome-only result (the process-pool reduction keeps
    nothing else).  Never downgrades an existing full record."""
    if not enabled():
        return
    store = _get_store()
    if store.get(key) is None:
        store.set(key, {"outcome": outcome, "record": None})


def record_trial(key: str, outcome: str, record: Dict[str, Any]) -> None:
    """Record a full trial result (JSON-representable fields only)."""
    if not enabled():
        return
    _get_store().set(key, {"outcome": outcome, "record": record})


def clear() -> None:
    """Explicit invalidation: forget every historical result.

    Also zeroes the hit/miss accounting — it describes the store that
    just ceased to exist."""
    global _store
    _store = None
    _HITS.reset()
    _MISSES.reset()


def stats() -> Dict[str, int]:
    """Compatibility shim: the historical dict shape, now registry-backed.

    ``hits``/``misses`` read the ``result_cache.*`` counters of the
    process :class:`~repro.telemetry.metrics.MetricsRegistry`, so the
    numbers also appear in merged telemetry snapshots."""
    store = _store
    registry = get_registry()
    return {
        "entries": len(store) if store is not None else 0,
        "hits": registry.counter_value("result_cache.hits"),
        "misses": registry.counter_value("result_cache.misses"),
        "front_hits": store.front.hits if store is not None else 0,
        "front_evictions": store.front.evictions if store is not None else 0,
    }


# -- persistence (mirrors INTANG's save/load of its Redis snapshot) ---------
def dump() -> str:
    return _get_store().dump()


def load(blob: str) -> None:
    _get_store().load(blob)
