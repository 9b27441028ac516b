"""Causal span tracing: a hierarchical wall+sim-time span layer.

A *span* is one timed unit of work — a conformance cell, a process
shard, a fleet wave, one trial or fleet flow, or a phase
inside a trial — carrying both wall-clock bounds (``wall_start`` /
``wall_end``, ``time.perf_counter`` seconds) and simulation-time bounds
(``sim_start`` / ``sim_end``, :class:`~repro.netsim.sim.SimClock`
seconds).  Spans nest: a sweep span contains shard spans, a shard span
contains cell or wave spans, those contain trial or flow spans, and a
trial span contains phase spans.

The contract mirrors :class:`~repro.telemetry.metrics.MetricsRegistry`
deltas exactly: span trees are plain nested dicts — picklable and
JSON-representable — and :meth:`SpanTracer.drain` / :meth:`SpanTracer.merge`
move finished trees across the ``run_sharded`` process boundary the same
way registry diffs do.  Merging is order-independent up to sibling
order, and :func:`trial_semantic` reduces any tree to its
execution-strategy-free content so serial and sharded runs can be
compared for identity (the acceptance contract pinned in
``tests/test_obs.py``).

Tracing is **off by default** (``REPRO_TRACE=1`` enables it at process
start; :func:`enable_tracer` flips it at runtime).  Every entry point
returns immediately when disabled, so the trial hot path pays one
attribute check and nothing else.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "SEMANTIC_KINDS",
    "SpanTracer",
    "enable_tracer",
    "get_tracer",
    "make_span",
    "reset_tracer",
    "tracing",
    "trial_semantic",
]

#: Span kinds whose content is a function of the workload alone —
#: independent of worker count or shard layout.
#: Everything else (``sweep`` dispatch wrappers aside, see
#: :func:`trial_semantic`) describes *how* the run was executed.
SEMANTIC_KINDS = frozenset({"cell", "trial", "flow", "phase", "wave"})


def make_span(
    name: str,
    kind: str,
    *,
    sim_start: float = 0.0,
    sim_end: float = 0.0,
    wall_start: float = 0.0,
    wall_end: float = 0.0,
    attrs: Optional[Dict[str, Any]] = None,
    children: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Build a finished span dict (for :meth:`SpanTracer.add`)."""
    return {
        "name": name,
        "kind": kind,
        "sim_start": sim_start,
        "sim_end": sim_end,
        "wall_start": wall_start,
        "wall_end": wall_end,
        "attrs": dict(attrs or {}),
        "children": list(children or []),
    }


class SpanTracer:
    """Process-local span collector with an explicit open-span stack.

    Two usage styles, matching the two lifetimes the engines have:

    - :meth:`begin` / :meth:`end` (or the :meth:`span` context manager)
      for LIFO lifetimes — sweeps, shards, waves;
    - :meth:`add` for spans whose bounds are only known at finalize
      time — trials and fleet flows (which end out of order), so the
      engine builds the whole tree with :func:`make_span` and attaches
      it under whatever span is open.
    """

    def __init__(self, enabled: Optional[bool] = None):
        if enabled is None:
            # Imported lazily: repro.core.env -> repro.core.__init__
            # pulls in the engines, which import this module at top
            # level (same bootstrap rule as EventBus.__init__).
            from repro.core.env import env_flag

            enabled = env_flag("REPRO_TRACE", False)
        self.enabled = bool(enabled)
        self.roots: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []

    # -- recording -------------------------------------------------------
    def begin(
        self, name: str, kind: str, *, sim_start: float = 0.0, **attrs: Any
    ) -> Optional[Dict[str, Any]]:
        """Open a span; returns it (for :meth:`end`) or None when off."""
        if not self.enabled:
            return None
        span = make_span(
            name, kind, sim_start=sim_start, wall_start=perf_counter(),
            attrs=attrs,
        )
        self._stack.append(span)
        return span

    def end(
        self,
        span: Optional[Dict[str, Any]],
        *,
        sim_end: Optional[float] = None,
        **attrs: Any,
    ) -> None:
        """Close ``span``, attaching it to its parent (or the roots)."""
        if span is None or not self.enabled:
            return
        # Defensive pop: a child span leaked by an exception between
        # begin/end must not orphan this close.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            self._attach(top)
        span["wall_end"] = perf_counter()
        if sim_end is not None:
            span["sim_end"] = sim_end
        if attrs:
            span["attrs"].update(attrs)
        self._attach(span)

    @contextmanager
    def span(
        self, name: str, kind: str, *, sim_start: float = 0.0, **attrs: Any
    ):
        """``with tracer.span(...)`` — yields the open span (or None)."""
        opened = self.begin(name, kind, sim_start=sim_start, **attrs)
        try:
            yield opened
        finally:
            self.end(opened)

    def add(self, tree: Dict[str, Any]) -> None:
        """Attach an externally built, finished span tree."""
        if not self.enabled:
            return
        self._attach(tree)

    def _attach(self, span: Dict[str, Any]) -> None:
        if self._stack:
            self._stack[-1]["children"].append(span)
        else:
            self.roots.append(span)

    # -- worker-merge protocol ------------------------------------------
    def drain(self) -> List[Dict[str, Any]]:
        """Return and clear the finished root spans (the shard delta)."""
        trees, self.roots = self.roots, []
        return trees

    def merge(self, trees: Optional[Iterable[Dict[str, Any]]]) -> None:
        """Fold worker-drained trees back in (order-independent, like
        :meth:`MetricsRegistry.merge` — merging happens regardless of
        ``enabled`` so a disabled parent still collects)."""
        if not trees:
            return
        if self._stack:
            self._stack[-1]["children"].extend(trees)
        else:
            self.roots.extend(trees)

    def clear(self) -> None:
        self.roots = []
        self._stack = []


# -- semantic comparison ------------------------------------------------

def trial_semantic(trees: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Reduce span trees to their execution-strategy-free content.

    Strips wall-clock fields (worker-dependent), hoists the children of
    non-semantic kinds (shard wrappers differ between serial and
    sharded runs), and sorts every sibling list into a canonical order
    (shards finish in arbitrary order).  Two runs of the same workload
    must reduce to equal lists whatever the execution strategy — the
    span analogue of the registry's serial-vs-sharded byte identity.
    """
    out: List[Dict[str, Any]] = []
    for tree in trees:
        out.extend(_semantic_node(tree))
    out.sort(key=_canonical_key)
    return out


def _semantic_node(node: Dict[str, Any]) -> List[Dict[str, Any]]:
    children: List[Dict[str, Any]] = []
    for child in node.get("children", ()):
        children.extend(_semantic_node(child))
    if node.get("kind") not in SEMANTIC_KINDS:
        # Execution wrapper: hoist its semantic descendants.
        children.sort(key=_canonical_key)
        return children
    children.sort(key=_canonical_key)
    return [
        {
            "name": node["name"],
            "kind": node["kind"],
            "sim_start": node.get("sim_start", 0.0),
            "sim_end": node.get("sim_end", 0.0),
            "attrs": dict(node.get("attrs", {})),
            "children": children,
        }
    ]


def _canonical_key(node: Dict[str, Any]) -> str:
    # json over the whole stripped node: a total order, so equal
    # multisets of siblings sort identically even when two spans differ
    # only deep in their subtrees.
    return json.dumps(node, sort_keys=True, default=repr)


# -- process-local singleton --------------------------------------------

_TRACER: Optional[SpanTracer] = None


def get_tracer() -> SpanTracer:
    global _TRACER
    if _TRACER is None:
        _TRACER = SpanTracer()
    return _TRACER


def reset_tracer() -> SpanTracer:
    """Fresh tracer honouring the current environment (test isolation)."""
    global _TRACER
    _TRACER = SpanTracer()
    return _TRACER


def enable_tracer(enabled: bool = True) -> SpanTracer:
    tracer = get_tracer()
    tracer.enabled = bool(enabled)
    return tracer


@contextmanager
def tracing():
    """Force-enable tracing for a scoped window (CLI / tests)."""
    tracer = get_tracer()
    prior = tracer.enabled
    tracer.enabled = True
    try:
        yield tracer
    finally:
        tracer.enabled = prior
