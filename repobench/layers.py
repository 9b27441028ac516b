"""Span tracing of the simulator's layers, from outside the program.

The traced run wraps the public entry points of each layer (the table
below) with a timing wrapper *before any scenario is built*.  A wrapper
replaces the function at every place the program can reach it: the
defining module, every module that imported it by name (``runner`` and
``fleet`` import ``acquire_scenario``; ``tcp.stack``, ``gfw.device`` and
``middlebox.boxes`` import ``tcp_checksum_valid``), and the class
dictionary for methods, so subclasses that inherit a method are traced
too.  Nothing under ``src/`` changes.

Each call becomes one span: ``(span id, parent span id, trace id,
function, start ns, end ns)``.  Spans stay in memory and are written out
once, when the run ends.  A span's self time is its duration minus the
time its child spans cover; a layer's self time is the sum over its
functions.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path, measure).  ``measure(args, result)``
#: returns an amount of work the call did (events run, bytes inspected);
#: ``None`` counts calls only.  ``*`` as the class name means "every
#: subclass defined in that module that overrides the method".
LAYER_TABLE: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    # Sweep dispatch and batch windows (the fleet's waves included).
    ("runner", "repro.experiments.runner", "run_strategy_cell", None),
    ("runner", "repro.experiments.runner", "run_table4_row", None),
    ("runner", "repro.experiments.runner", "run_per_vantage", None),
    ("runner", "repro.experiments.runner", "run_http_outcomes", None),
    ("runner", "repro.experiments.runner", "run_http_trial", None),
    ("runner", "repro.experiments.fleet", "run_fleet", None),
    ("runner", "repro.experiments.fleet", "run_fleet_group", None),
    # Scenario build and pool.
    ("scenarios", "repro.experiments.scenarios", "acquire_scenario", None),
    ("scenarios", "repro.experiments.scenarios", "release_scenario", None),
    # Replay tier.
    ("replay", "repro.experiments.replay", "task_key", None),
    ("replay", "repro.experiments.replay", "lookup", None),
    ("replay", "repro.experiments.replay", "can_record", None),
    ("replay", "repro.experiments.replay", "record", None),
    ("replay", "repro.experiments.replay", "fold", None),
    ("replay", "repro.rngledger", "begin_ledger", None),
    ("replay", "repro.rngledger", "end_ledger", None),
    # Historical results (the store behind it is timed inside these).
    ("result_cache", "repro.experiments.result_cache", "trial_key", None),
    ("result_cache", "repro.experiments.result_cache", "lookup", None),
    ("result_cache", "repro.experiments.result_cache", "record_trial", None),
    ("result_cache", "repro.experiments.result_cache", "record_outcome", None),
    # Shared censor state of the fleet.
    ("fleet", "repro.experiments.fleet", "SharedGFWState.__init__", None),
    ("fleet", "repro.experiments.fleet", "SharedGFWState.graft", None),
    ("fleet", "repro.experiments.fleet", "SharedGFWState.end_wave", None),
    # Event dispatch, link delivery, packet pool.
    ("netsim", "repro.netsim.simclock", "SimClock.run",
     lambda args, result: result),
    ("netsim", "repro.netsim.batch", "BatchSim.run",
     lambda args, result: result),
    ("netsim", "repro.netsim.batch", "BatchSim.adopt", None),
    ("netsim", "repro.netsim.network", "Network.launch", None),
    ("netsim", "repro.netstack.packet", "recycle_packets", None),
    # TCP endpoints.
    ("tcp", "repro.tcp.stack", "TCPConnection.segment_arrived", None),
    # The censor: observe, streaming DPI, resets, blacklist.
    ("gfw", "repro.gfw.device", "GFWDevice.observe", None),
    ("gfw", "repro.gfw.dpi", "StreamInspector.feed",
     lambda args, result: len(args[1])),
    ("gfw", "repro.gfw.resets", "ResetInjector.forged_resets", None),
    ("gfw", "repro.gfw.resets", "ResetInjector.forged_synack", None),
    ("gfw", "repro.gfw.blacklist", "Blacklist.add", None),
    ("gfw", "repro.gfw.blacklist", "Blacklist.contains", None),
    # On-path middleboxes.
    ("middlebox", "repro.middlebox.boxes", "*.process", None),
    # Strategy callbacks and INTANG.
    ("strategies", "repro.core.strategy_base", "*.on_outgoing", None),
    ("strategies", "repro.strategies", "*.on_outgoing", None),
    ("core", "repro.core.intang", "INTANG.__init__", None),
    ("core", "repro.core.selection", "StrategySelector.choose", None),
    ("core", "repro.core.selection", "StrategySelector.report", None),
    # Wire codec and checksums.
    ("netstack", "repro.netstack.wire", "tcp_checksum_valid", None),
    ("netstack", "repro.netstack.wire", "wire_lengths", None),
    ("netstack", "repro.netstack.wire", "serialize_tcp", None),
    ("netstack", "repro.netstack.wire", "transport_bytes", None),
)


class SpanTracer:
    """In-memory spans plus per-function call, self-time and work totals."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        #: function index -> (layer, qualified name)
        self.functions: List[Tuple[str, str]] = []
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self.amount: List[int] = []
        #: Finished spans: (id, parent id or 0, function index, start, end).
        self.spans: List[Tuple[int, int, int, int, int]] = []
        #: Open spans: [id, nanoseconds covered by finished children].
        self._stack: List[List[int]] = []
        self._next_id = 1

    def _register(self, layer: str, name: str) -> int:
        self.functions.append((layer, name))
        self.calls.append(0)
        self.self_ns.append(0)
        self.amount.append(0)
        return len(self.functions) - 1

    def wrap(self, fn: Callable, index: int, measure: Optional[Callable]) -> Callable:
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_ns = self.self_ns
        amount = self.amount
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_ns[index] += duration - frame[1]
                calls[index] += 1
                if measure is not None:
                    amount[index] += measure(args, result) or 0
                spans.append((span_id, parent, index, start, end))

        return traced

    # -- installation -----------------------------------------------------

    def _wrap_function(self, layer: str, module, name: str, measure) -> None:
        original = getattr(module, name)
        index = self._register(layer, f"{module.__name__}.{name}")
        traced = self.wrap(original, index, measure)
        for loaded in list(sys.modules.values()):
            if loaded is None or not loaded.__name__.startswith("repro"):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attribute, traced)

    def _wrap_method(self, layer: str, cls, method: str, measure) -> None:
        original = cls.__dict__[method]
        index = self._register(layer, f"{cls.__module__}.{cls.__qualname__}.{method}")
        setattr(cls, method, self.wrap(original, index, measure))

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYER_TABLE`."""
        for layer, module_name, path, measure in LAYER_TABLE:
            module = importlib.import_module(module_name)
            if "." not in path:
                self._wrap_function(layer, module, path, measure)
                continue
            class_name, method = path.split(".")
            if class_name != "*":
                self._wrap_method(layer, getattr(module, class_name), method, measure)
                continue
            for cls in _classes_overriding(module, method):
                self._wrap_method(layer, cls, method, measure)

    # -- results ----------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, int]]:
        """Per qualified function name: calls, self ns and work amount."""
        return {
            name: {
                "layer": layer,
                "calls": self.calls[i],
                "self_ns": self.self_ns[i],
                "amount": self.amount[i],
            }
            for i, (layer, name) in enumerate(self.functions)
        }

    def write(self, path: str) -> None:
        """Write every span, with its parent link and trace id, as gzip JSON."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(
                {
                    "trace_id": self.trace_id,
                    "columns": ["id", "parent", "trace_id", "function", "start_ns", "end_ns"],
                    "functions": [list(f) for f in self.functions],
                    "spans": [
                        [sid, parent, self.trace_id, fn, start, end]
                        for sid, parent, fn, start, end in self.spans
                    ],
                },
                handle,
                separators=(",", ":"),
            )


def _classes_overriding(package_or_module, method: str) -> List[type]:
    """Classes defined under ``package_or_module`` that define ``method``.

    For a package, every loaded submodule is searched, so each strategy
    class in ``repro.strategies.*`` is found.
    """
    prefix = package_or_module.__name__
    found: List[type] = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == name and method in cls.__dict__:
                found.append(cls)
    return found
