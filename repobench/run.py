"""Repository benchmark: fresh-seed Table-1, adaptive-INTANG and fleet runs.

Usage, from the repository root::

    python3 repobench/run.py --workload table1-fresh --seed 1 --seconds 20 --trace 0

Every workload runs in fresh interpreters with all ``REPRO_*`` variables
removed, so each knob is at its shipped default and every process-global
cache (result cache, replay store, scenario pool, automaton memo) starts
empty, as in a user's CLI run.  Nothing goes through pytest or writes
under ``benchmarks/``.

``--trace 0`` prints the end-to-end metrics (``trials_per_s``,
``setup_s``, ``peak_rss_mb``; ``failed_share`` is the result's
``failed``/``attempted``).  ``--trace 1`` runs the workload's fixed
trace rounds twice, untraced and then with the layer tracer, and prints
the per-layer metrics.  The last line of standard output is the JSON
result; details, the host stamp and the spans go to ``.repobench-out/``.
See ``repobench/README.md`` for every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from calibration import REFERENCE_S, Calibrator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".repobench-out")
WORKLOADS = ("table1-fresh", "intang-adaptive", "fleet-contended")
#: Fresh set-up-only interpreters per run.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SOURCE
    return env


def run_child(*arguments: str, calibrator: Calibrator = None) -> dict:
    """Run one fresh interpreter; its last stdout line is its JSON result.

    With a ``calibrator`` the child pauses around each round and this
    process times the calibration loop meanwhile; the times are returned
    as ``calibrations``.  The child's standard error passes through.
    """
    command = [sys.executable, os.path.join(HERE, "child.py"), *arguments]
    if calibrator is not None:
        command.append("--pause")
    calibrations = []
    lines = []
    spawned = time.monotonic()
    with subprocess.Popen(command, cwd=ROOT, env=child_env(), text=True,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as child:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            for line in child.stdout:
                if line == "calibrate\n" and calibrator is not None:
                    calibrations.append(calibrator.measure())
                    child.stdin.write("\n")
                    child.stdin.flush()
                else:
                    lines.append(line)
            child.wait()
        finally:
            watchdog.cancel()
    if child.returncode != 0 or not lines:
        raise ChildFailed(f"child {' '.join(arguments)} exited {child.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["dispatch_monotonic"] - spawned
    result["calibrations"] = calibrations
    return result


def slowdowns(calibrations: list) -> list:
    """Host slowdown during each interval between two calibrations."""
    return [(a + b) / 2 / REFERENCE_S for a, b in zip(calibrations, calibrations[1:])]


def counter(counters: dict, name: str) -> int:
    return counters.get(name, 0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tier_stamp(counters: dict) -> dict:
    """Which execution tiers engaged, from the registry's counter deltas."""
    replay = {k: counter(counters, f"replay.{k}")
              for k in ("hits", "misses", "forks", "programs", "bytes_cached")}
    cache = {k: counter(counters, f"result_cache.{k}") for k in ("hits", "misses")}
    pool = {k: counter(counters, f"scenario.{k}") for k in ("built", "reused", "evicted")}
    replay["engaged"] = replay["hits"] + replay["misses"] + replay["forks"] > 0
    cache["engaged"] = cache["hits"] + cache["misses"] > 0
    pool["engaged"] = pool["reused"] > 0
    return {"replay": replay, "result_cache": cache, "scenarios": pool}


def host_stamp(counters: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "tiers": tier_stamp(counters),
    }


def end_to_end(args) -> tuple:
    """(metrics, result-file details, attempted, failed) of an untraced run."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    calibrator = Calibrator()
    run_child("--phase", "setup", *common)  # warm the bytecode cache, unmeasured
    calibrations = [calibrator.measure()]
    setups = []
    for _ in range(SETUP_SAMPLES):
        setups.append(run_child("--phase", "setup", *common)["setup_s"])
        calibrations.append(calibrator.measure())
    setup_slowdowns = slowdowns(calibrations)
    result = run_child("--phase", "measure", "--seconds", str(args.seconds), *common,
                       calibrator=calibrator)
    trials = sum(r["trials"] for r in result["rounds"])
    measured_s = sum(r["wall_s"] for r in result["rounds"])
    metrics = {
        # A run whose first round raised has no time; its checks fail it.
        "trials_per_s": (ratio(trials, reference_wall_s(result)), "1/s"),
        "setup_s": (statistics.median(
            setup / slow for setup, slow in zip(setups, setup_slowdowns)), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    details = {
        "raw_trials_per_s": ratio(trials, measured_s),
        "raw_setup_s": statistics.median(setups),
        "setup_samples_s": setups,
        "setup_host_slowdown": setup_slowdowns,
        "round_rates": [r["trials"] / r["wall_s"] for r in result["rounds"]],
        "round_host_slowdown": slowdowns(result["calibrations"]),
        "trials": trials,
        "measured_s": measured_s,
        "referenced_rounds": result["referenced_rounds"],
        "failures": result["failures"],
        "host": host_stamp(result["counters"]),
        "counters": result["counters"],
    }
    return metrics, details, result["attempted"], result["failed"]


def reference_wall_s(result: dict) -> float:
    """A run's measured time as it would read on the reference host."""
    return sum(r["wall_s"] / slow
               for r, slow in zip(result["rounds"], slowdowns(result["calibrations"])))


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics from the traced run's span totals and counters.

    Self times are scaled to the reference host like the end-to-end
    times; the overhead ratio compares the two runs' reference-host walls.
    """
    functions = traced["functions"]
    counters = traced["counters"]
    trials = traced["trials"]
    traced_wall = reference_wall_s(traced)
    host_scale = ratio(traced_wall, traced["wall_s"])

    def pick(layer, suffixes=()):
        return [f for name, f in functions.items()
                if f["layer"] == layer and (not suffixes or name.endswith(suffixes))]

    def calls(layer, *suffixes):
        return ratio(sum(f["calls"] for f in pick(layer, suffixes)), trials)

    def self_us(layer, *suffixes):
        return ratio(sum(f["self_ns"] for f in pick(layer, suffixes)), trials) / 1e3 * host_scale

    def amount(layer, *suffixes):
        return ratio(sum(f["amount"] for f in pick(layer, suffixes)), trials)

    def per_trial(name):
        return ratio(counter(counters, name), trials)

    built, reused = counter(counters, "scenario.built"), counter(counters, "scenario.reused")
    replay_lookups = sum(counter(counters, f"replay.{k}") for k in ("hits", "misses", "forks"))
    cache_hits = counter(counters, "result_cache.hits")
    cache_lookups = cache_hits + counter(counters, "result_cache.misses")
    layer_self_ns = sum(f["self_ns"] for f in functions.values())
    run_fns = (".SimClock.run", ".BatchSim.run")
    us, per, count, share = "us/trial", "count/trial", "count", "ratio"
    return {
        "trace.trials": (trials, count),
        "trace.overhead_ratio": (ratio(traced_wall, reference_wall_s(untraced)), share),
        "trace.coverage": (ratio(layer_self_ns / 1e9, traced["wall_s"]), share),
        "runner.self_us_per_trial": (self_us("runner"), us),
        "scenarios.acquire_calls_per_trial": (calls("scenarios", ".acquire_scenario"), per),
        "scenarios.acquire_self_us_per_trial": (self_us("scenarios", ".acquire_scenario"), us),
        "scenarios.reuse_ratio": (ratio(reused, built + reused), share),
        "scenarios.evicted": (counter(counters, "scenario.evicted"), count),
        "replay.calls_per_trial": (calls("replay"), per),
        "replay.self_us_per_trial": (self_us("replay"), us),
        "replay.hit_ratio": (ratio(counter(counters, "replay.hits"), replay_lookups), share),
        "replay.programs": (counter(counters, "replay.programs"), count),
        "replay.bytes_cached": (counter(counters, "replay.bytes_cached"), "bytes"),
        "result_cache.calls_per_trial": (calls("result_cache"), per),
        "result_cache.self_us_per_trial": (self_us("result_cache"), us),
        "result_cache.hit_ratio": (ratio(cache_hits, cache_lookups), share),
        "fleet.self_us_per_trial": (self_us("fleet"), us),
        "fleet.evicted_ratio": (
            ratio(counter(counters, "gfw.flows_evicted"), counter(counters, "gfw.flows_created")),
            share),
        "fleet.blacklist_fp_ratio": (per_trial("fleet.blacklist_false_positives"), share),
        "netsim.events_per_trial": (amount("netsim", *run_fns), per),
        "netsim.run_self_us_per_trial": (self_us("netsim", *run_fns), us),
        "netsim.launch_calls_per_trial": (calls("netsim", ".Network.launch"), per),
        "netsim.pool_recycled_per_trial": (per_trial("pool.packets_recycled"), per),
        "netsim.self_us_per_trial": (self_us("netsim"), us),
        "tcp.segment_arrived_calls_per_trial": (calls("tcp"), per),
        "tcp.segment_arrived_self_us_per_trial": (self_us("tcp"), us),
        "gfw.observe_calls_per_trial": (calls("gfw", ".observe"), per),
        "gfw.observe_self_us_per_trial": (self_us("gfw", ".observe"), us),
        "gfw.dpi_feed_bytes_per_trial": (amount("gfw", ".feed"), "bytes/trial"),
        "gfw.dpi_feed_self_us_per_trial": (self_us("gfw", ".feed"), us),
        "gfw.rst_sent_per_trial": (per_trial("gfw.rst_sent"), per),
        "gfw.self_us_per_trial": (self_us("gfw"), us),
        "middlebox.process_calls_per_trial": (calls("middlebox"), per),
        "middlebox.process_self_us_per_trial": (self_us("middlebox"), us),
        "strategies.on_outgoing_calls_per_trial": (calls("strategies"), per),
        "strategies.on_outgoing_self_us_per_trial": (self_us("strategies"), us),
        "strategies.insertions_per_trial": (per_trial("strategy.insertions_sent"), per),
        "core.intang_init_self_us_per_trial": (self_us("core", ".INTANG.__init__"), us),
        "core.selector_self_us_per_trial": (
            self_us("core", ".StrategySelector.choose", ".StrategySelector.report"), us),
        "netstack.checksum_calls_per_trial": (calls("netstack", ".tcp_checksum_valid"), per),
        "netstack.wire_self_us_per_trial": (self_us("netstack"), us),
    }


def per_layer(args) -> tuple:
    """(metrics, result-file details, attempted, failed) of a traced run."""
    common = ["--workload", args.workload, "--seed", str(args.seed), "--phase", "fixed"]
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
    calibrator = Calibrator()
    untraced = run_child(*common, calibrator=calibrator)
    traced = run_child(*common, "--traced", "--spans", spans, calibrator=calibrator)
    details = {
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "untraced_host_slowdown": slowdowns(untraced["calibrations"]),
        "traced_host_slowdown": slowdowns(traced["calibrations"]),
        "spans": traced["spans"],
        "spans_file": os.path.relpath(spans, ROOT),
        "functions": traced["functions"],
        "failures": traced["failures"],
        "host": host_stamp(traced["counters"]),
        "counters": traced["counters"],
    }
    return layer_metrics(traced, untraced), details, traced["attempted"], traced["failed"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        sys.stderr.write(f"repobench: no program to measure under {SOURCE}\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    # One core for this process and every child: the calibration loop then
    # times the same core, with the same neighbours, as the measured rounds.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        measure_run = per_layer if args.trace else end_to_end
        metrics, details, attempted, failed = measure_run(args)
    except ChildFailed as error:
        sys.stderr.write(f"repobench: {error}\n")
        return 1
    print(f"repobench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("host " + json.dumps(details["host"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit}")
    print(f"{'failed_share':<42} {failed / attempted:>14.6g} share "
          f"({failed} of {attempted} checked outputs)")
    for message in details["failures"]:
        print(f"  check failed: {message}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **details,
    }
    record_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
