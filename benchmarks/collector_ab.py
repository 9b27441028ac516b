"""Interleaved in-process A/B of trial rate and cycle-collector cost.

``repobench`` runs every workload at the shipped defaults (it strips
``REPRO_*``), so it cannot compare knob settings or report what the
cycle collector costs.  This script runs the same workloads and rounds
(``repobench/workloads.py``) under named *arms*, each a source tree and
a set of environment variables, one fresh interpreter per arm and pair,
arms alternating which goes first:

    PYTHONPATH=src python benchmarks/collector_ab.py \\
        --workload fleet-contended --rounds 3 --pairs 3 \\
        --arm default --arm "reuse-off REPRO_SCENARIO_REUSE=0"

An arm is a name followed by ``KEY=VALUE`` words; the key ``src`` picks
the source tree its interpreters import (default: this checkout's
``src``), so a parent commit's tree can be an arm too.  Every child
drops all inherited ``REPRO_*`` variables before applying its arm's,
pins itself to the lowest core it may use, runs one unmeasured warm-up
round and then ``--rounds`` measured ones.

Per arm it prints the median and range of trials/s, the peak RSS, and
for each collector generation the number of collections, their share of
wall time and the objects they found.  ``loop garbage`` is what the
collection at the end of each paused ``map_trials`` loop found
(``gc.loop_garbage``); ``young at loop end`` is the median and maximum
number of young (generation-0) objects alive just before that
collection, ``len(gc.get_objects(0))``: the live state the collection
has to scan, such as the scenarios a loop parked in the pool.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def child(workload_name: str, seed: int, rounds: int) -> dict:
    """One arm's interpreter: warm up, then time ``rounds`` rounds."""
    sys.path.insert(0, os.path.join(ROOT, "repobench"))
    from workloads import WORKLOADS
    from repro.experiments import parallel
    from repro.telemetry.metrics import get_registry

    young = []
    paused = parallel.collector_paused

    @contextlib.contextmanager
    def counting_young():
        with paused():
            try:
                yield
            finally:
                if not gc.isenabled():  # the pause engaged: count, then
                    young.append(len(gc.get_objects(0)))  # it collects

    parallel.collector_paused = counting_young
    workload = WORKLOADS[workload_name](seed)
    workload.run_round(0)
    per_gen = [{"runs": 0, "seconds": 0.0, "found": 0} for _ in range(3)]
    started = {}

    def on_collect(phase: str, info: dict) -> None:
        if phase == "start":
            started["t"] = time.perf_counter()
            return
        stats = per_gen[info["generation"]]
        stats["runs"] += 1
        stats["seconds"] += time.perf_counter() - started["t"]
        stats["found"] += info["collected"]

    registry = get_registry()
    loop_before = registry.counter_value("gc.loop_garbage")
    trials = 0
    young.clear()
    gc.callbacks.append(on_collect)
    wall_start = time.perf_counter()
    for k in range(1, rounds + 1):
        trials += workload.run_round(k)[0]
    wall = time.perf_counter() - wall_start
    gc.callbacks.remove(on_collect)
    return {
        "trials": trials,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "generations": per_gen,
        "loop_garbage": registry.counter_value("gc.loop_garbage") - loop_before,
        "young_at_loop_end": young,
    }


def parse_arm(spec: str) -> dict:
    name, *words = spec.split()
    arm = {"name": name, "src": os.path.join(ROOT, "src"), "env": {}}
    for word in words:
        key, _, value = word.partition("=")
        if key == "src":
            arm["src"] = os.path.abspath(value)
        else:
            arm["env"][key] = value
    return arm


def run_arm(arm: dict, args: argparse.Namespace) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(arm["env"])
    env["PYTHONPATH"] = arm["src"]
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child",
         "--workload", args.workload, "--seed", str(args.seed),
         "--rounds", str(args.rounds)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def report(arm: dict, runs: list) -> None:
    rates = sorted(r["trials"] / r["wall_s"] for r in runs)
    wall = sum(r["wall_s"] for r in runs)
    young = [n for r in runs for n in r["young_at_loop_end"]] or [0]
    print(
        f"{arm['name']}: trials/s median {statistics.median(rates):.0f} "
        f"(range {rates[0]:.0f}-{rates[-1]:.0f}, {len(runs)} runs), "
        f"peak RSS {max(r['peak_rss_mb'] for r in runs):.1f} MB, "
        f"loop garbage {sum(r['loop_garbage'] for r in runs)}, "
        f"young at loop end median {statistics.median(young):.0f} "
        f"(max {max(young)})"
    )
    for generation in range(3):
        stats = [r["generations"][generation] for r in runs]
        print(
            f"  gen{generation}: {sum(s['runs'] for s in stats)} collections, "
            f"{100 * sum(s['seconds'] for s in stats) / wall:.1f}% of wall, "
            f"found {sum(s['found'] for s in stats)}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="fleet-contended")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--arm", action="append", default=[])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.child:
        print(json.dumps(child(args.workload, args.seed, args.rounds)))
        return
    arms = [parse_arm(spec) for spec in args.arm or ["default"]]
    runs = {arm["name"]: [] for arm in arms}
    for pair in range(args.pairs):
        order = arms if pair % 2 == 0 else arms[::-1]
        for arm in order:
            runs[arm["name"]].append(run_arm(arm, args))
    print(f"{args.workload} seed={args.seed}: warm-up + {args.rounds} rounds "
          f"per run, {args.pairs} runs per arm")
    for arm in arms:
        report(arm, runs[arm["name"]])


if __name__ == "__main__":
    main()
