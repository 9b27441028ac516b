"""One fresh interpreter's part of a benchmark run; ``run.py`` starts it.

Phases (``--phase``):

- ``setup``: imports and workload inputs, then report the moment the
  first trial would be dispatched, and exit;
- ``measure``: set up, then run rounds until ``--seconds`` have been
  measured (and at least the workload's RSS rounds), untraced; report
  per-round times, peak RSS, the registry's tier counters and the output
  checks;
- ``fixed``: run exactly the workload's trace rounds, with the layer
  tracer installed when ``--traced`` is given; report per-round times,
  the per-layer totals, the counters and the output checks.  Spans go to
  ``--spans``;
- ``reference``: run ``--rounds`` rounds and report every output count,
  for ``reference.json``.

With ``--pause`` a phase stops before its first round and after every
round for ``run.py``'s host-speed calibration.  The last line of
standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, check_round  # noqa: E402  (imports the program)
from repro.telemetry.metrics import get_registry  # noqa: E402


def peak_rss_mb() -> float:
    """This process's peak resident memory since it started.

    Read from ``VmHWM``: ``ru_maxrss`` would also count the pages of the
    ``run.py`` process this one was forked from.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def counter_delta(before: dict) -> dict:
    return {
        name: value
        for name, value in get_registry().diff(before)["counters"].items()
        if value
    }


def load_reference(workload: str, seed: int) -> list:
    path = os.path.join(HERE, "reference.json")
    with open(path) as handle:
        return json.load(handle).get(workload, {}).get(str(seed), [])


def check_rounds(workload, seed: int, rounds: list, error) -> dict:
    """Check every round's outputs; a raised error fails every output."""
    reference = load_reference(workload.name, seed)
    attempted = failed = 0
    failures = []
    for index, record in enumerate(rounds):
        expected = reference[index] if index < len(reference) else {}
        checked, failing = check_round(
            workload, index, record["outputs"], record["facts"], expected
        )
        attempted += checked
        failed += len(failing)
        failures.extend(failing.values())
    if error is not None:
        sys.stderr.write(error)
        attempted += 1
        failed = attempted
        failures.append(error.strip().splitlines()[-1])
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "referenced_rounds": min(len(reference), len(rounds)),
    }


def pause_for_calibration(pause: bool) -> None:
    """Block while ``run.py`` times its calibration loop (``--pause``)."""
    if pause:
        sys.stdout.write("calibrate\n")
        sys.stdout.flush()
        sys.stdin.readline()


def run_rounds(workload, more, pause: bool = False) -> tuple:
    """Run rounds while ``more(k, measured seconds)``.

    Returns (rounds, error, RSS at the RSS point).  With ``pause`` the
    process stops before the first round and after every round, outside
    the rounds' timing, for ``run.py``'s host-speed calibration.
    """
    rounds = []
    rss = None
    measured = 0.0
    k = 0
    pause_for_calibration(pause)
    while more(k, measured):
        round_start = time.perf_counter()
        try:
            trials, outputs, facts = workload.run_round(k)
        except Exception:  # a raising run fails every output it has
            return rounds, traceback.format_exc(), rss
        wall = time.perf_counter() - round_start
        measured += wall
        k += 1
        if k == workload.rss_rounds:
            rss = peak_rss_mb()
        rounds.append({"trials": trials, "wall_s": wall, "outputs": outputs, "facts": facts})
        pause_for_calibration(pause)
    return rounds, None, rss


def summary(rounds: list) -> list:
    return [{k: v for k, v in r.items() if k != "outputs"} for r in rounds]


def measure(args, workload) -> dict:
    before = get_registry().snapshot()
    rounds, error, rss = run_rounds(
        workload,
        lambda k, measured: k < workload.rss_rounds or measured < args.seconds,
        pause=args.pause,
    )
    counters = counter_delta(before)
    return {
        "rounds": summary(rounds),
        "peak_rss_mb": rss if rss is not None else peak_rss_mb(),
        "counters": counters,
        **check_rounds(workload, args.seed, rounds, error),
    }


def fixed(args, workload) -> dict:
    tracer = None
    if args.traced:
        from layers import SpanTracer

        tracer = SpanTracer(f"{workload.name}:seed{args.seed}")
        tracer.install()
    before = get_registry().snapshot()
    rounds, error, _rss = run_rounds(
        workload, lambda k, measured: k < workload.trace_rounds, pause=args.pause
    )
    result = {
        "rounds": summary(rounds),
        "trials": sum(r["trials"] for r in rounds),
        "wall_s": sum(r["wall_s"] for r in rounds),
        "counters": counter_delta(before),
        **check_rounds(workload, args.seed, rounds, error),
    }
    if tracer is not None:
        result["functions"] = tracer.totals()
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    return result


def reference(args, workload) -> dict:
    return {"rounds": [workload.run_round(k)[1] for k in range(args.rounds)]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", required=True,
                        choices=("setup", "measure", "fixed", "reference"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default="")
    parser.add_argument("--pause", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed)
    # The first trial is dispatched right after this line.
    result = {"dispatch_monotonic": time.monotonic()}
    if args.phase == "measure":
        result.update(measure(args, workload))
    elif args.phase == "fixed":
        result.update(fixed(args, workload))
    elif args.phase == "reference":
        result.update(reference(args, workload))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
