"""Regenerate ``reference.json``: the outcome counts the benchmark checks.

Usage, from the repository root::

    python3 repobench/make_reference.py --seeds 1-10

For every workload and seed, one fresh interpreter (``REPRO_*`` cleared,
as in a benchmark run) runs the workload's first rounds and records the
outcome counts of every checked output.  The simulator is deterministic,
so a change that only makes it faster leaves these counts identical;
regenerate only when a change is meant to alter simulated outcomes, and
say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os

from run import HERE, run_child

#: Rounds recorded per seed: about what one 25-second run reaches on a
#: 2-vCPU host, so most checked rounds compare exactly.
ROUNDS = {"table1-fresh": 20, "intang-adaptive": 80, "fleet-contended": 10}


def parse_seeds(text: str) -> list:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    reference = {}
    for workload, rounds in ROUNDS.items():
        reference[workload] = {}
        for seed in parse_seeds(args.seeds):
            result = run_child("--phase", "reference", "--workload", workload,
                               "--seed", str(seed), "--rounds", str(rounds))
            reference[workload][str(seed)] = result["rounds"]
            print(workload, seed, "recorded", rounds, "rounds", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    main()
