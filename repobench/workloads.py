"""The benchmark's three workloads, their rounds and their output checks.

A workload is run as a sequence of *rounds*.  Round ``k`` of a run with
seed ``s`` is a pure function of ``(workload, s, k)``: the simulator is
deterministic, so the outcome counts a round produces never depend on
what ran before it in the process, on the host, or on how fast it ran.
That is what lets :func:`check_round` compare each round against stored
reference counts, and fall back to paper-shape bands for rounds and
seeds that have no reference.

This module imports the program; ``run.py`` does not.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Tuple

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    FleetSpec,
    flow_spec,
    outside_china_catalog,
    run_fleet,
    run_strategy_cell,
    run_table4_row,
)
from repro.gfw.automaton import compile_keywords
from repro.gfw.rules import DEFAULT_KEYWORDS
from repro.strategies.registry import TABLE1_ROWS

#: Outcome counts of one checked output: [success, failure1, failure2].
Counts = List[int]


def round_seed(workload: str, seed: int, round_index: int) -> int:
    """The program seed of one round (fresh for every round and run)."""
    return zlib.crc32(f"{workload}:{seed}:{round_index}".encode()) & 0x7FFFFFFF


class Workload:
    """One named input mix, run round by round."""

    name = ""
    #: Rounds after which the process's peak RSS is read (a fixed input
    #: size, so the figure does not depend on how fast the host is).
    rss_rounds = 1
    #: Rounds of the fixed-work traced run (and its untraced twin).
    trace_rounds = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # Set-up a user's fresh CLI run pays before its first trial: the
        # site catalog and the DPI automaton memo (imports are already
        # done by the time a workload object exists).
        self.catalog = outside_china_catalog()
        compile_keywords(DEFAULT_KEYWORDS)

    def run_round(self, k: int) -> Tuple[int, Dict[str, Counts], Dict[str, int]]:
        """Run round ``k``: (trials from the input, outputs, facts)."""
        raise NotImplementedError

    def band_failures(
        self, k: int, outputs: Dict[str, Counts], facts: Dict[str, int]
    ) -> Dict[str, str]:
        """Paper-shape checks: output name -> message, per failing output."""
        raise NotImplementedError


def _share(counts: Counts, index: int) -> float:
    return counts[index] / sum(counts) if sum(counts) else 0.0


class Table1Fresh(Workload):
    """All 15 Table-1 rows, keyword on, fresh seeds and fresh sites."""

    name = "table1-fresh"
    #: 3 sites x 11 vantages x 1 repeat = 33 trials per cell, 495 a round.
    sites_per_round = 3
    rss_rounds = 4
    trace_rounds = 3
    #: strategy id -> (min success, max success, min failure2) share bands
    #: from the paper's Table 1 shape (§3.4).  33 trials per cell make
    #: single cells noisy, so each band sits about 0.2 beyond the extremes
    #: of 200 reference rounds (seeds 1-10).
    bands = {
        "none": (0.0, 1.0, 0.6),
        "tcb-creation-syn/ttl": (0.0, 1.0, 0.45),
        "tcb-creation-syn/bad-checksum": (0.0, 1.0, 0.45),
        "ooo-ip-fragments": (0.0, 0.3, 0.0),
        "ooo-tcp-segments": (0.0, 0.85, 0.0),
        "inorder-overlap/ttl": (0.6, 1.0, 0.0),
        "inorder-overlap/bad-ack": (0.3, 1.0, 0.0),
        "inorder-overlap/bad-checksum": (0.6, 1.0, 0.0),
        "inorder-overlap/no-flag": (0.0, 1.0, 0.0),
        "tcb-teardown-rst/ttl": (0.2, 1.0, 0.0),
        "tcb-teardown-rst/bad-checksum": (0.2, 1.0, 0.0),
        "tcb-teardown-rstack/ttl": (0.2, 1.0, 0.0),
        "tcb-teardown-rstack/bad-checksum": (0.2, 1.0, 0.0),
        "tcb-teardown-fin/ttl": (0.0, 0.45, 0.0),
        "tcb-teardown-fin/bad-checksum": (0.0, 0.45, 0.0),
    }

    def sites(self, k: int):
        # Each round takes the next slice of the 77-site catalog, so every
        # (vantage, site, strategy) cell is new to the replay store.
        start = k * self.sites_per_round
        return [self.catalog[(start + i) % len(self.catalog)]
                for i in range(self.sites_per_round)]

    def run_round(self, k):
        sites = self.sites(k)
        seed = round_seed(self.name, self.seed, k)
        outputs = {}
        for _label, strategy_id, _discrepancy in TABLE1_ROWS:
            cell = run_strategy_cell(
                strategy_id, CHINA_VANTAGE_POINTS, sites,
                repeats=1, seed=seed, keyword=True,
            )
            outputs[strategy_id] = [cell.successes, cell.failure1s, cell.failure2s]
        trials = len(TABLE1_ROWS) * len(CHINA_VANTAGE_POINTS) * len(sites)
        return trials, outputs, {}

    def band_failures(self, k, outputs, facts):
        expected = len(CHINA_VANTAGE_POINTS) * self.sites_per_round
        failures = {}
        for strategy_id, (low, high, min_f2) in self.bands.items():
            counts = outputs.get(strategy_id, [0, 0, 0])
            success, failure2 = _share(counts, 0), _share(counts, 2)
            if sum(counts) != expected or not low <= success <= high or failure2 < min_f2:
                failures[strategy_id] = f"round {k} cell {strategy_id}: {counts}"
        return failures


class IntangAdaptive(Workload):
    """INTANG's adaptive Table 4 row: a persistent selector per vantage."""

    name = "intang-adaptive"
    sites_count = 6
    repeats = 4
    rss_rounds = 10
    trace_rounds = 8
    #: INTANG beats every fixed strategy (paper: 93.7 % lowest vantage).
    min_success = 0.75

    def __init__(self, seed):
        super().__init__(seed)
        self.sites = self.catalog[: self.sites_count]

    def run_round(self, k):
        row = run_table4_row(
            None, CHINA_VANTAGE_POINTS, self.sites,
            repeats=self.repeats, seed=round_seed(self.name, self.seed, k),
            adaptive=True,
        )
        outputs = {
            vantage: [rates.successes, rates.failure1s, rates.failure2s]
            for vantage, rates in row.rates.items()
        }
        trials = len(CHINA_VANTAGE_POINTS) * self.sites_count * self.repeats
        return trials, outputs, {}

    def band_failures(self, k, outputs, facts):
        expected = self.sites_count * self.repeats
        failures = {}
        for vantage in CHINA_VANTAGE_POINTS:
            counts = outputs.get(vantage.name, [0, 0, 0])
            if sum(counts) != expected or _share(counts, 0) < self.min_success:
                failures[vantage.name] = f"round {k} row {vantage.name}: {counts}"
        return failures


class FleetContended(Workload):
    """One shared censor under load: the flow table and pool both thrash."""

    name = "fleet-contended"
    flows = 1024
    rss_rounds = 4
    trace_rounds = 2

    def spec(self, k: int) -> FleetSpec:
        return FleetSpec(
            flows=self.flows, seed=round_seed(self.name, self.seed, k),
            groups=1, window=512, max_flows=512,
        )

    def run_round(self, k):
        result = run_fleet(self.spec(k))
        outputs = {label: list(counts) for label, counts in result.outcomes.items()}
        facts = {
            "flows_evicted": result.flows_evicted,
            "blacklistings": result.blacklistings,
        }
        return self.flows, outputs, facts

    def band_failures(self, k, outputs, facts):
        spec = self.spec(k)
        expected: Dict[str, int] = {}
        for index in range(spec.flows):
            label = flow_spec(spec, index).label
            expected[label] = expected.get(label, 0) + 1
        # Above max_flows the shared table must keep evicting, and the
        # shared blacklist must be in use, or the load is not there.
        loaded = facts["flows_evicted"] > 0 and facts["blacklistings"] > 0
        failures = {}
        for label in sorted(set(expected) | set(outputs)):
            counts = outputs.get(label, [0, 0, 0])
            if (
                not loaded
                or sum(counts) != expected.get(label, 0)
                or (label == "none" and _share(counts, 2) < 0.7)
            ):
                failures[label] = f"round {k} bucket {label}: {counts} {facts}"
        return failures


WORKLOADS = {cls.name: cls for cls in (Table1Fresh, IntangAdaptive, FleetContended)}


def check_round(
    workload: Workload,
    k: int,
    outputs: Dict[str, Counts],
    facts: Dict[str, int],
    reference: Dict[str, Counts],
) -> Tuple[int, Dict[str, str]]:
    """(outputs checked, output name -> failure message) for one round.

    Every output must pass its paper-shape band; where ``reference``
    holds this round's counts, every output must also equal them.
    """
    failures = workload.band_failures(k, outputs, facts)
    for name in sorted(set(reference) | set(outputs)) if reference else ():
        if outputs.get(name) != reference.get(name):
            failures.setdefault(
                name,
                f"round {k} {name}: {outputs.get(name)} != reference {reference.get(name)}",
            )
    checked = set(outputs) | set(failures) | set(reference)
    return len(checked), failures
