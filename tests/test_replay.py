"""Tier-1 pins for the deterministic-replay execution tier.

The replay PR's correctness contract: standing a recorded (ledger
fingerprint → outcome artifact) program in for a full simulation must be
observably identical to simulating — byte-identical trial records and
identical trial-semantic telemetry, whether the candidate trial hits,
misses on its first draw, or forks mid-run.  These tests pin that
contract and the divergence-edge accounting (miss vs fork) directly.
"""

import dataclasses
import random

import pytest

from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    DEFAULT_CALIBRATION,
    outside_china_catalog,
)
from repro.experiments import replay, scenarios
from repro.experiments.runner import (
    RateTriple,
    _cell_tasks,
    _record_http_trial,
    _run_http_record,
    _simulate_http_trial,
    run_http_trial,
    run_strategy_cell,
)
from repro.gfw.models import MODEL_VARIANTS
from repro.rngledger import (
    RngLedger,
    StreamSet,
    TrialRandom,
    as_trial_random,
    begin_ledger,
    end_ledger,
    ledger_root,
)
from repro.netstack.packet import clear_packet_pool
from repro.telemetry.metrics import get_registry

VANTAGE = CHINA_VANTAGE_POINTS[0]
SITES = outside_china_catalog(count=2)


@pytest.fixture(autouse=True)
def _fresh_pools(monkeypatch):
    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    # These tests pin the tier itself, so they switch the opt-in knob on;
    # the bypass and default-off tests turn it back off per test.
    monkeypatch.setenv("REPRO_REPLAY", "1")
    scenarios.clear_scenario_pool()
    clear_packet_pool()
    yield
    scenarios.clear_scenario_pool()
    clear_packet_pool()


def _astuple(record):
    return dataclasses.astuple(record)


def _semantic(delta):
    """Trial-owned counters/histograms of a registry delta (engine
    accounting — pool, netsim, replay itself — legitimately differs
    between the simulated and replayed execution strategies)."""
    counters = {
        name: value
        for name, value in delta["counters"].items()
        if not name.startswith(replay.ENGINE_PREFIXES)
    }
    return counters, delta["histograms"]


def _simulated(tasks, gfw_variant=None):
    """Reference records: every task simulated from scratch."""
    return [
        _simulate_http_trial(
            vantage, site, strategy, calibration,
            seed=seed, keyword=keyword, gfw_variant=gfw_variant,
        )[0]
        for vantage, site, strategy, calibration, seed, keyword in tasks
    ]


def _counters():
    registry = get_registry()
    return {
        name: registry.counter_value(f"replay.{name}")
        for name in ("hits", "misses", "forks", "programs", "store_conflicts")
    }


# ---------------------------------------------------------------------------
# The instrumented RNG: recording must not change the stream.
# ---------------------------------------------------------------------------
class TestTrialRandom:
    def test_draw_parity_with_plain_random(self):
        for seed in range(5):
            plain = random.Random(seed)
            trial = TrialRandom(seed)
            for _ in range(50):
                assert trial.random() == plain.random()
                assert trial.randrange(1000) == plain.randrange(1000)
                assert trial.randint(1, 6) == plain.randint(1, 6)
                assert trial.uniform(0.0, 3.5) == plain.uniform(0.0, 3.5)
                assert trial.getrandbits(32) == plain.getrandbits(32)
                assert trial.choice([1, 2, 3]) == plain.choice([1, 2, 3])

    def test_parity_holds_while_recording(self):
        plain = random.Random(7)
        ledger = begin_ledger(7)
        try:
            recorded = ledger_root(7)
            for _ in range(50):
                assert recorded.random() == plain.random()
                assert recorded.randrange(1 << 32) == plain.randrange(1 << 32)
        finally:
            end_ledger()
        assert len(ledger.entries) > 50  # root entry + every draw

    def test_spawn_matches_historical_child_seeding(self):
        # The pre-ledger idiom was ``random.Random(rng.randrange(2**31))``.
        plain = random.Random(11)
        trial = TrialRandom(11)
        child_plain = random.Random(plain.randrange(2**31))
        child_trial = trial.spawn()
        for _ in range(20):
            assert child_trial.random() == child_plain.random()
        # And the parent streams stay aligned afterwards.
        assert trial.random() == plain.random()

    def test_coin_branch_pick_match_inline_idioms(self):
        weights = (0.2, 0.5, 0.3)
        thresholds = (0.04, 0.19)
        for seed in range(20):
            plain = random.Random(seed)
            trial = TrialRandom(seed)
            assert trial.coin(0.37) == (plain.random() < 0.37)
            roll = plain.random() * sum(weights)
            index = len(weights) - 1
            for i, weight in enumerate(weights):
                roll -= weight
                if roll <= 0:
                    index = i
                    break
            assert trial.branch(weights) == index
            roll = plain.random()
            expected = 0 if roll < thresholds[0] else 1 if roll < thresholds[1] else 2
            assert trial.pick(thresholds) == expected

    def test_as_trial_random_preserves_stream(self):
        plain = random.Random(3)
        plain.random()  # advance: coercion must keep mid-stream state
        coerced = as_trial_random(random.Random(3))
        coerced.random()
        for _ in range(10):
            assert coerced.random() == plain.random()
        assert as_trial_random(None) is None

    def test_ledger_self_verification(self):
        ledger = begin_ledger(42)
        try:
            rng = ledger_root(42)
            rng.coin(0.5)
            child = rng.spawn()
            child.branch((1.0, 2.0))
            ledger.mark("run")
            rng.randrange(100)
            child.pick((0.5,))
        finally:
            end_ledger()
        streams = StreamSet(42)
        for spec, bucket in ledger.entries:
            assert streams.advance(spec) == bucket
        # A different seed must diverge on at least one content bucket.
        other = StreamSet(43)
        mismatches = sum(
            1 for spec, bucket in ledger.entries if other.advance(spec) != bucket
        )
        assert mismatches > 0


# ---------------------------------------------------------------------------
# Replay-on vs replay-off byte-identity.
# ---------------------------------------------------------------------------
def _tasks(seeds, calibration=DEFAULT_CALIBRATION, strategy="tcb-teardown-rst/ttl"):
    return [
        (VANTAGE, site, strategy, calibration, seed, True)
        for site in SITES
        for seed in seeds
    ]


class TestReplayParity:
    def test_serial_replay_matches_simulation(self):
        registry = get_registry()
        tasks = _tasks(range(4))
        reference = []
        for vantage, site, strategy, calibration, seed, keyword in tasks:
            record, _ = _simulate_http_trial(
                vantage, site, strategy, calibration, seed=seed, keyword=keyword
            )
            reference.append(record)

        replay.clear()
        before = registry.snapshot()
        first = [run_http_trial(*task) for task in tasks]
        first_delta = registry.diff(before)
        assert [_astuple(r) for r in first] == [_astuple(r) for r in reference]
        assert replay.program_count() > 0

        # Second pass over the same seeds: pure replay, same records, same
        # trial-semantic telemetry.
        before = registry.snapshot()
        second = [run_http_trial(*task) for task in tasks]
        second_delta = registry.diff(before)
        assert [_astuple(r) for r in second] == [_astuple(r) for r in reference]
        assert _semantic(second_delta) == _semantic(first_delta)
        assert registry.counter_value("replay.hits") >= len(tasks)

    def test_solo_replay_matches_simulation(self):
        # The conformance matrix's entry point: a forced GFW variant is
        # part of the replay cell, and replays stay record-identical.
        registry = get_registry()
        variant = sorted(MODEL_VARIANTS)[0]
        tasks = _tasks(range(3))
        reference = _simulated(tasks, gfw_variant=variant)

        replay.clear()
        before = registry.snapshot()
        recorded = [_run_http_record(t, gfw_variant=variant) for t in tasks]
        recorded_delta = registry.diff(before)
        before = registry.snapshot()
        replayed = [_run_http_record(t, gfw_variant=variant) for t in tasks]
        replayed_delta = registry.diff(before)

        for produced in (recorded, replayed):
            assert [_astuple(r) for r in produced] == [
                _astuple(r) for r in reference
            ]
        assert _semantic(replayed_delta) == _semantic(recorded_delta)
        assert registry.counter_value("replay.hits") >= len(tasks)

    def test_replay_off_knob_bypasses_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY", "0")
        registry = get_registry()
        replay.clear()
        before = registry.counter_value("replay.misses")
        records = [_run_http_record(task) for task in _tasks(range(2))]
        assert len(records) == 4
        assert replay.program_count() == 0
        assert registry.counter_value("replay.misses") == before

    def test_table1_cell_with_knob_unset_records_no_programs(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY")
        replay.clear()
        lookups = sum(_counters().values())
        tasks = _cell_tasks(
            "tcb-teardown-rst/ttl", CHINA_VANTAGE_POINTS[:3], SITES,
            DEFAULT_CALIBRATION, repeats=2, seed=7, keyword=True,
        )
        records = [run_http_trial(*task) for task in tasks]
        triple = run_strategy_cell(
            "tcb-teardown-rst/ttl", CHINA_VANTAGE_POINTS[:3], SITES,
            repeats=2, seed=7, keyword=True, workers=1,
        )
        assert replay.program_count() == 0
        assert sum(_counters().values()) == lookups
        assert replay.stats()["cells"] == 0

        scenarios.clear_scenario_pool()
        clear_packet_pool()
        reference = _simulated(tasks)
        assert [_astuple(r) for r in records] == [_astuple(r) for r in reference]
        expected = RateTriple.from_outcomes(r.outcome for r in reference)
        assert triple == expected

    def test_program_cap_limits_recording(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_PROGRAMS", "1")
        replay.clear()
        tasks = _tasks(range(5))
        produced = [_run_http_record(task) for task in tasks]
        reference = _simulated(tasks)
        assert [_astuple(r) for r in produced] == [_astuple(r) for r in reference]
        # One program per cell (site), never more, however many seeds miss.
        for site in SITES:
            key = replay.cell_key(
                VANTAGE, site, "tcb-teardown-rst/ttl", DEFAULT_CALIBRATION,
                True, None,
            )
            assert replay.program_count(key) == 1


# ---------------------------------------------------------------------------
# Divergence edges: first-draw misses, mid-run forks, mixed windows.
# ---------------------------------------------------------------------------
#: Calibration whose only entropic setup draws are the two NB3 resync
#: coins (drawn once per installation while the devices are constructed):
#: every other pre-run draw buckets identically for every seed — coins
#: with p=0 always bucket False, the composition pick always lands on the
#: all-evolved generation.  A candidate seed therefore either misses
#: exactly on an NB3 coin, or matches the whole setup prefix and can only
#: diverge inside the run phase (a fork).
_RUN_ONLY_DIVERGENCE = dataclasses.replace(
    DEFAULT_CALIBRATION,
    route_drift_probability=0.0,
    stateful_firewall_fraction=0.0,
    burst_loss_probability=0.0,
    base_loss_rate=0.0,
    old_model_only_fraction=0.0,
    both_models_fraction=0.0,
    evolved_tcp_ooo_lastwins_fraction=0.0,
    evolved_ignores_noflag_fraction=0.0,
    evolved_validates_ack_fraction=0.0,
    evolved_fin_teardown_fraction=0.0,
    gfw_miss_probability=0.0,
    # The NB3 coins are the remaining maximum-entropy run-phase draws: the
    # teardown RST reaching the GFW mid-handshake flips them per seed.
    resync_on_rst_probability=0.5,
    resync_on_rst_handshake_probability=0.5,
)

#: Lossy-cell calibration: the burst-loss coin — the first content draw of
#: ``build_scenario`` for an inside-China vantage — is an even coin, so
#: roughly half of all candidate seeds diverge from a recorded program on
#: their very first draw.
_LOSSY = dataclasses.replace(
    DEFAULT_CALIBRATION,
    burst_loss_probability=0.5,
    burst_loss_rate=0.35,
)


def _classify_candidates(calibration, strategy, seeds):
    """Record seed 0's program, then classify each candidate lookup as
    hit/miss/fork by watching the replay counters."""
    replay.clear()
    site = SITES[0]
    key = replay.cell_key(VANTAGE, site, strategy, calibration, True, None)
    _record_http_trial((VANTAGE, site, strategy, calibration, 0, True), key, None)
    assert replay.program_count(key) == 1
    verdicts = {}
    for seed in seeds:
        before = _counters()
        hit = replay.lookup(key, seed) is not None
        after = _counters()
        if hit:
            verdicts[seed] = "hit"
        elif after["forks"] > before["forks"]:
            verdicts[seed] = "fork"
        else:
            assert after["misses"] > before["misses"]
            verdicts[seed] = "miss"
    return verdicts


class TestDivergenceEdges:
    def test_lossy_cell_diverges_on_first_draw_as_miss(self):
        verdicts = _classify_candidates(_LOSSY, "none", range(1, 40))
        # An even first-content-draw coin (burst loss): a healthy share
        # of candidate seeds must diverge before the run mark — misses,
        # not forks.  (Seeds matching the burst coin may still fork later
        # on a per-launch loss coin; that path is pinned separately.)
        assert list(verdicts.values()).count("miss") > 5

        # A missed seed still produces the byte-identical record through
        # the replay-tier entry point.
        missed = next(s for s, v in verdicts.items() if v == "miss")
        task = (VANTAGE, SITES[0], "none", _LOSSY, missed, True)
        assert _astuple(_run_http_record(task)) == _astuple(_simulated([task])[0])

    def test_nb3_coin_divergence_splits_miss_and_fork(self):
        verdicts = _classify_candidates(
            _RUN_ONLY_DIVERGENCE, "tcb-teardown-rst/ttl", range(1, 40)
        )
        # By construction the only entropic setup draws are the two NB3
        # resync coins, so every miss IS an NB3-coin divergence; seeds
        # that match both coins carry the whole setup prefix and can only
        # diverge mid-run — the handshake-teardown exchange — as forks.
        assert list(verdicts.values()).count("miss") > 5
        assert list(verdicts.values()).count("fork") > 5

        for verdict in ("miss", "fork"):
            seed = next(s for s, v in verdicts.items() if v == verdict)
            task = (
                VANTAGE, SITES[0], "tcb-teardown-rst/ttl",
                _RUN_ONLY_DIVERGENCE, seed, True,
            )
            assert _astuple(_run_http_record(task)) == _astuple(
                _simulated([task])[0]
            )

    def test_replayed_then_forked_trials_back_to_back(self):
        registry = get_registry()
        verdicts = _classify_candidates(
            _RUN_ONLY_DIVERGENCE, "tcb-teardown-rst/ttl", range(1, 40)
        )
        forked = next(s for s, v in verdicts.items() if v == "fork")
        tasks = [
            (VANTAGE, SITES[0], "tcb-teardown-rst/ttl",
             _RUN_ONLY_DIVERGENCE, 0, True),       # recorded: replays
            (VANTAGE, SITES[0], "tcb-teardown-rst/ttl",
             _RUN_ONLY_DIVERGENCE, forked, True),  # diverges: forks
        ]
        hits0 = registry.counter_value("replay.hits")
        forks0 = registry.counter_value("replay.forks")
        produced = [_run_http_record(task) for task in tasks]
        assert registry.counter_value("replay.hits") == hits0 + 1
        assert registry.counter_value("replay.forks") == forks0 + 1
        assert [_astuple(r) for r in produced] == [
            _astuple(r) for r in _simulated(tasks)
        ]


# ---------------------------------------------------------------------------
# Counters and stats surfacing.
# ---------------------------------------------------------------------------
class TestCounters:
    def test_registry_exposes_replay_counters(self):
        snapshot = get_registry().snapshot()
        for name in (
            "replay.hits", "replay.misses", "replay.forks",
            "replay.programs", "replay.bytes_cached", "replay.store_conflicts",
        ):
            assert name in snapshot["counters"]

    def test_stats_snapshot_tracks_activity(self):
        replay.clear()
        tasks = _tasks(range(2))
        for _ in range(2):
            for task in tasks:
                _run_http_record(task)
        stats = replay.stats()
        assert stats["programs"] == replay.program_count() > 0
        assert stats["cells"] == len(SITES)
        assert stats["hits"] >= len(tasks)
        assert stats["bytes_cached"] > 0
