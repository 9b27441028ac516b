"""Trial state is acyclic: reference counting alone frees a finished trial.

Each pin runs its workload once to warm up imports, memos and the
scenario pool.  It then runs the workload again on fresh seeds with the
cycle collector disabled, and asserts that a full collection finds no
unreachable objects.  A new back-edge on the trial path, such as a bound
method stored on an object the owner holds or a handle that points back
at its timer's owner, makes a pin fail and names the types it leaked.

That is what lets ``map_trials`` pause the collector for the length of
each trial loop; the pause itself is pinned at the end of this file.
"""

import collections
import gc
import weakref

import pytest

from repro.core.intang import INTANG
from repro.experiments import (
    CHINA_VANTAGE_POINTS,
    CLEAN_ROOM,
    FleetSpec,
    outside_china_catalog,
    run_fleet,
    run_strategy_cell,
    run_table4_row,
    vantage_by_name,
)
from repro.experiments import parallel, scenarios
from repro.experiments.parallel import map_trials, shutdown_pool
from repro.experiments.runner import (
    SENSITIVE_PATH, run_dns_trial, run_tor_trial, run_vpn_trial,
)
from repro.experiments.websites import DYN_RESOLVERS
from repro.apps.http import HTTPClient
from repro.strategies.registry import TABLE1_ROWS
from repro.telemetry import get_registry
from repro.telemetry.events import capturing
from repro.telemetry.trace import tracing

SITES = outside_china_catalog()[:2]


def cyclic_garbage(run) -> collections.Counter:
    """Types of the unreachable objects ``run()`` leaves for the collector."""
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = collections.Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return found


def assert_acyclic(run) -> None:
    run(1)  # warm-up
    found = cyclic_garbage(lambda: run(2))
    assert not found, f"cyclic garbage by type: {found.most_common(12)}"


def _table1_cells(seed):
    for _label, strategy_id, _discrepancy in TABLE1_ROWS:
        run_strategy_cell(
            strategy_id, CHINA_VANTAGE_POINTS, SITES[:1], seed=seed, keyword=True,
        )


def _small_fleet(seed):
    run_fleet(FleetSpec(flows=48, seed=seed, groups=1, window=16, sites=12))


def test_table1_cells_leave_no_cyclic_garbage():
    assert_acyclic(_table1_cells)


@pytest.mark.parametrize(
    "knob", ["REPRO_SCENARIO_REUSE", "REPRO_SCENARIO_POOL_MAX"],
)
def test_unpooled_trials_leave_no_cyclic_garbage(monkeypatch, knob):
    """A scenario the pool does not hold, a fresh build or one the bound
    evicts as it is parked, is disposed by its own trial; a leased one by
    its fleet flow's release."""
    monkeypatch.setenv(knob, "0")
    scenarios.clear_scenario_pool()
    vantage = vantage_by_name("aliyun-shanghai")

    def run(seed):
        _table1_cells(seed)
        _small_fleet(seed)
        run_dns_trial(vantage, DYN_RESOLVERS[0], calibration=CLEAN_ROOM, seed=seed)
        run_tor_trial(vantage, SITES[0], "improved-tcb-teardown", seed=seed)
        run_vpn_trial(vantage, SITES[1], "improved-tcb-teardown", seed=seed)

    assert_acyclic(run)
    assert scenarios.scenario_pool_size() == 0


def test_adaptive_table4_row_leaves_no_cyclic_garbage():
    assert_acyclic(
        lambda seed: run_table4_row(
            None, CHINA_VANTAGE_POINTS, SITES, repeats=2, seed=seed, adaptive=True,
        )
    )


def test_fleet_overflowing_the_scenario_pool_leaves_no_cyclic_garbage(monkeypatch):
    """Waves of leased scenarios overflow a small pool: every evicted
    scenario is disposed, and the shared censor state is acyclic too."""
    monkeypatch.setenv("REPRO_SCENARIO_POOL_MAX", "4")
    evicted = get_registry().counter("scenario.evicted")
    before = evicted.value
    assert_acyclic(
        lambda seed: run_fleet(
            FleetSpec(flows=48, seed=seed, groups=1, window=16, max_flows=8, sites=12)
        )
    )
    assert evicted.value > before


def test_dns_trial_leaves_no_cyclic_garbage():
    assert_acyclic(
        lambda seed: run_dns_trial(
            vantage_by_name("aliyun-shanghai"), DYN_RESOLVERS[0],
            calibration=CLEAN_ROOM, seed=seed,
        )
    )


def test_table1_cell_with_pool_max_zero_matches_default(monkeypatch):
    """Under ``REPRO_SCENARIO_POOL_MAX=0`` a non-lease scenario is evicted
    as it is parked, while its trial still runs on it: it must not be
    disposed, and the outcomes must equal the pooled default's.  The
    reuse tiers are off, so the second run simulates too."""
    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    monkeypatch.setenv("REPRO_REPLAY", "0")
    scenarios.clear_scenario_pool()

    def cell():
        return [
            run_strategy_cell(
                strategy_id, CHINA_VANTAGE_POINTS, SITES, seed=7, keyword=True,
            )
            for _label, strategy_id, _discrepancy in TABLE1_ROWS[:4]
        ]

    default = cell()
    monkeypatch.setenv("REPRO_SCENARIO_POOL_MAX", "0")
    unpooled = cell()
    assert scenarios.scenario_pool_size() == 0
    assert unpooled == default
    scenarios.clear_scenario_pool()


def test_discarded_intang_still_applies_its_strategy():
    """The DNS-trial idiom: ``INTANG(...)`` is built and dropped.  The
    host's handlers own the framework and its callbacks, so the strategy
    still runs after INTANG itself has been freed."""
    scenario = scenarios.build_scenario(
        vantage_by_name("aliyun-shanghai"), website=SITES[0],
        calibration=CLEAN_ROOM, seed=3,
    )
    intang = INTANG(
        host=scenario.client,
        tcp_host=scenario.client_tcp,
        clock=scenario.clock,
        network=scenario.network,
        fixed_strategy="tcb-teardown-rst/ttl",
    )
    alive = weakref.ref(intang)
    del intang
    assert alive() is None  # freed at once: nothing cyclic held it

    insertions = get_registry().counter("strategy.insertions_sent")
    before = insertions.value
    _conn, exchange = HTTPClient(scenario.client_tcp).get(
        SITES[0].ip, host=SITES[0].name, path=SENSITIVE_PATH,
    )
    scenario.run()
    assert insertions.value > before
    assert exchange.got_response
    assert scenario.gfw_resets_received() == 0
    scenario.dispose()


def test_perf_profile_reports_collector_activity(capsys):
    from repro.cli import main

    assert main([
        "perf", "profile", "--strategy", "tcb-teardown-rst/ttl",
        "--repeats", "20", "--top", "1",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    gc_line = next(line for line in lines if line.startswith("gc: "))
    assert gc_line.endswith(", 0.0 cyclic objects per trial")


# -- the collector pause around map_trials loops ------------------------
def _collector_on(_task):
    """Module level, so a pool worker can unpickle it."""
    return gc.isenabled()


def _raise(_task):
    raise KeyError("boom")


def test_inline_map_pauses_the_collector():
    assert gc.isenabled()
    assert map_trials(_collector_on, [(1,), (2,)], workers=1) == [False, False]
    assert gc.isenabled()


def test_collector_restored_when_a_task_raises():
    with pytest.raises(KeyError):
        map_trials(_raise, [(1,)], workers=1)
    assert gc.isenabled()


def test_collector_left_off_when_the_caller_turned_it_off():
    gc.disable()
    try:
        assert map_trials(_collector_on, [(1,)], workers=1) == [False]
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_collector_stays_on_while_tracing_or_capturing():
    with tracing():
        assert map_trials(_collector_on, [(1,)], workers=1) == [True]
    with capturing():
        assert map_trials(_collector_on, [(1,)], workers=1) == [True]


def test_worker_slices_pause_the_collector():
    try:
        results = map_trials(_collector_on, [(n,) for n in range(4)], workers=2)
    finally:
        shutdown_pool()
    assert results == [False] * 4
    assert gc.isenabled()


def test_pool_workers_start_with_the_collector_on():
    """A pool forked inside a paused loop must not inherit the pause."""
    shutdown_pool()
    gc.disable()
    try:
        assert parallel._get_pool(2).submit(gc.isenabled).result(timeout=60)
    finally:
        gc.enable()
        shutdown_pool()


def test_paused_loops_find_no_garbage():
    """The loop-end collections of warm Table-1 cells and a warm fleet run
    find nothing: the pause leaves no work for them."""
    loop_garbage = get_registry().counter("gc.loop_garbage")
    for workload in (_table1_cells, _small_fleet):
        workload(1)  # warm-up
        before = loop_garbage.value
        workload(2)
        assert loop_garbage.value == before
