"""Historical-result reuse (the INTANG trick applied to the harness)."""

import pytest

from repro.core.cache import FrontedStore, KeyValueStore
from repro.experiments import DYN_RESOLVERS, result_cache
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.parallel import trials_completed
from repro.experiments.runner import (
    Outcome,
    _cell_tasks,
    _dns_task_key,
    _http_task_key,
    make_persistent_selector,
    run_dns_cell,
    run_http_outcomes,
    run_http_trial,
    run_strategy_cell,
)
from repro.experiments.vantage import CHINA_VANTAGE_POINTS
from repro.experiments.websites import outside_china_catalog
from repro.telemetry.metrics import get_registry

VANTAGE = CHINA_VANTAGE_POINTS[0]
SITES = outside_china_catalog(count=3)


class TestFrontedStore:
    def _clocked(self):
        now = [0.0]
        store = KeyValueStore(time_source=lambda: now[0])
        return now, FrontedStore(store, front_capacity=4)

    def test_write_through_and_front_hit(self):
        _, fronted = self._clocked()
        fronted.set("k", {"v": 1})
        assert fronted.get("k") == {"v": 1}
        assert fronted.front.hits == 1  # second read came from the front
        assert fronted.get("missing", "d") == "d"

    def test_ttl_expiry_invalidates_front(self):
        now, fronted = self._clocked()
        fronted.set("k", "v", ttl=10.0)
        assert fronted.get("k") == "v"
        now[0] = 11.0
        assert fronted.get("k") is None
        assert "k" not in fronted.front

    def test_delete_invalidates_front(self):
        _, fronted = self._clocked()
        fronted.set("k", "v")
        fronted.get("k")
        assert fronted.delete("k")
        assert fronted.get("k") is None

    def test_load_clears_front(self):
        _, fronted = self._clocked()
        fronted.set("k", "stale")
        fronted.get("k")
        _, other = self._clocked()
        other.set("k", "fresh")
        fronted.load(other.dump())
        assert fronted.get("k") == "fresh"

    def test_mirrors_store_surface(self):
        _, fronted = self._clocked()
        fronted.set("a", 1)
        fronted.set("b", 2, ttl=5.0)
        assert fronted.exists("a") and fronted.ttl("b") == 5.0
        assert sorted(fronted.keys()) == ["a", "b"]
        assert len(fronted) == 2
        assert dict(fronted.items()) == {"a": 1, "b": 2}
        assert fronted.expire("a", 1.0)


class TestKnobAndKeys:
    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        assert not result_cache.enabled()
        result_cache.record_trial("k", "success", {"x": 1})
        assert result_cache.lookup("k") is None

    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        assert result_cache.enabled()

    def test_keys_separate_every_input(self):
        base = dict(
            kind="http", vantage=VANTAGE, target=SITES[0],
            strategy_id="s", calibration=DEFAULT_CALIBRATION, seed=1,
        )
        key = result_cache.trial_key(**base)
        assert key != result_cache.trial_key(**{**base, "seed": 2})
        assert key != result_cache.trial_key(**{**base, "strategy_id": "t"})
        assert key != result_cache.trial_key(**{**base, "target": SITES[1]})
        assert key != result_cache.trial_key(**{**base, "kind": "dns"})
        assert key != result_cache.trial_key(**base, keyword=False)
        changed = DEFAULT_CALIBRATION.variant(hop_delta=9)
        assert key != result_cache.trial_key(**{**base, "calibration": changed})
        assert key == result_cache.trial_key(**base)

    def test_outcome_entry_never_downgrades_record(self):
        result_cache.record_trial("k", "success", {"full": True})
        result_cache.record_outcome("k", "failure1")
        payload = result_cache.lookup("k")
        assert payload == {"outcome": "success", "record": {"full": True}}

    def test_clear_invalidates_and_zeroes_stats(self):
        result_cache.record_outcome("k", "success")
        assert result_cache.lookup("k") is not None
        result_cache.clear()
        assert result_cache.lookup("k") is None
        assert result_cache.stats()["entries"] == 0


class TestRunnerIntegration:
    def test_cached_trial_replays_identical_record(self):
        first = run_http_trial(VANTAGE, SITES[0], "tcb-teardown-rst/ttl", seed=3)
        hits_before = result_cache.stats()["hits"]
        second = run_http_trial(VANTAGE, SITES[0], "tcb-teardown-rst/ttl", seed=3)
        assert result_cache.stats()["hits"] == hits_before + 1
        assert first == second  # every TrialRecord field, not just outcome

    def test_cache_disabled_still_deterministic(self, monkeypatch):
        first = run_http_trial(VANTAGE, SITES[0], "none", seed=5)
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        result_cache.clear()
        second = run_http_trial(VANTAGE, SITES[0], "none", seed=5)
        assert first == second
        assert result_cache.stats() == {
            "entries": 0, "hits": 0, "misses": 0,
            "front_hits": 0, "front_evictions": 0,
        }

    def test_adaptive_selector_trials_bypass_cache(self):
        selector = make_persistent_selector()
        run_http_trial(VANTAGE, SITES[0], None, seed=3, selector=selector)
        assert result_cache.stats()["entries"] == 0

    def test_cell_warm_rerun_matches_cold(self):
        cold = run_strategy_cell(
            "inorder-overlap/ttl", [VANTAGE], SITES, repeats=2, seed=11
        )
        entries = result_cache.stats()["entries"]
        assert entries >= len(SITES) * 2
        warm = run_strategy_cell(
            "inorder-overlap/ttl", [VANTAGE], SITES, repeats=2, seed=11
        )
        assert result_cache.stats()["entries"] == entries  # nothing re-ran
        assert cold == warm

    def test_outcomes_partial_warmth(self):
        tasks = [
            (VANTAGE, site, "none", DEFAULT_CALIBRATION, seed, True)
            for site in SITES
            for seed in (21, 22)
        ]
        full = run_http_outcomes(tasks)
        result_cache.clear()
        half = run_http_outcomes(tasks[:3])
        mixed = run_http_outcomes(tasks)  # 3 cached + 3 fresh
        assert mixed[:3] == half
        assert mixed == full
        assert all(isinstance(outcome, Outcome) for outcome in mixed)

    def test_fresh_serial_cell_looks_each_trial_up_once(self):
        # One lookup per trial, before the fan-out; the trial itself
        # consults no cache, and the parent stores its full record.
        registry = get_registry()
        runs_before = registry.counter_value("trials.run")
        completed_before = trials_completed()
        triple = run_strategy_cell(
            "tcb-teardown-rst/ttl", CHINA_VANTAGE_POINTS, SITES, workers=1
        )
        trials = len(CHINA_VANTAGE_POINTS) * len(SITES)
        assert triple.trials == trials
        stats = result_cache.stats()
        assert (stats["misses"], stats["hits"], stats["entries"]) == (
            trials, 0, trials,
        )
        assert registry.counter_value("trials.run") - runs_before == trials
        assert trials_completed() - completed_before == trials
        task = _cell_tasks(
            "tcb-teardown-rst/ttl", CHINA_VANTAGE_POINTS, SITES,
            DEFAULT_CALIBRATION, 1, 0, True,
        )[0]
        assert result_cache.lookup(_http_task_key(task))["record"] is not None

    def test_fresh_serial_dns_cell_looks_each_query_up_once(self):
        queries = 4
        run_dns_cell(VANTAGE, DYN_RESOLVERS[0], queries, seed=5, workers=1)
        stats = result_cache.stats()
        assert (stats["misses"], stats["entries"]) == (queries, queries)
        key = _dns_task_key(
            VANTAGE, DYN_RESOLVERS[0], "improved-tcb-teardown",
            DEFAULT_CALIBRATION, 5, "www.dropbox.com", True,
        )
        assert result_cache.lookup(key)["record"] is not None

    def test_dump_load_roundtrip_replays(self):
        record = run_http_trial(VANTAGE, SITES[1], "none", seed=9)
        blob = result_cache.dump()
        result_cache.clear()
        result_cache.load(blob)
        hits_before = result_cache.stats()["hits"]
        replay = run_http_trial(VANTAGE, SITES[1], "none", seed=9)
        assert result_cache.stats()["hits"] == hits_before + 1
        assert replay == record
