"""Tests for the parallel experiment engine (repro.engine)."""

import pickle
import threading

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.clock.resiliency import monte_carlo_clock_coverage
from repro.engine import (
    EngineObserver,
    ExperimentEngine,
    ResultCache,
    ThroughputObserver,
    cache_key,
    canonicalize,
    resolve_cache,
    spawn_trial_seeds,
)
from repro.errors import ReproError
from repro.flow.characterize import characterize
from repro.noc.connectivity import monte_carlo_disconnection
from repro.yieldmodel.lots import pillar_redundancy_lot_comparison, simulate_lot

CFG = SystemConfig(rows=8, cols=8)


def _draw_trial(ctx):
    """Module-level trial fn (worker processes must be able to pickle it)."""
    return float(ctx.rng.random()) + ctx.params.get("offset", 0.0)


def _index_trial(ctx):
    return ctx.index


class _EventLog(EngineObserver):
    """Records every engine event in the order it was delivered."""

    def __init__(self):
        self.events = []

    def on_run_start(self, experiment, trials, workers):
        self.events.append(("start", experiment, trials, workers))

    def on_trial(self, experiment, index, elapsed_s):
        assert elapsed_s >= 0.0
        self.events.append(("trial", experiment, index))

    def on_run_end(self, result):
        self.events.append(("end", result.from_cache, len(result.values)))

    def trial_indices(self):
        return [event[2] for event in self.events if event[0] == "trial"]


class TestSeeding:
    def test_spawn_is_deterministic(self):
        a = spawn_trial_seeds(42, 8)
        b = spawn_trial_seeds(42, 8)
        for sa, sb in zip(a, b):
            assert np.random.default_rng(sa).random() == np.random.default_rng(sb).random()

    def test_trials_get_distinct_streams(self):
        seeds = spawn_trial_seeds(0, 16)
        draws = {np.random.default_rng(s).random() for s in seeds}
        assert len(draws) == 16

    def test_tuple_seeds_are_independent_roots(self):
        a = spawn_trial_seeds((3, 1), 4)
        b = spawn_trial_seeds((3, 2), 4)
        assert np.random.default_rng(a[0]).random() != np.random.default_rng(b[0]).random()


class TestEngineDeterminism:
    def test_serial_and_parallel_values_identical(self):
        runs = {}
        for workers in (1, 4):
            runs[workers] = ExperimentEngine(workers=workers).run(
                _draw_trial, experiment="t", trials=24, seed=5
            )
        assert runs[1].values == runs[4].values
        assert not runs[1].from_cache and not runs[4].from_cache

    def test_values_ordered_by_trial_index(self):
        run = ExperimentEngine(workers=3, chunk_size=2).run(
            _index_trial, experiment="t", trials=11, seed=0
        )
        assert run.values == list(range(11))

    def test_different_seeds_differ(self):
        a = ExperimentEngine().run(_draw_trial, experiment="t", trials=4, seed=0)
        b = ExperimentEngine().run(_draw_trial, experiment="t", trials=4, seed=1)
        assert a.values != b.values

    def test_zero_trials_rejected(self):
        with pytest.raises(ReproError):
            ExperimentEngine().run(_draw_trial, experiment="t", trials=0)


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = ExperimentEngine(cache=cache)
        first = engine.run(_draw_trial, experiment="t", trials=6, seed=1)
        second = engine.run(_draw_trial, experiment="t", trials=6, seed=1)
        assert not first.from_cache
        assert second.from_cache
        assert second.values == first.values
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_identity_changes_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = ExperimentEngine(cache=cache)
        engine.run(_draw_trial, experiment="t", trials=6, seed=1)
        for kwargs in (
            {"trials": 7, "seed": 1},
            {"trials": 6, "seed": 2},
            {"trials": 6, "seed": 1, "params": {"offset": 1.0}},
        ):
            run = engine.run(_draw_trial, experiment="t", **kwargs)
            assert not run.from_cache
        other = engine.run(_draw_trial, experiment="other", trials=6, seed=1)
        assert not other.from_cache

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = ExperimentEngine(cache=cache)
        engine.run(_draw_trial, experiment="t", trials=2, seed=0)
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_key_includes_config(self):
        a = cache_key("e", CFG, None, 0, 4)
        b = cache_key("e", SystemConfig(rows=4, cols=4), None, 0, 4)
        assert a != b
        assert a == cache_key("e", SystemConfig(rows=8, cols=8), None, 0, 4)

    def test_canonicalize_rejects_unkeyable(self):
        with pytest.raises(ReproError):
            canonicalize(object())

    def test_resolve_cache_arguments(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache(True).root == tmp_path / "env"
        explicit = ResultCache(tmp_path / "explicit")
        assert resolve_cache(explicit) is explicit

    def test_canonicalize_handles_numpy(self):
        canon = canonicalize({"a": np.float64(1.5), "b": np.arange(3)})
        assert canon["a"] == 1.5
        assert "__ndarray__" in canon["b"]


class TestAtomicCache:
    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("ab" + "0" * 62, [1, 2, 3])
        assert not list((tmp_path / "cache").rglob("*.tmp"))

    def test_concurrent_writers_never_tear(self, tmp_path):
        """Readers always see a complete pickle, never a partial write."""
        cache = ResultCache(tmp_path / "cache")
        key = "cd" + "1" * 62
        payloads = [[i] * 2048 for i in range(8)]
        stop = threading.Event()
        failures = []

        def writer(payload):
            while not stop.is_set():
                cache.put(key, payload)

        def reader():
            while not stop.is_set():
                hit, values = cache.get(key)
                if hit and values not in payloads:
                    failures.append(values)

        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        import time

        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(10)
        assert not failures
        hit, values = cache.get(key)
        assert hit and values in payloads

    def test_clear_sweeps_orphaned_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ef" + "2" * 62
        cache.put(key, [1])
        orphan = cache._path(key).parent / f"{key}.orphan.tmp"
        orphan.write_bytes(pickle.dumps([2]))
        cache.clear()
        assert not orphan.exists()
        assert not cache.get(key)[0]


class TestObservability:
    def test_throughput_observer_counts_trials(self):
        observer = ThroughputObserver()
        engine = ExperimentEngine(observers=[observer])
        engine.run(_draw_trial, experiment="t", trials=9, seed=0)
        assert observer.total_trials == 9
        record = observer.runs[-1]
        assert record.completed == 9
        assert record.trials_per_second > 0
        assert record.mean_trial_s >= 0

    def test_cache_hit_runs_no_trials(self, tmp_path):
        observer = ThroughputObserver()
        cache = ResultCache(tmp_path / "cache")
        engine = ExperimentEngine(cache=cache, observers=[observer])
        engine.run(_draw_trial, experiment="t", trials=5, seed=0)
        engine.run(_draw_trial, experiment="t", trials=5, seed=0)
        assert observer.total_trials == 5
        assert observer.runs[-1].from_cache

    @pytest.mark.parametrize("workers", [1, 2])
    def test_on_trial_reports_every_trial_once(self, workers):
        log = _EventLog()
        ExperimentEngine(workers=workers, observers=[log]).run(
            _draw_trial, experiment="t", trials=7, seed=0
        )
        assert log.events[0] == ("start", "t", 7, workers)
        assert log.events[-1] == ("end", False, 7)
        assert sorted(log.trial_indices()) == list(range(7))

    def test_cached_run_reports_start_and_end_only(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ExperimentEngine(cache=cache).run(_draw_trial, experiment="t", trials=4, seed=0)
        log = _EventLog()
        ExperimentEngine(cache=cache, observers=[log]).run(
            _draw_trial, experiment="t", trials=4, seed=0
        )
        assert log.events == [("start", "t", 4, 1), ("end", True, 4)]

    def test_describe_computed_run(self):
        observer = ThroughputObserver()
        ExperimentEngine(observers=[observer]).run(
            _draw_trial, experiment="t", trials=4, seed=0
        )
        record = observer.runs[-1]
        assert not record.from_cache
        text = record.describe()
        assert "4/4 trials" in text
        assert "ms/trial" in text
        assert "cache" not in text

    def test_describe_cached_run_is_explicit(self, tmp_path):
        observer = ThroughputObserver()
        cache = ResultCache(tmp_path / "cache")
        engine = ExperimentEngine(cache=cache, observers=[observer])
        engine.run(_draw_trial, experiment="t", trials=5, seed=0)
        engine.run(_draw_trial, experiment="t", trials=5, seed=0)
        cached = observer.runs[-1]
        assert cached.from_cache
        assert cached.mean_trial_s == 0.0
        text = cached.describe()
        assert "served from cache" in text
        assert "no trials computed" in text
        assert "ms/trial" not in text
        # Both renderings appear in the aggregate summary.
        summary = observer.summary()
        assert "ms/trial" in summary and "served from cache" in summary


class TestPortedExperiments:
    """The four paper studies produce identical statistics at any worker count."""

    def test_fig6_worker_invariance(self):
        kwargs = {"fault_counts": [1, 3], "trials": 8, "seed": 2}
        serial = monte_carlo_disconnection(CFG, **kwargs, workers=1)
        parallel = monte_carlo_disconnection(CFG, **kwargs, workers=4)
        assert [(s.mean_single_pct, s.mean_dual_pct, s.std_single_pct) for s in serial] == [
            (s.mean_single_pct, s.mean_dual_pct, s.std_single_pct) for s in parallel
        ]

    def test_lot_worker_invariance(self):
        serial = pillar_redundancy_lot_comparison(CFG, wafers=12, seed=3, workers=1)
        parallel = pillar_redundancy_lot_comparison(CFG, wafers=12, seed=3, workers=3)
        for pillars in (1, 2):
            assert serial[pillars].fault_counts == parallel[pillars].fault_counts
            assert serial[pillars].bins == parallel[pillars].bins

    def test_characterize_worker_invariance(self):
        serial = characterize(CFG, seed=4, workers=1)
        parallel = characterize(CFG, seed=4, workers=2)
        np.testing.assert_array_equal(serial.fmax_hz, parallel.fmax_hz)
        np.testing.assert_array_equal(serial.regulated_v, parallel.regulated_v)

    def test_clock_coverage_worker_invariance(self):
        kwargs = {"fault_counts": [2, 5], "trials": 6, "seed": 1}
        serial = monte_carlo_clock_coverage(CFG, **kwargs, workers=1)
        parallel = monte_carlo_clock_coverage(CFG, **kwargs, workers=4)
        assert [(s.mean_coverage, s.min_coverage, s.mean_unreachable) for s in serial] == [
            (s.mean_coverage, s.min_coverage, s.mean_unreachable) for s in parallel
        ]

    def test_fig6_cache_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kwargs = {"fault_counts": [2], "trials": 4, "seed": 0, "cache": cache}
        first = monte_carlo_disconnection(CFG, **kwargs)
        hits_before = cache.hits
        second = monte_carlo_disconnection(CFG, **kwargs)
        assert cache.hits == hits_before + 1
        assert first[0].mean_single_pct == second[0].mean_single_pct

    def test_simulate_lot_shared_engine(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path / "cache"))
        a = simulate_lot(CFG, wafers=10, seed=1, engine=engine)
        b = simulate_lot(CFG, wafers=10, seed=1, engine=engine)
        assert a.fault_counts == b.fault_counts
        assert engine.cache.hits == 1
