"""Tests for the engine's variance-adaptive sampling.

``adaptive=CIStop(...)`` turns ``trials`` into a cap with a bootstrap-CI
stopping rule.  It must preserve the engine's core contract: results
are a pure function of ``(fn, params, seed)`` — independent of worker
count and dispatch order.
"""

import numpy as np
import pytest

from repro.engine import CIStop, ExperimentEngine, ResultCache
from repro.errors import ReproError


def _draw_trial(ctx):
    return float(ctx.rng.normal())


def _offset_trial(ctx):
    return float(10.0 + ctx.rng.normal())


def _pair_trial(ctx):
    return (float(ctx.rng.normal()), ctx.index)


def _first_element(value):
    return value[0]


class TestCIStopRule:
    def test_validation(self):
        for bad in (
            CIStop(rel_halfwidth=0.0),
            CIStop(confidence=1.0),
            CIStop(min_trials=1),
            CIStop(block=0),
            CIStop(resamples=2),
        ):
            with pytest.raises(ReproError):
                bad.validate()
        CIStop().validate()

    def test_checkpoint_schedule(self):
        rule = CIStop(min_trials=16, block=8)
        assert rule.next_checkpoint(0, 100) == 16
        assert rule.next_checkpoint(16, 100) == 24
        assert rule.next_checkpoint(16, 20) == 20

    def test_halfwidth_is_deterministic(self):
        rule = CIStop()
        stats = np.random.default_rng(0).normal(size=32)
        assert rule.halfwidth(stats) == rule.halfwidth(stats)

    def test_zero_mean_only_stops_on_zero_width(self):
        rule = CIStop(min_trials=2)
        assert rule.satisfied([0.0] * 32)
        assert not rule.satisfied([1.0, -1.0] * 16)

    def test_cache_token_covers_statistic_identity(self):
        assert CIStop().cache_token() != CIStop(seed=1).cache_token()
        assert (
            CIStop().cache_token()
            != CIStop(statistic=_first_element).cache_token()
        )
        assert "_first_element" in CIStop(statistic=_first_element).cache_token()


class TestAdaptiveRuns:
    def test_worker_count_invariant_stop(self):
        rule = CIStop(rel_halfwidth=0.2, min_trials=16, block=8)
        runs = {}
        for workers in (1, 4):
            runs[workers] = ExperimentEngine(workers=workers).run(
                _offset_trial,
                experiment="t",
                trials=500,
                seed=2,
                adaptive=rule,
            )
        assert runs[1].trials == runs[4].trials
        assert runs[1].values == runs[4].values
        assert runs[1].trials < 500
        assert runs[1].requested_trials == 500

    def test_adaptive_values_are_a_prefix_of_the_fixed_run(self):
        rule = CIStop(rel_halfwidth=0.2, min_trials=16, block=8)
        adaptive = ExperimentEngine().run(
            _offset_trial, experiment="t", trials=500, seed=2, adaptive=rule
        )
        fixed = ExperimentEngine().run(
            _offset_trial, experiment="t", trials=500, seed=2
        )
        assert adaptive.values == fixed.values[: adaptive.trials]

    def test_custom_statistic(self):
        rule = CIStop(
            rel_halfwidth=0.2, min_trials=16, block=8,
            statistic=_first_element,
        )
        run = ExperimentEngine().run(
            _pair_trial, experiment="t", trials=400, seed=3, adaptive=rule
        )
        assert run.trials <= 400
        assert all(index == i for i, (_, index) in enumerate(run.values))

    def test_never_stops_before_min_trials(self):
        rule = CIStop(rel_halfwidth=10.0, min_trials=16, block=8)
        run = ExperimentEngine().run(
            _draw_trial, experiment="t", trials=100, seed=0, adaptive=rule
        )
        assert run.trials == 16

    def test_cap_reached_when_rule_never_satisfies(self):
        rule = CIStop(rel_halfwidth=1e-12, min_trials=4, block=4)
        run = ExperimentEngine().run(
            _draw_trial, experiment="t", trials=12, seed=0, adaptive=rule
        )
        assert run.trials == 12

    def test_invalid_rule_rejected(self):
        with pytest.raises(ReproError, match="min_trials"):
            ExperimentEngine().run(
                _draw_trial,
                experiment="t",
                trials=8,
                seed=0,
                adaptive=CIStop(min_trials=1),
            )

    def test_adaptive_runs_cache_separately(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = ExperimentEngine(cache=cache)
        loose = CIStop(rel_halfwidth=0.05, min_trials=16, block=8)
        tight = CIStop(rel_halfwidth=0.005, min_trials=16, block=8)
        a = engine.run(
            _offset_trial, experiment="t", trials=400, seed=2, adaptive=loose
        )
        b = engine.run(
            _offset_trial, experiment="t", trials=400, seed=2, adaptive=loose
        )
        c = engine.run(
            _offset_trial, experiment="t", trials=400, seed=2, adaptive=tight
        )
        assert b.from_cache and b.values == a.values
        assert not c.from_cache
        assert c.trials > a.trials
        # A fixed-count run must not collide with the adaptive entry.
        fixed = engine.run(_offset_trial, experiment="t", trials=400, seed=2)
        assert fixed.trials == 400
