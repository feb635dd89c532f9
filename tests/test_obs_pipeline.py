"""The cross-process telemetry pipeline: capture → merge → diff.

Covers the observability tentpole end to end:

* :meth:`MetricsRegistry.dump` / :meth:`MetricsRegistry.merge` algebra
  (counters sum, histogram buckets add, gauges last-write, labels
  preserved, kind/bucket mismatches rejected);
* worker snapshots (:mod:`repro.obs.snapshot`) and the headline
  correctness property: an N-worker engine run's merged telemetry —
  counter totals, histogram bucket counts, label sets and non-meta
  trace-event counts — is **identical** to the single-worker run's;
* metrics/bench document diffing (:mod:`repro.obs.diff`);
* truncated-trailing-JSONL tolerance in :func:`read_trace`.
"""

import json

import pytest

from repro.cli import run_obs
from repro.config import SystemConfig
from repro.engine.core import ExperimentEngine
from repro.errors import ObsError
from repro.obs import (
    MetricsRegistry,
    Telemetry,
    TelemetrySnapshot,
    Tracer,
    capture_snapshot,
    current_telemetry,
    diff_documents,
    merge_snapshot,
    read_trace,
    read_trace_with_warnings,
    summarize_file,
    use_telemetry,
    validate_file,
)


# ---------------------------------------------------------------------------
# Registry merge algebra.
# ---------------------------------------------------------------------------


class TestRegistryMerge:
    def test_counters_sum_and_labels_survive(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("noc.injected", network="data").inc(3)
        a.counter("plain").inc(1)
        b.counter("noc.injected", network="data").inc(4)
        b.counter("noc.injected", network="resp").inc(9)
        a.merge(b.dump())
        assert a.counter("noc.injected", network="data").value == 7
        assert a.counter("noc.injected", network="resp").value == 9
        assert a.counter("plain").value == 1

    def test_gauges_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth").set(5)
        b.gauge("depth").set(2)
        a.merge(b.dump())
        assert a.gauge("depth").value == 2

    def test_histograms_add_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        bounds = [1.0, 10.0, 100.0]
        for value in (0.5, 5.0, 50.0):
            a.histogram("lat", buckets=bounds).observe(value)
        for value in (0.7, 500.0):
            b.histogram("lat", buckets=bounds).observe(value)
        a.merge(b.dump())
        h = a.histogram("lat", buckets=bounds)
        assert h.count == 5
        assert h.counts == [2, 1, 1, 1]
        assert h.min == 0.5
        assert h.max == 500.0
        assert h.total == pytest.approx(0.5 + 5 + 50 + 0.7 + 500)

    def test_merge_into_empty_is_identity(self):
        src, dst = MetricsRegistry(), MetricsRegistry()
        src.counter("c", kind="x").inc(2)
        src.gauge("g").set(1.5)
        src.histogram("h", buckets=[1, 2]).observe(1.7)
        dst.merge(src.dump())
        assert dst.to_dict() == src.to_dict()

    def test_mismatched_buckets_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=[1, 2]).observe(1)
        b.histogram("h", buckets=[1, 2, 3]).observe(1)
        with pytest.raises(ObsError, match="mismatched buckets"):
            a.merge(b.dump())

    def test_kind_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc()
        b.gauge("x").set(1)
        with pytest.raises(ObsError, match="already registered"):
            a.merge(b.dump())

    def test_disabled_registry_ignores_merge(self):
        src = MetricsRegistry()
        src.counter("c").inc(5)
        dst = MetricsRegistry(enabled=False)
        dst.merge(src.dump())
        assert len(dst) == 0


# ---------------------------------------------------------------------------
# Worker snapshots.
# ---------------------------------------------------------------------------


class TestSnapshot:
    def test_capture_and_merge_roundtrip(self):
        worker = Telemetry(tracer=Tracer(process_name=""))
        worker.metrics.counter("noc.injected", network="data").inc(6)
        worker.metrics.histogram("lat", buckets=[1, 2]).observe(1.5)
        worker.tracer.instant("evt")
        snap = capture_snapshot(worker)
        assert not snap.empty

        driver = Telemetry()
        merge_snapshot(driver, snap)
        doc = driver.metrics_document()
        assert doc["counters"]["noc.injected{network=data}"] == 6
        assert doc["histograms"]["lat"]["count"] == 1
        names = [e["name"] for e in driver.tracer.events if e["ph"] != "M"]
        assert "evt" in names

    def test_foreign_pid_gets_named_track_once(self):
        driver = Telemetry()
        events = [{"name": "e", "ph": "i", "ts": 0, "pid": 999, "tid": 0}]
        snap = TelemetrySnapshot(pid=999, events=events)
        merge_snapshot(driver, snap)
        merge_snapshot(driver, TelemetrySnapshot(pid=999, events=events))
        metas = [
            e for e in driver.tracer.events
            if e["ph"] == "M" and e.get("pid") == 999
        ]
        assert len(metas) == 1
        assert metas[0]["args"]["name"] == "worker-999"

    def test_disabled_driver_ignores_snapshot(self):
        driver = Telemetry.disabled()
        snap = TelemetrySnapshot(
            pid=1, metrics=[{"kind": "counter", "key": "c", "value": 3}]
        )
        merge_snapshot(driver, snap)
        assert len(driver.metrics) == 0


# ---------------------------------------------------------------------------
# The headline property: worker count never changes merged telemetry.
# ---------------------------------------------------------------------------


def _noc_trial(ctx):
    """One small NoC simulation recording real in-simulator metrics."""
    from repro.noc.dualnetwork import NetworkId
    from repro.noc.simulator import NocSimulator
    from repro.workloads.traffic import TrafficPattern, generate_traffic

    config = ctx.config
    sim = NocSimulator(config, engine="reference")
    traffic = generate_traffic(
        config, TrafficPattern.UNIFORM, 0.1, 20,
        seed=int(ctx.rng.integers(0, 2**31)),
    )
    for _, packet in traffic:
        sim.inject(packet, NetworkId.XY)
    for _ in range(20):
        sim.step()
    sim.drain(max_cycles=5_000)
    return sim.report().delivered


def _run_with_workers(workers: int) -> Telemetry:
    telemetry = Telemetry()
    engine = ExperimentEngine(workers=workers, cache=None, telemetry=telemetry)
    engine.run(
        _noc_trial,
        experiment="pipeline-eq",
        trials=8,
        seed=42,
        config=SystemConfig(rows=4, cols=4),
    )
    return telemetry


class TestWorkerMergeEquality:
    def test_multiworker_metrics_equal_single_worker(self):
        tel_1 = _run_with_workers(1)
        tel_4 = _run_with_workers(4)
        doc_1 = tel_1.metrics_document()
        doc_4 = tel_4.metrics_document()

        # In-simulator metrics made it back from the workers at all.
        assert any(k.startswith("noc.") for k in doc_4["counters"])
        # Counter totals and label sets are exactly equal.
        assert doc_1["counters"] == doc_4["counters"]
        # Histograms: observation counts always match; cycle-domain
        # simulator histograms match to the bucket level too (wall-time
        # histograms like engine.trial_seconds measure contention, so
        # their bucket *placement* legitimately varies with workers).
        assert set(doc_1["histograms"]) == set(doc_4["histograms"])
        assert any(k.startswith("noc.") for k in doc_1["histograms"])
        for key, snap in doc_1["histograms"].items():
            assert doc_4["histograms"][key]["count"] == snap["count"], key
            if key.startswith("noc."):
                assert doc_4["histograms"][key]["buckets"] == snap["buckets"], key

        # Trace events: workers>1 adds one process_name meta event per
        # worker pid, so equality is over *non-meta* events.
        events_1 = [e for e in tel_1.tracer.events if e.get("ph") != "M"]
        events_4 = [e for e in tel_4.tracer.events if e.get("ph") != "M"]
        assert len(events_1) == len(events_4)

    def test_disabled_telemetry_ships_no_snapshots(self):
        telemetry = Telemetry.disabled()
        engine = ExperimentEngine(workers=2, cache=None, telemetry=telemetry)
        result = engine.run(
            _noc_trial,
            experiment="pipeline-off",
            trials=4,
            seed=1,
            config=SystemConfig(rows=4, cols=4),
        )
        assert len(result.values) == 4
        assert len(telemetry.metrics) == 0

    def test_inline_capture_restores_ambient(self):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            ExperimentEngine(workers=1, cache=None).run(
                _noc_trial,
                experiment="pipeline-inline",
                trials=2,
                seed=3,
                config=SystemConfig(rows=4, cols=4),
            )
            assert current_telemetry() is telemetry
        assert telemetry.metrics_document()["counters"]

    def test_pooled_run_leaves_ambient_installed(self):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            ExperimentEngine(workers=2, cache=None).run(
                _noc_trial,
                experiment="pipeline-pooled",
                trials=2,
                seed=3,
                config=SystemConfig(rows=4, cols=4),
            )
            assert current_telemetry() is telemetry
        assert telemetry.metrics_document()["counters"]


# ---------------------------------------------------------------------------
# Document diffing.
# ---------------------------------------------------------------------------


class TestDiff:
    def test_cost_and_goodness_directions(self):
        a = {"m": {"overhead_pct": 10.0, "throughput": 100.0, "widgets": 5.0}}
        b = {"m": {"overhead_pct": 20.0, "throughput": 200.0, "widgets": 50.0}}
        report = diff_documents(a, b, threshold=0.1)
        kinds = {e.key: e.kind for e in report.entries}
        assert kinds["m.overhead_pct"] == "regression"      # cost grew
        assert kinds["m.throughput"] == "improvement"       # goodness grew
        assert kinds["m.widgets"] == "changed"              # neutral key

    def test_threshold_suppresses_noise(self):
        a = {"m": {"wall_s": 1.00}}
        b = {"m": {"wall_s": 1.05}}
        assert diff_documents(a, b, threshold=0.1).ok
        assert not diff_documents(a, b, threshold=0.01).ok

    def test_added_removed_and_ignore(self):
        a = {"old": 1.0, "wall_s": 1.0}
        b = {"new": 2.0, "wall_s": 9.0}
        report = diff_documents(a, b, ignore="wall")
        kinds = {e.key: e.kind for e in report.entries}
        assert kinds == {"old": "removed", "new": "added"}
        assert report.ok

    def test_zero_base_flags_growth(self):
        report = diff_documents({"misses": 0.0}, {"misses": 5.0})
        assert [e.kind for e in report.entries] == ["regression"]

    def test_cli_diff_exit_semantics(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"measured": {"overhead_pct": 5.0}}))
        b.write_text(json.dumps({"measured": {"overhead_pct": 9.0}}))
        result = run_obs("diff", [str(a), str(b)])
        assert not result["ok"]
        assert result["diff"]["regressions"] == 1
        result = run_obs("diff", [str(a), str(a)])
        assert result["ok"]
        with pytest.raises(SystemExit):
            run_obs("diff", [str(a)])


# ---------------------------------------------------------------------------
# Truncated trailing JSONL tolerance (the satellite fix).
# ---------------------------------------------------------------------------


def _event(name: str) -> dict:
    return {"name": name, "ph": "i", "ts": 1.0, "pid": 1, "tid": 0}


class TestTruncatedTrace:
    def test_trailing_truncation_dropped_with_warning(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(_event("a")) + "\n"
            + json.dumps(_event("b")) + "\n"
            + '{"name": "c", "ph"'          # killed mid-write
        )
        events, warnings = read_trace_with_warnings(str(path))
        assert [e["name"] for e in events] == ["a", "b"]
        assert len(warnings) == 1 and "truncated" in warnings[0]
        assert len(read_trace(str(path))) == 2

    def test_midfile_corruption_still_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(_event("a")) + "\n"
            + "{broken\n"
            + json.dumps(_event("b")) + "\n"
        )
        with pytest.raises(ObsError, match="bad JSONL event"):
            read_trace(str(path))

    def test_sole_truncated_line_is_an_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"name": "a", "ph"')
        with pytest.raises(ObsError):
            read_trace(str(path))

    def test_validate_and_summarize_tolerate_truncation(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(_event("a")) + "\n" + '{"name": "b", "ph'
        )
        kind, problems = validate_file(str(path))
        assert kind == "trace" and problems == []
        kind, text = summarize_file(str(path))
        assert "WARNING: 1 truncated trailing line(s) dropped" in text
        result = run_obs("validate", [str(path)])
        assert result["ok"]
