"""Tests for the unified telemetry layer (repro.obs).

Covers the four contract areas the layer promises:

* registry semantics — enabled registries record, disabled registries
  hand out true no-op instruments;
* histogram percentile estimates track numpy within a bucket's width;
* traces round-trip through both sink formats and validate against the
  trace schema;
* run manifests are deterministic for identical runs and record cache
  provenance — plus the CLI/engine integration glue around all of it.
"""

import json
import threading

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.engine import ExperimentEngine, ResultCache
from repro.errors import ObsError
from repro.obs import (
    MANIFEST_SCHEMA,
    METRICS_SCHEMA,
    Counter,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Telemetry,
    Tracer,
    build_manifest,
    current_telemetry,
    read_manifest,
    read_trace,
    resolve_telemetry,
    set_telemetry,
    summarize_file,
    use_telemetry,
    validate_file,
    validate_manifest_document,
    validate_metrics_document,
    validate_trace_events,
)


def _noise_trial(ctx):
    return float(ctx.rng.normal())


class TestRegistry:
    def test_counter_gauge_histogram_record(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(3.0)
        assert registry.counter("c").value == 5
        assert registry.gauge("g").value == 2.5
        assert registry.histogram("h").count == 1

    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("net.delivered", network="XY").inc()
        registry.counter("net.delivered", network="YX").inc(2)
        assert registry.counter("net.delivered", network="XY").value == 1
        assert registry.counter("net.delivered", network="YX").value == 2

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")

    def test_negative_counter_increment_rejected(self):
        with pytest.raises(ObsError):
            Counter("c").inc(-1)

    def test_disabled_registry_is_a_true_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        counter.inc(100)
        registry.gauge("g").set(9)
        registry.histogram("h").observe(1.0)
        assert len(registry) == 0
        assert counter.value == 0
        doc = registry.to_dict()
        assert doc["counters"] == {}
        assert doc["gauges"] == {}
        assert doc["histograms"] == {}

    def test_document_has_schema_and_validates(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.histogram("h").observe(2.0)
        doc = registry.to_dict()
        assert doc["schema"] == METRICS_SCHEMA
        assert validate_metrics_document(doc) == []


class TestHistogram:
    def test_percentiles_track_numpy_within_bucket_width(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(0.0, 100.0, size=5000)
        buckets = tuple(float(b) for b in range(1, 101))
        hist = Histogram("h", buckets=buckets)
        for s in samples:
            hist.observe(float(s))
        for q in (50, 90, 99):
            estimate = hist.percentile(q)
            exact = float(np.percentile(samples, q))
            # Linear interpolation within a unit-wide bucket: the
            # estimate can be off by at most one bucket width.
            assert abs(estimate - exact) <= 1.0

    def test_percentile_clamped_to_observed_range(self):
        hist = Histogram("h", buckets=(10.0, 100.0))
        hist.observe(42.0)
        assert hist.percentile(0) == 42.0
        assert hist.percentile(100) == 42.0

    def test_overflow_bucket_counts(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(50.0)
        assert hist.count == 1
        snap = hist.snapshot()
        assert snap["buckets"][-1] == ["inf", 1]

    def test_mean_and_bounds(self):
        hist = Histogram("h", buckets=(10.0, 20.0))
        hist.observe(5.0)
        hist.observe(15.0)
        assert hist.mean == pytest.approx(10.0)
        snap = hist.snapshot()
        assert snap["min"] == 5.0 and snap["max"] == 15.0

    def test_non_monotonic_buckets_rejected(self):
        with pytest.raises(ObsError):
            Histogram("h", buckets=(2.0, 1.0))


class TestTracer:
    def test_chrome_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.begin("work", cat="test", step=1)
        tracer.end("work", cat="test")
        tracer.complete("span", ts=10.0, dur=5.0, cat="test")
        tracer.instant("marker", cat="test")
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        events = read_trace(str(path))
        assert validate_trace_events(events) == []
        names = [e["name"] for e in events]
        assert {"work", "span", "marker"} <= set(names)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc      # Chrome/Perfetto loadable shape

    def test_jsonl_roundtrip_matches_chrome_events(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", cat="t"):
            tracer.instant("inner", cat="t")
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        tracer.write(str(chrome))
        tracer.write(str(jsonl))
        assert read_trace(str(chrome)) == read_trace(str(jsonl))

    def test_named_tracks_emit_metadata_once(self):
        tracer = Tracer()
        tracer.name_track(3, "tile (0,2)")
        tracer.name_track(3, "tile (0,2)")
        meta = [e for e in tracer.events if e["ph"] == "M" and e.get("tid") == 3]
        assert len(meta) == 1
        assert meta[0]["args"]["name"] == "tile (0,2)"

    def test_explicit_cycle_timestamps_preserved(self):
        tracer = Tracer()
        tracer.complete("noc.step", ts=17, dur=1, cat="noc")
        event = [e for e in tracer.events if e["name"] == "noc.step"][0]
        assert event["ts"] == 17 and event["dur"] == 1

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        tracer.begin("x")
        tracer.complete("y", ts=0, dur=1)
        with tracer.span("z"):
            pass
        assert tracer.events == []

    def test_read_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {{{")
        with pytest.raises(ObsError):
            read_trace(str(path))


class TestManifest:
    def test_identity_is_deterministic(self):
        cfg = SystemConfig(rows=4, cols=4)
        a = build_manifest("exp", config=cfg, params={"p": 1}, seed=7,
                           trials=3, workers=2)
        b = build_manifest("exp", config=cfg, params={"p": 1}, seed=7,
                           trials=3, workers=2)
        assert a.identity() == b.identity()
        assert a.config_hash is not None

    def test_identity_changes_with_inputs(self):
        cfg = SystemConfig(rows=4, cols=4)
        base = build_manifest("exp", config=cfg, seed=0, trials=3, workers=1)
        other_seed = build_manifest("exp", config=cfg, seed=1, trials=3, workers=1)
        other_cfg = build_manifest(
            "exp", config=SystemConfig(rows=8, cols=8), seed=0, trials=3, workers=1
        )
        assert base.identity() != other_seed.identity()
        assert base.config_hash != other_cfg.config_hash

    def test_roundtrip_and_schema(self, tmp_path):
        manifest = build_manifest("exp", seed=0, trials=2, workers=1,
                                  wall_s=0.5, busy_s=0.4)
        path = tmp_path / "run.manifest.json"
        manifest.write(str(path))
        doc = json.loads(path.read_text())
        assert doc["schema"] == MANIFEST_SCHEMA
        assert validate_manifest_document(doc) == []
        assert read_manifest(str(path)).identity() == manifest.identity()

    def test_engine_records_manifest_and_cache_provenance(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        telemetry = Telemetry()
        engine = ExperimentEngine(cache=cache, telemetry=telemetry)
        engine.run(_noise_trial, experiment="obs-test", trials=3, seed=0)
        engine.run(_noise_trial, experiment="obs-test", trials=3, seed=0)
        manifests = telemetry.manifests
        assert len(manifests) == 2
        assert not manifests[0].from_cache
        assert manifests[1].from_cache
        assert manifests[0].identity() == manifests[1].identity()
        assert manifests[1].cache_hits == 1
        doc = telemetry.metrics_document()
        assert doc["counters"]["engine.cache_hits{experiment=obs-test}"] == 1
        assert doc["counters"]["engine.cache_misses{experiment=obs-test}"] == 1
        assert validate_metrics_document(doc) == []

    def test_manifest_sidecars_written(self, tmp_path):
        telemetry = Telemetry(manifest_dir=str(tmp_path))
        engine = ExperimentEngine(telemetry=telemetry)
        engine.run(_noise_trial, experiment="side", trials=2, seed=0)
        sidecars = list(tmp_path.glob("*.manifest.json"))
        assert len(sidecars) == 1
        assert read_manifest(str(sidecars[0])).experiment == "side"


class TestAmbientTelemetry:
    def test_default_is_disabled(self):
        assert not current_telemetry().enabled
        assert not resolve_telemetry(None).enabled

    def test_use_telemetry_installs_and_restores(self):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            assert current_telemetry() is telemetry
            assert resolve_telemetry(None) is telemetry
        assert not current_telemetry().enabled

    def test_ambient_is_one_process_wide_global(self):
        telemetry = Telemetry()
        seen = []
        with use_telemetry(telemetry):
            thread = threading.Thread(target=lambda: seen.append(current_telemetry()))
            thread.start()
            thread.join()
        assert seen == [telemetry]

    def test_use_telemetry_restores_on_exception(self):
        outer, inner = Telemetry(), Telemetry()
        with use_telemetry(outer):
            with pytest.raises(RuntimeError):
                with use_telemetry(inner):
                    assert current_telemetry() is inner
                    raise RuntimeError("boom")
            assert current_telemetry() is outer
        assert not current_telemetry().enabled

    def test_set_telemetry_none_installs_disabled_default(self):
        telemetry = Telemetry()
        previous = set_telemetry(telemetry)
        try:
            assert set_telemetry(None) is telemetry
            assert not current_telemetry().enabled
        finally:
            set_telemetry(previous)

    def test_disabled_telemetry_keeps_no_manifests(self, tmp_path):
        telemetry = Telemetry(enabled=False, manifest_dir=str(tmp_path / "m"))
        telemetry.record_manifest(build_manifest("off", trials=1))
        assert telemetry.manifests == []
        assert not (tmp_path / "m").exists()

    def test_explicit_argument_wins_over_ambient(self):
        explicit = Telemetry()
        with use_telemetry(Telemetry()):
            assert resolve_telemetry(explicit) is explicit

    def test_engine_without_telemetry_records_nothing(self):
        telemetry = Telemetry()           # never installed, never passed
        ExperimentEngine().run(_noise_trial, experiment="t", trials=2, seed=0)
        assert telemetry.manifests == []
        assert len(telemetry.metrics) == 0


class TestCliIntegration:
    def test_trace_and_metrics_flags_produce_valid_files(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        code = main([
            "--trace", str(trace), "--metrics", str(metrics),
            "noc", "--rows", "4", "--cols", "4", "--cycles", "30",
        ])
        assert code == 0
        kind, problems = validate_file(str(trace))
        assert (kind, problems) == ("trace", [])
        kind, problems = validate_file(str(metrics))
        assert (kind, problems) == ("metrics", [])
        events = read_trace(str(trace))
        cats = {e.get("cat") for e in events}
        assert "noc.sim" in cats and "noc.router" in cats
        doc = json.loads(metrics.read_text())
        assert doc["histograms"]["noc.latency_cycles"]["count"] > 0

    def test_obs_summarize_renders_metrics(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "m.json"
        main(["--metrics", str(metrics),
              "noc", "--rows", "4", "--cols", "4", "--cycles", "20"])
        capsys.readouterr()
        assert main(["obs", "summarize", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "noc.latency_cycles" in out
        kind, text = summarize_file(str(metrics))
        assert kind == "metrics" and "histograms" in text

    def test_obs_validate_flags_invalid_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": METRICS_SCHEMA,
                                   "counters": {"c": "not-a-number"}}))
        assert main(["obs", "validate", str(bad)]) == 1

    def test_output_identical_without_sink_flags(self, tmp_path, capsys):
        from repro.cli import main

        cmd = ["noc", "--rows", "4", "--cols", "4", "--cycles", "30"]
        main(cmd)
        plain = capsys.readouterr().out
        main(["--trace", str(tmp_path / "t.json")] + cmd)
        traced = capsys.readouterr().out
        main(cmd)
        plain_again = capsys.readouterr().out
        assert plain == traced == plain_again


class TestZeroOverheadContract:
    """Instrumented subsystems behave identically with no telemetry."""

    def test_noc_simulator_reports_match(self):
        from repro.noc.dualnetwork import NetworkId
        from repro.noc.simulator import NocSimulator
        from repro.workloads.traffic import TrafficPattern, generate_traffic

        cfg = SystemConfig(rows=4, cols=4)

        def drive(telemetry):
            sim = NocSimulator(cfg, telemetry=telemetry)
            for cycle, packet in generate_traffic(
                cfg, TrafficPattern.UNIFORM, 0.1, 40, seed=3
            ):
                while sim.cycle < cycle:
                    sim.step()
                sim.inject(packet, network=NetworkId.XY)
            sim.drain()
            return sim.report()

        plain = drive(None)
        disabled = drive(Telemetry.disabled())
        enabled = drive(Telemetry())
        for report in (disabled, enabled):
            assert report.delivered == plain.delivered
            assert report.latencies == plain.latencies
            assert report.cycles == plain.cycles

    def test_engine_values_match(self):
        plain = ExperimentEngine().run(
            _noise_trial, experiment="t", trials=4, seed=9
        )
        traced = ExperimentEngine(telemetry=Telemetry()).run(
            _noise_trial, experiment="t", trials=4, seed=9
        )
        assert plain.values == traced.values
