"""Tests for the telemetry document validators behind ``repro obs validate``.

CI validates every freshly emitted ``--trace``/``--metrics``/``--json``
file with these checks, so each structural rule must actually reject the
document it guards.  Every case below starts from a valid document,
breaks exactly one thing, and asserts the validator names that problem.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.errors import ObsError
from repro.obs import bench
from repro.obs.schema import validate_bench_document
from repro.obs import (
    ENVELOPE_SCHEMA,
    Telemetry,
    build_manifest,
    make_envelope,
    summarize_file,
    validate_envelope_document,
    validate_file,
    validate_manifest_document,
    validate_metrics_document,
    validate_trace_events,
)


def _manifest() -> dict:
    return build_manifest(
        "schema-test", seed=3, trials=4, workers=2, wall_s=0.25, busy_s=0.2
    ).to_dict()


def _envelope() -> dict:
    return make_envelope(
        {"command": "fig6", "ok": True, "points": [1, 2]}, manifest=_manifest()
    )


def _metrics() -> dict:
    telemetry = Telemetry()
    telemetry.metrics.counter("runs").inc(2)
    telemetry.metrics.gauge("depth").set(5)
    histogram = telemetry.metrics.histogram("latency", buckets=(1.0, 10.0))
    for value in (0.5, 3.0, 30.0):
        histogram.observe(value)
    telemetry.record_manifest(build_manifest("schema-test", trials=1))
    return telemetry.metrics_document()


def _bench() -> dict:
    cases = {"a": bench.case(
        exact={"n": 3},
        samples={"x": [0.1, 0.2, 0.3]},
        phases={"build_s": 0.01},
        gates=[bench.at_least("speedup", 6.0, 5.0)],
    )}
    return bench.build_record("schema-test", {"seed": 1}, cases, None, 0.5)


def _trace() -> list:
    return [
        {"name": "run", "ph": "X", "ts": 0.0, "dur": 5.0, "pid": 1, "tid": 1},
        {"name": "mark", "ph": "i", "ts": 2.0, "pid": 1, "tid": 1},
    ]


def _set(path, value):
    """Mutation setting ``doc[path[0]][path[1]]... = value``."""
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


def _drop(path):
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
    return mutate


def _problems(validator, build, mutate):
    doc = copy.deepcopy(build())
    mutate(doc)
    return validator(doc)


class TestValidBaselines:
    @pytest.mark.parametrize(
        "validator,build",
        [
            pytest.param(validate_envelope_document, _envelope, id="envelope"),
            pytest.param(validate_manifest_document, _manifest, id="manifest"),
            pytest.param(validate_metrics_document, _metrics, id="metrics"),
            pytest.param(validate_trace_events, _trace, id="trace"),
            pytest.param(validate_bench_document, _bench, id="bench"),
        ],
    )
    def test_unbroken_document_is_valid(self, validator, build):
        assert validator(build()) == []

    @pytest.mark.parametrize(
        "validator",
        [
            validate_envelope_document,
            validate_manifest_document,
            validate_metrics_document,
            validate_bench_document,
        ],
        ids=["envelope", "manifest", "metrics", "bench"],
    )
    def test_non_object_rejected(self, validator):
        problems = validator(["not", "an", "object"])
        assert len(problems) == 1
        assert "must be a JSON object" in problems[0]


class TestEnvelopeValidation:
    @pytest.mark.parametrize(
        "mutate,expected",
        [
            pytest.param(_set(["schema"], "repro/v0"), "expected 'repro/v1'",
                         id="wrong-schema"),
            pytest.param(_set(["command"], ""), "'command' must be a non-empty string",
                         id="empty-command"),
            pytest.param(_set(["command"], 6), "'command' must be a non-empty string",
                         id="non-string-command"),
            pytest.param(_set(["ok"], 1), "'ok' must be a boolean", id="ok-not-bool"),
            pytest.param(_drop(["result"]), "missing field 'result'",
                         id="missing-result"),
            pytest.param(_set(["result"], [1]), "'result' must be an object",
                         id="result-not-object"),
            pytest.param(_drop(["manifest"]), "missing field 'manifest'",
                         id="missing-manifest"),
            pytest.param(_set(["manifest", "trials"], "4"),
                         "manifest: field 'trials' must be int",
                         id="bad-embedded-manifest"),
        ],
    )
    def test_single_defect_is_reported(self, mutate, expected):
        problems = _problems(validate_envelope_document, _envelope, mutate)
        assert any(expected in p for p in problems), problems

    def test_null_manifest_is_valid(self):
        doc = make_envelope({"command": "table1"})
        assert doc["manifest"] is None
        assert validate_envelope_document(doc) == []


class TestMakeEnvelope:
    def test_command_and_ok_lifted_out_of_result(self):
        doc = make_envelope({"command": "noc", "ok": False, "cycles": 20})
        assert doc["schema"] == ENVELOPE_SCHEMA
        assert doc["command"] == "noc"
        assert doc["ok"] is False
        assert doc["result"] == {"cycles": 20}

    def test_ok_defaults_to_true(self):
        doc = make_envelope({"command": "noc"})
        assert doc["ok"] is True
        assert doc["result"] == {}


class TestManifestValidation:
    @pytest.mark.parametrize(
        "mutate,expected",
        [
            pytest.param(_set(["schema"], "repro.manifest/0"),
                         "expected 'repro.manifest/1'", id="wrong-schema"),
            pytest.param(_drop(["created_at"]), "missing field 'created_at'",
                         id="missing-field"),
            pytest.param(_set(["experiment"], 7), "field 'experiment' must be str",
                         id="experiment-not-str"),
            pytest.param(_set(["workers"], 2.0), "field 'workers' must be int",
                         id="workers-not-int"),
            pytest.param(_set(["from_cache"], "no"), "field 'from_cache' must be bool",
                         id="from-cache-not-bool"),
            pytest.param(_set(["extra"], []), "field 'extra' must be dict",
                         id="extra-not-dict"),
            pytest.param(_set(["wall_s"], "0.25"), "field 'wall_s' must be a number",
                         id="wall-not-number"),
        ],
    )
    def test_single_defect_is_reported(self, mutate, expected):
        problems = _problems(validate_manifest_document, _manifest, mutate)
        assert any(expected in p for p in problems), problems


class TestMetricsValidation:
    @pytest.mark.parametrize(
        "mutate,expected",
        [
            pytest.param(_set(["schema"], "repro.metrics/0"),
                         "expected 'repro.metrics/1'", id="wrong-schema"),
            pytest.param(_set(["counters"], []), "'counters' must be an object",
                         id="counters-not-object"),
            pytest.param(_set(["gauges", "depth"], "5"),
                         "gauges['depth'] must be a number", id="gauge-not-number"),
            pytest.param(_set(["histograms"], None), "'histograms' must be an object",
                         id="histograms-not-object"),
            pytest.param(_set(["histograms", "latency"], 3),
                         "histogram 'latency': not an object",
                         id="histogram-not-object"),
            pytest.param(_drop(["histograms", "latency", "p99"]),
                         "histogram 'latency': 'p99' must be a number",
                         id="histogram-missing-percentile"),
            pytest.param(_set(["histograms", "latency", "buckets"], []),
                         "histogram 'latency': missing 'buckets'",
                         id="histogram-no-buckets"),
            pytest.param(_set(["histograms", "latency", "buckets", 0], [1.0]),
                         "bucket[0] must be [bound, count]",
                         id="malformed-bucket"),
            pytest.param(_set(["histograms", "latency", "count"], 4),
                         "bucket counts sum to 3, 'count' is 4",
                         id="bucket-count-mismatch"),
            pytest.param(_set(["manifests"], {}), "'manifests' must be a list",
                         id="manifests-not-list"),
            pytest.param(_drop(["manifests", 0, "trials"]),
                         "manifests[0]: missing field 'trials'",
                         id="bad-embedded-manifest"),
        ],
    )
    def test_single_defect_is_reported(self, mutate, expected):
        problems = _problems(validate_metrics_document, _metrics, mutate)
        assert any(expected in p for p in problems), problems


class TestBenchValidation:
    @pytest.mark.parametrize(
        "mutate,expected",
        [
            pytest.param(_set(["schema"], "repro.bench/0"),
                         "expected 'repro.bench/1'", id="wrong-schema"),
            pytest.param(_drop(["cases", "a", "gates", 0, "bound"]),
                         "cases['a']: gates[0] (speedup) no bound", id="gate-without-bound"),
            pytest.param(_set(["cases", "a", "gates", 0, "verdict"], False),
                         "cases['a']: gates[0] (speedup) verdict False disagrees "
                         "with value 6.0 and bound 5.0", id="verdict-disagrees"),
            pytest.param(_set(["cases", "a", "exact", "n"], "3"),
                         "cases['a']: exact.n must be a number", id="exact-not-number"),
            pytest.param(_set(["cases", "a", "exact", "n"], True),
                         "cases['a']: exact.n must be a number", id="exact-bool"),
            pytest.param(_set(["cases", "a", "phases", "build_s"], None),
                         "cases['a']: phases.build_s must be a number",
                         id="phase-not-number"),
            pytest.param(_set(["cases", "a", "timings", "x", "n"], 0),
                         "cases['a']: timings.x must hold", id="timing-without-samples"),
            pytest.param(_set(["cases", "a", "gates", 0, "kind"], "near"),
                         "cases['a']: gates[0] (speedup) kind 'near' is not one of",
                         id="unknown-gate-kind"),
            pytest.param(_drop(["cases", "a", "gates", 0, "field"]),
                         "cases['a']: gates[0] 'field' must be a non-empty string",
                         id="gate-without-field"),
            pytest.param(_set(["cases"], {}), "'cases' must be a non-empty object",
                         id="no-cases"),
            pytest.param(_drop(["manifest", "git"]), "manifest: missing field 'git'",
                         id="bad-manifest"),
        ],
    )
    def test_single_defect_is_reported(self, mutate, expected):
        problems = _problems(validate_bench_document, _bench, mutate)
        assert any(expected in p for p in problems), problems

    def test_committed_records_are_bench_records(self):
        records = sorted(
            (Path(__file__).resolve().parents[1] / "benchmarks").glob("BENCH_*.json")
        )
        assert len(records) == 6
        for path in records:
            assert validate_file(str(path)) == ("bench", []), path


class TestTraceValidation:
    @pytest.mark.parametrize(
        "mutate,expected",
        [
            pytest.param(_set([0], "event"), "event[0]: not an object",
                         id="event-not-object"),
            pytest.param(_drop([1, "name"]), "event[1]: missing 'name'",
                         id="missing-name"),
            pytest.param(_set([1, "ph"], "Q"), "event[1]: unknown phase 'Q'",
                         id="unknown-phase"),
            pytest.param(_set([1, "ts"], "2"), "event[1]: 'ts' must be a number",
                         id="ts-not-number"),
            pytest.param(_drop([0, "dur"]), "event[0]: complete event missing 'dur'",
                         id="complete-without-dur"),
            pytest.param(_set([0, "tid"], "main"), "event[0]: 'tid' must be a number",
                         id="tid-not-number"),
        ],
    )
    def test_single_defect_is_reported(self, mutate, expected):
        problems = _problems(validate_trace_events, _trace, mutate)
        assert any(expected in p for p in problems), problems

    def test_empty_trace_rejected(self):
        assert validate_trace_events([]) == ["trace contains no events"]

    def test_non_list_rejected(self):
        assert validate_trace_events({"ph": "X"}) == ["trace events must be a list"]


class TestFileSniffing:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "build,kind",
        [
            pytest.param(_envelope, "envelope", id="envelope"),
            pytest.param(_manifest, "manifest", id="manifest"),
            pytest.param(_metrics, "metrics", id="metrics"),
            pytest.param(_bench, "bench", id="bench"),
            pytest.param(_trace, "trace", id="bare-event-list"),
            pytest.param(lambda: {"traceEvents": _trace()}, "trace",
                         id="chrome-object"),
        ],
    )
    def test_kind_detected_and_valid(self, tmp_path, build, kind):
        path = self._write(tmp_path, "doc.json", build())
        assert validate_file(path) == (kind, [])

    def test_jsonl_trace_detected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in _trace()))
        assert validate_file(str(path)) == ("trace", [])

    def test_sniffed_kind_reports_its_problems(self, tmp_path):
        doc = _envelope()
        doc["ok"] = "yes"
        kind, problems = validate_file(self._write(tmp_path, "env.json", doc))
        assert kind == "envelope"
        assert problems == ["'ok' must be a boolean"]

    def test_unrecognisable_document_raises(self, tmp_path):
        path = self._write(tmp_path, "other.json", {"hello": "world"})
        with pytest.raises(ObsError, match="not a recognisable telemetry file"):
            validate_file(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ObsError):
            validate_file(str(tmp_path / "absent.json"))


class TestSummarizeFile:
    def test_envelope_summary(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text(json.dumps(_envelope()))
        kind, text = summarize_file(str(path))
        assert kind == "envelope"
        assert "command: fig6  ok: True" in text
        assert "manifest: yes" in text
        assert "result keys: points" in text

    def test_bench_summary(self, tmp_path):
        path = tmp_path / "BENCH_toy.json"
        path.write_text(json.dumps(_bench()))
        kind, text = summarize_file(str(path))
        assert kind == "bench"
        assert "exact: n 3" in text
        assert "gate speedup 6 >= 5: ok" in text

    def test_manifest_summary(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        path.write_text(json.dumps(_manifest()))
        kind, text = summarize_file(str(path))
        assert kind == "manifest"
        assert "schema-test" in text
        assert "workers" in text

    def test_invalid_file_is_an_error(self, tmp_path):
        doc = _metrics()
        doc["counters"] = []
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ObsError, match="invalid metrics file"):
            summarize_file(str(path))
