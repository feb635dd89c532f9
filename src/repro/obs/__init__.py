"""Unified telemetry layer: metrics, event tracing, run manifests.

``repro.obs`` is the instrumentation subsystem shared by the simulators,
the experiment engine and the CLI:

* :class:`MetricsRegistry` — counters, gauges and fixed-bucket
  histograms with percentile estimates; cheap when enabled and a true
  no-op when disabled;
* :class:`Tracer` — structured events in the Chrome ``trace_event``
  format (loadable in ``chrome://tracing`` / Perfetto) or JSONL, with
  nested spans and explicit timestamps (wall-clock microseconds or
  simulation cycles);
* :class:`RunManifest` — a JSON provenance sidecar per engine run
  (config hash, seed, workers, git describe, version, wall/busy time,
  cache outcome);
* :class:`Telemetry` — the facade bundling the three, installable as
  the *ambient* telemetry (:func:`use_telemetry`) so CLI flags reach
  every instrumented subsystem without parameter threading.

Quick start::

    from repro.obs import Telemetry, use_telemetry
    from repro.noc.simulator import NocSimulator

    tel = Telemetry()
    with use_telemetry(tel):
        sim = NocSimulator(config)       # picks up the ambient telemetry
        ...
    tel.write_trace("trace.json")        # open in ui.perfetto.dev
    tel.write_metrics("metrics.json")    # repro obs summarize metrics.json

See ``docs/observability.md`` for concepts and sink formats.
"""

from .manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    build_manifest,
    config_hash,
    git_describe,
    read_manifest,
)
from .metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA,
    TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)
from .diff import (
    DiffEntry,
    DiffReport,
    diff_documents,
    diff_files,
    flatten_numeric,
)
from .schema import (
    ENVELOPE_SCHEMA,
    make_envelope,
    validate_envelope_document,
    validate_file,
    validate_manifest_document,
    validate_metrics_document,
    validate_trace_events,
)
from .snapshot import (
    TelemetrySnapshot,
    capture_snapshot,
    merge_snapshot,
    worker_telemetry,
)
from .summary import (
    summarize_file,
    summarize_manifest_document,
    summarize_metrics_document,
    summarize_trace_events,
)
from .telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    current_telemetry,
    resolve_telemetry,
    set_telemetry,
    use_telemetry,
)
from .trace import (
    NULL_TRACER,
    TRACE_SCHEMA,
    NullTracer,
    Tracer,
    read_trace,
    read_trace_with_warnings,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "TIME_BUCKETS_S",
    "METRICS_SCHEMA",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TRACE_SCHEMA",
    "read_trace",
    "read_trace_with_warnings",
    "TelemetrySnapshot",
    "capture_snapshot",
    "merge_snapshot",
    "worker_telemetry",
    "DiffEntry",
    "DiffReport",
    "diff_documents",
    "diff_files",
    "flatten_numeric",
    "RunManifest",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "config_hash",
    "git_describe",
    "read_manifest",
    "Telemetry",
    "NULL_TELEMETRY",
    "current_telemetry",
    "set_telemetry",
    "use_telemetry",
    "resolve_telemetry",
    "ENVELOPE_SCHEMA",
    "make_envelope",
    "validate_envelope_document",
    "validate_file",
    "validate_trace_events",
    "validate_metrics_document",
    "validate_manifest_document",
    "summarize_file",
    "summarize_trace_events",
    "summarize_metrics_document",
    "summarize_manifest_document",
]
