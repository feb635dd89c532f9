"""Schema validation for telemetry sink files.

Hand-rolled structural checks (no external JSON-schema dependency) for
the three document kinds the telemetry layer emits:

* **trace** — chrome ``trace_event`` JSON / JSONL (see
  :mod:`repro.obs.trace`);
* **metrics** — the counters/gauges/histograms document, optionally
  with embedded manifests (see :mod:`repro.obs.metrics`);
* **manifest** — a run-provenance sidecar (see
  :mod:`repro.obs.manifest`);
* **envelope** — the versioned ``repro/v1`` result envelope every CLI
  ``--json`` document is wrapped in (:func:`make_envelope`), so
  programmatic clients parse one shape.

Each ``validate_*`` function returns a list of human-readable problems
(empty = valid); :func:`validate_file` sniffs the kind from the content.
CI runs ``repro obs validate`` over freshly emitted files so drift in
the formats is caught at the source.
"""

from __future__ import annotations

import dataclasses
import json
from numbers import Number

from ..errors import ObsError
from .manifest import MANIFEST_SCHEMA, RunManifest
from .metrics import METRICS_SCHEMA
from .trace import KNOWN_PHASES, read_trace

#: Schema tag of the versioned result envelope of the CLI's ``--json``
#: output.
ENVELOPE_SCHEMA = "repro/v1"


def make_envelope(result: dict, *, manifest: dict | None = None) -> dict:
    """Wrap one structured command result in the ``repro/v1`` envelope.

    ``result`` is a ``run_*``-style dict; its ``command`` and ``ok``
    entries are lifted into the envelope and the remaining payload goes
    under ``"result"``.  ``manifest`` carries the run's provenance
    record (:class:`~repro.obs.manifest.RunManifest` as a dict) when
    telemetry recorded one, else ``None``.
    """
    body = {k: v for k, v in result.items() if k not in ("command", "ok")}
    return {
        "schema": ENVELOPE_SCHEMA,
        "command": result.get("command", ""),
        "ok": bool(result.get("ok", True)),
        "manifest": manifest,
        "result": body,
    }


def validate_envelope_document(doc: object) -> list[str]:
    """Structural problems in one ``repro/v1`` result envelope."""
    if not isinstance(doc, dict):
        return ["envelope must be a JSON object"]
    problems: list[str] = []
    if doc.get("schema") != ENVELOPE_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {ENVELOPE_SCHEMA!r}"
        )
    command = doc.get("command")
    if not isinstance(command, str) or not command:
        problems.append("'command' must be a non-empty string")
    if not isinstance(doc.get("ok"), bool):
        problems.append("'ok' must be a boolean")
    if "result" not in doc:
        problems.append("missing field 'result'")
    elif not isinstance(doc["result"], dict):
        problems.append("'result' must be an object")
    if "manifest" not in doc:
        problems.append("missing field 'manifest'")
    else:
        manifest = doc["manifest"]
        if manifest is not None:
            for problem in validate_manifest_document(manifest):
                problems.append(f"manifest: {problem}")
    return problems


def validate_trace_events(events: list) -> list[str]:
    """Structural problems in a list of chrome trace events."""
    problems: list[str] = []
    if not isinstance(events, list):
        return ["trace events must be a list"]
    if not events:
        problems.append("trace contains no events")
    for i, event in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing 'name'")
        phase = event.get("ph")
        if phase not in KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
        if not isinstance(event.get("ts"), Number):
            problems.append(f"{where}: 'ts' must be a number")
        if phase == "X" and not isinstance(event.get("dur"), Number):
            problems.append(f"{where}: complete event missing 'dur'")
        for key in ("pid", "tid"):
            if key in event and not isinstance(event[key], Number):
                problems.append(f"{where}: '{key}' must be a number")
    return problems


def _validate_histogram(key: str, snap: object) -> list[str]:
    problems: list[str] = []
    if not isinstance(snap, dict):
        return [f"histogram {key!r}: not an object"]
    for field in ("count", "sum", "min", "max", "mean", "p50", "p90", "p99"):
        if not isinstance(snap.get(field), Number):
            problems.append(f"histogram {key!r}: '{field}' must be a number")
    buckets = snap.get("buckets")
    if not isinstance(buckets, list) or not buckets:
        return problems + [f"histogram {key!r}: missing 'buckets'"]
    total = 0
    for j, entry in enumerate(buckets):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not isinstance(entry[1], int)
        ):
            problems.append(f"histogram {key!r}: bucket[{j}] must be [bound, count]")
            continue
        total += entry[1]
    if isinstance(snap.get("count"), int) and total != snap["count"]:
        problems.append(
            f"histogram {key!r}: bucket counts sum to {total}, 'count' is {snap['count']}"
        )
    return problems


def validate_metrics_document(doc: object) -> list[str]:
    """Structural problems in a metrics (+manifests) document."""
    if not isinstance(doc, dict):
        return ["metrics document must be a JSON object"]
    problems: list[str] = []
    if doc.get("schema") != METRICS_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {METRICS_SCHEMA!r}"
        )
    for section in ("counters", "gauges"):
        values = doc.get(section)
        if not isinstance(values, dict):
            problems.append(f"'{section}' must be an object")
            continue
        for key, value in values.items():
            if not isinstance(value, Number):
                problems.append(f"{section}[{key!r}] must be a number")
    histograms = doc.get("histograms")
    if not isinstance(histograms, dict):
        problems.append("'histograms' must be an object")
    else:
        for key, snap in histograms.items():
            problems.extend(_validate_histogram(key, snap))
    manifests = doc.get("manifests", [])
    if not isinstance(manifests, list):
        problems.append("'manifests' must be a list")
    else:
        for i, manifest in enumerate(manifests):
            for problem in validate_manifest_document(manifest):
                problems.append(f"manifests[{i}]: {problem}")
    return problems


def validate_manifest_document(doc: object) -> list[str]:
    """Structural problems in one run-manifest document."""
    if not isinstance(doc, dict):
        return ["manifest must be a JSON object"]
    problems: list[str] = []
    if doc.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {MANIFEST_SCHEMA!r}"
        )
    fields = {f.name: f for f in dataclasses.fields(RunManifest)}
    for missing in sorted(set(fields) - set(doc)):
        problems.append(f"missing field {missing!r}")
    checks = {
        "experiment": str,
        "trials": int,
        "workers": int,
        "package_version": str,
        "created_at": str,
        "from_cache": bool,
        "cache_hits": int,
        "cache_misses": int,
        "extra": dict,
    }
    for name, kind in checks.items():
        if name in doc and not isinstance(doc[name], kind):
            problems.append(f"field {name!r} must be {kind.__name__}")
    for name in ("wall_s", "busy_s"):
        if name in doc and not isinstance(doc[name], Number):
            problems.append(f"field {name!r} must be a number")
    return problems


def validate_file(path: str) -> tuple[str, list[str]]:
    """Sniff and validate one telemetry file.

    Returns ``(kind, problems)`` where ``kind`` is ``"trace"``,
    ``"metrics"``, ``"manifest"`` or ``"envelope"``.  Raises
    :class:`ObsError` when the file is not recognisably any of them.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError:
        # Multi-line JSONL traces are not a single JSON document.
        return "trace", validate_trace_events(read_trace(path))
    except OSError as exc:
        raise ObsError(f"{path}: {exc}") from exc
    if isinstance(doc, dict):
        if "traceEvents" in doc:
            return "trace", validate_trace_events(doc["traceEvents"])
        schema = doc.get("schema")
        if schema == ENVELOPE_SCHEMA:
            return "envelope", validate_envelope_document(doc)
        if schema == METRICS_SCHEMA or "histograms" in doc:
            return "metrics", validate_metrics_document(doc)
        if schema == MANIFEST_SCHEMA or "config_hash" in doc:
            return "manifest", validate_manifest_document(doc)
    if isinstance(doc, list):
        if doc and all(isinstance(e, dict) and "ph" in e for e in doc):
            return "trace", validate_trace_events(doc)
    raise ObsError(f"{path}: not a recognisable telemetry file")
