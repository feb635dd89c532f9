"""The telemetry facade: one object bundling metrics, tracing, manifests.

Instrumented subsystems take a ``telemetry`` argument and resolve it via
:func:`resolve_telemetry`:

* an explicit :class:`Telemetry` wins;
* otherwise the *ambient* telemetry installed with :func:`use_telemetry`
  / :func:`set_telemetry` applies (this is how the CLI's ``--trace`` /
  ``--metrics`` flags reach every simulator a command touches without
  threading a parameter through each call chain);
* the default ambient is :data:`NULL_TELEMETRY` — disabled, records
  nothing, and instrumented code short-circuits on ``telemetry.enabled``
  so un-instrumented behaviour is bit-identical.

A :class:`Telemetry` owns one :class:`~repro.obs.metrics.
MetricsRegistry`, one :class:`~repro.obs.trace.Tracer` and the list of
:class:`~repro.obs.manifest.RunManifest` records engine runs append.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .manifest import RunManifest
from .metrics import MetricsRegistry
from .trace import NULL_TRACER, Tracer

#: Schema tag of the combined metrics+manifests document the CLI writes.
METRICS_DOCUMENT_SCHEMA = "repro.metrics/1"


class Telemetry:
    """Bundle of sinks handed to instrumented subsystems."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        enabled: bool = True,
        manifest_dir: str | None = None,
    ) -> None:
        self.enabled = enabled
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(enabled=enabled)
        )
        self.tracer = (
            tracer if tracer is not None else (Tracer() if enabled else NULL_TRACER)
        )
        self.manifest_dir = Path(manifest_dir) if manifest_dir else None
        self.manifests: list[RunManifest] = []

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A telemetry whose sinks are all true no-ops."""
        return cls(enabled=False)

    # -- manifests ---------------------------------------------------------

    def record_manifest(self, manifest: RunManifest) -> None:
        """Append a run manifest; write a sidecar when a dir is set."""
        if not self.enabled:
            return
        self.manifests.append(manifest)
        if self.manifest_dir is not None:
            self.manifest_dir.mkdir(parents=True, exist_ok=True)
            slug = manifest.experiment.replace("/", "_").replace(" ", "_")
            path = self.manifest_dir / (
                f"{slug}-{len(self.manifests):04d}.manifest.json"
            )
            manifest.write(str(path))

    # -- sinks -------------------------------------------------------------

    def metrics_document(self) -> dict:
        """Metrics snapshot plus the run manifests, one JSON document."""
        doc = self.metrics.to_dict()
        doc["schema"] = METRICS_DOCUMENT_SCHEMA
        doc["manifests"] = [m.to_dict() for m in self.manifests]
        return doc

    def write_metrics(self, path: str) -> None:
        """Write the combined metrics+manifests document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.metrics_document(), handle, indent=2)
            handle.write("\n")

    def write_trace(self, path: str) -> None:
        """Write the trace (chrome JSON, or JSONL for ``.jsonl`` paths)."""
        self.tracer.write(path)


#: The do-nothing telemetry every subsystem sees by default.
NULL_TELEMETRY = Telemetry.disabled()

_ambient: Telemetry = NULL_TELEMETRY


def current_telemetry() -> Telemetry:
    """The ambient telemetry (NULL_TELEMETRY unless installed)."""
    return _ambient


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Install the ambient telemetry; returns the previous one."""
    global _ambient
    previous = _ambient
    _ambient = telemetry if telemetry is not None else NULL_TELEMETRY
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Scope the ambient telemetry to a ``with`` block.

    The ambient is one process-wide global: install it from the main
    thread.
    """
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)


def resolve_telemetry(telemetry: Telemetry | None = None) -> Telemetry:
    """An explicit telemetry, else the ambient one."""
    return telemetry if telemetry is not None else current_telemetry()
