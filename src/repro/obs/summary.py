"""Human-readable rendering of telemetry sink files.

Backs the ``repro obs summarize`` CLI subcommand: loads a metrics,
manifest, bench or trace file and renders it as aligned text tables, so a run's
telemetry can be inspected without loading a trace viewer.
"""

from __future__ import annotations

import json

from ..errors import ObsError
from .schema import validate_file
from .trace import read_trace_with_warnings


def _table(rows: list[tuple], header: tuple) -> str:
    """Align a list of tuples under a header row."""
    rendered = [tuple(str(c) for c in row) for row in [header, *rows]]
    widths = [max(len(row[i]) for row in rendered) for i in range(len(header))]
    lines = []
    for n, row in enumerate(rendered):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if n == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(value: float) -> str:
    """Compact numeric formatting for table cells."""
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def summarize_metrics_document(doc: dict) -> str:
    """Render a metrics(+manifests) document as text tables."""
    sections: list[str] = []
    counters = doc.get("counters", {})
    if counters:
        rows = [(k, _fmt(v)) for k, v in sorted(counters.items())]
        sections.append("counters\n" + _table(rows, ("name", "value")))
    gauges = doc.get("gauges", {})
    if gauges:
        rows = [(k, _fmt(v)) for k, v in sorted(gauges.items())]
        sections.append("gauges\n" + _table(rows, ("name", "value")))
    histograms = doc.get("histograms", {})
    if histograms:
        rows = [
            (
                key,
                _fmt(snap.get("count", 0)),
                _fmt(snap.get("mean", 0.0)),
                _fmt(snap.get("p50", 0.0)),
                _fmt(snap.get("p99", 0.0)),
                _fmt(snap.get("min", 0.0)),
                _fmt(snap.get("max", 0.0)),
            )
            for key, snap in sorted(histograms.items())
        ]
        sections.append(
            "histograms\n"
            + _table(rows, ("name", "count", "mean", "p50", "p99", "min", "max"))
        )
    manifests = doc.get("manifests", [])
    if manifests:
        sections.append("manifests\n" + _manifest_table(manifests))
    if not sections:
        return "(empty metrics document)"
    return "\n\n".join(sections)


def _manifest_table(manifests: list[dict]) -> str:
    rows = [
        (
            m.get("experiment", "?"),
            _fmt(m.get("trials", 0)),
            _fmt(m.get("workers", 0)),
            "hit" if m.get("from_cache") else "miss",
            f"{m.get('wall_s', 0.0):.3f}s",
            f"{m.get('busy_s', 0.0):.3f}s",
            (m.get("config_hash") or "-")[:12],
            m.get("git") or "-",
        )
        for m in manifests
    ]
    return _table(
        rows,
        ("experiment", "trials", "workers", "cache", "wall", "busy", "config", "git"),
    )


def summarize_manifest_document(doc: dict) -> str:
    """Render one run manifest as a key/value table."""
    order = (
        "experiment", "trials", "workers", "from_cache", "cache_hits",
        "cache_misses", "wall_s", "busy_s", "seed", "config_hash",
        "package_version", "git", "created_at",
    )
    rows = [(key, str(doc.get(key))) for key in order if key in doc]
    extra = doc.get("extra") or {}
    rows.extend((f"extra.{k}", str(v)) for k, v in sorted(extra.items()))
    return _table(rows, ("field", "value"))


def summarize_trace_events(events: list[dict]) -> str:
    """Aggregate a trace: span counts and total duration per name."""
    spans: dict[str, list[float]] = {}
    instants = 0
    for event in events:
        phase = event.get("ph")
        if phase == "X":
            spans.setdefault(event.get("name", "?"), []).append(
                float(event.get("dur", 0.0))
            )
        elif phase in ("i", "I"):
            instants += 1
    rows = [
        (
            name,
            len(durs),
            _fmt(sum(durs)),
            _fmt(sum(durs) / len(durs)),
            _fmt(max(durs)),
        )
        for name, durs in sorted(spans.items())
    ]
    parts = [f"{len(events)} events, {instants} instants"]
    if rows:
        parts.append(
            _table(rows, ("span", "count", "total", "mean", "max"))
        )
    return "\n".join(parts)


def summarize_file(path: str) -> tuple[str, str]:
    """Detect the file kind and render the matching summary.

    Returns ``(kind, text)``; raises :class:`ObsError` when the file
    fails schema validation.
    """
    kind, problems = validate_file(path)
    if problems:
        raise ObsError(
            f"{path}: invalid {kind} file: " + "; ".join(problems[:5])
        )
    if kind == "trace":
        events, warnings = read_trace_with_warnings(path)
        text = f"{path} (trace)\n" + summarize_trace_events(events)
        if warnings:
            text += (
                f"\nWARNING: {len(warnings)} truncated trailing line(s) "
                "dropped (crashed/killed writer?)"
            )
        return kind, text
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if kind == "metrics":
        return kind, f"{path} (metrics)\n" + summarize_metrics_document(doc)
    if kind == "bench":
        from .bench import render                   # local: bench-only imports

        return kind, f"{path} (bench)\n" + render(doc)
    if kind == "envelope":
        keys = ", ".join(sorted(doc["result"])) or "(empty)"
        return kind, (
            f"{path} (envelope)\n"
            f"  command: {doc['command']}  ok: {doc['ok']}\n"
            f"  manifest: {'yes' if doc.get('manifest') else 'none'}\n"
            f"  result keys: {keys}"
        )
    return kind, f"{path} (manifest)\n" + summarize_manifest_document(doc)
