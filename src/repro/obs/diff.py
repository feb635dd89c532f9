"""Compare two metrics/bench documents and flag regressions.

``repro obs diff A.json B.json`` answers *did this change make things
worse?* for two metrics or bench documents.  Both are flattened to their
numeric leaves (dotted paths), the leaves are paired, and each relative
change beyond a threshold is classified by what the key *means*:

* keys that measure cost (``*_s``, ``*seconds*``, ``*latency*``,
  ``*misses*``, ``*failed*``, ...) regress when they **increase**;
* keys that measure goodness (``*throughput*``, ``*speedup*``,
  ``*hits*``, ``*per_s*``, ...) regress when they **decrease**;
* everything else is reported neutrally as *changed*.

The comparison is structural, so the same code diffs ``--metrics``
files and benchmark documents.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from ..errors import ObsError

#: Key patterns where an increase is a regression (costs).
HIGHER_IS_WORSE = re.compile(
    r"(_s$|_s\.|seconds|latency|overhead|wall|busy|elapsed|time|stall|"
    r"dropped|failed|miss|error|rejected|queue_depth|rss)",
    re.IGNORECASE,
)

#: Key patterns where a decrease is a regression (goodness).
HIGHER_IS_BETTER = re.compile(
    r"(speedup|throughput|per_s|per_sec|rate$|hits|delivered|yield|"
    r"good_dies|coverage)",
    re.IGNORECASE,
)

#: Keys never worth diffing (identity/provenance, not measurements).
DEFAULT_IGNORE = re.compile(
    r"(schema|created_at|\bgit\b|version|\bseed$|\bpid\b|\bts$|timestamp|"
    r"uptime)",
    re.IGNORECASE,
)


def flatten_numeric(doc: object, prefix: str = "") -> dict[str, float]:
    """Flatten nested dicts to ``dotted.path -> number`` leaves.

    Lists are skipped (histogram bucket arrays and manifests are noise
    for a regression diff; their scalar summaries are already leaves; a
    bench record keys its cases by label, as ``cases.<label>.<field>``).
    Booleans are skipped too — they are flags, not measurements.
    """
    out: dict[str, float] = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(value, path))
    elif isinstance(doc, bool):
        pass
    elif isinstance(doc, (int, float)):
        out[prefix] = float(doc)
    return out


@dataclass(frozen=True)
class DiffEntry:
    """One flagged difference between the two documents."""

    key: str
    before: float | None
    after: float | None
    kind: str            # regression | improvement | changed | added | removed

    @property
    def rel_change(self) -> float | None:
        """Relative change (None when undefined: added/removed/zero base)."""
        if self.before is None or self.after is None or self.before == 0:
            return None
        return (self.after - self.before) / abs(self.before)

    def describe(self) -> str:
        if self.kind == "added":
            return f"  + {self.key} = {self.after:g} (new)"
        if self.kind == "removed":
            return f"  - {self.key} (was {self.before:g})"
        rel = self.rel_change
        arrow = "↑" if self.after > self.before else "↓"
        pct = f"{rel * 100:+.1f}%" if rel is not None else "n/a"
        marker = {"regression": "✗", "improvement": "✓", "changed": "~"}[
            self.kind
        ]
        return (
            f"  {marker} {self.key}: {self.before:g} → {self.after:g} "
            f"({arrow} {pct})"
        )


@dataclass
class DiffReport:
    """The full comparison result."""

    path_a: str
    path_b: str
    threshold: float
    entries: list[DiffEntry]
    compared: int

    @property
    def regressions(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.kind == "regression"]

    @property
    def improvements(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.kind == "improvement"]

    @property
    def ok(self) -> bool:
        """True when nothing regressed beyond the threshold."""
        return not self.regressions

    def to_dict(self) -> dict:
        return {
            "a": self.path_a,
            "b": self.path_b,
            "threshold": self.threshold,
            "compared": self.compared,
            "ok": self.ok,
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
            "entries": [
                {
                    "key": e.key,
                    "before": e.before,
                    "after": e.after,
                    "kind": e.kind,
                }
                for e in self.entries
            ],
        }

    def render(self) -> str:
        lines = [
            f"obs diff: {self.path_a} → {self.path_b} "
            f"(threshold {self.threshold * 100:.0f}%, "
            f"{self.compared} keys compared)"
        ]
        if not self.entries:
            lines.append("  no differences beyond threshold")
        for entry in self.entries:
            lines.append(entry.describe())
        verdict = (
            "OK" if self.ok else f"{len(self.regressions)} regression(s)"
        )
        lines.append(f"result: {verdict}")
        return "\n".join(lines)


def classify(key: str, before: float, after: float, threshold: float) -> str | None:
    """Classify one changed leaf; None when below threshold/irrelevant."""
    if before == after:
        return None
    if before == 0:
        rel = float("inf")
    else:
        rel = (after - before) / abs(before)
    if abs(rel) <= threshold:
        return None
    if HIGHER_IS_WORSE.search(key):
        return "regression" if after > before else "improvement"
    if HIGHER_IS_BETTER.search(key):
        return "regression" if after < before else "improvement"
    return "changed"


def diff_documents(
    doc_a: dict,
    doc_b: dict,
    *,
    path_a: str = "a",
    path_b: str = "b",
    threshold: float = 0.1,
    ignore: str | None = None,
    report_missing: bool = True,
) -> DiffReport:
    """Compare two JSON documents' numeric leaves.

    ``ignore`` is an extra regex of key paths to skip (on top of
    :data:`DEFAULT_IGNORE`); ``threshold`` the relative change below
    which differences are not reported.
    """
    extra_ignore = re.compile(ignore) if ignore else None

    def _skipped(key: str) -> bool:
        if DEFAULT_IGNORE.search(key):
            return True
        return extra_ignore is not None and bool(extra_ignore.search(key))

    flat_a = {k: v for k, v in flatten_numeric(doc_a).items() if not _skipped(k)}
    flat_b = {k: v for k, v in flatten_numeric(doc_b).items() if not _skipped(k)}

    entries: list[DiffEntry] = []
    for key in sorted(flat_a.keys() | flat_b.keys()):
        if key not in flat_a:
            if report_missing:
                entries.append(DiffEntry(key, None, flat_b[key], "added"))
            continue
        if key not in flat_b:
            if report_missing:
                entries.append(DiffEntry(key, flat_a[key], None, "removed"))
            continue
        kind = classify(key, flat_a[key], flat_b[key], threshold)
        if kind is not None:
            entries.append(DiffEntry(key, flat_a[key], flat_b[key], kind))
    return DiffReport(
        path_a=path_a,
        path_b=path_b,
        threshold=threshold,
        entries=entries,
        compared=len(flat_a.keys() & flat_b.keys()),
    )


def diff_files(
    path_a: str,
    path_b: str,
    *,
    threshold: float = 0.1,
    ignore: str | None = None,
    report_missing: bool = True,
) -> DiffReport:
    """Load two JSON documents and diff them (see :func:`diff_documents`)."""
    docs = []
    for path in (path_a, path_b):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ObsError(f"{path}: cannot load JSON document: {exc}") from exc
        if not isinstance(doc, dict):
            raise ObsError(f"{path}: expected a JSON object")
        docs.append(doc)
    return diff_documents(
        docs[0],
        docs[1],
        path_a=path_a,
        path_b=path_b,
        threshold=threshold,
        ignore=ignore,
        report_missing=report_missing,
    )
