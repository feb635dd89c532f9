"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the numeric half of the telemetry layer (the event half
lives in :mod:`repro.obs.trace`).  Three design constraints drive it:

* **cheap when enabled** — hot paths acquire metric handles once (at
  construction time) and each update is a single attribute mutation, so
  a simulator can update counters every cycle without dictionary lookups;
* **a true no-op when disabled** — a disabled registry hands out shared
  null instruments whose methods do nothing and record nothing, so
  instrumented code needs no ``if enabled`` guards of its own;
* **bounded memory** — histograms use fixed buckets (never raw samples),
  so observing a million latencies costs the same as observing ten.

Percentiles on a fixed-bucket histogram are *estimates*: the rank is
located in the cumulative bucket counts and interpolated linearly inside
the containing bucket, clamped to the observed min/max.  Accuracy is
therefore bounded by the bucket width (see ``tests/test_obs.py`` for the
comparison against :func:`numpy.percentile`).
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping

from ..errors import ObsError

#: Schema tag stamped into serialised metrics documents.
METRICS_SCHEMA = "repro.metrics/1"

#: Default histogram buckets: exponential from 1 to ~1e6 (good for cycle
#: counts, hop counts, queue depths).  Callers with known ranges should
#: pass their own edges.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    round(1.5**i, 6) for i in range(0, 35)
)

#: Buckets for durations measured in seconds (100 us .. ~2 min).
TIME_BUCKETS_S: tuple[float, ...] = tuple(
    round(1e-4 * 2**i, 10) for i in range(0, 21)
)


def _label_key(name: str, labels: Mapping[str, object]) -> str:
    """Canonical ``name{k=v,...}`` identity for one labelled metric."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def snapshot(self) -> float:
        """The current value, JSON-ready."""
        return self.value

    def dump(self) -> dict:
        """Full-fidelity picklable state (see :meth:`MetricsRegistry.merge`)."""
        return {"kind": self.kind, "key": self.name, "value": self.value}


class Gauge:
    """A value that goes up and down (occupancy, load, progress)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self.value += amount

    def snapshot(self) -> float:
        """The current value, JSON-ready."""
        return self.value

    def dump(self) -> dict:
        """Full-fidelity picklable state (see :meth:`MetricsRegistry.merge`)."""
        return {"kind": self.kind, "key": self.name, "value": self.value}


class Histogram:
    """Fixed-bucket histogram with interpolated percentile estimates.

    ``buckets`` are the inclusive upper bounds of each bin; values above
    the last bound land in an implicit overflow bucket.  Only counts are
    stored, so memory is O(buckets) regardless of observation volume.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, buckets: Iterable[float] | None = None) -> None:
        self.name = name
        bounds = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
        if not bounds or any(nxt <= prev for prev, nxt in zip(bounds, bounds[1:])):
            raise ObsError(f"histogram {name!r} buckets must strictly increase")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)   # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        if count <= 0:
            return
        # Binary search for the first bound >= value.
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += count
        self.count += count
        self.total += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (0..100); 0.0 when empty.

        Locates the rank in the cumulative bucket counts and assumes a
        uniform distribution inside the containing bucket, clamping to
        the observed min/max so estimates never leave the data range.
        """
        if not 0 <= q <= 100:
            raise ObsError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = (self.count - 1) * (q / 100.0)
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if rank < cumulative + bucket_count:
                lower = self.bounds[i - 1] if i > 0 else self.min
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if bucket_count == 1 or upper <= lower:
                    estimate = upper
                else:
                    frac = (rank - cumulative) / (bucket_count - 1)
                    estimate = lower + frac * (upper - lower)
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max           # pragma: no cover - rank always found

    def observe_many(self, values) -> None:
        """Record a whole array of observations in one vectorized pass.

        Equivalent to ``for v in values: observe(v)`` — same buckets
        (first bound >= value), same running sum — but bucketed with one
        ``searchsorted`` + ``bincount`` instead of a Python loop per
        value.  This is what keeps per-router distribution snapshots
        affordable at full-wafer scale (thousands of routers).
        """
        import numpy as np

        values = np.asarray(values)
        if values.size == 0:
            return
        idx = np.searchsorted(self.bounds, values, side="left")
        counts = self.counts
        for i, c in zip(*np.unique(idx, return_counts=True)):
            counts[i] += int(c)
        self.count += int(values.size)
        self.total += float(values.sum())
        vmin, vmax = values.min().item(), values.max().item()
        if vmin < self.min:
            self.min = vmin
        if vmax > self.max:
            self.max = vmax

    def dump(self) -> dict:
        """Full-fidelity picklable state (see :meth:`MetricsRegistry.merge`)."""
        return {
            "kind": self.kind,
            "key": self.name,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def merge_dump(self, dump: Mapping) -> None:
        """Fold another histogram's :meth:`dump` into this one.

        Bucket bounds must match exactly — merged histograms come from
        the *same* instrument recorded in different processes, so a
        bound mismatch means two incompatible definitions share a name.
        """
        if tuple(float(b) for b in dump["bounds"]) != self.bounds:
            raise ObsError(
                f"histogram {self.name!r}: cannot merge mismatched buckets"
            )
        for i, count in enumerate(dump["counts"]):
            self.counts[i] += count
        self.count += dump["count"]
        self.total += dump["sum"]
        if dump["min"] is not None and dump["min"] < self.min:
            self.min = dump["min"]
        if dump["max"] is not None and dump["max"] > self.max:
            self.max = dump["max"]

    def snapshot(self) -> dict:
        """JSON-ready summary including the raw bucket counts."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "buckets": [
                [bound, count]
                for bound, count in zip(
                    list(self.bounds) + ["inf"], self.counts
                )
            ],
        }


class _NullCounter(Counter):
    """Counter that records nothing (the disabled-registry instrument)."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass


class _NullGauge(Gauge):
    """Gauge that records nothing."""

    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass


class _NullHistogram(Histogram):
    """Histogram that records nothing."""

    __slots__ = ()

    def observe(self, value: float, count: int = 1) -> None:
        pass

    def observe_many(self, values) -> None:
        pass


NULL_COUNTER = _NullCounter("null")
NULL_GAUGE = _NullGauge("null")
NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """Get-or-create store of named, optionally labelled instruments.

    ``counter``/``gauge``/``histogram`` return the *same* object for the
    same ``(name, labels)``, so callers may look up handles eagerly and
    mutate them on hot paths.  A registry constructed with
    ``enabled=False`` hands out the shared null instruments instead and
    serialises to an empty document.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, labels: Mapping[str, object], **kwargs):
        key = _label_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(key, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ObsError(
                f"metric {key!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        """Get or create a counter."""
        if not self.enabled:
            return NULL_COUNTER
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Get or create a gauge."""
        if not self.enabled:
            return NULL_GAUGE
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] | None = None,
        **labels: object,
    ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        if not self.enabled:
            return NULL_HISTOGRAM
        return self._get(Histogram, name, labels, buckets=buckets)

    def get(self, name: str, **labels: object):
        """Look up an existing metric (None when absent)."""
        return self._metrics.get(_label_key(name, labels))

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def clear(self) -> None:
        """Drop every registered metric."""
        self._metrics.clear()

    def dump(self) -> list[dict]:
        """Full-fidelity state of every instrument, in key order.

        Unlike :meth:`to_dict` (a human/JSON summary with estimated
        percentiles) this is lossless and mergeable: feeding the dumps
        of N registries into :meth:`merge` produces exactly the registry
        that would have recorded all their observations directly.
        """
        return [self._metrics[key].dump() for key in sorted(self._metrics)]

    def merge(self, dumps: Iterable[Mapping]) -> None:
        """Fold instrument dumps (from :meth:`dump`) into this registry.

        Counters sum, histogram bucket counts add (bounds must match),
        gauges take the incoming value (last write wins).  Keys carry
        their labels verbatim, so labelled series stay distinct.  A
        disabled registry ignores the merge entirely.
        """
        if not self.enabled:
            return
        for dump in dumps:
            kind, key = dump["kind"], dump["key"]
            metric = self._metrics.get(key)
            if kind == "counter":
                if metric is None:
                    metric = self._metrics.setdefault(key, Counter(key))
                self._check_kind(metric, kind, key)
                metric.value += dump["value"]
            elif kind == "gauge":
                if metric is None:
                    metric = self._metrics.setdefault(key, Gauge(key))
                self._check_kind(metric, kind, key)
                metric.value = dump["value"]
            elif kind == "histogram":
                if metric is None:
                    metric = self._metrics.setdefault(
                        key, Histogram(key, buckets=dump["bounds"])
                    )
                self._check_kind(metric, kind, key)
                metric.merge_dump(dump)
            else:
                raise ObsError(f"cannot merge unknown instrument kind {kind!r}")

    @staticmethod
    def _check_kind(metric, kind: str, key: str) -> None:
        if metric.kind != kind:
            raise ObsError(
                f"metric {key!r} already registered as {metric.kind}, "
                f"cannot merge a {kind}"
            )

    def to_dict(self) -> dict:
        """Snapshot every instrument into a JSON-ready document."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for key, metric in sorted(self._metrics.items()):
            if metric.kind == "counter":
                counters[key] = metric.snapshot()
            elif metric.kind == "gauge":
                gauges[key] = metric.snapshot()
            else:
                histograms[key] = metric.snapshot()
        return {
            "schema": METRICS_SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def write(self, path: str) -> None:
        """Write the snapshot as indented JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")
