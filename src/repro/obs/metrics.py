"""Metrics registry: counters, gauges and histograms with exporters.

A minimal, dependency-free metrics layer shaped like the Prometheus
client data model: a :class:`MetricsRegistry` owns named metric
*families* (:class:`Counter`, :class:`Gauge`, :class:`Histogram`), each
family holds one sample per label combination, and the registry renders

* **Prometheus exposition text** (:meth:`MetricsRegistry.to_prometheus`)
  — ``# HELP`` / ``# TYPE`` headers, escaped label values, cumulative
  histogram buckets with an ``+Inf`` bound and ``_sum`` / ``_count``
  series — parseable by any Prometheus scraper; and
* **JSON snapshots** (:meth:`MetricsRegistry.snapshot`) for CI
  artifacts and notebook diffing.

Counters additionally support :meth:`Counter.set_to` for bridging
sources that already keep cumulative totals (e.g.
:class:`~repro.vmi.core.VMIStats`), enforcing monotonicity so a bridge
bug cannot silently publish a counter that goes backwards.

The disabled path is :data:`NULL_METRICS`: every family accessor
returns one shared no-op metric, so un-exported runs pay nothing.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

__all__ = ["DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram",
           "MetricsRegistry", "NullMetrics", "NULL_METRICS"]

#: Default latency buckets, in (simulated) seconds.
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: label names already validated (a run uses a handful, millions of times)
_CHECKED_LABELS: set[str] = set()

LabelKey = tuple[tuple[str, str], ...]


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"        # canonical Prometheus spelling, not 'nan'
    return repr(float(value))


def _render_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()
                   ) -> str:
    items = key + extra
    if not items:
        return ""
    body = ",".join(f'{name}="{_escape_label_value(value)}"'
                    for name, value in items)
    return "{" + body + "}"


class _Metric:
    """One metric family: a name, help text and labelled samples."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help

    @staticmethod
    def _key(labels: dict[str, object]) -> LabelKey:
        if not _CHECKED_LABELS.issuperset(labels):
            for label in labels:
                if not _LABEL_RE.match(label):
                    raise ValueError(f"invalid label name {label!r}")
            _CHECKED_LABELS.update(labels)
        return tuple(sorted([(k, str(v)) for k, v in labels.items()]))


class Counter(_Metric):
    """Monotonically non-decreasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._samples: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def set_to(self, value: float, **labels: object) -> None:
        """Publish a cumulative total from an external monotone source.

        Bridges sources that already count (``VMIStats``,
        ``FaultStats``); raises if the new total is below the published
        one, which would make the counter lie to rate() queries.
        """
        key = self._key(labels)
        current = self._samples.get(key, 0.0)
        if value < current:
            raise ValueError(
                f"counter {self.name}{dict(key)} went backwards: "
                f"{current} -> {value}")
        self._samples[key] = float(value)

    def value(self, **labels: object) -> float:
        return self._samples.get(self._key(labels), 0.0)

    def _render(self) -> list[str]:
        return [f"{self.name}{_render_labels(key)} {_format_value(v)}"
                for key, v in sorted(self._samples.items())]

    def _snapshot(self) -> list[dict]:
        return [{"labels": dict(key), "value": v}
                for key, v in sorted(self._samples.items())]


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._samples: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._samples[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        return self._samples.get(self._key(labels), 0.0)

    _render = Counter._render
    _snapshot = Counter._snapshot


class _HistSample:
    """Bucket counts + sum + count for one label combination."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets   # per-bucket, not cumulative
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Observations bucketed by upper bound, Prometheus-style."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help)
        cleaned = sorted(set(float(b) for b in buckets))
        if not cleaned:
            raise ValueError("histogram needs at least one bucket")
        if math.isinf(cleaned[-1]):
            cleaned.pop()                      # +Inf is implicit
        self.buckets = tuple(cleaned)
        self._samples: dict[LabelKey, _HistSample] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        sample = self._samples.get(key)
        if sample is None:
            sample = self._samples[key] = _HistSample(len(self.buckets) + 1)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                sample.bucket_counts[i] += 1
                break
        else:
            sample.bucket_counts[-1] += 1      # the +Inf bucket
        sample.sum += value
        sample.count += 1

    def sum(self, **labels: object) -> float:
        sample = self._samples.get(self._key(labels))
        return sample.sum if sample else 0.0

    def count(self, **labels: object) -> int:
        sample = self._samples.get(self._key(labels))
        return sample.count if sample else 0

    def _render(self) -> list[str]:
        lines: list[str] = []
        for key, sample in sorted(self._samples.items()):
            cumulative = 0
            for bound, n in zip(self.buckets, sample.bucket_counts):
                cumulative += n
                labels = _render_labels(key, (("le", _format_value(bound)),))
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            cumulative += sample.bucket_counts[-1]
            labels = _render_labels(key, (("le", "+Inf"),))
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
            lines.append(f"{self.name}_sum{_render_labels(key)} "
                         f"{_format_value(sample.sum)}")
            lines.append(f"{self.name}_count{_render_labels(key)} "
                         f"{sample.count}")
        return lines

    def _snapshot(self) -> list[dict]:
        # Cumulative le-keyed buckets, exactly like the Prometheus
        # exposition (`+Inf` included) — a JSON snapshot and a scraped
        # `_bucket` series must agree sample-for-sample, and raw
        # per-bucket counts silently broke that round trip.
        out: list[dict] = []
        for key, sample in sorted(self._samples.items()):
            buckets: dict[str, int] = {}
            cumulative = 0
            for bound, n in zip(self.buckets, sample.bucket_counts):
                cumulative += n
                buckets[_format_value(bound)] = cumulative
            buckets["+Inf"] = cumulative + sample.bucket_counts[-1]
            out.append({"labels": dict(key), "buckets": buckets,
                        "sum": sample.sum, "count": sample.count})
        return out


class MetricsRegistry:
    """Owns metric families; renders Prometheus text and JSON snapshots."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._metrics.get(name)
        if type(metric) is Counter:      # the hot path: already there
            return metric
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._metrics.get(name)
        if type(metric) is Gauge:
            return metric
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # -- exporters -------------------------------------------------------

    def to_prometheus(self) -> str:
        """Render the whole registry in Prometheus exposition format."""
        out: list[str] = []
        for metric in self._metrics.values():
            if metric.help:
                out.append(f"# HELP {metric.name} {metric.help}")
            out.append(f"# TYPE {metric.name} {metric.kind}")
            out.extend(metric._render())
        return "\n".join(out) + ("\n" if out else "")

    def snapshot(self) -> dict:
        """JSON-able snapshot of every family and sample."""
        return {metric.name: {"type": metric.kind, "help": metric.help,
                              "samples": metric._snapshot()}
                for metric in self._metrics.values()}

    def write_prometheus(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_prometheus())
        return path

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.snapshot(), indent=2,
                                   sort_keys=True))
        return path


class _NullMetric:
    """Shared no-op standing in for every family when disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def set(self, value: float, **labels: object) -> None:
        pass

    def set_to(self, value: float, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0


_NULL_METRIC = _NullMetric()


class NullMetrics:
    """Disabled registry: every accessor returns the shared no-op."""

    enabled = False

    def counter(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS
                  ) -> _NullMetric:
        return _NULL_METRIC

    def to_prometheus(self) -> str:
        return ""

    def snapshot(self) -> dict:
        return {}

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0


#: Shared no-op registry — the default wired through the pipeline.
NULL_METRICS = NullMetrics()
