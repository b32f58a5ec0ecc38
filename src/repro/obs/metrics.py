"""Metrics registry: counters, gauges and histograms for the simulator.

The registry is a run's only count of logical messages, XPMEM syscalls
and flag traffic; no subsystem keeps a shadow copy, so every report
reads the same numbers. (Each rank's ``RegistrationCache`` hits, misses
and evictions are that cache's own state, which ``regcache.*`` sums.)
A metric is created once (usually at component setup) and updated on
the hot path through a pre-resolved handle — with observability disabled
the handles are shared no-op singletons, so the cost of an update is one
attribute call.

Naming convention: dot-separated, subsystem first —
``xpmem.attaches``, ``regcache.hits``, ``flags.sets``,
``message.bytes.intra-numa`` — see docs/observability.md for the full
catalogue.
"""

from __future__ import annotations

import re
from typing import Iterator


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n


class Gauge:
    """A value that can move both ways (levels, sizes, ratios)."""

    kind = "gauge"

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1) -> None:
        self.value += n

    def dec(self, n: float = 1) -> None:
        self.value -= n


class Histogram:
    """Power-of-two bucketed distribution (bytes, wait seconds, ...).

    Bucket ``i`` counts observations in ``(2**(i-1), 2**i] * scale``;
    bucket 0 counts observations ``<= scale``. ``scale`` sets the smallest
    resolvable magnitude (1 byte, 1 nanosecond, ...).
    """

    kind = "histogram"

    __slots__ = ("name", "help", "scale", "buckets", "count", "sum",
                 "min", "max")

    def __init__(self, name: str, help: str = "", scale: float = 1.0) -> None:
        self.name = name
        self.help = help
        self.scale = scale
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        scaled = value / self.scale
        bucket = 0
        while scaled > 1.0:
            scaled /= 2.0
            bucket += 1
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_bounds(self, bucket: int) -> tuple[float, float]:
        """``(low, high]`` value range the bucket covers."""
        if bucket <= 0:
            return (0.0, self.scale)
        return (self.scale * 2.0 ** (bucket - 1), self.scale * 2.0 ** bucket)

    def quantile(self, q: float) -> float | None:
        """Streaming quantile estimate from the log-bucket counts.

        The rank is located in the cumulative bucket distribution and
        interpolated linearly inside its bucket, then clamped to the
        exact observed ``[min, max]`` — so p0/p100 are exact and every
        estimate is off by at most one power-of-two bucket width.
        Returns ``None`` on an empty histogram.
        """
        if not self.count:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * self.count
        cumulative = 0
        for bucket in sorted(self.buckets):
            n = self.buckets[bucket]
            if cumulative + n >= rank:
                low, high = self.bucket_bounds(bucket)
                fraction = (rank - cumulative) / n
                value = low + fraction * (high - low)
                break
            cumulative += n
        else:  # pragma: no cover - rank <= count always lands above
            value = self.max
        if self.min is not None:
            value = max(value, self.min)
        if self.max is not None:
            value = min(value, self.max)
        return value

    def percentiles(self, qs: "tuple[float, ...]" = (0.5, 0.95, 0.99),
                    ) -> dict[str, float | None]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` via :meth:`quantile`."""
        return {f"p{round(q * 100):d}": self.quantile(q) for q in qs}


class _NullMetric:
    """Shared do-nothing handle; every update method is a no-op."""

    kind = "null"
    name = ""
    value = 0

    __slots__ = ()

    def inc(self, n=1) -> None:
        pass

    def dec(self, n=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass


NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Get-or-create registry of named metrics."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, help: str, **kw):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, **kw)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  scale: float = 1.0) -> Histogram:
        return self._get(Histogram, name, help, scale=scale)

    def get(self, name: str):
        return self._metrics.get(name)

    def value(self, name: str, default=0):
        """Current value of a counter/gauge (``default`` if unregistered)."""
        metric = self._metrics.get(name)
        return default if metric is None else metric.value

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator:
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def snapshot(self) -> dict:
        """Machine-readable dump, one entry per metric."""
        out: dict[str, dict] = {}
        for metric in self:
            entry: dict = {"type": metric.kind}
            if isinstance(metric, Histogram):
                entry.update(count=metric.count, sum=metric.sum,
                             mean=metric.mean, min=metric.min,
                             max=metric.max,
                             buckets={str(k): v for k, v
                                      in sorted(metric.buckets.items())},
                             **metric.percentiles())
            else:
                entry["value"] = metric.value
            if metric.help:
                entry["help"] = metric.help
            out[metric.name] = entry
        return out

    def to_prometheus(self, prefix: str | None = None) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Metric names are sanitized (``serve.jobs.completed`` →
        ``serve_jobs_completed``); histograms emit the conventional
        cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.
        :func:`validate_prometheus` is the matching parser CI runs
        against the daemon's ``metrics`` op.
        """
        lines: list[str] = []
        for metric in self:
            if prefix and not metric.name.startswith(prefix):
                continue
            name = prometheus_name(metric.name)
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                cumulative = 0
                for bucket in sorted(metric.buckets):
                    cumulative += metric.buckets[bucket]
                    le = metric.bucket_bounds(bucket)[1]
                    lines.append(
                        f'{name}_bucket{{le="{le!r}"}} {cumulative}')
                lines.append(f'{name}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{name}_sum {metric.sum!r}")
                lines.append(f"{name}_count {metric.count}")
            else:
                value = metric.value
                rendered = repr(value) if isinstance(value, float) \
                    else str(value)
                lines.append(f"{name} {rendered}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self, prefix: str | None = None) -> str:
        """Aligned text dump (optionally only names under ``prefix``)."""
        rows = []
        for metric in self:
            if prefix and not metric.name.startswith(prefix):
                continue
            if isinstance(metric, Histogram):
                value = (f"n={metric.count} sum={metric.sum:.4g} "
                         f"mean={metric.mean:.4g}")
            elif isinstance(metric, float):  # pragma: no cover
                value = f"{metric.value:.4g}"
            else:
                v = metric.value
                value = f"{v:.4g}" if isinstance(v, float) else str(v)
            rows.append((metric.name, metric.kind, value))
        if not rows:
            return "(no metrics recorded)"
        name_w = max(len(r[0]) for r in rows) + 2
        kind_w = max(len(r[1]) for r in rows) + 2
        return "\n".join(
            f"{name.ljust(name_w)}{kind.ljust(kind_w)}{value}"
            for name, kind, value in rows
        )


class NullMetricsRegistry:
    """Registry stand-in when observability is off: every metric is the
    shared no-op handle, so pre-resolved hot-path updates cost nothing."""

    def counter(self, name: str, help: str = "") -> _NullMetric:
        return NULL_METRIC

    def gauge(self, name: str, help: str = "") -> _NullMetric:
        return NULL_METRIC

    def histogram(self, name: str, help: str = "",
                  scale: float = 1.0) -> _NullMetric:
        return NULL_METRIC

    def get(self, name: str):
        return None

    def value(self, name: str, default=0):
        return default

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator:
        return iter(())

    def snapshot(self) -> dict:
        return {}

    def render(self, prefix: str | None = None) -> str:
        return "(observability disabled; no metrics)"

    def to_prometheus(self, prefix: str | None = None) -> str:
        return ""


NULL_METRICS = NullMetricsRegistry()


# -- Prometheus text format ---------------------------------------------------

_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: ``metric_name{labels} value`` — the only sample shape we emit.
_PROM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)$")


def prometheus_name(name: str) -> str:
    """A dotted registry name as a legal Prometheus metric name."""
    name = _PROM_BAD_CHARS.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def validate_prometheus(text: str) -> list[str]:
    """Check a text exposition parses; returns problems (empty = ok).

    Covers what the serve-smoke CI job needs: every sample line matches
    the ``name{labels} value`` shape with a finite numeric value (or the
    literal ``+Inf`` bucket bound inside a label), every ``# TYPE`` names
    a known metric kind, and each histogram's ``_bucket`` series is
    cumulative with ``_count`` equal to its ``+Inf`` bucket.
    """
    errors: list[str] = []
    bucket_last: dict[str, float] = {}
    bucket_inf: dict[str, float] = {}
    counts: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                errors.append(f"line {lineno}: malformed comment {line!r}")
            elif parts[1] == "TYPE" and (len(parts) < 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped")):
                errors.append(f"line {lineno}: unknown TYPE {parts[3]!r}")
            continue
        m = _PROM_SAMPLE_RE.match(line)
        if m is None:
            errors.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        try:
            value = float(m.group("value"))
        except ValueError:
            errors.append(f"line {lineno}: non-numeric value "
                          f"{m.group('value')!r}")
            continue
        name = m.group("name")
        if name.endswith("_bucket"):
            base = name[:-len("_bucket")]
            if '+Inf' in (m.group("labels") or ""):
                bucket_inf[base] = value
            else:
                if value < bucket_last.get(base, 0):
                    errors.append(f"line {lineno}: non-cumulative bucket "
                                  f"series for {base!r}")
                bucket_last[base] = value
        elif name.endswith("_count"):
            counts[name[:-len("_count")]] = value
    for base, inf_value in bucket_inf.items():
        if inf_value < bucket_last.get(base, 0):
            errors.append(f"histogram {base!r}: +Inf bucket below a "
                          f"finite bucket")
        if base in counts and counts[base] != inf_value:
            errors.append(f"histogram {base!r}: _count {counts[base]} != "
                          f"+Inf bucket {inf_value}")
    return errors
