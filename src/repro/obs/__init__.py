"""repro.obs — the observability layer.

Four pieces, layered on the simulator (see docs/observability.md):

* :mod:`repro.obs.spans` — hierarchical span tracing over simulated time
  (:class:`Observer`), with a shared no-op stand-in when disabled;
* :mod:`repro.obs.metrics` — the registry of counters/gauges/histograms
  every subsystem reports through;
* :mod:`repro.obs.critical_path` — walks the span/wait DAG of a finished
  run and attributes the end-to-end time per collective phase;
* :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON and a text flame
  view;
* :mod:`repro.obs.svc` — wall-clock job-lifecycle telemetry for the
  sweep service (spans per served job, service metrics, a size-rotated
  event log), plus the Prometheus text exposition in
  :mod:`repro.obs.metrics`.

Enable with ``Node(topo, options=RunOptions(observe=True))``; drive a
one-shot observed run with :func:`repro.obs.runner.run_traced` or
``python -m repro trace``.
"""

from .critical_path import CriticalPathReport, PathStep, critical_path
from .export import (flame_view, from_chrome_trace, spans_to_chrome_trace,
                     to_chrome_trace, validate_chrome_trace,
                     write_chrome_trace)
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      NULL_METRICS, NullMetricsRegistry, prometheus_name,
                      validate_prometheus)
from .spans import (NULL_OBSERVER, NullObserver, Observer, SpanRecord,
                    WaitRecord)
from .svc import EventLog, JobTrace, ServiceTelemetry

__all__ = [
    "Observer", "NullObserver", "NULL_OBSERVER", "SpanRecord", "WaitRecord",
    "MetricsRegistry", "NullMetricsRegistry", "NULL_METRICS",
    "Counter", "Gauge", "Histogram",
    "critical_path", "CriticalPathReport", "PathStep",
    "to_chrome_trace", "write_chrome_trace", "validate_chrome_trace",
    "from_chrome_trace", "flame_view", "spans_to_chrome_trace",
    "ServiceTelemetry", "JobTrace", "EventLog",
    "prometheus_name", "validate_prometheus",
]
