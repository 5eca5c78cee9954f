"""repro.obs — deterministic distributed tracing, metrics, and SLOs.

The observability substrate: span trees over virtual time
(:mod:`repro.obs.trace`), bounded retention with deterministic head
sampling (:mod:`repro.obs.collector`), exporters that join spans with
billed usage (:mod:`repro.obs.export`), the health-plane time series
(:mod:`repro.obs.metrics`), and the SLO/burn-rate layer on top
(:mod:`repro.obs.slo`).
"""

from repro.obs.collector import TraceCollector
from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsPlane,
    WindowSeries,
    WindowedHistogram,
    ambient_plane,
    bind_ambient,
    log_bucket_bounds,
)
from repro.obs.slo import (
    DEFAULT_BURN_RULES,
    SLO_SCENARIOS,
    AlertSpan,
    BurnRateRule,
    SLOSpec,
    evaluate_slo,
    fault_windows,
    run_slo_benchmark,
    run_slo_scenario,
    score_detection,
)
from repro.obs.export import (
    categorize,
    decomposition_report,
    span_cost,
    to_chrome_trace,
    to_jsonl,
    trace_cost,
    validate_span_tree,
)
from repro.obs.trace import (
    Span,
    TraceContext,
    Tracer,
    add_usage,
    annotate,
    child_span,
    current_span,
    set_attr,
    traced,
)

__all__ = [
    "TraceContext",
    "Span",
    "Tracer",
    "TraceCollector",
    "traced",
    "child_span",
    "current_span",
    "annotate",
    "add_usage",
    "set_attr",
    "categorize",
    "span_cost",
    "trace_cost",
    "validate_span_tree",
    "to_jsonl",
    "to_chrome_trace",
    "decomposition_report",
    "MetricsPlane",
    "Counter",
    "Gauge",
    "Histogram",
    "WindowSeries",
    "WindowedHistogram",
    "DEFAULT_LATENCY_BOUNDS",
    "log_bucket_bounds",
    "ambient_plane",
    "bind_ambient",
    "SLOSpec",
    "BurnRateRule",
    "AlertSpan",
    "DEFAULT_BURN_RULES",
    "SLO_SCENARIOS",
    "evaluate_slo",
    "fault_windows",
    "score_detection",
    "run_slo_scenario",
    "run_slo_benchmark",
]
