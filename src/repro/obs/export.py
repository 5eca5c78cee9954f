"""Trace exporters: Perfetto JSON, JSONL span logs, cost joins, breakdowns.

Three consumers, three formats:

- :func:`to_chrome_trace` — Chrome ``trace_event`` JSON ("X" complete
  events, microsecond timestamps), loadable in Perfetto / chrome://tracing
  for a flame view of one run;
- :func:`to_jsonl` — one JSON object per span, deterministic key order,
  byte-identical across runs of the same seed (the determinism tests'
  contract);
- :func:`decomposition_report` — the aggregated critical-path breakdown
  (cold start vs KMS vs storage vs queue wait percentiles).

**Cost join.** Spans carry the raw ``(UsageKind, quantity)`` pairs the
billing meter recorded; this module prices them with
:func:`repro.cloud.billing.price_usage`, the invoice's own rate table
at the *marginal* (pre-free-tier) price — the $0.0000021 a single chat
message actually consumed, independent of how much allowance the rest
of the month used up. Every exporter takes the price book explicitly.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Tuple

from repro.cloud.billing import price_usage
from repro.cloud.pricing import PriceBook
from repro.errors import SimulationError
from repro.obs.trace import Span
from repro.sim.metrics import MetricSeries
from repro.units import Money, ZERO

__all__ = [
    "categorize",
    "span_cost",
    "trace_cost",
    "validate_span_tree",
    "to_jsonl",
    "to_chrome_trace",
    "decomposition_report",
]


# -- cost join -----------------------------------------------------------


def span_cost(span: Span, prices: PriceBook) -> Money:
    """This span's own billed cost (excluding children)."""
    total = ZERO
    for kind, quantity in span.usage:
        total = total + price_usage(kind, quantity, prices)
    return total


def trace_cost(root: Span, prices: PriceBook) -> Money:
    """The whole tree's billed cost."""
    total = ZERO
    for span in root.walk():
        total = total + span_cost(span, prices)
    return total


# -- structural validation ----------------------------------------------


def validate_span_tree(root: Span) -> int:
    """Check the tree's timing invariants; returns the root duration.

    Every child must lie within its parent's interval, siblings must
    not overlap (so self time is never negative), and — the acceptance
    criterion — the sum of every span's self time over the tree must
    equal the root's end-to-end duration *exactly* (integer virtual
    micros, no epsilon).
    """
    for span in root.walk():
        if span.end is None:
            raise SimulationError(f"span {span.name!r} in trace {root.trace_id} never closed")
        cursor = span.start
        for child in span.children:
            if child.start < cursor or child.end > span.end:
                raise SimulationError(
                    f"span {child.name!r} [{child.start}, {child.end}] escapes "
                    f"its parent {span.name!r} [{span.start}, {span.end}]"
                )
            cursor = child.end
        if span.self_micros < 0:
            raise SimulationError(f"span {span.name!r} has negative self time")
    total_self = sum(span.self_micros for span in root.walk())
    if total_self != root.duration_micros:
        raise SimulationError(
            f"trace {root.trace_id}: self times sum to {total_self} us "
            f"but the root spans {root.duration_micros} us"
        )
    return root.duration_micros


# -- serialization -------------------------------------------------------


def _usage_dict(span: Span) -> Dict[str, float]:
    return {getattr(kind, "value", str(kind)): quantity for kind, quantity in span.usage}


def _span_record(span: Span, prices: PriceBook) -> Dict[str, object]:
    cost = span_cost(span, prices)
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "start_us": span.start,
        "end_us": span.end,
        "duration_us": span.duration_micros,
        "self_us": span.self_micros,
        "status": span.status,
        "attrs": span.attrs,
        "annotations": [[at, text] for at, text in span.annotations],
        "usage": _usage_dict(span),
        "cost_usd": str(cost.amount),
    }


def to_jsonl(traces: Iterable[Span], prices: PriceBook) -> str:
    """One JSON object per span: traces in order, each tree depth-first.

    Keys are sorted and separators fixed, so equal trees serialize to
    equal bytes — the determinism tests compare these strings directly.
    """
    lines = []
    for root in traces:
        for span in root.walk():
            lines.append(json.dumps(
                _span_record(span, prices), sort_keys=True, separators=(",", ":")
            ))
    return "\n".join(lines) + ("\n" if lines else "")


def to_chrome_trace(traces: Iterable[Span], prices: PriceBook) -> Dict[str, object]:
    """Chrome ``trace_event`` JSON, one thread lane per trace.

    Timestamps are already microseconds — the unit ``trace_event``
    expects — so virtual time maps straight onto the Perfetto timeline.
    """
    events: List[Dict[str, object]] = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": "diy-sim"}},
    ]
    for lane, root in enumerate(traces, start=1):
        events.append({
            "ph": "M", "name": "thread_name", "pid": 1, "tid": lane,
            "args": {"name": f"trace {root.trace_id[:8]} ({root.name})"},
        })
        for span in root.walk():
            cost = span_cost(span, prices)
            args: Dict[str, object] = {"status": span.status, "span_id": span.span_id}
            if span.usage:
                args["usage"] = _usage_dict(span)
                args["cost_usd"] = str(cost.amount)
            if span.attrs:
                args["attrs"] = span.attrs
            if span.annotations:
                args["annotations"] = [f"t={at}us {text}" for at, text in span.annotations]
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": categorize(span.name),
                "ts": span.start,
                "dur": span.duration_micros,
                "pid": 1,
                "tid": lane,
                "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- critical-path breakdown ---------------------------------------------

# Longest-prefix-wins categories for self-time attribution. The exact
# startup components get their own buckets (the Table 3 story is cold
# start vs everything else); the generic "lambda." / "runtime." rule
# then captures handler compute.
_CATEGORY_RULES: Tuple[Tuple[str, str], ...] = (
    ("lambda.cold_start", "cold_start"),
    ("lambda.warm_start", "warm_start"),
    ("kms.", "kms"),
    ("s3.", "storage"),
    ("dynamo.", "storage"),
    ("sqs.", "queue"),
    ("ses.", "email"),
    ("smtp.", "email"),
    ("gateway.", "network"),
    ("wan.", "network"),
    ("tls.", "network"),
    ("client.", "network"),
    ("lambda.", "compute"),
    ("runtime.", "compute"),
    ("request", "compute"),
)


def categorize(name: str) -> str:
    """Map a span name to its critical-path category."""
    for prefix, category in _CATEGORY_RULES:
        if name.startswith(prefix):
            return category
    return "other"


def decomposition_report(traces: List[Span], prices: PriceBook) -> Dict[str, object]:
    """The latency-decomposition summary ``python -m repro trace`` prints.

    Per retained trace, each category gets one sample: the milliseconds
    of *self* time its spans contributed, so categories sum exactly to
    the root's end-to-end duration. Per category: p50/p95/p99 of those
    samples plus their share of total end-to-end time; alongside, the
    root durations, the per-message delivery waits the SQS receive
    spans observed, and the traced requests' exact cost.
    """
    by_category: Dict[str, MetricSeries] = {}
    total_series = MetricSeries("total")
    queue_wait = MetricSeries("queue_wait")
    for root in traces:
        self_micros: Dict[str, int] = {}
        for span in root.walk():
            category = categorize(span.name)
            self_micros[category] = self_micros.get(category, 0) + span.self_micros
            wait = span.attrs.get("queue_wait_ms")
            if wait:
                queue_wait.extend(wait)
        for category, micros in self_micros.items():
            by_category.setdefault(category, MetricSeries(category)).record(micros / 1000.0)
        total_series.record(root.duration_micros / 1000.0)
    total_ms = total_series.sum()
    categories = {
        name: {
            "p50_ms": round(series.p50(), 3),
            "p95_ms": round(series.p95(), 3),
            "p99_ms": round(series.p99(), 3),
            "total_ms": round(series.sum(), 3),
            "share_pct": round(100.0 * series.sum() / total_ms, 2) if total_ms else 0.0,
        }
        for name, series in sorted(by_category.items())
    }
    costs = [trace_cost(root, prices) for root in traces]
    total_cost = ZERO
    for cost in costs:
        total_cost = total_cost + cost
    micro_usd = sorted(float(cost.amount) * 1e6 for cost in costs)
    return {
        "traces": len(traces),
        "total_ms": {
            "p50": round(total_series.p50(), 3),
            "p95": round(total_series.p95(), 3),
            "p99": round(total_series.p99(), 3),
        } if len(total_series) else None,
        "categories": categories,
        "queue_wait_ms": {
            "p50": round(queue_wait.p50(), 3),
            "p95": round(queue_wait.p95(), 3),
            "p99": round(queue_wait.p99(), 3),
        } if len(queue_wait) else None,
        "cost": {
            "total_usd": str(total_cost.amount),
            "median_trace_micro_usd": round(
                micro_usd[len(micro_usd) // 2], 4
            ) if micro_usd else 0.0,
        },
    }
