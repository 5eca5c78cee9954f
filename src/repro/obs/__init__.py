"""repro.obs — deterministic distributed tracing, metrics, and SLOs.

The observability substrate: span trees over virtual time
(:mod:`repro.obs.trace`), bounded retention with deterministic head
sampling (:mod:`repro.obs.collector`), exporters that join spans with
billed usage (:mod:`repro.obs.export`), the health-plane time series
(:mod:`repro.obs.metrics`), and the SLO/burn-rate layer on top
(:mod:`repro.obs.slo`).
"""
