"""Deterministic discrete-time simulation kernel.

The paper's evaluation ran on real AWS in ``us-west-2``; this package is
the substitute substrate. It provides a virtual clock, a discrete-event
scheduler, seeded randomness, latency distributions for each cloud
component, metric collection (medians/percentiles, as Table 3 reports),
and fault injection for availability experiments.
"""
