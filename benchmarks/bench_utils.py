"""Reporting helpers shared by the benches.

The benches only assert; every ``BENCH_*.json`` record is written by
its ``python -m repro`` command.
"""

from __future__ import annotations

from repro.analysis import PaperComparison

__all__ = ["attach_and_print"]


def attach_and_print(benchmark, comparison: PaperComparison) -> None:
    """Record the paper-vs-measured rows on the benchmark and print them."""
    print()
    print(comparison.render())
    for row in comparison.rows:
        benchmark.extra_info[row.metric] = {
            "paper": str(row.paper),
            "measured": str(row.measured),
            "ratio": round(row.ratio, 3),
        }
