"""Reporting helpers: render paper-style tables and comparisons."""

from repro.analysis.tables import format_table
from repro.analysis.report import PaperComparison, ComparisonRow

__all__ = ["format_table", "PaperComparison", "ComparisonRow"]
