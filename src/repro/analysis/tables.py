"""Plain-text table rendering for bench output."""

from __future__ import annotations

from typing import List, Sequence

from repro.units import Money

__all__ = ["format_table"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned plain-text table."""
    cells: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_render(value) for value in row])
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]

    def _line(row: List[str]) -> str:
        return "  ".join(value.ljust(width) for value, width in zip(row, widths)).rstrip()

    separator = "  ".join("-" * width for width in widths)
    body = [_line(cells[0]), separator] + [_line(row) for row in cells[1:]]
    if title:
        body.insert(0, title)
    return "\n".join(body)


def _render(value: object) -> str:
    if isinstance(value, Money):
        return str(value)
    if isinstance(value, float):
        return f"{value:,.2f}"
    return str(value)
