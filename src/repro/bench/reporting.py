"""Plain-text table rendering for the CLI and the examples.

Renders rows the way the paper prints them: fixed-width columns and
rounded values.
"""

from __future__ import annotations

from collections.abc import Sequence


def format_value(value: object, digits: int = 2) -> str:
    """Numbers rounded to ``digits``; integral floats printed as ints."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == int(value):
            return str(int(value))
        return f"{value:.{digits}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    digits: int = 2,
) -> str:
    """A fixed-width text table (paper style)."""
    formatted = [[format_value(cell, digits) for cell in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in formatted), 1)
        if formatted
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in formatted:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(line.rstrip() for line in lines)
