"""Plain-text table rendering for experiment output.

Each experiment campaign returns a list of dict rows; ``repro run``,
``repro report`` and the benches print them through :func:`render_table`,
so ``repro report`` reproduces every experiment's table in one file.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = ["render_table", "format_value"]


def format_value(value) -> str:
    """Human-compact cell formatting."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def render_table(
    rows: Sequence[Dict], *, title: Optional[str] = None, columns: Optional[List[str]] = None
) -> str:
    """Render dict rows as an aligned fixed-width table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    table = [[format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in table)) for i, col in enumerate(columns)
    ]
    out_lines = []
    if title:
        out_lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    out_lines.append(header)
    out_lines.append("  ".join("-" * w for w in widths))
    for line in table:
        out_lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(out_lines)
