"""Text-table renderers for the paper's exhibits.

A small formatting toolkit shared by the CLI, the report generator and
the benchmark harnesses: fixed-width tables and the Table I renderer.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.analysis.distribution import Table1Row


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    align_right: Optional[Sequence[bool]] = None,
) -> str:
    """Render a fixed-width text table."""
    rows = [[str(cell) for cell in row] for row in rows]
    headers = [str(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    right = align_right or [False] * len(headers)

    def fmt(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            parts.append(cell.rjust(widths[i]) if right[i] else cell.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = [fmt(headers), "-" * (sum(widths) + 2 * (len(widths) - 1))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_table1(rows: Sequence[Table1Row]) -> str:
    """Table I as a text table."""
    return format_table(
        ["abbr", "domain", "total insts", "w-avg/kernel", "k(100%)", "k(70%)"],
        [
            (
                row.abbr,
                row.domain,
                f"{row.total_warp_insts:.3e}",
                f"{row.weighted_avg_insts_per_kernel:.3e}",
                row.kernels_100,
                row.kernels_70,
            )
            for row in rows
        ],
        align_right=[False, False, True, True, True, True],
    )

