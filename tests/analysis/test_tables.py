"""Tests for the text-table renderers."""

import pytest

from repro.analysis.distribution import Table1Row, table1_row
from repro.analysis.tables import format_table, render_table1


class TestFormatTable:
    def test_alignment_and_padding(self):
        table = format_table(
            ["name", "value"],
            [("a", 1), ("long-name", 22)],
            align_right=[False, True],
        )
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert lines[-1].endswith("22")
        # Right-aligned column: both rows end at the same offset.
        assert len(lines[2]) == len(lines[3])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row width"):
            format_table(["a", "b"], [("x",)])

    def test_empty_rows_ok(self):
        table = format_table(["a", "b"], [])
        assert "a" in table


class TestPaperRenderers:
    def test_render_table1(self):
        rows = [
            Table1Row(
                workload="Gromacs", abbr="GMS", domain="Molecular",
                total_warp_insts=3.06e11,
                weighted_avg_insts_per_kernel=4.3e7,
                kernels_100=9, kernels_70=3,
            )
        ]
        text = render_table1(rows)
        assert "GMS" in text and "3.060e+11" in text
