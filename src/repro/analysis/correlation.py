"""Pearson-correlation analysis (Section V.C, Fig. 8).

Correlates the four primary metrics (GIPS, instruction intensity, SM
efficiency, warp occupancy) against the Table IV profiler metrics over
a population of kernels, and bands the absolute coefficients the way
Fig. 8 colours them: black (strong, 0.5-1.0), gray (weak, 0.2-0.5),
white (none, < 0.2).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence, Tuple

from repro.gpu.metrics import PRIMARY_METRICS, SECONDARY_METRICS
from repro.profiler.records import ApplicationProfile, KernelProfile


class CorrelationBand(Enum):
    """Fig. 8's three-way colour code."""

    NONE = "white"  # |PCC| in [0, 0.2)
    WEAK = "gray"  # |PCC| in [0.2, 0.5)
    STRONG = "black"  # |PCC| in [0.5, 1]

    @classmethod
    def from_value(cls, pcc: float) -> "CorrelationBand":
        magnitude = abs(pcc)
        if magnitude >= 0.5:
            return cls.STRONG
        if magnitude >= 0.2:
            return cls.WEAK
        return cls.NONE


def _centred(sample: Sequence[float]) -> Tuple[List[float], float]:
    """A sample's deviations from its mean and their root sum of squares.

    A constant sample (``max == min``) has root 0.0: its deviations are
    rounding noise of the mean (``[1.9] * 3`` averages to
    1.9000000000000001), not spread.
    """
    mean = sum(sample) / len(sample)
    deviations = [x - mean for x in sample]
    if max(sample) == min(sample):
        return deviations, 0.0
    return deviations, math.sqrt(sum(d ** 2 for d in deviations))


def _pcc(x: Tuple[List[float], float], y: Tuple[List[float], float]) -> float:
    """Pearson's coefficient of two :func:`_centred` samples."""
    (dx, root_x), (dy, root_y) = x, y
    denominator = root_x * root_y
    if denominator <= 0.0:
        # A constant sample has no linear relationship to measure
        # (this also guards the underflow of var_x * var_y for
        # subnormal variances).
        return 0.0
    return max(-1.0, min(1.0, sum(map(operator.mul, dx, dy)) / denominator))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length samples."""
    if len(xs) != len(ys):
        raise ValueError("samples must have the same length")
    if len(xs) < 2:
        raise ValueError("need at least two samples")
    return _pcc(_centred(xs), _centred(ys))


@dataclass
class CorrelationMatrix:
    """|PCC| values and bands for primary x secondary metrics."""

    rows: Tuple[str, ...]
    columns: Tuple[str, ...]
    values: Dict[Tuple[str, str], float]

    def value(self, row: str, column: str) -> float:
        return self.values[(row, column)]

    def band(self, row: str, column: str) -> CorrelationBand:
        return CorrelationBand.from_value(self.values[(row, column)])

    def correlated_columns(self, row: str) -> List[str]:
        """Columns with at least weak correlation for *row* (|PCC|>=0.2)."""
        return [
            col
            for col in self.columns
            if self.band(row, col) is not CorrelationBand.NONE
        ]

    def render(self) -> str:
        """Text table with the Fig. 8 colour code (#=black, +=gray)."""
        symbol = {
            CorrelationBand.STRONG: "#",
            CorrelationBand.WEAK: "+",
            CorrelationBand.NONE: ".",
        }
        width = max(len(c) for c in self.columns)
        lines = []
        for col_index in range(width):
            header = " " * 24 + " ".join(
                (c.ljust(width)[col_index] if col_index < len(c) else " ")
                for c in self.columns
            )
            lines.append(header)
        for row in self.rows:
            cells = " ".join(
                symbol[self.band(row, col)] for col in self.columns
            )
            lines.append(f"{row:<24}{cells}")
        lines.append("# strong (|PCC|>=0.5)   + weak (0.2<=|PCC|<0.5)   . none")
        return "\n".join(lines)


def correlation_matrix(
    profiles: Sequence[ApplicationProfile],
    rows: Sequence[str] = PRIMARY_METRICS,
    columns: Sequence[str] = SECONDARY_METRICS,
    dominant_only: bool = False,
) -> CorrelationMatrix:
    """Fig. 8's correlation matrix over a suite's kernels."""
    kernels: List[KernelProfile] = []
    for profile in profiles:
        kernels.extend(
            profile.dominant_kernels if dominant_only else profile.kernels
        )
    if len(kernels) < 2:
        raise ValueError("need at least two kernels to correlate")
    # Each metric is centred once per call, not once per cell.
    centred: Dict[str, Tuple[List[float], float]] = {}
    for metric in (*rows, *columns):
        if metric not in centred:
            centred[metric] = _centred(
                [k.metric(metric) for k in kernels]
            )
    values = {
        (row, column): _pcc(centred[row], centred[column])
        for row in rows
        for column in columns
    }
    return CorrelationMatrix(
        rows=tuple(rows), columns=tuple(columns), values=values
    )
