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


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length samples."""
    if len(xs) != len(ys):
        raise ValueError("samples must have the same length")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two samples")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    denominator = math.sqrt(var_x) * math.sqrt(var_y)
    if denominator <= 0.0:
        # A constant sample has no linear relationship to measure
        # (this also guards the underflow of var_x * var_y for
        # subnormal variances).
        return 0.0
    return max(-1.0, min(1.0, cov / denominator))


def _kernel_metric(kernel: KernelProfile, metric: str) -> float:
    if metric == "gips":
        return kernel.gips
    if metric == "instruction_intensity":
        return kernel.instruction_intensity
    return kernel.metrics.metric(metric)


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
    # Each metric's sample, its deviations from the mean and its root
    # sum of squares, once per call: every cell then replays
    # :func:`pearson`'s arithmetic in the same order, bit for bit.
    centred: Dict[str, Tuple[List[float], float]] = {}
    for metric in (*rows, *columns):
        if metric not in centred:
            sample = [_kernel_metric(k, metric) for k in kernels]
            mean = sum(sample) / len(sample)
            deviations = [x - mean for x in sample]
            root = math.sqrt(sum(d ** 2 for d in deviations))
            centred[metric] = (deviations, root)
    values: Dict[Tuple[str, str], float] = {}
    for row in rows:
        dx, root_x = centred[row]
        for column in columns:
            dy, root_y = centred[column]
            cov = sum(map(operator.mul, dx, dy))
            denominator = root_x * root_y
            values[(row, column)] = (
                0.0 if denominator <= 0.0
                else max(-1.0, min(1.0, cov / denominator))
            )
    return CorrelationMatrix(
        rows=tuple(rows), columns=tuple(columns), values=values
    )
