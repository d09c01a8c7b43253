"""Profile records: per-kernel aggregates and per-application profiles.

The paper aggregates invocations of the same kernel: kernel *i* invoked
``r_i`` times at ``t_i`` seconds each accumulates ``T_i = r_i * t_i``
GPU time, and the kernel with the highest ``T_i`` is the *dominant*
kernel (Section IV, "Dominant Kernels").  :class:`KernelProfile` holds
that aggregate; :class:`ApplicationProfile` holds the full per-workload
result with the Table I statistics as properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpu.metrics import SECONDARY_METRICS, KernelMetrics


@dataclass
class KernelProfile:
    """Time-weighted aggregate of all invocations of one kernel."""

    name: str
    invocations: int
    total_time_s: float
    total_warp_insts: float
    total_dram_transactions: float
    metrics: KernelMetrics
    tags: Tuple[str, ...] = ()

    @property
    def gips(self) -> float:
        return self.total_warp_insts / self.total_time_s / 1e9

    @property
    def instruction_intensity(self) -> float:
        return self.total_warp_insts / max(1.0, self.total_dram_transactions)


#: Duration-weighted ratio metrics — exactly the Table IV columns.
_RATIO_METRICS: Tuple[str, ...] = SECONDARY_METRICS


def aggregate_launches(
    name: str, records: Sequence[KernelMetrics]
) -> KernelProfile:
    """Fold per-launch metrics of one kernel into a profile.

    Counters add; ratio metrics are weighted by each launch's duration,
    which matches how a profiler averages per-invocation samples.

    The fold is batched: the simulator memoizes metrics per distinct
    kernel, so a stream's record sequence is mostly repeats of the same
    objects.  Grouping by object identity first and weighting by
    multiplicity turns fourteen Python passes over every launch into
    one matrix reduction over the distinct records.
    """
    if not records:
        raise ValueError(f"no launch records for kernel {name!r}")
    index: Dict[int, int] = {}
    unique: List[KernelMetrics] = []
    multiplicity: List[int] = []
    for record in records:
        slot = index.get(id(record))
        if slot is None:
            index[id(record)] = len(unique)
            unique.append(record)
            multiplicity.append(1)
        else:
            multiplicity[slot] += 1

    rows = np.array(
        [
            (r.duration_s, r.warp_insts, r.dram_transactions)
            + tuple(getattr(r, m) for m in _RATIO_METRICS)
            for r in unique
        ],
        dtype=np.float64,
    )
    counts = np.asarray(multiplicity, dtype=np.float64)
    durations = rows[:, 0]
    weights = durations * counts
    total_time = float(weights.sum())
    total_insts = float((rows[:, 1] * counts).sum())
    total_txn = float((rows[:, 2] * counts).sum())
    if total_time > 0:
        averages = (rows[:, 3:] * weights[:, None]).sum(axis=0) / total_time
    else:
        averages = np.zeros(len(_RATIO_METRICS))
    ratio_values = dict(zip(_RATIO_METRICS, map(float, averages)))

    merged = KernelMetrics(
        name=name,
        duration_s=total_time,
        warp_insts=total_insts,
        dram_transactions=total_txn,
        invocations=len(records),
        tags=records[0].tags,
        **ratio_values,
    )
    return KernelProfile(
        name=name,
        invocations=len(records),
        total_time_s=total_time,
        total_warp_insts=total_insts,
        total_dram_transactions=total_txn,
        metrics=merged,
        tags=records[0].tags,
    )


@dataclass
class ApplicationProfile:
    """Full profiling result for one workload.

    Provides the paper's Table I statistics and the dominant-kernel
    selections used throughout Section V.
    """

    workload: str
    suite: str
    domain: str
    kernels: List[KernelProfile] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.kernels.sort(key=lambda k: k.total_time_s, reverse=True)

    # -- basic totals ---------------------------------------------------
    @property
    def total_time_s(self) -> float:
        return sum(k.total_time_s for k in self.kernels)

    @property
    def total_warp_insts(self) -> float:
        return sum(k.total_warp_insts for k in self.kernels)

    @property
    def total_dram_transactions(self) -> float:
        return sum(k.total_dram_transactions for k in self.kernels)

    @property
    def num_kernels(self) -> int:
        """Number of distinct kernels — Table I's '100% execution time'."""
        return len(self.kernels)

    # -- aggregate roofline coordinates (Fig. 5) ------------------------
    @property
    def gips(self) -> float:
        return self.total_warp_insts / self.total_time_s / 1e9

    @property
    def instruction_intensity(self) -> float:
        return self.total_warp_insts / max(1.0, self.total_dram_transactions)

    # -- Table I statistics ----------------------------------------------
    @property
    def total_invocations(self) -> int:
        return sum(k.invocations for k in self.kernels)

    @property
    def weighted_avg_insts_per_kernel(self) -> float:
        """Time-weighted average warp instructions per kernel.

        Table I's 'weighted average no. warp instructions per kernel':
        each kernel's instruction count weighted by its share of GPU
        time.
        """
        total_time = self.total_time_s
        if total_time <= 0:
            return 0.0
        return sum(
            (k.total_warp_insts / k.invocations) * (k.total_time_s / total_time)
            for k in self.kernels
        )

    # -- dominance -------------------------------------------------------
    def kernels_for_time_fraction(self, fraction: float) -> List[KernelProfile]:
        """Smallest prefix of time-ranked kernels covering *fraction*.

        ``fraction=0.7`` yields the paper's dominant-kernel set.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        target = fraction * self.total_time_s
        covered = 0.0
        selected: List[KernelProfile] = []
        for kernel in self.kernels:
            selected.append(kernel)
            covered += kernel.total_time_s
            if covered >= target - 1e-12:
                break
        return selected

    def num_kernels_for_fraction(self, fraction: float) -> int:
        return len(self.kernels_for_time_fraction(fraction))

    @property
    def dominant_kernels(self) -> List[KernelProfile]:
        """Kernels collectively covering >= 70 % of GPU time."""
        return self.kernels_for_time_fraction(0.70)

    @property
    def dominant_kernel(self) -> KernelProfile:
        """The single highest ``r_i x t_i`` kernel."""
        return self.kernels[0]

    def cumulative_time_fractions(self, max_kernels: Optional[int] = None) -> List[float]:
        """Cumulative GPU-time fractions of time-ranked kernels (Fig. 3)."""
        total = self.total_time_s
        fractions: List[float] = []
        covered = 0.0
        for kernel in self.kernels[: max_kernels or len(self.kernels)]:
            covered += kernel.total_time_s
            fractions.append(covered / total)
        return fractions

    def time_shares(self) -> Dict[str, float]:
        """Per-kernel share of total GPU time, keyed by kernel name."""
        total = self.total_time_s
        return {k.name: k.total_time_s / total for k in self.kernels}
