"""Profile diffing: compare two runs of (nominally) the same workload.

The tool a performance engineer reaches for after any change — a new
device, a model revision, a different input: which kernels appeared or
disappeared, and how did the shared ones move?  Nothing in the
package calls it: ``examples/profile_diff.py`` diffs one workload's
profiles on two devices with it (both from one
``characterize_devices`` call), and ``tests/profiler/test_diffing.py``
pins its arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.profiler.records import ApplicationProfile


@dataclass(frozen=True)
class KernelDelta:
    """Per-kernel change between a baseline and a candidate profile."""

    name: str
    baseline_time_s: float
    candidate_time_s: float
    baseline_share: float
    candidate_share: float

    @property
    def speedup(self) -> float:
        """baseline / candidate durations (>1 means the candidate is
        faster)."""
        return self.baseline_time_s / self.candidate_time_s


@dataclass
class ProfileDiff:
    """Structured diff of two application profiles."""

    baseline: str
    candidate: str
    shared: List[KernelDelta]
    only_in_baseline: Tuple[str, ...]
    only_in_candidate: Tuple[str, ...]
    total_speedup: float

    def regressions(self, threshold: float = 0.95) -> List[KernelDelta]:
        """Shared kernels that got slower than *threshold* speedup."""
        return [d for d in self.shared if d.speedup < threshold]

    def render(self, top: int = 10) -> str:
        lines = [
            f"{self.baseline} -> {self.candidate}: "
            f"total speedup {self.total_speedup:.2f}x"
        ]
        ordered = sorted(
            self.shared, key=lambda d: d.baseline_time_s, reverse=True
        )
        for delta in ordered[:top]:
            lines.append(
                f"  {delta.name:<44} {delta.speedup:6.2f}x "
                f"(share {delta.baseline_share:5.1%} -> "
                f"{delta.candidate_share:5.1%})"
            )
        if self.only_in_baseline:
            lines.append(
                f"  only in baseline: {', '.join(self.only_in_baseline)}"
            )
        if self.only_in_candidate:
            lines.append(
                f"  only in candidate: {', '.join(self.only_in_candidate)}"
            )
        return "\n".join(lines)


def diff_profiles(
    baseline: ApplicationProfile, candidate: ApplicationProfile
) -> ProfileDiff:
    """Diff two profiles by kernel name."""
    base_by_name: Dict[str, float] = {
        k.name: k.total_time_s for k in baseline.kernels
    }
    cand_by_name: Dict[str, float] = {
        k.name: k.total_time_s for k in candidate.kernels
    }
    shared_names = sorted(base_by_name.keys() & cand_by_name.keys())
    shared = [
        KernelDelta(
            name=name,
            baseline_time_s=base_by_name[name],
            candidate_time_s=cand_by_name[name],
            baseline_share=base_by_name[name] / baseline.total_time_s,
            candidate_share=cand_by_name[name] / candidate.total_time_s,
        )
        for name in shared_names
    ]
    return ProfileDiff(
        baseline=baseline.workload,
        candidate=candidate.workload,
        shared=shared,
        only_in_baseline=tuple(
            sorted(base_by_name.keys() - cand_by_name.keys())
        ),
        only_in_candidate=tuple(
            sorted(cand_by_name.keys() - base_by_name.keys())
        ),
        total_speedup=baseline.total_time_s / candidate.total_time_s,
    )
