"""Device-sweep runner: one launch stream, every device of a zoo.

The sweep is the paper's "what if the platform changes?" axis: the same
Cactus workloads, characterized across a list of
:class:`~repro.gpu.device.DeviceSpec` presets in one run.  Each
workload's launch stream is generated exactly once and the whole device
axis is evaluated in a single batched broadcast pass
(:func:`repro.gpu.batched.simulate_devices`), so an N-device sweep costs
one stream walk plus one vectorized model evaluation — not N scalar
simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.core.characterize import Characterization
from repro.core.config import LAPTOP_SCALE, ScalePreset
from repro.core.resilience import RetryPolicy
from repro.core.suite import RunRecord, SuiteRunReport
from repro.gpu.device import DeviceSpec
from repro.workloads.registry import list_workloads

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import ResultCache


@dataclass
class SweepRunReport(RunRecord):
    """Per-workload, per-device characterizations plus the run record.

    ``results`` maps workload abbreviation → ``{device_name:
    Characterization}`` (workloads in registration order, devices in
    sweep order).  Every engine run produces one of these; a suite run
    is the one-device case, viewed through :meth:`for_device`.
    """

    devices: List[DeviceSpec] = field(default_factory=list)
    preset: ScalePreset = LAPTOP_SCALE
    results: Dict[str, Dict[str, Characterization]] = field(
        default_factory=dict
    )

    def __getitem__(self, abbr: str) -> Dict[str, Characterization]:
        return self.results[abbr.upper()]

    def __contains__(self, abbr: str) -> bool:
        return abbr.upper() in self.results

    def __len__(self) -> int:
        return len(self.results)

    @property
    def device_names(self) -> List[str]:
        return [d.name for d in self.devices]

    def device(self, name: str) -> DeviceSpec:
        """The swept :class:`DeviceSpec` called *name* (exact match)."""
        for spec in self.devices:
            if spec.name == name:
                return spec
        raise KeyError(
            f"device {name!r} not in sweep (have {self.device_names})"
        )

    def for_device(self, name: str) -> SuiteRunReport:
        """One device's slice of the sweep, run record included.

        The returned report is exactly what ``run_suite`` on that device
        yields — ``run_suite`` *is* this view of a one-device sweep — so
        every single-device analysis (suite tables, roofline charts,
        report sections) applies unmodified to a sweep slice.
        """
        return SuiteRunReport(
            device=self.device(name),
            preset=self.preset,
            results={
                abbr: per_device[name]
                for abbr, per_device in self.results.items()
                if name in per_device
            },
            failures=list(self.failures),
            attempts=dict(self.attempts),
            fallback_reason=self.fallback_reason,
            resumed=list(self.resumed),
            run_profile=self.run_profile,
            trace_dir=self.trace_dir,
        )

    def suite(self, suite_name: str) -> List[Dict[str, Characterization]]:
        """Per-device maps of one suite, in registration order."""
        return [
            self.results[abbr]
            for abbr in list_workloads(suite_name)
            if abbr in self.results
        ]


def run_sweep(
    devices: Sequence[DeviceSpec],
    suites: Sequence[str] = ("Cactus",),
    preset: ScalePreset = LAPTOP_SCALE,
    workloads: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    cache: Optional["ResultCache"] = None,
    cache_dir: Optional[str] = None,
    retry_policy: Optional[RetryPolicy] = None,
    keep_going: bool = False,
    journal_dir: Optional[str] = None,
    fault_plan: Optional[Any] = None,
    trace_dir: Optional[str] = None,
) -> SweepRunReport:
    """Characterize the given suites across every device in *devices*.

    Same knobs and failure semantics as
    :func:`~repro.core.suite.run_suite` — jobs, caching, retries,
    journaled resume, tracing — plus *devices* (the sweep axis).  Each
    workload's stream is generated once per run, and only if some
    device misses the result cache; streams are never persisted, so
    adding a device to a swept cache directory regenerates each stream
    once.  This is a thin wrapper over
    :meth:`~repro.core.engine.CharacterizationEngine.run_sweep`.
    """
    from repro.core.cache import ResultCache
    from repro.core.engine import CharacterizationEngine

    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir=cache_dir)
    engine = CharacterizationEngine(
        jobs=jobs,
        cache=cache,
        retry_policy=retry_policy or RetryPolicy(),
        keep_going=keep_going,
        journal_dir=journal_dir,
        fault_plan=fault_plan,
        trace_dir=trace_dir,
    )
    return engine.run_sweep(
        devices, suites=suites, preset=preset, workloads=workloads
    )
