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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.characterize import Characterization
from repro.core.config import LAPTOP_SCALE, ScalePreset
from repro.core.resilience import RetryPolicy, WorkloadFailure
from repro.gpu.device import DeviceSpec
from repro.workloads.registry import list_workloads

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import ResultCache
    from repro.core.streamcache import StreamCache
    from repro.core.suite import SuiteResult
    from repro.obs import RunProfile
    from repro.testing.faults import FaultPlan


@dataclass
class SweepRunReport:
    """Per-workload, per-device characterizations plus the run record.

    ``results`` maps workload abbreviation → ``{device_name:
    Characterization}`` (workloads in registration order, devices in
    sweep order).  Every entry is bit-for-bit identical to what a
    scalar :func:`~repro.core.characterize.characterize` run on that
    single device would produce — the differential suite
    (``tests/engine/test_sweep.py``) pins this.
    """

    devices: List[DeviceSpec] = field(default_factory=list)
    preset: ScalePreset = LAPTOP_SCALE
    results: Dict[str, Dict[str, Characterization]] = field(
        default_factory=dict
    )
    failures: List[WorkloadFailure] = field(default_factory=list)
    #: Attempt counts per executed workload (resumed ones are absent).
    attempts: Dict[str, int] = field(default_factory=dict)
    #: Why the engine degraded from the pool to the serial path, if it did.
    fallback_reason: Optional[str] = None
    #: Workloads skipped because a journal marked them already complete.
    resumed: List[str] = field(default_factory=list)
    #: Aggregated run observability (see :mod:`repro.obs`).
    run_profile: Optional["RunProfile"] = None
    #: Where the run's event log / Chrome trace landed, if tracing was on.
    trace_dir: Optional[str] = None

    def __getitem__(self, abbr: str) -> Dict[str, Characterization]:
        return self.results[abbr.upper()]

    def __contains__(self, abbr: str) -> bool:
        return abbr.upper() in self.results

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failed_workloads(self) -> List[str]:
        return [f.abbr for f in self.failures]

    @property
    def device_names(self) -> List[str]:
        return [d.name for d in self.devices]

    def failure_for(self, abbr: str) -> Optional[WorkloadFailure]:
        for failure in self.failures:
            if failure.abbr == abbr.upper():
                return failure
        return None

    def render_failures(self) -> str:
        """One line per failed workload (empty string when all passed)."""
        return "\n".join(f.render() for f in self.failures)

    def device(self, name: str) -> DeviceSpec:
        """The swept :class:`DeviceSpec` called *name* (exact match)."""
        for spec in self.devices:
            if spec.name == name:
                return spec
        raise KeyError(
            f"device {name!r} not in sweep (have {self.device_names})"
        )

    def for_device(self, name: str) -> "SuiteResult":
        """One device's slice of the sweep as a plain SuiteResult.

        The returned object is interchangeable with what ``run_suite``
        on that device alone would yield (minus the run record), so
        every existing single-device analysis — suite tables, roofline
        charts, report sections — applies unmodified to a sweep slice.
        """
        from repro.core.suite import SuiteResult

        spec = self.device(name)
        return SuiteResult(
            device=spec,
            preset=self.preset,
            results={
                abbr: per_device[name]
                for abbr, per_device in self.results.items()
                if name in per_device
            },
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
    stream_cache: Optional["StreamCache"] = None,
    retry_policy: Optional[RetryPolicy] = None,
    keep_going: bool = False,
    journal_dir: Optional[str] = None,
    fault_plan: Optional["FaultPlan"] = None,
    trace_dir: Optional[str] = None,
) -> SweepRunReport:
    """Characterize the given suites across every device in *devices*.

    Same knobs and failure semantics as
    :func:`~repro.core.suite.run_suite` — jobs, caching, retries,
    journaled resume, tracing — plus *devices* (the sweep axis) and an
    optional *stream_cache*.  With ``cache_dir`` set and no explicit
    stream cache, launch streams persist under ``<cache_dir>/streams``
    automatically.  This is a thin wrapper over
    :meth:`~repro.core.engine.CharacterizationEngine.run_sweep`.
    """
    from repro.core.cache import ResultCache
    from repro.core.engine import CharacterizationEngine

    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir=cache_dir)
    engine = CharacterizationEngine(
        jobs=jobs,
        cache=cache,
        stream_cache=stream_cache,
        retry_policy=retry_policy or RetryPolicy(),
        keep_going=keep_going,
        journal_dir=journal_dir,
        fault_plan=fault_plan,
        trace_dir=trace_dir,
    )
    return engine.run_sweep(
        devices, suites=suites, preset=preset, workloads=workloads
    )
