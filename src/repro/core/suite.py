"""Suite runner: characterize whole benchmark suites in one call."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.core.characterize import Characterization
from repro.core.config import LAPTOP_SCALE, ScalePreset
from repro.core.resilience import RetryPolicy, WorkloadFailure, settle
from repro.gpu.device import RTX_3080, DeviceSpec
from repro.gpu.simulator import SimulationOptions
from repro.workloads.registry import list_workloads

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import ResultCache
    from repro.obs import RunProfile


@dataclass
class RunRecord:
    """The failure/resilience record every engine run report carries.

    Shared by :class:`SuiteRunReport` and
    :class:`~repro.core.sweep.SweepRunReport`: workloads that failed
    terminally are listed in ``failures`` (registration order) with
    their full tracebacks instead of appearing in the results.
    """

    failures: List[WorkloadFailure] = field(default_factory=list)
    #: Attempt counts per workload, resumed ones included.
    attempts: Dict[str, int] = field(default_factory=dict)
    #: Why the engine degraded from the pool to the serial path, if it did.
    fallback_reason: Optional[str] = None
    #: Workloads of a journaled run whose first attempt hit the cache on
    #: every device (completed by an earlier run; no stream was built).
    resumed: List[str] = field(default_factory=list)
    #: Aggregated run observability (repro.obs): per-phase wall clock,
    #: cache hit/miss counters, retries, queue waits — merged across
    #: every worker of the run.  Always populated by the engine.
    run_profile: Optional["RunProfile"] = None
    #: Where the run's event log / Chrome trace were written (if tracing
    #: was enabled via ``trace_dir``).
    trace_dir: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failed_workloads(self) -> List[str]:
        return [f.abbr for f in self.failures]

    def failure_for(self, abbr: str) -> Optional[WorkloadFailure]:
        for failure in self.failures:
            if failure.abbr == abbr.upper():
                return failure
        return None

    def render_failures(self) -> str:
        """One line per failed workload (empty string when all passed)."""
        return "\n".join(f.render() for f in self.failures)


@dataclass
class SuiteRunReport(RunRecord):
    """One device's characterizations, keyed by abbreviation, plus the
    run's :class:`RunRecord`.

    ``results`` holds the *surviving* characterizations (registration
    order); every workload that failed terminally appears instead in
    ``failures``.  Downstream analyses degrade gracefully: suite
    aggregates are computed over the survivors, and :meth:`suite`
    skips absent workloads.
    """

    device: DeviceSpec = RTX_3080
    preset: ScalePreset = LAPTOP_SCALE
    results: Dict[str, Characterization] = field(default_factory=dict)

    def __getitem__(self, abbr: str) -> Characterization:
        return self.results[abbr.upper()]

    def __contains__(self, abbr: str) -> bool:
        return abbr.upper() in self.results

    def __len__(self) -> int:
        return len(self.results)

    def suite(self, name: str) -> List[Characterization]:
        """Characterizations of one suite, in registration order."""
        return [
            self.results[abbr]
            for abbr in list_workloads(name)
            if abbr in self.results
        ]

    def profiles(self, name: Optional[str] = None):
        items = (
            self.suite(name) if name else list(self.results.values())
        )
        return [c.profile for c in items]


def run_suite(
    suites: Sequence[str] = ("Cactus",),
    preset: ScalePreset = LAPTOP_SCALE,
    device: DeviceSpec = RTX_3080,
    workloads: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    cache: Optional["ResultCache"] = None,
    retry_policy: Optional[RetryPolicy] = None,
    keep_going: bool = False,
    journal_dir: Optional[str] = None,
    fault_plan: Optional[Any] = None,
    trace_dir: Optional[str] = None,
    options: Optional[SimulationOptions] = None,
) -> SuiteRunReport:
    """Characterize every workload of the given suites.

    Pass ``workloads`` to restrict to specific abbreviations, *options*
    to change the simulator switches (e.g. an ablation), ``jobs``
    to fan out across a process pool (negative → one worker per CPU),
    and ``cache=ResultCache(dir)`` to reuse results across runs.
    Failure semantics are governed by *retry_policy* (retries,
    per-workload timeout, backoff) and *keep_going*: when ``True`` the
    returned :class:`SuiteRunReport` carries survivors plus failures;
    when ``False`` (strict, the default) any terminal failure raises
    :class:`~repro.core.resilience.SuiteRunError`.  *journal_dir*
    checkpoints completed workloads so an interrupted run resumes
    there, even with the cache disabled.  *trace_dir* enables the
    :mod:`repro.obs` event log and Chrome-trace export for the run
    (run metrics on ``report.run_profile`` are collected regardless).
    A suite run is a one-device sweep: this runs
    :meth:`~repro.core.engine.CharacterizationEngine.run_sweep` on
    ``[device]`` and returns that device's view, strict mode settled on
    the view (so ``SuiteRunError.report`` is a :class:`SuiteRunReport`).
    """
    from repro.core.engine import CharacterizationEngine

    engine = CharacterizationEngine(
        options=options or SimulationOptions(),
        jobs=jobs,
        cache=cache,
        retry_policy=retry_policy or RetryPolicy(),
        journal_dir=journal_dir,
        fault_plan=fault_plan,
        trace_dir=trace_dir,
    )
    run = engine.run_sweep(
        [device], suites=suites, preset=preset, workloads=workloads
    )
    return settle(run.for_device(device.name), keep_going)
