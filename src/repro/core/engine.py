"""Parallel, cache-backed, fault-tolerant suite-characterization engine.

:class:`CharacterizationEngine` is the production path for running the
paper's full top-down pipeline over whole suites.  It layers three
orthogonal capabilities over the naive serial loop:

* **Parallelism** — per-workload characterizations are independent, so
  the engine fans them out across a ``concurrent.futures`` process
  pool (``jobs`` workers).  Results are reassembled in registration
  order, so a parallel run is indistinguishable from a serial one.
* **Result reuse** — an optional :class:`~repro.core.cache.ResultCache`
  memoizes whole :class:`~repro.core.characterize.Characterization`
  objects, keyed on content digests of ``(DeviceSpec,
  SimulationOptions, launch stream)``.  A warm run replays the suite
  from disk without touching the timing model; within one run the
  simulator's in-process memo reuses per-kernel metrics.
* **Fault tolerance** — every worker exception is captured into a
  structured :class:`~repro.core.resilience.WorkloadFailure` instead of
  aborting the suite; a :class:`~repro.core.resilience.RetryPolicy`
  retries transient failures with deterministic backoff and enforces a
  per-workload wall-clock timeout (a hung worker is killed and the pool
  rebuilt); a broken pool rebuilds once and then degrades to the serial
  path with a recorded ``fallback_reason``; and an optional
  :class:`~repro.core.journal.RunJournal` checkpoints each completed
  workload so an interrupted run resumes where it left off — even with
  the cache disabled.

Failure disposition is the caller's choice: with ``keep_going=True``
the run returns a :class:`~repro.core.suite.SuiteRunReport` carrying
both survivors and failures; otherwise a terminal failure raises
:class:`~repro.core.resilience.SuiteRunError` (which still carries the
partial report — completed work is journaled, never discarded).

Correctness of the whole stack is enforced by the differential harness
(``tests/engine/test_differential.py``: serial == parallel == cold ==
warm, bit-for-bit), the golden suite (``tests/golden``), and the
fault-injection suite (``tests/robustness``) driven by
:class:`~repro.testing.faults.FaultPlan`.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.cache import CacheStats, ResultCache
from repro.core.characterize import (
    Characterization,
    characterize,
    characterize_devices,
)
from repro.core.config import LAPTOP_SCALE, ScalePreset
from repro.core.journal import RunJournal, SweepJournal
from repro.core.streamcache import StreamCache
from repro.core.resilience import (
    RetryPolicy,
    SuiteRunError,
    WorkloadFailure,
)
from repro.gpu.device import RTX_3080, DeviceSpec
from repro.gpu.digest import CACHE_SCHEMA_VERSION, stable_digest
from repro.gpu.simulator import GPUSimulator, SimulationOptions
from repro.obs import NULL_TRACER, ObsSession, TraceHandoff, Tracer, worker_tracer
from repro.profiler.profiler import Profiler
from repro.workloads.registry import get_workload, list_workloads

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.testing.faults import FaultPlan

#: Environments where a process pool cannot even be created
#: (restricted sandboxes, missing ``os.fork`` / semaphores).
_POOL_UNAVAILABLE = (OSError, PermissionError, NotImplementedError)


def _resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` request: None/0 → 1, negative → cpu count."""
    if jobs is None or jobs == 0:
        return 1
    if jobs < 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def _characterize_one(
    abbr: str,
    scale: float,
    seed: int,
    device: DeviceSpec,
    options: SimulationOptions,
    cache_dir: Optional[str],
    attempt: int = 1,
    fault_plan: Optional["FaultPlan"] = None,
    handoff: Optional[TraceHandoff] = None,
) -> Tuple[str, Characterization, CacheStats, Optional[dict]]:
    """Worker body: characterize one workload from its identity.

    Module-level (picklable) so it can run inside a process pool; each
    worker opens its own handle on the shared cache directory — entry
    writes are atomic, so concurrent workers can share it safely.  The
    optional *fault_plan* hooks are strict no-ops when the plan is
    empty (the fault-free differential test pins this).

    *handoff* (see :mod:`repro.obs`) roots this attempt's spans under
    the parent's suite span and — when tracing is enabled — appends
    them to this worker's own ``events-<pid>.jsonl``.  The worker's
    metrics snapshot rides back on the result tuple; a failed attempt
    still flushes its error span before the exception crosses the pool
    boundary.
    """
    tracer = worker_tracer(handoff)
    cache = ResultCache(cache_dir=cache_dir) if cache_dir else None
    if cache is not None:
        cache.tracer = tracer
    try:
        with tracer.span(
            "attempt",
            category="workload",
            workload=abbr,
            attempt=attempt,
            mode="pool",
        ):
            if fault_plan is not None:
                fault_plan.before(abbr, attempt)
            profiler = Profiler(
                simulator=GPUSimulator(device, options=options, tracer=tracer)
            )
            workload = get_workload(abbr, scale=scale, seed=seed)
            result = characterize(
                workload,
                device=device,
                profiler=profiler,
                cache=cache,
                tracer=tracer,
            )
            if fault_plan is not None:
                result = fault_plan.after(abbr, attempt, result, cache)
    finally:
        if tracer.sink is not None:
            tracer.sink.close()
    snapshot = tracer.metrics.snapshot() if tracer.metrics else None
    stats = cache.stats if cache is not None else CacheStats()
    return abbr, result, stats, snapshot


def _sweep_one(
    abbr: str,
    scale: float,
    seed: int,
    devices: Tuple[DeviceSpec, ...],
    options: SimulationOptions,
    cache_dir: Optional[str],
    stream_cache_dir: Optional[str],
    attempt: int = 1,
    fault_plan: Optional["FaultPlan"] = None,
    handoff: Optional[TraceHandoff] = None,
) -> Tuple[str, Dict[str, Characterization], CacheStats, Optional[dict]]:
    """Pool worker for device sweeps: one workload, every device.

    The sweep fans out over *workloads* (not workload x device): each
    worker owns one workload end to end, generates (or loads) its
    stream exactly once, and runs the batched device-axis simulator for
    whatever the result cache does not already hold.  Same pool
    contract as :func:`_characterize_one` — picklable, atomic shared
    caches, spans rooted via *handoff*, metrics snapshot on the result
    tuple.
    """
    tracer = worker_tracer(handoff)
    cache = ResultCache(cache_dir=cache_dir) if cache_dir else None
    if cache is not None:
        cache.tracer = tracer
    stream_cache = (
        StreamCache(cache_dir=stream_cache_dir) if stream_cache_dir else None
    )
    if stream_cache is not None:
        stream_cache.tracer = tracer
    try:
        with tracer.span(
            "attempt",
            category="workload",
            workload=abbr,
            attempt=attempt,
            mode="pool-sweep",
            devices=len(devices),
        ):
            if fault_plan is not None:
                fault_plan.before(abbr, attempt)
            workload = get_workload(abbr, scale=scale, seed=seed)
            result = characterize_devices(
                workload,
                list(devices),
                options=options,
                cache=cache,
                stream_cache=stream_cache,
                tracer=tracer,
            )
    finally:
        if tracer.sink is not None:
            tracer.sink.close()
    snapshot = tracer.metrics.snapshot() if tracer.metrics else None
    stats = cache.stats if cache is not None else CacheStats()
    return abbr, result, stats, snapshot


@dataclass
class _ExecutionOutcome:
    """Mutable scratchpad for one execution strategy's results."""

    results: Dict[str, Characterization] = field(default_factory=dict)
    failures: List[WorkloadFailure] = field(default_factory=list)
    attempts: Dict[str, int] = field(default_factory=dict)
    fallback_reason: Optional[str] = None

    @property
    def resolved(self) -> set:
        return set(self.results) | {f.abbr for f in self.failures}


@dataclass
class CharacterizationEngine:
    """Runs per-workload characterizations, possibly in parallel.

    Parameters
    ----------
    device, options:
        The simulated platform and simulator switches, shared by every
        workload of a run (both are part of every cache key).
    jobs:
        Worker processes for suite runs.  ``None``/``0``/``1`` → serial;
        negative → one worker per CPU.
    cache:
        Optional result cache.  Pass ``ResultCache()`` for an in-memory
        LRU or ``ResultCache(cache_dir=...)`` for cross-run persistence.
    retry_policy:
        Retry/timeout/backoff policy for suite runs (see
        :class:`~repro.core.resilience.RetryPolicy`).
    keep_going:
        ``True`` → failed workloads are collected into the run report
        and the suite completes over the survivors.  ``False``
        (default) → any terminal failure raises
        :class:`~repro.core.resilience.SuiteRunError` carrying the
        partial report.
    journal_dir:
        Optional checkpoint directory; an interrupted run with the
        same identity resumes there and skips completed workloads.
    fault_plan:
        Deterministic fault-injection plan (testing only); ``None`` and
        an empty plan are strict no-ops.
    trace_dir:
        Optional observability directory (see :mod:`repro.obs`): suite
        runs append a JSONL event log there and export a Chrome/
        Perfetto trace on completion.  Run metrics (``run_profile`` on
        the report) are collected either way; with ``trace_dir=None``
        no file is ever touched.
    """

    device: DeviceSpec = RTX_3080
    options: SimulationOptions = field(default_factory=SimulationOptions)
    jobs: Optional[int] = None
    cache: Optional[ResultCache] = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    keep_going: bool = False
    journal_dir: Optional[str] = None
    fault_plan: Optional["FaultPlan"] = None
    trace_dir: Optional[str] = None
    #: Optional device-independent launch-stream cache (see
    #: :mod:`repro.core.streamcache`).  When absent but ``cache`` has a
    #: disk tier, sweeps derive one under ``<cache_dir>/streams``.
    stream_cache: Optional[StreamCache] = None
    #: Per-run stream memo: ``id(workload) -> (workload, stream)``.  The
    #: strong workload reference pins the id against reuse; entries live
    #: for the engine's lifetime, so characterizing the same workload
    #: object twice (e.g. on two devices) generates its stream once.
    _stream_memo: Dict[int, tuple] = field(
        default_factory=dict, repr=False, compare=False
    )

    # -- single workload ----------------------------------------------
    def memoized_stream(self, workload, profiler: Profiler):
        """*workload*'s prepared stream, generated at most once per run."""
        entry = self._stream_memo.get(id(workload))
        if entry is not None and entry[0] is workload:
            return entry[1]
        stream = profiler.prepare_stream(workload)
        self._stream_memo[id(workload)] = (workload, stream)
        return stream

    def characterize(self, workload) -> Characterization:
        """Characterize one instantiated workload (serial, cached).

        Streams are memoized on the engine: calling this twice with the
        same workload object — including with a different ``device`` set
        between calls — pays stream generation once.
        """
        profiler = Profiler(
            simulator=GPUSimulator(self.device, options=self.options)
        )
        stream = self.memoized_stream(workload, profiler)
        return characterize(
            workload,
            device=self.device,
            profiler=profiler,
            cache=self.cache,
            stream=stream,
        )

    # -- whole suites --------------------------------------------------
    def select(
        self,
        suites: Sequence[str],
        workloads: Optional[Sequence[str]] = None,
    ) -> List[str]:
        """Workload abbreviations of *suites*, in registration order."""
        selected: List[str] = []
        for suite in suites:
            selected.extend(list_workloads(suite))
        if workloads is not None:
            wanted = {w.upper() for w in workloads}
            selected = [abbr for abbr in selected if abbr in wanted]
        if not selected:
            raise ValueError(f"no workloads selected from suites {suites!r}")
        return selected

    def run_key(self, preset: ScalePreset, selected: Sequence[str]) -> str:
        """Content digest identifying one run for journal resumption."""
        return stable_digest(
            [
                "suite-run",
                CACHE_SCHEMA_VERSION,
                self.device,
                self.options,
                preset,
                list(selected),
            ]
        )

    def run_suite(
        self,
        suites: Sequence[str] = ("Cactus",),
        preset: ScalePreset = LAPTOP_SCALE,
        workloads: Optional[Sequence[str]] = None,
    ):
        """Characterize every workload of *suites* into a SuiteRunReport.

        Results are keyed and ordered deterministically by the suite
        registration order regardless of worker completion order;
        failed workloads are simply absent from ``results`` and listed
        (also in registration order) in ``failures``.
        """
        from repro.core.suite import SuiteRunReport

        selected = self.select(suites, workloads)
        jobs = _resolve_jobs(self.jobs)
        report = SuiteRunReport(device=self.device, preset=preset)

        session = ObsSession(self.trace_dir)
        self._session = session
        restore_cache_tracer = False
        if self.cache is not None and self.cache.tracer is None:
            # Serial-path and in-process cache traffic count toward this
            # run's metrics; detached again before returning.
            self.cache.tracer = session.tracer
            restore_cache_tracer = True
        try:
            with session.tracer.span(
                "suite-run",
                category="suite",
                suites=list(suites),
                preset=preset.name,
                jobs=jobs,
                selected=len(selected),
            ):
                journal: Optional[RunJournal] = None
                completed: Dict[str, Characterization] = {}
                if self.journal_dir is not None:
                    journal = RunJournal(
                        self.journal_dir,
                        self.run_key(preset, selected),
                        tracer=session.tracer,
                    )
                    completed = journal.begin(selected)
                    report.resumed = [a for a in selected if a in completed]

                # One engine execution == one tick of this counter.  The
                # service layer's request coalescing is proven against it:
                # N coalesced submissions must leave engine.runs == 1 in
                # the job's run profile.
                session.tracer.incr("engine.runs")
                remaining = [a for a in selected if a not in completed]
                outcome = _ExecutionOutcome(results=dict(completed))
                if remaining:
                    if jobs > 1:
                        self._run_parallel(
                            remaining, preset, jobs, journal, outcome
                        )
                        remaining = [
                            a for a in remaining if a not in outcome.resolved
                        ]
                    if remaining:  # serial path, or parallel degraded mid-run
                        self._run_serial(remaining, preset, journal, outcome)

                for abbr in selected:
                    if abbr in outcome.results:
                        report.results[abbr] = outcome.results[abbr]
                order = {abbr: idx for idx, abbr in enumerate(selected)}
                report.failures = sorted(
                    outcome.failures,
                    key=lambda f: order.get(f.abbr, len(order)),
                )
                report.attempts = dict(outcome.attempts)
                report.fallback_reason = outcome.fallback_reason
                session.tracer.incr(
                    "engine.workloads_completed",
                    float(len(outcome.results) - len(completed)),
                )
                session.tracer.incr(
                    "engine.workloads_failed", float(len(report.failures))
                )
                if journal is not None:
                    journal.finish(ok=not report.failures)
        finally:
            if restore_cache_tracer and self.cache is not None:
                self.cache.tracer = None
            # The profile and trace ride on the report even when the
            # run failed (strict mode re-raises below with the report
            # attached) — a failed run is exactly when you want them.
            report.run_profile = session.run_profile()
            session.finalize()
            if session.tracing and session.trace_dir is not None:
                report.trace_dir = str(session.trace_dir)
            self._session = None

        if report.failures and not self.keep_going:
            raise SuiteRunError(report, report.failures)
        return report

    # -- device sweeps -------------------------------------------------
    def sweep_run_key(
        self,
        preset: ScalePreset,
        selected: Sequence[str],
        devices: Sequence[DeviceSpec],
    ) -> str:
        """Content digest identifying one sweep run (journal identity)."""
        return stable_digest(
            [
                "sweep-run",
                CACHE_SCHEMA_VERSION,
                list(devices),
                self.options,
                preset,
                list(selected),
            ]
        )

    def _sweep_stream_cache(self) -> Optional[StreamCache]:
        """The sweep's stream cache (explicit, derived, or None)."""
        if self.stream_cache is not None:
            return self.stream_cache
        if self.cache is not None and self.cache.cache_dir is not None:
            return StreamCache(
                cache_dir=os.path.join(str(self.cache.cache_dir), "streams")
            )
        return None

    def _stream_cache_dir_arg(self) -> Optional[str]:
        stream_cache = self._sweep_stream_cache()
        if (
            stream_cache is not None
            and stream_cache.backend.cache_dir is not None
        ):
            return str(stream_cache.backend.cache_dir)
        return None

    def run_sweep(
        self,
        devices: Sequence[DeviceSpec],
        suites: Sequence[str] = ("Cactus",),
        preset: ScalePreset = LAPTOP_SCALE,
        workloads: Optional[Sequence[str]] = None,
    ):
        """Characterize every workload of *suites* across N devices.

        The sweep fans out over **workloads** — one pool task per
        workload, each owning the full device axis — because stream
        generation is the expensive, device-independent part: every
        stream is generated exactly once per run (and cached
        device-free in the stream cache for the next run), while the
        device axis is evaluated in one batched broadcast pass per
        workload (:func:`repro.gpu.batched.simulate_devices`).

        Shares the engine's retry/timeout/pool-rebuild machinery,
        journal/resume (a :class:`~repro.core.journal.SweepJournal`
        keyed on the device list), obs spans, and the scalar-compatible
        result cache — a prior ``run_suite`` on any zoo device warm-
        starts the sweep and vice versa.  Returns a
        :class:`~repro.core.sweep.SweepRunReport`; in strict mode
        (``keep_going=False``) terminal failures raise
        :class:`~repro.core.resilience.SuiteRunError` carrying it.
        """
        from repro.core.sweep import SweepRunReport

        devices = list(devices)
        if not devices:
            raise ValueError("run_sweep needs at least one device")
        names = [d.name for d in devices]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate device names in sweep: {names}")

        selected = self.select(suites, workloads)
        jobs = _resolve_jobs(self.jobs)
        report = SweepRunReport(devices=devices, preset=preset)

        session = ObsSession(self.trace_dir)
        self._session = session
        restore_cache_tracer = False
        if self.cache is not None and self.cache.tracer is None:
            self.cache.tracer = session.tracer
            restore_cache_tracer = True
        stream_cache = self._sweep_stream_cache()
        if stream_cache is not None and stream_cache.tracer is None:
            stream_cache.tracer = session.tracer
        try:
            with session.tracer.span(
                "sweep-run",
                category="suite",
                suites=list(suites),
                preset=preset.name,
                jobs=jobs,
                selected=len(selected),
                devices=names,
            ):
                session.tracer.incr("engine.runs")
                journal: Optional[SweepJournal] = None
                completed: Dict[str, Dict[str, Characterization]] = {}
                if self.journal_dir is not None:
                    journal = SweepJournal(
                        self.journal_dir,
                        self.sweep_run_key(preset, selected, devices),
                        tracer=session.tracer,
                    )
                    completed = journal.begin(selected)
                    report.resumed = [a for a in selected if a in completed]

                remaining = [a for a in selected if a not in completed]
                outcome = _ExecutionOutcome(results=dict(completed))
                if remaining:
                    if jobs > 1:
                        cache_dir = self._cache_dir_arg()
                        stream_cache_dir = self._stream_cache_dir_arg()
                        device_tuple = tuple(devices)

                        def submit_sweep(pool, abbr, attempt, handoff):
                            return pool.submit(
                                _sweep_one,
                                abbr,
                                preset.for_workload(abbr),
                                preset.seed,
                                device_tuple,
                                self.options,
                                cache_dir,
                                stream_cache_dir,
                                attempt,
                                self.fault_plan,
                                handoff,
                            )

                        self._run_parallel(
                            remaining, preset, jobs, journal, outcome,
                            submit_task=submit_sweep,
                        )
                        remaining = [
                            a for a in remaining if a not in outcome.resolved
                        ]
                    if remaining:  # serial path, or parallel degraded
                        tracer = session.tracer

                        def run_one_sweep(abbr: str, attempt: int):
                            if self.fault_plan is not None:
                                self.fault_plan.before(abbr, attempt)
                            workload = get_workload(
                                abbr,
                                scale=preset.for_workload(abbr),
                                seed=preset.seed,
                            )
                            return characterize_devices(
                                workload,
                                devices,
                                options=self.options,
                                cache=self.cache,
                                stream_cache=stream_cache,
                                tracer=tracer,
                            )

                        self._run_serial(
                            remaining, preset, journal, outcome,
                            run_one=run_one_sweep, mode="serial-sweep",
                        )

                for abbr in selected:
                    if abbr in outcome.results:
                        report.results[abbr] = outcome.results[abbr]
                order = {abbr: idx for idx, abbr in enumerate(selected)}
                report.failures = sorted(
                    outcome.failures,
                    key=lambda f: order.get(f.abbr, len(order)),
                )
                report.attempts = dict(outcome.attempts)
                report.fallback_reason = outcome.fallback_reason
                session.tracer.incr(
                    "engine.workloads_completed",
                    float(len(outcome.results) - len(completed)),
                )
                session.tracer.incr(
                    "engine.workloads_failed", float(len(report.failures))
                )
                session.tracer.incr(
                    "engine.sweep_devices", float(len(devices))
                )
                if journal is not None:
                    journal.finish(ok=not report.failures)
        finally:
            if restore_cache_tracer and self.cache is not None:
                self.cache.tracer = None
            if stream_cache is not None and stream_cache.tracer is session.tracer:
                stream_cache.tracer = None
            report.run_profile = session.run_profile()
            session.finalize()
            if session.tracing and session.trace_dir is not None:
                report.trace_dir = str(session.trace_dir)
            self._session = None

        if report.failures and not self.keep_going:
            raise SuiteRunError(report, report.failures)
        return report

    # -- observability access ------------------------------------------
    @property
    def _obs(self) -> Optional[ObsSession]:
        """The live run's observability session (None outside a run)."""
        return getattr(self, "_session", None)

    @property
    def _tracer(self) -> Tracer:
        session = self._obs
        return session.tracer if session is not None else NULL_TRACER

    # -- execution strategies ------------------------------------------
    def _record_success(
        self,
        outcome: _ExecutionOutcome,
        journal: Optional[RunJournal],
        abbr: str,
        result: Characterization,
        stats: Optional[CacheStats],
        attempts: int,
        snapshot: Optional[dict] = None,
    ) -> None:
        outcome.results[abbr] = result
        outcome.attempts[abbr] = attempts
        if stats is not None and self.cache is not None:
            self.cache.stats.merge(stats)
        if snapshot is not None and self._obs is not None:
            self._obs.absorb(snapshot)
        if journal is not None:
            journal.mark_done(abbr, result, attempts=attempts)

    def _run_serial(
        self,
        selected: Sequence[str],
        preset: ScalePreset,
        journal: Optional[RunJournal],
        outcome: _ExecutionOutcome,
        run_one=None,
        mode: str = "serial",
    ) -> None:
        """In-process loop with retry + failure isolation.

        The attempt body is pluggable: *run_one(abbr, attempt)* produces
        the result recorded for one workload (the default characterizes
        it on ``self.device``, sharing one profiler — and its kernel
        memo — across workloads; the sweep path characterizes it across
        a device list).  Per-workload timeouts cannot be enforced here —
        a running characterization cannot be preempted in-process — so
        ``retry_policy.timeout_s`` only applies on the pool path.
        """
        policy = self.retry_policy
        tracer = self._tracer
        if run_one is None:
            profiler = Profiler(
                simulator=GPUSimulator(
                    self.device, options=self.options, tracer=tracer
                )
            )

            def run_one(abbr: str, attempt: int):
                if self.fault_plan is not None:
                    self.fault_plan.before(abbr, attempt)
                workload = get_workload(
                    abbr,
                    scale=preset.for_workload(abbr),
                    seed=preset.seed,
                )
                result = characterize(
                    workload,
                    device=self.device,
                    profiler=profiler,
                    cache=self.cache,
                    tracer=tracer,
                )
                if self.fault_plan is not None:
                    result = self.fault_plan.after(
                        abbr, attempt, result, self.cache
                    )
                return result

        for abbr in selected:
            attempt = 0
            started = time.monotonic()
            while True:
                attempt += 1
                try:
                    with tracer.span(
                        "attempt",
                        category="workload",
                        workload=abbr,
                        attempt=attempt,
                        mode=mode,
                    ):
                        result = run_one(abbr, attempt)
                except Exception as exc:
                    if policy.should_retry(exc, attempt):
                        delay = policy.backoff_s(abbr, attempt)
                        tracer.event(
                            "retry",
                            category="resilience",
                            workload=abbr,
                            attempt=attempt,
                            sleep_s=delay,
                            error=type(exc).__name__,
                        )
                        tracer.incr("engine.retries")
                        time.sleep(delay)
                        continue
                    outcome.failures.append(
                        WorkloadFailure.from_exception(
                            abbr,
                            exc,
                            phase="characterize",
                            attempts=attempt,
                            elapsed_s=time.monotonic() - started,
                        )
                    )
                    outcome.attempts[abbr] = attempt
                    break
                else:
                    self._record_success(
                        outcome, journal, abbr, result, None, attempt
                    )
                    break

    def _cache_dir_arg(self) -> Optional[str]:
        if self.cache is not None and self.cache.cache_dir is not None:
            return str(self.cache.cache_dir)
        return None

    def _new_pool(self, jobs: int, tasks: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=min(jobs, tasks))

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Forcefully tear down a pool (hung or broken workers)."""
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _run_parallel(
        self,
        selected: Sequence[str],
        preset: ScalePreset,
        jobs: int,
        journal: Optional[RunJournal],
        outcome: _ExecutionOutcome,
        submit_task=None,
    ) -> None:
        """Fan out across a process pool with retry/timeout/rebuild.

        The submitted task is pluggable: *submit_task(pool, abbr,
        attempt, handoff)* returns the wave's future for one workload
        (default: :func:`_characterize_one` on ``self.device``; the
        sweep path submits :func:`_sweep_one` over a device list).
        Every worker must return the ``(abbr, result, stats, snapshot)``
        tuple this loop harvests.

        Work proceeds in waves: every unresolved workload is submitted,
        then awaited in registration order under the per-workload
        timeout.  A timed-out worker is killed (the pool is rebuilt —
        a deliberate kill, not counted against the broken-pool budget);
        a spontaneously broken pool rebuilds once and then the engine
        degrades to the serial path for whatever is left, recording
        ``fallback_reason``.  Attempt counts advance only for the
        workload whose own outcome was observed — innocent bystanders
        of a pool kill are resubmitted under the same attempt number.
        """
        policy = self.retry_policy
        tracer = self._tracer
        session = self._obs
        cache_dir = self._cache_dir_arg()
        if submit_task is None:

            def submit_task(pool, abbr: str, attempt: int, handoff):
                return pool.submit(
                    _characterize_one,
                    abbr,
                    preset.for_workload(abbr),
                    preset.seed,
                    self.device,
                    self.options,
                    cache_dir,
                    attempt,
                    self.fault_plan,
                    handoff,
                )

        try:
            pool = self._new_pool(jobs, len(selected))
        except _POOL_UNAVAILABLE as exc:
            outcome.fallback_reason = (
                f"process pool unavailable: {type(exc).__name__}: {exc}"
            )
            tracer.event(
                "pool.fallback-serial",
                category="resilience",
                reason=outcome.fallback_reason,
            )
            tracer.incr("engine.pool_fallbacks")
            warnings.warn(
                f"{outcome.fallback_reason}; falling back to serial "
                f"execution",
                RuntimeWarning,
                stacklevel=2,
            )
            return

        attempts: Dict[str, int] = {abbr: 0 for abbr in selected}
        started: Dict[str, float] = {}
        pending = [a for a in selected if a not in outcome.resolved]
        rebuilds_left = 1

        def elapsed(abbr: str) -> float:
            return time.monotonic() - started.get(abbr, time.monotonic())

        def submit(abbr: str):
            if attempts[abbr] and policy.backoff_base_s:
                delay = policy.backoff_s(abbr, attempts[abbr])
                tracer.event(
                    "retry",
                    category="resilience",
                    workload=abbr,
                    attempt=attempts[abbr] + 1,
                    sleep_s=delay,
                    mode="pool",
                )
                tracer.incr("engine.retries")
                time.sleep(delay)
            started.setdefault(abbr, time.monotonic())
            return submit_task(
                pool,
                abbr,
                attempts[abbr] + 1,
                session.handoff() if session is not None else None,
            )

        def harvest(futures: Dict[str, Future], skip: str) -> None:
            """Bank finished bystander results after a pool disruption."""
            for other, fut in futures.items():
                if other == skip or other not in pending or not fut.done():
                    continue
                try:
                    _, result, stats, snapshot = fut.result(timeout=0)
                except Exception:
                    continue  # its failure will be re-observed on resubmit
                self._record_success(
                    outcome, journal, other, result, stats,
                    attempts[other] + 1, snapshot,
                )
                pending.remove(other)

        def rebuild(reason: str) -> bool:
            """Replace the pool; False → caller must degrade to serial."""
            nonlocal pool
            self._kill_pool(pool)
            tracer.event(
                "pool.rebuild", category="resilience", reason=reason
            )
            tracer.incr("engine.pool_rebuilds")
            try:
                pool = self._new_pool(jobs, max(len(pending), 1))
            except _POOL_UNAVAILABLE as exc:
                outcome.fallback_reason = (
                    f"pool rebuild failed after {reason}: "
                    f"{type(exc).__name__}: {exc}"
                )
                tracer.event(
                    "pool.fallback-serial",
                    category="resilience",
                    reason=outcome.fallback_reason,
                )
                tracer.incr("engine.pool_fallbacks")
                warnings.warn(
                    f"{outcome.fallback_reason}; degrading to serial "
                    f"execution",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return False
            return True

        def settle(abbr: str, exc: BaseException, phase: str) -> None:
            """A genuine attempt by *abbr* failed: retry or record."""
            attempts[abbr] += 1
            if policy.should_retry(exc, attempts[abbr]):
                return  # stays pending; resubmitted next wave
            outcome.failures.append(
                WorkloadFailure.from_exception(
                    abbr,
                    exc,
                    phase=phase,
                    attempts=attempts[abbr],
                    elapsed_s=elapsed(abbr),
                )
            )
            outcome.attempts[abbr] = attempts[abbr]
            pending.remove(abbr)

        try:
            while pending:
                futures: Dict[str, Future] = {}
                disrupted = False
                try:
                    for abbr in pending:
                        futures[abbr] = submit(abbr)
                except (RuntimeError, OSError) as exc:
                    # Covers BrokenExecutor and every _POOL_UNAVAILABLE
                    # member (both are RuntimeError/OSError subclasses).
                    # Pool died before the wave was even fully submitted.
                    if rebuilds_left > 0:
                        rebuilds_left -= 1
                        if rebuild(f"submit-time {type(exc).__name__}"):
                            continue
                    else:
                        outcome.fallback_reason = (
                            f"process pool broke twice: "
                            f"{type(exc).__name__}: {exc}"
                        )
                        tracer.event(
                            "pool.fallback-serial",
                            category="resilience",
                            reason=outcome.fallback_reason,
                        )
                        tracer.incr("engine.pool_fallbacks")
                        warnings.warn(
                            f"{outcome.fallback_reason}; degrading to "
                            f"serial execution",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        self._kill_pool(pool)
                    return
                for abbr in list(futures):
                    if abbr not in pending:
                        continue
                    fut = futures[abbr]
                    try:
                        _, result, stats, snapshot = fut.result(
                            timeout=policy.timeout_s
                        )
                    except FuturesTimeout:
                        # Hung worker: kill the pool, bank bystanders,
                        # rebuild (deliberate — not budget-counted).
                        timeout_exc = TimeoutError(
                            f"workload {abbr} exceeded the per-workload "
                            f"timeout of {policy.timeout_s}s"
                        )
                        tracer.event(
                            "timeout.kill",
                            category="resilience",
                            workload=abbr,
                            attempt=attempts[abbr] + 1,
                            timeout_s=policy.timeout_s,
                        )
                        tracer.incr("engine.timeouts")
                        harvest(futures, skip=abbr)
                        settle(abbr, timeout_exc, phase="timeout")
                        disrupted = True
                        if not rebuild("timeout kill"):
                            return
                        break
                    except BrokenExecutor as exc:
                        # A worker died hard.  Every outstanding future
                        # raises the same BrokenProcessPool, so the
                        # culprit cannot be attributed from here — no
                        # workload is charged an attempt.  Bank finished
                        # bystanders, then rebuild once; on a second
                        # break, degrade to the serial path, which
                        # isolates the real culprit exactly.
                        harvest(futures, skip="")
                        disrupted = True
                        if rebuilds_left > 0:
                            rebuilds_left -= 1
                            if rebuild(type(exc).__name__):
                                break
                        outcome.fallback_reason = (
                            f"process pool broke twice: "
                            f"{type(exc).__name__}: {exc}"
                        )
                        tracer.event(
                            "pool.fallback-serial",
                            category="resilience",
                            reason=outcome.fallback_reason,
                        )
                        tracer.incr("engine.pool_fallbacks")
                        warnings.warn(
                            f"{outcome.fallback_reason}; degrading to "
                            f"serial execution",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        self._kill_pool(pool)
                        return
                    except Exception as exc:
                        # Raised inside the worker and pickled back:
                        # the pool itself is healthy.
                        settle(abbr, exc, phase="characterize")
                    else:
                        attempts[abbr] += 1
                        self._record_success(
                            outcome, journal, abbr, result, stats,
                            attempts[abbr], snapshot,
                        )
                        pending.remove(abbr)
                if disrupted:
                    continue
        finally:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    # -- reporting ------------------------------------------------------
    @property
    def cache_stats(self) -> Optional[CacheStats]:
        return self.cache.stats if self.cache is not None else None
