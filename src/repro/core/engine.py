"""Parallel, cache-backed, fault-tolerant characterization engine.

:class:`CharacterizationEngine` is the production path for running the
paper's full top-down pipeline over whole suites, on one device or a
list of them.  There is one execution path: a run characterizes each
selected workload across a device list, and a suite run is the
one-device case (:meth:`~CharacterizationEngine.run_suite` returns one
device's slice of that run).  It layers three orthogonal capabilities
over the naive serial loop:

* **Parallelism** — per-workload characterizations are independent, so
  the engine fans them out across a ``concurrent.futures`` process
  pool (``jobs`` workers).  Results are reassembled in registration
  order, so a parallel run is indistinguishable from a serial one.
* **Result reuse** — an optional :class:`~repro.core.cache.ResultCache`
  memoizes whole :class:`~repro.core.characterize.Characterization`
  objects, keyed on the recipe ``(DeviceSpec, SimulationOptions, abbr,
  scale, seed)`` the engine rebuilds each workload from.  A warm run
  replays the suite from disk without generating a single stream;
  within one workload the simulator's in-process memo reuses
  per-kernel metrics.
* **Fault tolerance** — every worker exception is captured into a
  structured :class:`~repro.core.resilience.WorkloadFailure` instead of
  aborting the run; a :class:`~repro.core.resilience.RetryPolicy`
  retries transient failures with deterministic backoff and enforces a
  per-workload wall-clock timeout (a hung worker is killed and the pool
  rebuilt); a broken pool rebuilds once and then degrades to the serial
  path with a recorded ``fallback_reason``; and an optional
  :class:`~repro.core.journal.RunJournal` marks each completed
  workload so an interrupted run resumes where it left off, reading the
  marked results back from the result cache — a private one under the
  journal directory when the cache is disabled or memory-only.

Failure disposition is the caller's choice: with ``keep_going=True``
the run returns a report carrying both survivors and failures;
otherwise a terminal failure raises
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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.cache import CacheStats, ResultCache, characterization_key
from repro.core.characterize import (
    Characterization,
    characterize_devices,
    generate_stream,
)
from repro.core.config import LAPTOP_SCALE, ScalePreset
from repro.core.journal import RunJournal
from repro.core.serialize import (
    characterization_from_dict,
    characterization_to_dict,
)
from repro.core.resilience import (
    RetryPolicy,
    SuiteRunError,
    WorkloadFailure,
)
from repro.core.suite import SuiteRunReport
from repro.core.sweep import SweepRunReport
from repro.gpu.device import RTX_3080, DeviceSpec
from repro.gpu.digest import (
    CACHE_SCHEMA_VERSION,
    launch_stream_digest,
    stable_digest,
)
from repro.gpu.simulator import SimulationOptions
from repro.obs import NULL_TRACER, ObsSession, TraceHandoff, Tracer, worker_tracer
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


def _lookup(
    abbr: str,
    preset: ScalePreset,
    devices: Sequence[DeviceSpec],
    options: SimulationOptions,
    cache: ResultCache,
    tracer: Tracer,
) -> Tuple[Dict[str, str], Dict[str, Tuple[Characterization, Optional[str]]]]:
    """Probe *cache* for one workload on every device of the run.

    Returns ``(keys, hits)``: each device's recipe key and, for the
    devices that hit, the characterization with its ``stream_digest``.
    An entry that parses but is not a characterization is quarantined
    like an unparsable one (:meth:`~repro.core.cache.ResultCache.reject`)
    and left out of *hits*.  Shared by :func:`_attempt` and journal
    resume, so both read results through one key and one codec.
    """
    scale, seed = preset.for_workload(abbr), preset.seed
    keys: Dict[str, str] = {}
    hits: Dict[str, Tuple[Characterization, Optional[str]]] = {}
    with tracer.span(
        "cache-lookup", category="phase", workload=abbr, devices=len(devices)
    ) as sp:
        for device in devices:
            keys[device.name] = key = characterization_key(
                device, options, abbr, scale, seed
            )
            payload = cache.get(key)
            if payload is None:
                continue
            try:
                hits[device.name] = (
                    characterization_from_dict(payload),
                    payload.get("stream_digest"),
                )
            except (KeyError, TypeError, ValueError):
                cache.reject(key)  # schema-corrupt → recompute
        sp.set_attr("hits", len(hits))
    return keys, hits


def _attempt(
    abbr: str,
    preset: ScalePreset,
    devices: Sequence[DeviceSpec],
    options: SimulationOptions,
    cache: Optional[ResultCache],
    tracer: Tracer,
    attempt: int,
    fault_plan: Optional["FaultPlan"],
    mode: str,
) -> Dict[str, Characterization]:
    """One attempt at one workload across every device of the run.

    The only attempt body, shared by the serial loop (``mode="serial"``)
    and the pool worker (``mode="pool"``).  The engine rebuilds every
    workload as ``get_workload(abbr, scale, seed)``, so it probes the
    result cache under those recipe keys first (:func:`_lookup`); if
    every device hits, no workload or stream is built.  Otherwise the
    stream is generated and digested once, and the missed devices go
    through :func:`~repro.core.characterize.characterize_devices`,
    stored with that ``stream_digest``.  A hit whose ``stream_digest``
    differs from the stream in hand is stale: recomputed, overwritten
    and counted in ``cache.stale``.  The *fault_plan* hooks run once per
    attempt and are strict no-ops when the plan is empty.
    """
    with tracer.span(
        "attempt",
        category="workload",
        workload=abbr,
        attempt=attempt,
        mode=mode,
        devices=len(devices),
    ):
        if fault_plan is not None:
            fault_plan.before(abbr, attempt)
        keys, hits = (
            _lookup(abbr, preset, devices, options, cache, tracer)
            if cache is not None
            else ({}, {})
        )
        result = {name: hit[0] for name, hit in hits.items()}
        if len(hits) < len(devices):
            scale, seed = preset.for_workload(abbr), preset.seed
            workload = get_workload(abbr, scale=scale, seed=seed)
            stream = generate_stream(workload, tracer)
            digest = (
                launch_stream_digest(stream) if cache is not None else None
            )
            stale = [n for n, hit in hits.items() if hit[1] != digest]
            if stale:
                tracer.incr("cache.stale", float(len(stale)))
            fresh = characterize_devices(
                workload,
                [d for d in devices if d.name not in hits or d.name in stale],
                options=options,
                tracer=tracer,
                stream=stream,
            )
            if cache is not None:
                with tracer.span(
                    "cache-store",
                    category="phase",
                    workload=abbr,
                    devices=len(fresh),
                ):
                    for name, characterization in fresh.items():
                        payload = characterization_to_dict(characterization)
                        payload["stream_digest"] = digest
                        cache.put(keys[name], payload)
            result.update(fresh)
        result = {device.name: result[device.name] for device in devices}
        if fault_plan is not None:
            result = fault_plan.after(abbr, attempt, result, cache)
    return result


def _sweep_one(
    abbr: str,
    preset: ScalePreset,
    devices: Sequence[DeviceSpec],
    options: SimulationOptions,
    cache_dir: Optional["os.PathLike[str] | str"],
    attempt: int = 1,
    fault_plan: Optional["FaultPlan"] = None,
    handoff: Optional[TraceHandoff] = None,
) -> Tuple[str, Dict[str, Characterization], CacheStats, Optional[dict]]:
    """Pool worker: one workload, every device of the run.

    Module-level (picklable) so it can run inside a process pool.  Each
    worker owns one workload end to end, generates its stream at most
    once, and opens its own handle on the shared cache directory —
    entry writes are atomic, so concurrent workers can share it safely.

    *handoff* (see :mod:`repro.obs`) roots this attempt's spans under
    the parent's run span and — when tracing is enabled — appends them
    to this worker's own ``events-<pid>.jsonl``.  The worker's metrics
    snapshot rides back on the result tuple; a failed attempt still
    flushes its error span before the exception crosses the pool
    boundary.
    """
    tracer = worker_tracer(handoff)
    cache = ResultCache(cache_dir=cache_dir, tracer=tracer) if cache_dir else None
    try:
        result = _attempt(
            abbr, preset, devices, options, cache, tracer, attempt,
            fault_plan, mode="pool",
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

    results: Dict[str, Dict[str, Characterization]] = field(
        default_factory=dict
    )
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
        The simulated platform of :meth:`run_suite` and the simulator
        switches shared by every workload of a run (both are part of
        every cache key).
    jobs:
        Worker processes.  ``None``/``0``/``1`` → serial; negative →
        one worker per CPU.
    cache:
        Optional result cache.  Pass ``ResultCache()`` for an in-memory
        LRU or ``ResultCache(cache_dir=...)`` for cross-run persistence.
    retry_policy:
        Retry/timeout/backoff policy (see
        :class:`~repro.core.resilience.RetryPolicy`).
    keep_going:
        ``True`` → failed workloads are collected into the run report
        and the run completes over the survivors.  ``False`` (default)
        → any terminal failure raises
        :class:`~repro.core.resilience.SuiteRunError` carrying the
        partial report.
    journal_dir:
        Optional checkpoint directory; an interrupted run with the
        same identity resumes there and skips completed workloads.
        Without a disk-backed *cache*, the run keeps its results in a
        private cache under ``<journal_dir>/results``.
    fault_plan:
        Deterministic fault-injection plan (testing only); ``None`` and
        an empty plan are strict no-ops.
    trace_dir:
        Optional observability directory (see :mod:`repro.obs`): runs
        append a JSONL event log there and export a Chrome/Perfetto
        trace on completion.  Run metrics (``run_profile`` on the
        report) are collected either way; with ``trace_dir=None`` no
        file is ever touched.
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
        """Content digest identifying one suite run (journal identity)."""
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

    # -- the two views of one run --------------------------------------
    def run_suite(
        self,
        suites: Sequence[str] = ("Cactus",),
        preset: ScalePreset = LAPTOP_SCALE,
        workloads: Optional[Sequence[str]] = None,
    ) -> SuiteRunReport:
        """Characterize every workload of *suites* on ``self.device``.

        A one-device run viewed through
        :meth:`~repro.core.sweep.SweepRunReport.for_device`, with its
        own journal identity (:meth:`run_key`).
        """
        selected = self.select(suites, workloads)
        report = self._run(
            [self.device],
            suites,
            preset,
            selected,
            run_key=self.run_key(preset, selected),
            span="suite-run",
        )
        return self._settle(report.for_device(self.device.name))

    def run_sweep(
        self,
        devices: Sequence[DeviceSpec],
        suites: Sequence[str] = ("Cactus",),
        preset: ScalePreset = LAPTOP_SCALE,
        workloads: Optional[Sequence[str]] = None,
    ) -> SweepRunReport:
        """Characterize every workload of *suites* across N devices.

        Each stream is generated at most once per run, and only when
        some device misses the result cache.  Result cache keys are the
        ones :meth:`run_suite` uses, so a suite run on any zoo device
        warm-starts the sweep and vice versa.
        """
        devices = list(devices)
        selected = self.select(suites, workloads)
        report = self._run(
            devices,
            suites,
            preset,
            selected,
            run_key=self.sweep_run_key(preset, selected, devices),
            span="sweep-run",
        )
        return self._settle(report)

    def _settle(self, report):
        """Strict mode: terminal failures raise with *report* attached."""
        if report.failures and not self.keep_going:
            raise SuiteRunError(report, report.failures)
        return report

    # -- the one execution path ----------------------------------------
    def _run(
        self,
        devices: List[DeviceSpec],
        suites: Sequence[str],
        preset: ScalePreset,
        selected: List[str],
        run_key: str,
        span: str,
    ) -> SweepRunReport:
        """Characterize *selected* across *devices*.

        The run fans out over **workloads** — one task per workload,
        each owning the full device axis — because stream generation is
        the expensive, device-independent part: it happens once per
        workload and the device axis is evaluated in one batched pass
        (:func:`repro.gpu.batched.simulate_devices`).  Results are
        ordered by registration order regardless of worker completion
        order; failed workloads are absent from ``results`` and listed
        (also in registration order) in ``failures``.  *run_key* is the
        journal identity and *span* names the run's root span.
        """
        names = [d.name for d in devices]
        if not devices:
            raise ValueError("a run needs at least one device")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate device names in sweep: {names}")

        jobs = _resolve_jobs(self.jobs)
        report = SweepRunReport(devices=devices, preset=preset)

        session = ObsSession(self.trace_dir)
        self._session = session
        # In-process cache traffic counts toward this run's metrics;
        # the tracer is detached again before returning.
        if self.cache is not None and self.cache.tracer is None:
            self.cache.tracer = session.tracer
        try:
            with session.tracer.span(
                span,
                category="suite",
                suites=list(suites),
                preset=preset.name,
                jobs=jobs,
                selected=len(selected),
                devices=names,
            ):
                # One engine execution == one tick of this counter.  The
                # service layer's request coalescing is proven against it:
                # N coalesced submissions must leave engine.runs == 1 in
                # the job's run profile.
                session.tracer.incr("engine.runs")
                journal: Optional[RunJournal] = None
                marked: Set[str] = set()
                if self.journal_dir is not None:
                    journal = RunJournal(
                        self.journal_dir, run_key, tracer=session.tracer
                    )
                    marked = journal.begin(selected)
                cache = self._run_cache(journal, session.tracer)

                # A marked workload resumes only if every device's entry
                # is still in the cache; otherwise it simply re-runs.
                outcome = _ExecutionOutcome()
                for abbr in (a for a in selected if a in marked):
                    _, hits = _lookup(
                        abbr, preset, devices, self.options, cache,
                        session.tracer,
                    )
                    if len(hits) == len(devices):
                        outcome.results[abbr] = {
                            name: hit[0] for name, hit in hits.items()
                        }
                report.resumed = list(outcome.results)
                session.tracer.incr(
                    "engine.workloads_resumed", float(len(report.resumed))
                )

                remaining = [a for a in selected if a not in outcome.results]
                if remaining:
                    if jobs > 1:
                        self._run_parallel(
                            remaining, preset, devices, jobs, cache,
                            journal, outcome,
                        )
                        remaining = [
                            a for a in remaining if a not in outcome.resolved
                        ]
                    if remaining:  # serial path, or parallel degraded
                        self._run_serial(
                            remaining, preset, devices, cache, journal,
                            outcome,
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
                    float(len(outcome.results) - len(report.resumed)),
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
            if self.cache is not None and self.cache.tracer is session.tracer:
                self.cache.tracer = None
            # The profile and trace ride on the report even when the
            # run failed (strict mode raises with the report attached)
            # — a failed run is exactly when you want them.
            report.run_profile = session.run_profile()
            session.finalize()
            if session.tracing and session.trace_dir is not None:
                report.trace_dir = str(session.trace_dir)
            self._session = None
        return report

    def _run_cache(
        self, journal: Optional[RunJournal], tracer: Tracer
    ) -> Optional[ResultCache]:
        """The cache one run reads and writes.

        A journaled run resumes from cached entries, so without a disk
        tier in ``self.cache`` it uses a private cache under the journal
        directory that counts into ``self.cache``'s stats.
        """
        if journal is None or (
            self.cache is not None and self.cache.cache_dir is not None
        ):
            return self.cache
        return ResultCache(
            cache_dir=journal.results_dir,
            stats=self.cache.stats if self.cache is not None else CacheStats(),
            tracer=tracer,
        )

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
        result: Dict[str, Characterization],
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
            # Written after the attempt's atomic entry writes, so every
            # marked workload's entries exist.
            journal.mark_done(abbr, attempts=attempts)

    def _run_serial(
        self,
        selected: Sequence[str],
        preset: ScalePreset,
        devices: Sequence[DeviceSpec],
        cache: Optional[ResultCache],
        journal: Optional[RunJournal],
        outcome: _ExecutionOutcome,
    ) -> None:
        """In-process loop with retry + failure isolation.

        Per-workload timeouts cannot be enforced here — a running
        characterization cannot be preempted in-process — so
        ``retry_policy.timeout_s`` only applies on the pool path.
        """
        policy = self.retry_policy
        tracer = self._tracer
        for abbr in selected:
            attempt = 0
            started = time.monotonic()
            while True:
                attempt += 1
                try:
                    result = _attempt(
                        abbr,
                        preset,
                        devices,
                        self.options,
                        cache,
                        tracer,
                        attempt,
                        self.fault_plan,
                        mode="serial",
                    )
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

    def _fall_back(self, outcome: _ExecutionOutcome, reason: str) -> None:
        """Record why the run degrades to the serial path, and warn."""
        outcome.fallback_reason = reason
        self._tracer.event(
            "pool.fallback-serial", category="resilience", reason=reason
        )
        self._tracer.incr("engine.pool_fallbacks")
        warnings.warn(
            f"{reason}; degrading to serial execution",
            RuntimeWarning,
            stacklevel=4,
        )

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
        devices: Sequence[DeviceSpec],
        jobs: int,
        cache: Optional[ResultCache],
        journal: Optional[RunJournal],
        outcome: _ExecutionOutcome,
    ) -> None:
        """Fan :func:`_sweep_one` out across a process pool.

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
        cache_dir = cache.cache_dir if cache is not None else None

        try:
            pool = self._new_pool(jobs, len(selected))
        except _POOL_UNAVAILABLE as exc:
            self._fall_back(
                outcome, f"process pool unavailable: {type(exc).__name__}: {exc}"
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
            return pool.submit(
                _sweep_one,
                abbr,
                preset,
                devices,
                self.options,
                cache_dir,
                attempts[abbr] + 1,
                self.fault_plan,
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
                self._fall_back(
                    outcome,
                    f"pool rebuild failed after {reason}: "
                    f"{type(exc).__name__}: {exc}",
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
                        self._fall_back(
                            outcome,
                            f"process pool broke twice: "
                            f"{type(exc).__name__}: {exc}",
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
                        self._fall_back(
                            outcome,
                            f"process pool broke twice: "
                            f"{type(exc).__name__}: {exc}",
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
