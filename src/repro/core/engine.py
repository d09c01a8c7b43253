"""Parallel, cache-backed, fault-tolerant characterization engine.

:class:`CharacterizationEngine` is the production path for running the
paper's full top-down pipeline over whole suites, on one device or a
list of them.  There is one execution path and one run method,
:meth:`~CharacterizationEngine.run_sweep`: a run characterizes each
selected workload across a device list, and a suite run is the
one-device case (:func:`repro.core.run_suite` returns that device's
view of the run).  Every attempt goes through one wave loop
(:meth:`~CharacterizationEngine._execute`) that submits work to an
executor and combines three orthogonal capabilities:

* **Parallelism** — per-workload characterizations are independent, so
  with ``jobs > 1`` the executor is a ``concurrent.futures`` process
  pool.  With ``jobs == 1`` it is an in-process executor that runs each
  attempt when the loop asks for its result, one workload after the
  other.  Results are reassembled in registration order, so a
  parallel run is indistinguishable from a serial one.
* **Result reuse** — an optional :class:`~repro.core.cache.ResultCache`
  (a directory) memoizes whole
  :class:`~repro.core.characterize.Characterization` objects, keyed on
  the recipe ``(DeviceSpec, SimulationOptions, abbr, scale, seed)`` the
  engine rebuilds each workload from.  A warm run replays the suite
  from disk without generating a single stream; an uncached run never
  digests or serializes a result.
* **Fault tolerance** — every attempt's exception is captured into a
  structured :class:`~repro.core.resilience.WorkloadFailure` instead of
  aborting the run; a :class:`~repro.core.resilience.RetryPolicy`
  retries transient failures with deterministic backoff and enforces a
  per-workload wall-clock timeout on pool workers (a hung worker is
  killed and the pool rebuilt); a pool that is unavailable, cannot be
  rebuilt or breaks twice is swapped for the in-process executor with
  a recorded ``fallback_reason``; and an optional
  :class:`~repro.core.journal.RunJournal` records the run's progress
  so an interrupted run resumes where it left off: a rerun's cache
  lookup hits every completed workload (in a private cache under the
  journal directory when the run has no cache), which is then reported
  as resumed instead of recomputed.

The engine returns every run's report with both survivors and
failures; strict mode is the caller's: :func:`repro.core.run_suite`
and :func:`repro.core.run_sweep` settle it on the view they return,
raising :class:`~repro.core.resilience.SuiteRunError` (which still
carries that report — completed work is journaled, never discarded).

Correctness of the whole stack is enforced by the differential harness
(``tests/engine/test_differential.py``: serial == parallel == cold ==
warm, bit-for-bit), the golden suite (``tests/golden``), and the
fault-injection suite (``tests/robustness``) driven by the tests'
deterministic fault plans.
"""

from __future__ import annotations

import os
import signal
import time
import warnings
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core import resilience
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
from repro.core.resilience import RetryPolicy, WorkloadFailure
from repro.core.sweep import SweepRunReport
from repro.gpu.device import DeviceSpec
from repro.gpu.digest import launch_stream_digest
from repro.gpu.simulator import SimulationOptions
from repro.obs import ObsSession, TraceHandoff, Tracer, worker_tracer
from repro.workloads.registry import get_workload, select_workloads

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
    and left out of *hits*.
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
    fault_plan: Optional[Any],
    mode: str,
) -> Tuple[Dict[str, Characterization], bool]:
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
    attempt and are strict no-ops when the plan is empty.  Returns the
    results by device and whether every device hit (no stream built).
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
        cached = len(hits) == len(devices)
        if not cached:
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
    return result, cached


def _sweep_one(
    abbr: str,
    preset: ScalePreset,
    devices: Sequence[DeviceSpec],
    options: SimulationOptions,
    cache_dir: Optional[Path],
    attempt: int = 1,
    fault_plan: Optional[Any] = None,
    handoff: Optional[TraceHandoff] = None,
) -> Tuple[
    str, Dict[str, Characterization], bool, CacheStats, Optional[dict]
]:
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
    cache = ResultCache(cache_dir, tracer=tracer) if cache_dir else None
    try:
        result, cached = _attempt(
            abbr, preset, devices, options, cache, tracer, attempt,
            fault_plan, mode="pool",
        )
    finally:
        if tracer.sink is not None:
            tracer.sink.close()
    snapshot = tracer.metrics.snapshot() if tracer.metrics else None
    stats = cache.stats if cache is not None else CacheStats()
    return abbr, result, cached, stats, snapshot


def _default_sigterm() -> None:
    """Pool-worker initializer: SIGTERM kills the worker.

    A forked worker inherits the parent's Python-level SIGTERM handler;
    one that raises would be caught by the pool's task wrapper and
    reported as the attempt's error, so :meth:`_kill_pool` could not
    stop the worker.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


class _Deferred(Future):
    """A future that runs its call in this process on first ``result()``."""

    def __init__(self, call) -> None:
        super().__init__()
        self._call = call

    def result(self, timeout: Optional[float] = None):
        if not self.done():
            try:
                self.set_result(self._call())
            except Exception as exc:
                self.set_exception(exc)
        return super().result()


class _InProcess:
    """The serial executor, behind the pool's ``submit``/``shutdown``.

    ``submit(_sweep_one, ...)`` returns a future that runs the same
    attempt as :func:`_attempt` with the run's own cache and tracer (in
    place of the worker's cache handle and trace handoff), and only
    when its ``result()`` is first called: each workload completes, and
    is journaled, before the next one starts.  The timeout is ignored
    (a running characterization cannot be preempted in-process), and
    this executor never breaks.
    """

    def __init__(self, cache: Optional[ResultCache], tracer: Tracer) -> None:
        self.cache = cache
        self.tracer = tracer

    def submit(
        self, fn, abbr, preset, devices, options, cache_dir, attempt,
        fault_plan, handoff,
    ) -> Future:
        def call():
            result, cached = _attempt(
                abbr, preset, devices, options, self.cache, self.tracer,
                attempt, fault_plan, mode="serial",
            )
            return abbr, result, cached, None, None

        return _Deferred(call)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


@dataclass
class CharacterizationEngine:
    """Runs per-workload characterizations, possibly in parallel.

    Parameters
    ----------
    options:
        The simulator switches shared by every workload of a run (part
        of every cache key, with the device).
    jobs:
        Worker processes.  ``None``/``0``/``1`` → serial; negative →
        one worker per CPU.
    cache:
        Optional result cache, ``ResultCache(cache_dir=...)``; ``None``
        runs uncached.
    retry_policy:
        Retry/timeout/backoff policy (see
        :class:`~repro.core.resilience.RetryPolicy`).
    journal_dir:
        Optional progress directory (``run.json``); a rerun reports
        every workload whose first attempt hits the result cache on
        each device of the run as resumed.  Without a *cache*, the run
        keeps its results in a private cache under
        ``<journal_dir>/results``.
    fault_plan:
        Deterministic fault-injection plan (testing only): any picklable
        object with ``before(abbr, attempt)`` and ``after(abbr, attempt,
        results, cache) -> results`` hooks, called duck-typed once per
        attempt; ``None`` and an empty plan are strict no-ops.
    trace_dir:
        Optional observability directory (see :mod:`repro.obs`): runs
        append a JSONL event log there and export a Chrome/Perfetto
        trace on completion.  Run metrics (``run_profile`` on the
        report) are collected either way; with ``trace_dir=None`` no
        file is ever touched.
    """

    options: SimulationOptions = field(default_factory=SimulationOptions)
    jobs: Optional[int] = None
    cache: Optional[ResultCache] = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    journal_dir: Optional[str] = None
    fault_plan: Optional[Any] = None
    trace_dir: Optional[str] = None

    def run_sweep(
        self,
        devices: Sequence[DeviceSpec],
        suites: Sequence[str] = ("Cactus",),
        preset: ScalePreset = LAPTOP_SCALE,
        workloads: Optional[Sequence[str]] = None,
    ) -> SweepRunReport:
        """Characterize every workload of *suites* across *devices*.

        The one run method: a suite run is the ``[device]`` case, viewed
        through :meth:`~repro.core.sweep.SweepRunReport.for_device`.
        The run fans out over **workloads** — one task per workload,
        each owning the full device axis — because stream generation is
        the expensive, device-independent part: it happens at most once
        per workload, only when some device misses the result cache,
        and the device axis is evaluated in one batched pass
        (:func:`repro.gpu.batched.simulate_devices`).  Results are
        ordered by registration order regardless of worker completion
        order; failed workloads are absent from ``results`` and listed
        (also in registration order) in ``failures``, and nothing
        raises for them here (strict mode is settled by the caller).
        """
        devices = list(devices)
        selected = select_workloads(suites, workloads)
        if not selected:
            raise ValueError(f"no workloads selected from suites {suites!r}")
        names = [d.name for d in devices]
        if not devices:
            raise ValueError("a run needs at least one device")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate device names in sweep: {names}")

        jobs = _resolve_jobs(self.jobs)
        report = SweepRunReport(devices=devices, preset=preset)

        session = ObsSession(self.trace_dir)
        # In-process cache traffic counts toward this run's metrics;
        # the tracer is detached again before returning.
        if self.cache is not None and self.cache.tracer is None:
            self.cache.tracer = session.tracer
        try:
            with session.tracer.span(
                "run",
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
                if self.journal_dir is not None:
                    journal = RunJournal(self.journal_dir, tracer=session.tracer)
                    journal.begin(selected)
                cache = self._run_cache(journal, session.tracer)
                self._execute(
                    selected, preset, devices, jobs, cache, journal, report,
                    session,
                )
                report.results = {
                    abbr: report.results[abbr]
                    for abbr in selected
                    if abbr in report.results
                }
                report.failures.sort(key=lambda f: selected.index(f.abbr))
                report.resumed.sort(key=selected.index)
                session.tracer.incr(
                    "engine.workloads_resumed", float(len(report.resumed))
                )
                session.tracer.incr(
                    "engine.workloads_completed",
                    float(len(report.results) - len(report.resumed)),
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
        return report

    def _run_cache(
        self, journal: Optional[RunJournal], tracer: Tracer
    ) -> Optional[ResultCache]:
        """The cache one run reads and writes.

        A journaled run resumes from cached entries, so without
        ``self.cache`` it uses a private cache under the journal
        directory.
        """
        if self.cache is not None or journal is None:
            return self.cache
        return ResultCache(journal.results_dir, tracer=tracer)

    # -- the one attempt loop -----------------------------------------
    def _new_pool(self, jobs: int, tasks: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(jobs, tasks), initializer=_default_sigterm
        )

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

    def _execute(
        self,
        selected: Sequence[str],
        preset: ScalePreset,
        devices: Sequence[DeviceSpec],
        jobs: int,
        cache: Optional[ResultCache],
        journal: Optional[RunJournal],
        report: SweepRunReport,
        session: ObsSession,
    ) -> None:
        """Run every attempt of *selected*, recording into *report*.

        Work proceeds in waves: every pending workload is submitted to
        the executor — a process pool of *jobs* workers running
        :func:`_sweep_one`, or :class:`_InProcess` when ``jobs == 1`` —
        then awaited in registration order under the per-workload
        timeout.  A timed-out worker is killed and the pool rebuilt (a
        deliberate kill, not counted against the broken-pool budget); a
        spontaneously broken pool rebuilds once.  When the pool is
        unavailable, cannot be rebuilt or breaks twice, the run
        degrades: ``fallback_reason`` is recorded and the same loop
        carries on in-process for whatever is pending.  Attempt numbers
        carry on across the swap, so each workload has one
        ``max_attempts`` budget per run, and advance only for the
        workload whose own outcome was observed — innocent bystanders
        of a pool kill are resubmitted under the same attempt number.
        In a journaled run, a workload whose first attempt hit the cache
        on every device is reported as resumed.
        """
        policy = self.retry_policy
        tracer = session.tracer
        cache_dir = cache.cache_dir if cache is not None else None
        attempts: Dict[str, int] = {abbr: 0 for abbr in selected}
        started: Dict[str, float] = {}
        pending = list(selected)
        rebuilds_left = 1

        def fall_back(reason: str) -> None:
            """Swap a failed pool for the in-process executor, and warn."""
            nonlocal executor
            report.fallback_reason = reason
            tracer.event(
                "pool.fallback-serial", category="resilience", reason=reason
            )
            tracer.incr("engine.pool_fallbacks")
            warnings.warn(
                f"{reason}; degrading to serial execution",
                RuntimeWarning,
                stacklevel=4,
            )
            self._kill_pool(executor)
            executor = _InProcess(cache, tracer)

        executor: Any = _InProcess(cache, tracer)
        if jobs > 1:
            try:
                executor = self._new_pool(jobs, len(selected))
            except _POOL_UNAVAILABLE as exc:
                fall_back(
                    f"process pool unavailable: {type(exc).__name__}: {exc}"
                )

        def submit(abbr: str) -> Future:
            started.setdefault(abbr, time.monotonic())
            return executor.submit(
                _sweep_one,
                abbr,
                preset,
                devices,
                self.options,
                cache_dir,
                attempts[abbr] + 1,
                self.fault_plan,
                session.handoff(),
            )

        def succeed(abbr: str, outcome: tuple) -> None:
            """Bank *abbr*'s finished attempt and journal it."""
            _, result, cached, stats, snapshot = outcome
            attempts[abbr] += 1
            report.results[abbr] = result
            report.attempts[abbr] = attempts[abbr]
            if stats is not None and cache is not None:
                cache.stats.merge(stats)
            session.absorb(snapshot)
            if journal is not None:
                if cached and attempts[abbr] == 1:
                    report.resumed.append(abbr)
                # Written after the attempt's atomic entry writes, so
                # every workload listed done has its entries cached.
                journal.mark_done(abbr)
            pending.remove(abbr)

        def harvest(futures: Dict[str, Future], skip: str) -> None:
            """Bank finished bystander results after a pool disruption."""
            for other, fut in futures.items():
                if other == skip or other not in pending or not fut.done():
                    continue
                try:
                    outcome = fut.result(timeout=0)
                except Exception:
                    continue  # its failure will be re-observed on resubmit
                succeed(other, outcome)

        def rebuild(reason: str) -> None:
            """Replace the pool, or fall back if that fails."""
            nonlocal executor
            self._kill_pool(executor)
            tracer.event(
                "pool.rebuild", category="resilience", reason=reason
            )
            tracer.incr("engine.pool_rebuilds")
            try:
                executor = self._new_pool(jobs, max(len(pending), 1))
            except _POOL_UNAVAILABLE as exc:
                fall_back(
                    f"pool rebuild failed after {reason}: "
                    f"{type(exc).__name__}: {exc}"
                )

        def broken(exc: BaseException, reason: str) -> None:
            """The pool broke: rebuild it once, then fall back."""
            nonlocal rebuilds_left
            if rebuilds_left > 0:
                rebuilds_left -= 1
                rebuild(reason)
            else:
                fall_back(
                    f"process pool broke twice: {type(exc).__name__}: {exc}"
                )

        def settle(abbr: str, exc: BaseException, phase: str) -> None:
            """A genuine attempt by *abbr* failed: retry or record."""
            attempts[abbr] += 1
            if policy.should_retry(exc, attempts[abbr]):
                delay = policy.backoff_s(abbr, attempts[abbr])
                tracer.event(
                    "retry",
                    category="resilience",
                    workload=abbr,
                    attempt=attempts[abbr],
                    sleep_s=delay,
                    error=type(exc).__name__,
                )
                tracer.incr("engine.retries")
                time.sleep(delay)
                return  # stays pending; resubmitted next wave
            report.failures.append(
                WorkloadFailure.from_exception(
                    abbr,
                    exc,
                    phase=phase,
                    attempts=attempts[abbr],
                    elapsed_s=time.monotonic() - started[abbr],
                )
            )
            report.attempts[abbr] = attempts[abbr]
            pending.remove(abbr)

        try:
            while pending:
                futures: Dict[str, Future] = {}
                try:
                    for abbr in pending:
                        futures[abbr] = submit(abbr)
                except (RuntimeError, OSError) as exc:
                    # Covers BrokenExecutor and every _POOL_UNAVAILABLE
                    # member (both are RuntimeError/OSError subclasses).
                    # Pool died before the wave was even fully submitted.
                    broken(exc, f"submit-time {type(exc).__name__}")
                    continue
                for abbr in list(futures):
                    if abbr not in pending:
                        continue
                    if resilience.terminated:
                        # The CLI's SIGTERM handler ran where Python
                        # discards its SystemExit (a __del__ or a GC
                        # callback): stop at this attempt boundary.
                        raise SystemExit(resilience.terminated)
                    fut = futures[abbr]
                    try:
                        outcome = fut.result(timeout=policy.timeout_s)
                    except FuturesTimeout as exc:
                        if fut.done() and fut.exception() is exc:
                            # The attempt itself raised TimeoutError.
                            settle(abbr, exc, phase="characterize")
                            continue
                        # Hung worker: kill the pool, bank bystanders,
                        # rebuild (deliberate — not budget-counted).
                        tracer.event(
                            "timeout.kill",
                            category="resilience",
                            workload=abbr,
                            attempt=attempts[abbr] + 1,
                            timeout_s=policy.timeout_s,
                        )
                        tracer.incr("engine.timeouts")
                        harvest(futures, skip=abbr)
                        settle(
                            abbr,
                            TimeoutError(
                                f"workload {abbr} exceeded the per-workload "
                                f"timeout of {policy.timeout_s}s"
                            ),
                            phase="timeout",
                        )
                        rebuild("timeout kill")
                        break
                    except BrokenExecutor as exc:
                        # A worker died hard.  Every outstanding future
                        # raises the same BrokenProcessPool, so the
                        # culprit cannot be attributed from here — no
                        # workload is charged an attempt.  Bank finished
                        # bystanders, then rebuild once; on a second
                        # break, fall back in-process, which isolates
                        # the real culprit exactly.
                        harvest(futures, skip="")
                        broken(exc, type(exc).__name__)
                        break
                    except Exception as exc:
                        # Raised by the attempt (in a worker, pickled
                        # back): the executor itself is healthy.
                        settle(abbr, exc, phase="characterize")
                    else:
                        succeed(abbr, outcome)
        except BaseException:
            # Interrupted (a SIGTERM turned into SystemExit, Ctrl-C):
            # shutdown() alone lets running workers finish their
            # attempts, so terminate them; none may outlive the run.
            self._kill_pool(executor)
            raise
        finally:
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    # -- reporting ------------------------------------------------------
    @property
    def cache_stats(self) -> Optional[CacheStats]:
        return self.cache.stats if self.cache is not None else None
