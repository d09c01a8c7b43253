"""Job store and worker pool: the service's execution core.

A :class:`JobManager` owns everything between a validated
:class:`~repro.service.schemas.JobRequest` and a finished
characterization report:

* **admission** — per-client token-bucket quotas
  (:class:`~repro.service.quota.ClientQuotas`) then single-flight
  coalescing by job key (:class:`~repro.service.coalesce.Coalescer`):
  N identical concurrent submissions share one
  :class:`JobRecord` and therefore exactly one engine execution;
* **scheduling** — a bounded pool of worker threads draining a
  :class:`~repro.service.quota.FairQueue` (round-robin across clients,
  FIFO per client);
* **execution** — each job is one ``run_sweep`` call over its device
  list (a suite job serializes the one device's view) on a fresh
  :class:`~repro.core.engine.CharacterizationEngine` against the
  manager's shared result-cache directory, with a per-job journal
  (``runs/<id>/journal``) and a per-job obs trace
  (``runs/<id>/trace/events.jsonl`` — the stream behind
  ``GET /v1/jobs/{id}/events``);
* **durability** — every state transition is persisted atomically to
  ``jobs/<id>.json``.  On restart, non-terminal jobs are re-queued;
  the engine's journal then resumes each from its last checkpoint, so
  a SIGTERM mid-run costs only the workload in flight.

The manager is synchronous/thread-based on purpose: the asyncio HTTP
edge (:mod:`repro.service.server`) stays single-threaded and
non-blocking, while engine runs — seconds to minutes of numpy — live on
plain daemon threads that a draining process can abandon safely
(journal writes are atomic, so abandonment never corrupts state).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.core.cache import CacheStats, ResultCache, atomic_write_json
from repro.core.engine import CharacterizationEngine
from repro.core.journal import RunJournal
from repro.core.resilience import RetryPolicy
from repro.core.serialize import (
    suite_run_report_to_dict,
    sweep_run_report_to_dict,
)
from repro.gpu.metrics import KernelMetrics
from repro.service.coalesce import Coalescer
from repro.service.quota import ClientQuotas, FairQueue, QuotaConfig
from repro.service.schemas import JobRequest, parse_job_request

__all__ = [
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_INTERRUPTED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JobManager",
    "JobRecord",
    "TERMINAL_STATES",
]

JOB_SCHEMA_VERSION = 1

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_INTERRUPTED = "interrupted"

#: States a job never leaves on its own (a failed job can be re-admitted
#: by a fresh identical submission, which replaces the record).
TERMINAL_STATES = frozenset({JOB_DONE, JOB_FAILED})


@dataclass
class JobRecord:
    """One admitted characterization job (shared by its subscribers)."""

    id: str
    request: JobRequest
    client: str
    state: str = JOB_QUEUED
    submitted_unix: float = 0.0
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    #: Submissions served by this record (1 = never coalesced).
    subscribers: int = 1
    error: Optional[str] = None
    #: Serialized run report (``suite_run_report_to_dict`` /
    #: ``sweep_run_report_to_dict``) once the job is done.
    result: Optional[Dict[str, Any]] = None
    #: Workloads the engine skipped thanks to journal resumption.
    resumed: List[str] = field(default_factory=list)
    cache_stats: Optional[Dict[str, int]] = None
    done_event: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def summary(self) -> Dict[str, Any]:
        """Status payload without the (potentially large) result."""
        return {
            "id": self.id,
            "kind": self.request.kind,
            "state": self.state,
            "client": self.client,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "subscribers": self.subscribers,
            "error": self.error,
            "resumed": list(self.resumed),
            "cache_stats": self.cache_stats,
            "request": self.request.to_dict(),
        }

    def to_dict(self) -> Dict[str, Any]:
        payload = self.summary()
        payload["schema"] = JOB_SCHEMA_VERSION
        payload["result"] = self.result
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobRecord":
        record = cls(
            id=str(payload["id"]),
            request=parse_job_request(payload["request"]),
            client=str(payload.get("client", "unknown")),
            state=str(payload.get("state", JOB_QUEUED)),
            submitted_unix=float(payload.get("submitted_unix", 0.0)),
            started_unix=payload.get("started_unix"),
            finished_unix=payload.get("finished_unix"),
            subscribers=int(payload.get("subscribers", 1)),
            error=payload.get("error"),
            result=payload.get("result"),
            resumed=list(payload.get("resumed", [])),
            cache_stats=payload.get("cache_stats"),
        )
        if record.terminal:
            record.done_event.set()
        return record


class JobManager:
    """Thread-based job store, scheduler and engine front."""

    def __init__(
        self,
        state_dir: "str | Path",
        workers: int = 2,
        engine_jobs: Optional[int] = None,
        cache_dir: "str | Path | None" = None,
        quota: Optional[QuotaConfig] = None,
        retry_policy: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.state_dir = Path(state_dir)
        self.jobs_dir = self.state_dir / "jobs"
        self.runs_dir = self.state_dir / "runs"
        self.cache_dir = Path(cache_dir) if cache_dir else self.state_dir / "cache"
        self.workers = workers
        #: Engine worker-process override applied to every job
        #: (``None`` → honour the per-request ``jobs`` field).
        self.engine_jobs = engine_jobs
        self.retry_policy = retry_policy or RetryPolicy()
        self.quotas = ClientQuotas(quota or QuotaConfig())
        self.queue: FairQueue = FairQueue()
        self.coalescer: Coalescer[JobRecord] = Coalescer(
            reusable=lambda record: record.state != JOB_FAILED
        )
        self.clock = clock
        self.draining = False
        self._threads: List[threading.Thread] = []
        self._running: Dict[str, JobRecord] = {}
        self._lock = threading.Lock()
        self._engine_runs_started = 0
        self._engine_runs_completed = 0
        self._engine_runs_failed = 0
        self._recovered: List[str] = []

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Recover persisted jobs, then spawn the worker pool."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._recover()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _recover(self) -> None:
        """Reload persisted jobs; re-queue everything non-terminal.

        A job that was queued, running, or interrupted when the previous
        process died goes back on the queue under its original client;
        the engine's journal then resumes it from its last checkpoint.
        Corrupt job files are skipped (the submission can simply be
        re-sent — same key, same id).
        """
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                record = JobRecord.from_dict(payload)
            except (OSError, ValueError, KeyError, TypeError):
                continue
            self.coalescer.put(record.id, record)
            if not record.terminal:
                record.state = JOB_QUEUED
                record.done_event.clear()
                self._persist(record)
                self.queue.push(record.client, record)
                self._recovered.append(record.id)

    def drain(self, grace_s: float = 5.0) -> List[str]:
        """Stop accepting work; give running jobs *grace_s* to finish.

        Returns the ids of jobs persisted as *interrupted* — still
        queued or running when the grace expired.  Their journals hold
        every completed workload, so a restarted manager (or a
        resubmission of the same request) resumes rather than restarts.
        """
        self.draining = True
        self.queue.close()
        deadline = time.monotonic() + max(0.0, grace_s)
        while time.monotonic() < deadline:
            with self._lock:
                if not self._running and len(self.queue) == 0:
                    break
            time.sleep(0.05)
        interrupted: List[str] = []
        # Under the lock, so a job finishing right now cannot persist
        # its state in between: _run_job never overwrites this mark.
        with self._lock:
            for record in self.coalescer.records():
                if not record.terminal:
                    record.state = JOB_INTERRUPTED
                    self._persist(record)
                    record.done_event.set()
                    interrupted.append(record.id)
        return interrupted

    # -- submission ----------------------------------------------------
    def submit(
        self, payload: Any, client: str = "anonymous"
    ) -> "tuple[JobRecord, bool]":
        """Validate, quota-check and admit-or-coalesce one submission.

        Returns ``(record, coalesced)``.  Raises
        :class:`~repro.service.schemas.ValidationError` on a bad
        payload, :class:`~repro.service.quota.QuotaExceeded` when the
        client is over its bucket, and :class:`RuntimeError` while
        draining.
        """
        if self.draining:
            raise RuntimeError("service is draining; not accepting jobs")
        request = parse_job_request(payload)
        self.quotas.admit(client)
        key = request.job_key()

        def factory() -> JobRecord:
            return JobRecord(
                id=key,
                request=request,
                client=client,
                submitted_unix=self.clock(),
            )

        record, coalesced = self.coalescer.admit(key, factory)
        if coalesced:
            record.subscribers += 1
            self._persist(record)
        else:
            self._persist(record)
            self.queue.push(client, record)
        return record, coalesced

    # -- queries -------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        return self.coalescer.get(job_id)

    def jobs(self) -> List[JobRecord]:
        return sorted(
            self.coalescer.records(), key=lambda r: r.submitted_unix
        )

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Optional[JobRecord]:
        """Block until *job_id* reaches a terminal (or drained) state."""
        record = self.get(job_id)
        if record is None:
            return None
        record.done_event.wait(timeout=timeout)
        return record

    def run_dir(self, job_id: str) -> Path:
        return self.runs_dir / job_id[:32]

    def events_path(self, job_id: str) -> Path:
        return self.run_dir(job_id) / "trace" / "events.jsonl"

    def journal_progress(self, job_id: str) -> Dict[str, Any]:
        """Checkpoint progress of a job's engine journal (cheap peek)."""
        return RunJournal.peek(self.run_dir(job_id) / "journal")

    def stats(self) -> Dict[str, Any]:
        """Service counters served under ``/healthz``."""
        by_state: Dict[str, int] = {}
        cache_total = CacheStats()
        for record in self.coalescer.records():
            by_state[record.state] = by_state.get(record.state, 0) + 1
            if record.cache_stats:
                cache_total.merge(CacheStats.from_dict(record.cache_stats))
        cache_payload = cache_total.as_dict()
        cache_payload["hit_rate"] = cache_total.hit_rate
        return {
            "draining": self.draining,
            "workers": self.workers,
            "queued": len(self.queue),
            "jobs": by_state,
            "coalesce": self.coalescer.stats.as_dict(),
            "engine_runs": {
                "started": self._engine_runs_started,
                "completed": self._engine_runs_completed,
                "failed": self._engine_runs_failed,
            },
            "recovered": list(self._recovered),
            #: Aggregate result-cache accounting across finished jobs.
            "cache": cache_payload,
            "quota": {
                "capacity": self.quotas.config.capacity,
                "refill_per_s": self.quotas.config.refill_per_s,
            },
        }

    # -- similarity corpus ---------------------------------------------
    def similar(self, query: str, k: int = 5) -> Dict[str, Any]:
        """Nearest kernels to *query* over every completed job's result.

        The warm corpus is exactly what the service has already
        characterized: each done suite job contributes keys
        ``ABBR:kernel``; each done sweep job ``ABBR@device:kernel``.
        Raises :class:`KeyError` when *query* is not in the corpus and
        :class:`ValueError` when the corpus is empty or ``k`` invalid.
        """
        from repro.analysis.similarity import (
            METRIC_FEATURES,
            KernelIndex,
            metric_features,
        )

        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        index = KernelIndex(feature_names=METRIC_FEATURES)
        vectors: Dict[str, Any] = {}

        def add(key: str, kernel_payload: Dict[str, Any]) -> None:
            metrics = KernelMetrics.from_json_dict(kernel_payload["metrics"])
            vector = metric_features(metrics)
            index.add(key, vector, None)
            vectors[key] = vector

        for record in self.coalescer.records():
            if record.state != JOB_DONE or not record.result:
                continue
            results = record.result.get("results", {})
            if record.request.kind == "sweep":
                for abbr, per_device in results.items():
                    for device_name, entry in per_device.items():
                        for kernel in entry["profile"]["kernels"]:
                            add(
                                f"{abbr}@{device_name}:{kernel['name']}",
                                kernel,
                            )
            else:
                for abbr, entry in results.items():
                    for kernel in entry["profile"]["kernels"]:
                        add(f"{abbr}:{kernel['name']}", kernel)
        if not vectors:
            raise ValueError("empty corpus: no completed jobs yet")
        if query not in vectors:
            raise KeyError(query)
        neighbors = index.knn(vectors[query], k, exclude=query)
        return {
            "query": query,
            "corpus_size": len(vectors),
            "neighbors": [
                {
                    "key": n.key,
                    "distance": n.distance,
                    "exact": bool(n.exact),
                }
                for n in neighbors
            ],
        }

    # -- persistence ---------------------------------------------------
    def _persist(self, record: JobRecord) -> None:
        atomic_write_json(
            self.jobs_dir / f"{record.id[:32]}.json", record.to_dict()
        )

    # -- execution -----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            popped = self.queue.pop(timeout=0.5)
            if popped is None:
                if self.queue.closed:
                    return
                continue
            _, record = popped
            if record.state != JOB_QUEUED:
                continue  # replaced or already drained
            self._run_job(record)

    def _engine_for(self, request: JobRequest, job_id: str) -> CharacterizationEngine:
        run_dir = self.run_dir(job_id)
        jobs = self.engine_jobs if self.engine_jobs is not None else request.jobs
        return CharacterizationEngine(
            options=request.options,
            jobs=jobs,
            cache=ResultCache(cache_dir=str(self.cache_dir)),
            retry_policy=self.retry_policy,
            journal_dir=str(run_dir / "journal"),
            trace_dir=str(run_dir / "trace"),
        )

    def _run_job(self, record: JobRecord) -> None:
        request = record.request
        record.state = JOB_RUNNING
        record.started_unix = self.clock()
        with self._lock:
            self._running[record.id] = record
            self._engine_runs_started += 1
        self._persist(record)
        outcome: Dict[str, Any] = {"state": JOB_FAILED}
        try:
            engine = self._engine_for(request, record.id)
            report = engine.run_sweep(
                list(request.devices),
                suites=request.suites,
                preset=request.preset,
                workloads=request.workloads,
            )
            if request.kind == "sweep":
                result = sweep_run_report_to_dict(report)
            else:
                result = suite_run_report_to_dict(
                    report.for_device(request.device.name)
                )
            stats = engine.cache_stats
            outcome = {
                "state": JOB_DONE,
                "result": result,
                "resumed": list(report.resumed),
                "cache_stats": stats.as_dict() if stats is not None else None,
                "error": None,
            }
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            outcome["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            with self._lock:
                self._running.pop(record.id, None)
                if outcome["state"] == JOB_DONE:
                    self._engine_runs_completed += 1
                else:
                    self._engine_runs_failed += 1
                # A drain that already persisted this job as interrupted
                # keeps the last word: its journal resumes it later.
                if record.state != JOB_INTERRUPTED:
                    for name, value in outcome.items():
                        setattr(record, name, value)
                    record.finished_unix = self.clock()
                    self._persist(record)
            record.done_event.set()
