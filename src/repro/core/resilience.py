"""Failure semantics for suite runs: retry policy and failure records.

The paper's exhibits are suite-wide aggregates, so a single misbehaving
workload must not discard every finished characterization.  This module
defines the vocabulary the engine uses to make failure a first-class,
inspectable input:

* :class:`WorkloadFailure` — a structured record of one workload's
  terminal failure (exception type/message/full traceback, phase,
  attempt count, elapsed wall-clock), safe to carry across process
  boundaries and into reports.
* :class:`RetryPolicy` — max attempts, per-workload wall-clock timeout,
  and exponential backoff with *deterministic seeded jitter* (two runs
  with the same seed sleep the same schedule), plus the
  transient-vs-permanent error classification that decides what is
  worth retrying at all.
* :class:`SuiteRunError` — raised in strict mode when any workload
  fails terminally; carries the partial report so completed work is
  never silently discarded.

Classification table (see DESIGN.md §9):

==========================  ===========  ==============================
exception                   class        rationale
==========================  ===========  ==============================
``OSError`` (+subclasses)   transient    I/O, pipes, fork pressure
``EOFError``                transient    torn IPC stream from a worker
``TimeoutError``            transient    per-workload timeout expiry
``BrokenExecutor`` family   transient    pool death is not the
                                         workload's fault
``MemoryError``             transient    other workloads may have
                                         released memory by retry time
anything else               permanent    deterministic model errors
                                         (``ValueError`` etc.) will
                                         fail identically on retry
==========================  ===========  ==============================
"""

from __future__ import annotations

import hashlib
import math
import traceback as traceback_module
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Exception types worth retrying: environmental, not model-determined.
#: ``TimeoutError`` is an ``OSError`` subclass; ``FuturesTimeout`` only
#: aliases it from Python 3.11 on, so both are listed explicitly.
TRANSIENT_EXCEPTIONS: Tuple[type, ...] = (
    OSError,
    EOFError,
    TimeoutError,
    FuturesTimeout,
    BrokenExecutor,
    MemoryError,
)

TRANSIENT = "transient"
PERMANENT = "permanent"

#: ``128 + signum`` once the CLI's SIGTERM handler has run, else 0.  The
#: handler sets it before it raises ``SystemExit``, so a run still stops
#: when Python discards that exception (a handler run inside a
#: ``__del__`` or a GC callback): the engine checks it between attempts
#: and :func:`repro.cli.main` returns it.
terminated = 0


def classify_exception(exc: BaseException) -> str:
    """``"transient"`` (worth retrying) or ``"permanent"`` (won't heal)."""
    return TRANSIENT if isinstance(exc, TRANSIENT_EXCEPTIONS) else PERMANENT


@dataclass
class WorkloadFailure:
    """Terminal failure of one workload inside a suite run.

    Captured *as data* (not as a live exception) so it can cross
    process boundaries, be listed in reports, and be serialized into
    run journals without losing the traceback.
    """

    abbr: str
    phase: str  # "characterize" | "timeout" | "pool"
    error_type: str
    message: str
    traceback: str
    classification: str
    attempts: int
    elapsed_s: float

    @classmethod
    def from_exception(
        cls,
        abbr: str,
        exc: BaseException,
        phase: str = "characterize",
        attempts: int = 1,
        elapsed_s: float = 0.0,
    ) -> "WorkloadFailure":
        tb = "".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        )
        return cls(
            abbr=abbr,
            phase=phase,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=tb,
            classification=classify_exception(exc),
            attempts=attempts,
            elapsed_s=elapsed_s,
        )

    def render(self) -> str:
        return (
            f"{self.abbr}: {self.error_type}: {self.message} "
            f"[{self.classification}, phase={self.phase}, "
            f"attempts={self.attempts}, {self.elapsed_s:.1f}s]"
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "abbr": self.abbr,
            "phase": self.phase,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "classification": self.classification,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
        }


@dataclass(frozen=True)
class RetryPolicy:
    """When and how to retry a failed workload characterization.

    Parameters
    ----------
    max_attempts:
        Total tries per workload (1 = no retries).  Only *transient*
        failures are retried; a permanent failure stops at attempt 1.
    timeout_s:
        Per-workload wall-clock budget, enforced through the futures
        API on the parallel path (a worker that exceeds it is killed
        and the pool rebuilt).  ``None`` disables timeouts.  The serial
        path cannot preempt a running characterization, so timeouts
        only apply when ``jobs > 1``.
    backoff_base_s / backoff_factor / backoff_max_s:
        Exponential backoff: retry *n* sleeps
        ``min(max, base * factor**(n-1))`` scaled by jitter.
    jitter:
        Fractional jitter width in ``[0, 1]``.  The jitter is
        *deterministic*: derived from ``sha256(seed, key, attempt)``,
        so identically-seeded runs sleep identical schedules.
    seed:
        Jitter seed.
    """

    max_attempts: int = 3
    timeout_s: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be a positive integer, got "
                f"{self.max_attempts!r}"
            )
        if self.timeout_s is not None and (
            not math.isfinite(self.timeout_s) or self.timeout_s <= 0
        ):
            raise ValueError(
                f"timeout_s must be positive and finite, got {self.timeout_s!r}"
            )
        if not math.isfinite(self.backoff_base_s) or self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative and finite")
        if not math.isfinite(self.backoff_factor) or self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError("backoff_max_s must be >= backoff_base_s")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Retry after failed attempt number *attempt* (1-based)?"""
        return (
            attempt < self.max_attempts
            and classify_exception(exc) == TRANSIENT
        )

    # -- backoff --------------------------------------------------------
    def backoff_s(self, key: str, attempt: int) -> float:
        """Sleep before re-running *key* after failed attempt *attempt*.

        Deterministic: the jitter multiplier is derived from
        ``sha256(seed, key, attempt)``, never from global RNG state.
        """
        if attempt < 1:
            return 0.0
        delay = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter == 0.0 or delay == 0.0:
            return delay
        digest = hashlib.sha256(
            f"backoff:{self.seed}:{key}:{attempt}".encode("utf-8")
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        # Scale into [1 - jitter, 1 + jitter], clamped to the cap.
        return min(self.backoff_max_s, delay * (1.0 - self.jitter + 2.0 * self.jitter * unit))


class SuiteRunError(RuntimeError):
    """Raised in strict mode when any workload fails terminally.

    Carries the partial report (the caller's view: a
    :class:`~repro.core.suite.SuiteRunReport` from ``run_suite``, a
    :class:`~repro.core.sweep.SweepRunReport` from ``run_sweep``) so
    the completed characterizations (already journaled) are available
    to the caller even though the run as a whole failed.
    """

    def __init__(self, report: Any, failures: List[WorkloadFailure]):
        self.report = report
        self.failures = failures
        lines = "; ".join(f.render().splitlines()[0] for f in failures)
        super().__init__(
            f"{len(failures)} workload(s) failed: {lines}"
        )


def settle(report: Any, keep_going: bool) -> Any:
    """Strict mode: terminal failures raise with *report* attached."""
    if report.failures and not keep_going:
        raise SuiteRunError(report, report.failures)
    return report
