"""Deterministic fault injection for the characterization engine.

The robustness test suite (``tests/robustness/``) needs to *prove*
crash isolation, retry-then-succeed, timeout-kill, checkpoint-resume
and cache quarantine — which requires failures that are exactly
reproducible.  A :class:`FaultPlan` is an immutable, picklable value
(it crosses the process-pool boundary with the work item) describing
which workloads misbehave, how, and on which attempt numbers:

``CRASH``
    Raise :class:`InjectedTransientFault` (an ``OSError`` subclass, so
    the retry policy classifies it as transient and retries it).
``CRASH_PERMANENT``
    Raise :class:`InjectedPermanentFault` (a ``ValueError`` subclass —
    classified permanent, never retried).
``HANG``
    Sleep ``hang_s`` seconds before doing the work, long enough to
    trip a per-workload timeout so the engine's kill-and-rebuild path
    is exercised.
``CORRUPT_RESULT``
    Complete the work but return a corrupted characterization (sign
    bit flipped on the headline instruction counts) — models a worker
    that silently produces garbage.
``CORRUPT_CACHE``
    Complete the work, then flip a byte in persistent cache entries on
    disk — models at-rest corruption, exercised against the cache's
    quarantine path.

A fault fires only when its ``attempts`` tuple contains the current
attempt number (default ``(1,)`` — fail once, succeed on retry); an
empty tuple means *every* attempt.  ``FaultPlan.random`` derives a
plan from a seed via ``random.Random(seed)``, so randomized campaigns
are replayable from the seed alone.  An empty plan is a strict no-op:
a fault-free run under the harness is bit-for-bit identical to a run
without it (proved by ``tests/robustness/test_fault_free.py``).

The engine never imports this module: it calls a plan's ``before`` and
``after`` hooks duck-typed.  A plan crosses the process pool by pickle,
so this module must be importable in pool workers under every start
method (``fork``, ``forkserver``, ``spawn``).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Sequence, Tuple

CRASH = "crash"
CRASH_PERMANENT = "crash-permanent"
HANG = "hang"
DIE = "die"  # hard process death (os._exit) → BrokenProcessPool
CORRUPT_RESULT = "corrupt-result"
CORRUPT_CACHE = "corrupt-cache"

FAULT_KINDS = (CRASH, CRASH_PERMANENT, HANG, DIE, CORRUPT_RESULT, CORRUPT_CACHE)


class InjectedFault(Exception):
    """Marker base class for all injected faults."""


class InjectedTransientFault(InjectedFault, OSError):
    """Injected fault classified *transient* by the retry policy."""


class InjectedPermanentFault(InjectedFault, ValueError):
    """Injected fault classified *permanent* by the retry policy."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: which workload, what kind, on which attempts."""

    abbr: str
    kind: str
    attempts: Tuple[int, ...] = (1,)
    hang_s: float = 30.0
    max_files: int = 1  # cache files to corrupt for CORRUPT_CACHE

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )

    def fires(self, abbr: str, attempt: int) -> bool:
        if self.abbr.upper() != abbr.upper():
            return False
        return not self.attempts or attempt in self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable schedule of injected faults.

    *pid* is the process that built the plan (the test runner, which
    is the engine's parent).  It pickles with the plan, so a pool
    worker sees its parent's pid under every start method; a DIE fault
    fires only in a process whose pid differs, i.e. a pool worker.
    """

    faults: Tuple[FaultSpec, ...] = ()
    pid: int = field(default_factory=os.getpid, compare=False, repr=False)

    # -- construction ---------------------------------------------------
    @classmethod
    def single(
        cls,
        abbr: str,
        kind: str,
        attempts: Tuple[int, ...] = (1,),
        hang_s: float = 30.0,
    ) -> "FaultPlan":
        return cls(
            faults=(
                FaultSpec(abbr=abbr, kind=kind, attempts=attempts, hang_s=hang_s),
            )
        )

    @classmethod
    def random(
        cls,
        abbrs: Sequence[str],
        seed: int,
        rate: float = 0.3,
        kinds: Sequence[str] = (CRASH, CRASH_PERMANENT, CORRUPT_RESULT),
    ) -> "FaultPlan":
        """Seeded random plan: replayable from ``(abbrs, seed)`` alone."""
        rng = random.Random(seed)
        faults = tuple(
            FaultSpec(abbr=abbr, kind=rng.choice(list(kinds)))
            for abbr in abbrs
            if rng.random() < rate
        )
        return cls(faults=faults)

    # -- queries --------------------------------------------------------
    def for_workload(self, abbr: str) -> Tuple[FaultSpec, ...]:
        return tuple(f for f in self.faults if f.abbr.upper() == abbr.upper())

    def __bool__(self) -> bool:
        return bool(self.faults)

    # -- injection hooks ------------------------------------------------
    def before(self, abbr: str, attempt: int) -> None:
        """Pre-work hook: crash or hang the attempt if scheduled."""
        for fault in self.faults:
            if not fault.fires(abbr, attempt):
                continue
            if fault.kind == HANG:
                time.sleep(fault.hang_s)
            elif fault.kind == DIE:
                # A hard death, invisible to except clauses in the
                # worker — the parent observes a BrokenProcessPool.
                # Only meaningful inside a pool worker; in-process it
                # would kill the test runner, so refuse there.
                if os.getpid() != self.pid:
                    os._exit(3)
                raise InjectedTransientFault(
                    f"refusing to inject DIE in the main process for "
                    f"{abbr} (attempt {attempt})"
                )
            elif fault.kind == CRASH:
                raise InjectedTransientFault(
                    f"injected transient fault in {abbr} (attempt {attempt})"
                )
            elif fault.kind == CRASH_PERMANENT:
                raise InjectedPermanentFault(
                    f"injected permanent fault in {abbr} (attempt {attempt})"
                )

    def after(
        self,
        abbr: str,
        attempt: int,
        results: Dict[str, Any],
        cache: Any,
    ) -> Dict[str, Any]:
        """Post-work hook: corrupt the per-device results or the cache.

        *results* maps device name → characterization (one attempt's
        whole device axis); ``CORRUPT_RESULT`` corrupts every entry.
        Called once per attempt: ``CORRUPT_CACHE`` XORs the same first
        file each time, so a second call would restore it.
        """
        for fault in self.faults:
            if not fault.fires(abbr, attempt):
                continue
            if fault.kind == CORRUPT_RESULT:
                results = {
                    name: corrupt_characterization(result)
                    for name, result in results.items()
                }
            elif fault.kind == CORRUPT_CACHE:
                flip_cache_bytes(cache, max_files=fault.max_files)
        return results


def corrupt_characterization(result: Any) -> Any:
    """A structurally valid but numerically wrong copy of *result*.

    Flips the sign of the headline Table-I instruction count — the
    smallest corruption a differential comparison is guaranteed to
    catch.  *result* itself is left untouched.
    """
    table1 = result.table1
    return replace(
        result,
        table1=replace(table1, total_warp_insts=-table1.total_warp_insts),
    )


def flip_cache_bytes(cache: Optional[Any], max_files: int = 1) -> int:
    """Flip one byte in up to *max_files* persistent cache entries.

    Deterministic: entries are taken in sorted path order and the
    middle byte of each file is XOR-flipped (which reliably breaks the
    JSON).  Returns the number of files corrupted; no cache, or one with
    no version tree yet, is a no-op.
    """
    if cache is None or not cache.version_dir.is_dir():
        return 0
    flipped = 0
    for path in sorted(cache.version_dir.glob("*/*.json"))[:max_files]:
        data = bytearray(path.read_bytes())
        if not data:
            continue
        mid = len(data) // 2
        data[mid] ^= 0xFF
        path.write_bytes(bytes(data))
        flipped += 1
    return flipped
