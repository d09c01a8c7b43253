"""Resumable run checkpoints: a per-run journal of completed workloads.

A run interrupted after N workloads (crash, SIGTERM, power loss)
should restart and re-run only the remaining ones.  The journal records
*which* workloads completed; the results themselves live in the run's
:class:`~repro.core.cache.ResultCache`, the one store with one keying
rule.  Suite runs and device sweeps share one format, because a suite
run is a one-device sweep:

``<journal_dir>/run.json``
    Run metadata: journal schema version, the run key (a content
    digest of the device(s) + simulation options + preset + workload
    selection), and the selected workload list.  A journal whose run
    key or schema does not match the current run is stale and is wiped
    before the run starts — resuming is only ever offered for
    *identical* runs.
``<journal_dir>/done/<ABBR>.json``
    One completion marker per finished workload:
    ``{"schema", "run_key", "abbr", "attempts"}`` and nothing else.  The
    engine rebuilds each device's cache key from the run identity and
    reads the characterizations back from the result cache; a marker
    whose entries are missing or invalid counts as not done.
``<journal_dir>/results/``
    The private result cache (same layout, key and codec as any other)
    the engine opens when the run's own cache has no disk tier; wiped
    with the markers when the journal is stale.

All writes are atomic (temp file + ``os.replace``, through
:func:`repro.core.cache.atomic_write_json`), so a marker is either
complete or absent, and it is written only after its entries; a
corrupt or foreign marker is treated as "not done" and the workload
simply re-runs.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Set

from repro.core.cache import atomic_write_json

#: ``begin()`` wipes a journal written under any other schema.
JOURNAL_SCHEMA_VERSION = 2


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    """The JSON object at *path*, or None if absent, corrupt or not a dict."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


class RunJournal:
    """Checkpoint store for one run identity (suite run or sweep).

    The optional *tracer* (see :mod:`repro.obs`) emits a
    ``journal.checkpoint`` event per completion marker plus
    begin/finish lifecycle events, and counts checkpoints into the run
    metrics — observation only, the on-disk format is untouched.
    """

    def __init__(self, journal_dir, run_key: str, tracer=None) -> None:
        self.journal_dir = Path(journal_dir)
        self.run_key = run_key
        if tracer is None:
            from repro.obs import NULL_TRACER

            tracer = NULL_TRACER
        self.tracer = tracer

    # -- paths ---------------------------------------------------------
    @property
    def run_path(self) -> Path:
        return self.journal_dir / "run.json"

    @property
    def done_dir(self) -> Path:
        return self.journal_dir / "done"

    @property
    def results_dir(self) -> Path:
        return self.journal_dir / "results"

    def marker_path(self, abbr: str) -> Path:
        return self.done_dir / f"{abbr.upper()}.json"

    # -- lifecycle -----------------------------------------------------
    def begin(self, selected: Iterable[str]) -> Set[str]:
        """Start (or resume) a run; return the workloads marked done.

        If an existing journal matches this schema and run key, the
        abbreviations whose marker names this run are returned so the
        engine can try to resume them from the result cache.  Otherwise
        the stale journal (markers and private results) is wiped and a
        fresh ``run.json`` is written.
        """
        selected = [abbr.upper() for abbr in selected]
        meta = _read_json(self.run_path) or {}
        if (
            meta.get("schema") == JOURNAL_SCHEMA_VERSION
            and meta.get("run_key") == self.run_key
        ):
            marked = {
                abbr for abbr in selected
                if (_read_json(self.marker_path(abbr)) or {}).get("run_key")
                == self.run_key
            }
            self.tracer.event(
                "journal.resume",
                category="journal",
                run_key=self.run_key[:16],
                marked=len(marked),
            )
            return marked
        for stale in (self.done_dir, self.results_dir):
            shutil.rmtree(stale, ignore_errors=True)
        atomic_write_json(
            self.run_path,
            {
                "schema": JOURNAL_SCHEMA_VERSION,
                "run_key": self.run_key,
                "selected": selected,
                "status": "running",
            },
        )
        self.tracer.event(
            "journal.begin",
            category="journal",
            run_key=self.run_key[:16],
            selected=len(selected),
        )
        return set()

    def mark_done(self, abbr: str, attempts: int = 1) -> None:
        """Atomically record *abbr* as complete (its entries are cached)."""
        atomic_write_json(
            self.marker_path(abbr),
            {
                "schema": JOURNAL_SCHEMA_VERSION,
                "run_key": self.run_key,
                "abbr": abbr.upper(),
                "attempts": attempts,
            },
        )
        self.tracer.event(
            "journal.checkpoint",
            category="journal",
            workload=abbr.upper(),
            attempts=attempts,
        )
        self.tracer.incr("engine.journal_checkpoints")

    @classmethod
    def peek(cls, journal_dir) -> Dict[str, Any]:
        """Read-only snapshot of a journal directory's progress.

        Returns ``{"run_key", "status", "selected", "done"}`` without
        constructing an engine or touching the result cache — the
        service layer uses this to report a running job's checkpoint
        progress cheaply.  An absent or unreadable journal yields an
        empty snapshot (``run_key=None, done=[]``).
        """
        root = Path(journal_dir)
        meta = _read_json(root / "run.json") or {}
        done = sorted(p.stem for p in (root / "done").glob("*.json"))
        return {
            "run_key": meta.get("run_key"),
            "status": meta.get("status"),
            "selected": list(meta.get("selected", [])),
            "done": done,
        }

    def finish(self, ok: bool = True) -> None:
        """Mark the run's terminal status in ``run.json``."""
        meta = _read_json(self.run_path) or {
            "schema": JOURNAL_SCHEMA_VERSION,
            "run_key": self.run_key,
        }
        meta["status"] = "complete" if ok else "failed"
        atomic_write_json(self.run_path, meta)
        self.tracer.event(
            "journal.finish", category="journal", status=meta["status"]
        )
