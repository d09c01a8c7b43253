"""Resumable run checkpoints: a journal of a run's progress.

A run interrupted after N workloads (crash, SIGTERM, power loss)
should restart and re-run only the remaining ones.  That needs no store
of its own: every completed workload's results are in the run's
:class:`~repro.core.cache.ResultCache`, under recipe keys that cover
device, options, scale, seed and the source-fingerprinted version
directory.  A rerun's one cache lookup per workload decides: a workload
whose first attempt hits every device builds no stream and is reported
as resumed.  So runs with different parameters (or the two runs of one
command, Cactus then PRT) can share a journal directory without ever
replaying a wrong result.

``<journal_dir>/run.json``
    Progress of the latest run: journal schema version, the selected
    workload list, ``status`` (``running``/``complete``/``failed``) and
    the ``done`` workloads, rewritten after each completion's entry
    writes; read by the service's progress peek.
``<journal_dir>/results/``
    The private result cache (same layout, key and codec as any other)
    the engine opens when the run has no cache of its own.

All writes are atomic (temp file + ``os.replace``, through
:func:`repro.core.cache.atomic_write_json`), so ``run.json`` is either
the old or the new progress, never a torn one.  A ``done/`` directory
left by an older version is ignored.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable

from repro.core.cache import atomic_write_json

#: Version of the ``run.json`` layout.
JOURNAL_SCHEMA_VERSION = 3


def _read_json(path: Path) -> Dict[str, Any]:
    """The JSON object at *path*, or ``{}`` if absent, corrupt or not a dict."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


class RunJournal:
    """Progress file of one journal directory.

    The optional *tracer* (see :mod:`repro.obs`) emits a
    ``journal.checkpoint`` event per completion plus begin/finish
    lifecycle events — observation only, the on-disk format is
    untouched.
    """

    def __init__(self, journal_dir, tracer=None) -> None:
        self.journal_dir = Path(journal_dir)
        if tracer is None:
            from repro.obs import NULL_TRACER

            tracer = NULL_TRACER
        self.tracer = tracer
        self._meta: Dict[str, Any] = {}

    # -- paths ---------------------------------------------------------
    @property
    def run_path(self) -> Path:
        return self.journal_dir / "run.json"

    @property
    def results_dir(self) -> Path:
        return self.journal_dir / "results"

    # -- lifecycle -----------------------------------------------------
    def begin(self, selected: Iterable[str]) -> None:
        """Start (or resume) a run: rewrite ``run.json`` for it."""
        self._meta = {
            "schema": JOURNAL_SCHEMA_VERSION,
            "selected": [abbr.upper() for abbr in selected],
            "status": "running",
            "done": [],
        }
        atomic_write_json(self.run_path, self._meta)
        self.tracer.event(
            "journal.begin",
            category="journal",
            selected=len(self._meta["selected"]),
        )

    def mark_done(self, abbr: str) -> None:
        """Atomically record *abbr* as complete (its entries are cached)."""
        self._meta["done"].append(abbr.upper())
        atomic_write_json(self.run_path, self._meta)
        self.tracer.event(
            "journal.checkpoint", category="journal", workload=abbr.upper()
        )

    @classmethod
    def peek(cls, journal_dir) -> Dict[str, Any]:
        """Read-only snapshot of a journal directory's progress.

        Returns ``{"status", "selected", "done"}`` without constructing
        an engine or touching the result cache — the service layer uses
        this to report a running job's checkpoint progress cheaply.  An
        absent or unreadable journal yields an empty snapshot
        (``status=None, done=[]``).
        """
        meta = _read_json(Path(journal_dir) / "run.json")
        return {
            "status": meta.get("status"),
            "selected": list(meta.get("selected", [])),
            "done": list(meta.get("done", [])),
        }

    def finish(self, ok: bool = True) -> None:
        """Mark the run's terminal status in ``run.json``."""
        self._meta["status"] = "complete" if ok else "failed"
        atomic_write_json(self.run_path, self._meta)
        self.tracer.event(
            "journal.finish", category="journal", status=self._meta["status"]
        )
