"""Resumable run checkpoints: a journal of completed workloads.

A run interrupted after N workloads (crash, SIGTERM, power loss)
should restart and re-run only the remaining ones.  The journal records
*which* workloads completed; the results themselves live in the run's
:class:`~repro.core.cache.ResultCache`, the one store with one keying
rule.  The journal holds no run identity of its own: a marked workload
resumes only if the result cache holds its entry for every device of
the current run, and that recipe key already covers device, options,
scale, seed and the source-fingerprinted version directory.  So runs
with different parameters (or the two runs of one command, Cactus then
PRT) can share a journal directory without ever replaying a wrong
result.

``<journal_dir>/run.json``
    Progress of the latest run: journal schema version, the selected
    workload list and ``status`` (``running``/``complete``/``failed``),
    read by the service's progress peek.
``<journal_dir>/done/<ABBR>.json``
    One completion marker per finished workload:
    ``{"schema", "abbr", "attempts"}`` and nothing else.  A marker
    whose entries are missing or invalid counts as not done.
``<journal_dir>/results/``
    The private result cache (same layout, key and codec as any other)
    the engine opens when the run has no cache of its own.

All writes are atomic (temp file + ``os.replace``, through
:func:`repro.core.cache.atomic_write_json`), so a marker is either
complete or absent, and it is written only after its entries; a
corrupt marker, or one written under another schema, is treated as
"not done" and the workload simply re-runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Set

from repro.core.cache import atomic_write_json

#: Markers written under any other schema count as "not done".
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
    """Checkpoint store of one journal directory.

    The optional *tracer* (see :mod:`repro.obs`) emits a
    ``journal.checkpoint`` event per completion marker plus
    begin/finish lifecycle events, and counts checkpoints into the run
    metrics — observation only, the on-disk format is untouched.
    """

    def __init__(self, journal_dir, tracer=None) -> None:
        self.journal_dir = Path(journal_dir)
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

        The engine tries to resume each returned abbreviation from the
        result cache.  ``run.json`` is rewritten for this run.
        """
        selected = [abbr.upper() for abbr in selected]
        marked = {
            abbr for abbr in selected
            if (_read_json(self.marker_path(abbr)) or {}).get("schema")
            == JOURNAL_SCHEMA_VERSION
        }
        atomic_write_json(
            self.run_path,
            {
                "schema": JOURNAL_SCHEMA_VERSION,
                "selected": selected,
                "status": "running",
            },
        )
        self.tracer.event(
            "journal.begin",
            category="journal",
            selected=len(selected),
            marked=len(marked),
        )
        return marked

    def mark_done(self, abbr: str, attempts: int = 1) -> None:
        """Atomically record *abbr* as complete (its entries are cached)."""
        atomic_write_json(
            self.marker_path(abbr),
            {
                "schema": JOURNAL_SCHEMA_VERSION,
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

        Returns ``{"status", "selected", "done"}`` without constructing
        an engine or touching the result cache — the service layer uses
        this to report a running job's checkpoint progress cheaply.  An
        absent or unreadable journal yields an empty snapshot
        (``status=None, done=[]``).
        """
        root = Path(journal_dir)
        meta = _read_json(root / "run.json") or {}
        done = sorted(p.stem for p in (root / "done").glob("*.json"))
        return {
            "status": meta.get("status"),
            "selected": list(meta.get("selected", [])),
            "done": done,
        }

    def finish(self, ok: bool = True) -> None:
        """Mark the run's terminal status in ``run.json``."""
        meta = _read_json(self.run_path) or {"schema": JOURNAL_SCHEMA_VERSION}
        meta["status"] = "complete" if ok else "failed"
        atomic_write_json(self.run_path, meta)
        self.tracer.event(
            "journal.finish", category="journal", status=meta["status"]
        )
