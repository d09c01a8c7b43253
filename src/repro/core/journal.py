"""Resumable run checkpoints: a per-run journal of completed workloads.

A run interrupted after N workloads (crash, SIGTERM, power loss)
should restart and re-run only the remaining ones — *even with the
result cache disabled*.  The journal makes that possible by recording
each completed workload as it lands.  Suite runs and device sweeps
share one format, because a suite run is a one-device sweep:

``<journal_dir>/run.json``
    Run metadata: journal schema version, the run key (a content
    digest of the device(s) + simulation options + preset + workload
    selection), and the selected workload list.  A journal whose run
    key does not match the current run is stale and is wiped before
    the run starts — resuming is only ever offered for *identical*
    runs.
``<journal_dir>/done/<ABBR>.json``
    One completion marker per finished workload, holding its whole
    device axis — ``{"devices": {device_name: characterization}}``,
    serialized losslessly (see :mod:`repro.core.serialize`) — plus the
    run key and attempt count.  A resumed run skips exactly the
    workloads whose full device set already landed; the run key digests
    the device list, so adding a device starts a fresh journal.

All writes are atomic (temp file + ``os.replace``, through
:func:`repro.core.cache.atomic_write_json`), so a marker is either
complete or absent; a corrupt or foreign marker — or one in the older
single-device ``{"characterization": ...}`` format — is treated as
"not done" and the workload simply re-runs.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

from repro.core.cache import atomic_write_json
from repro.core.characterize import Characterization
from repro.core.serialize import (
    characterization_from_dict,
    characterization_to_dict,
)

JOURNAL_SCHEMA_VERSION = 1


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

    def marker_path(self, abbr: str) -> Path:
        return self.done_dir / f"{abbr.upper()}.json"

    # -- lifecycle -----------------------------------------------------
    def _read_meta(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.run_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            return None
        return meta if isinstance(meta, dict) else None

    def begin(
        self, selected: Iterable[str]
    ) -> Dict[str, Dict[str, Characterization]]:
        """Start (or resume) a run; return already-completed results.

        If an existing journal matches this run key, the completed
        characterizations are loaded and returned so the engine can
        skip them.  Otherwise any stale journal is wiped and a fresh
        ``run.json`` is written.
        """
        selected = [abbr.upper() for abbr in selected]
        meta = self._read_meta()
        if (
            meta is not None
            and meta.get("schema") == JOURNAL_SCHEMA_VERSION
            and meta.get("run_key") == self.run_key
        ):
            completed = self._load_completed(selected)
            self.tracer.event(
                "journal.resume",
                category="journal",
                run_key=self.run_key[:16],
                resumed=len(completed),
            )
            self.tracer.incr(
                "engine.workloads_resumed", float(len(completed))
            )
            return completed
        # Stale or absent journal: start fresh.
        if self.done_dir.is_dir():
            shutil.rmtree(self.done_dir, ignore_errors=True)
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
        return {}

    def _load_completed(
        self, selected: Iterable[str]
    ) -> Dict[str, Dict[str, Characterization]]:
        completed: Dict[str, Dict[str, Characterization]] = {}
        for abbr in selected:
            path = self.marker_path(abbr)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    marker = json.load(handle)
                if marker.get("run_key") != self.run_key:
                    continue  # marker from a different run identity
                completed[abbr] = {
                    name: characterization_from_dict(payload)
                    for name, payload in marker["devices"].items()
                }
            except (OSError, ValueError, KeyError, TypeError, AttributeError):
                # Absent, corrupt or old-format marker → just re-run it.
                continue
        return completed

    def mark_done(
        self,
        abbr: str,
        result: Dict[str, Characterization],
        attempts: int = 1,
    ) -> None:
        """Atomically record *abbr* with its full per-device result map."""
        atomic_write_json(
            self.marker_path(abbr),
            {
                "schema": JOURNAL_SCHEMA_VERSION,
                "run_key": self.run_key,
                "abbr": abbr.upper(),
                "attempts": attempts,
                "devices": {
                    name: characterization_to_dict(entry)
                    for name, entry in result.items()
                },
            },
        )
        self.tracer.event(
            "journal.checkpoint",
            category="journal",
            workload=abbr.upper(),
            attempts=attempts,
        )
        self.tracer.incr("engine.journal_checkpoints")

    def completed_workloads(self) -> list:
        """Abbreviations with a completion marker on disk (sorted)."""
        if not self.done_dir.is_dir():
            return []
        return sorted(p.stem for p in self.done_dir.glob("*.json"))

    @classmethod
    def peek(cls, journal_dir) -> Dict[str, Any]:
        """Read-only snapshot of a journal directory's progress.

        Returns ``{"run_key", "status", "selected", "done"}`` without
        constructing an engine or loading any characterization payloads
        — the service layer uses this to report a running job's
        checkpoint progress cheaply.  An absent or unreadable journal
        yields an empty snapshot (``run_key=None, done=[]``).
        """
        root = Path(journal_dir)
        meta: Dict[str, Any] = {}
        try:
            with open(root / "run.json", "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                meta = loaded
        except (OSError, ValueError):
            meta = {}
        done_dir = root / "done"
        done = (
            sorted(p.stem for p in done_dir.glob("*.json"))
            if done_dir.is_dir()
            else []
        )
        return {
            "run_key": meta.get("run_key"),
            "status": meta.get("status"),
            "selected": list(meta.get("selected", [])),
            "done": done,
        }

    def finish(self, ok: bool = True) -> None:
        """Mark the run's terminal status in ``run.json``."""
        meta = self._read_meta() or {
            "schema": JOURNAL_SCHEMA_VERSION,
            "run_key": self.run_key,
        }
        meta["status"] = "complete" if ok else "failed"
        atomic_write_json(self.run_path, meta)
        self.tracer.event(
            "journal.finish", category="journal", status=meta["status"]
        )
