"""Persistent result cache for the characterization engine.

Layout
------

A :class:`ResultCache` is a directory: one JSON file per entry under
``<cache_dir>/<version>/<key[:2]>/<key>.json``, where ``<version>`` is
``v<CACHE_SCHEMA_VERSION>-<fingerprint[:16]>``
(:func:`~repro.gpu.digest.source_fingerprint`).  A run either has one
or is uncached; every lookup reads the file.  The cache stores any
JSON object; the engine's entries are one characterization's
per-kernel profile (:func:`repro.core.serialize.cache_entry_to_dict`).

Keys are hex SHA-256 digests produced by :mod:`repro.gpu.digest`; the
two-character fan-out directory keeps any single directory small even
with hundreds of thousands of entries.  Writes are atomic (temp file +
``os.replace``) so concurrent worker processes sharing one cache
directory can never observe a torn entry; a corrupt or unreadable file
is treated as a miss and rewritten.

Invalidation is by directory, not deletion: the version directory is
named after the model source (which includes the entry codec in
:mod:`repro.core.serialize`), so any edit to the model code or the
entry layout orphans every stale entry at once (``prune`` removes
orphaned trees).  Nothing has to be bumped by hand;
``CACHE_SCHEMA_VERSION`` changes only with the key's canonical form.

Corruption handling: an entry that exists but cannot be parsed
(truncated write from a killed process, at-rest bit rot) is counted in
``stats.corrupt``, *quarantined* into ``<cache_dir>/corrupt/`` for
post-mortem inspection, and reported as a miss — so the caller
recomputes and cleanly rewrites the entry instead of tripping over the
same broken file forever.  An entry that parses but fails the caller's
own schema check goes the same way through :meth:`ResultCache.reject`.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.gpu.device import DeviceSpec
from repro.gpu.digest import (
    CACHE_SCHEMA_VERSION,
    source_fingerprint,
    stable_digest,
)
from repro.obs import CURRENT_TRACER


def atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    """Publish *payload* at *path* atomically (temp file + replace).

    ``json.dumps`` runs the C encoder (``json.dump`` always takes the
    pure-Python one) and writes the same compact bytes in one call.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, separators=(",", ":")))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache (mergeable across workers)."""

    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    @property
    def hits(self) -> int:
        return self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.disk_hits += other.disk_hits
        self.misses += other.misses
        self.stores += other.stores
        self.corrupt += other.corrupt

    def as_dict(self) -> Dict[str, int]:
        return {
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CacheStats":
        """Inverse of :meth:`as_dict` (unknown keys are ignored).

        Used by the service layer to rehydrate persisted per-job cache
        accounting across restarts; tolerant of older payloads that
        predate a counter or carry a retired one.
        """
        fields = ("disk_hits", "misses", "stores", "corrupt")
        return cls(**{
            name: int(payload.get(name, 0)) for name in fields
        })

    def render(self) -> str:
        text = (
            f"{self.hits}/{self.lookups} hits, "
            f"{self.stores} stores, hit rate {self.hit_rate:.0%}"
        )
        if self.corrupt:
            text += f", {self.corrupt} corrupt entr{'y' if self.corrupt == 1 else 'ies'} quarantined"
        return text


@dataclass
class ResultCache:
    """Keyed cache of JSON entries under one directory.

    Every get, put, reject and quarantine is mirrored into the running
    run's tracer (:data:`repro.obs.CURRENT_TRACER`; a no-op outside a
    run) as a ``cache.*`` counter and ``cache.<op>`` event, so a cache
    shared by two runs on two threads counts each run's traffic in that
    run.  Pure observation: hit/miss behavior and payloads are untouched.
    """

    #: The cache's root (a ``str`` is converted to a ``Path``).
    cache_dir: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        # Path("") would be the current directory, never what was meant.
        if str(self.cache_dir) == "":
            raise ValueError("ResultCache needs a cache directory")
        self.cache_dir = Path(self.cache_dir)

    # -- paths ---------------------------------------------------------
    @property
    def version_dir(self) -> Path:
        return self.cache_dir / (
            f"v{CACHE_SCHEMA_VERSION}-{source_fingerprint()[:16]}"
        )

    def _path(self, key: str) -> Path:
        return self.version_dir / key[:2] / f"{key}.json"

    # -- observability -------------------------------------------------
    def _observe(self, op: str, key: str, outcome: str) -> None:
        """Mirror one cache operation into the running run's tracer."""
        tracer = CURRENT_TRACER.get()
        tracer.incr(f"cache.{outcome}")
        tracer.event(
            f"cache.{op}", category="cache", key=key[:16], outcome=outcome
        )

    # -- core API ------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Payload stored under *key*, or ``None`` on a miss."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            payload = None  # plain miss
        except OSError:
            payload = None  # unreadable (permissions, I/O) → miss
        except ValueError:
            # The file exists but does not parse (truncation, bit rot):
            # quarantine it so the recompute can cleanly rewrite it.
            self._quarantine(path)
            payload = None
        if payload is not None and not isinstance(payload, dict):
            self._quarantine(path)  # parsed, but not an entry
            payload = None
        if payload is None:
            self.stats.misses += 1
            self._observe("get", key, "misses")
            return None
        self.stats.disk_hits += 1
        self._observe("get", key, "disk_hits")
        return payload

    def reject(self, key: str) -> None:
        """Re-book the hit :meth:`get` just served for *key* as corrupt.

        For a caller whose schema check fails on a payload that parsed:
        the lookup counts as a miss and the entry is quarantined,
        exactly as if it had not parsed, so the caller recomputes and
        rewrites it.
        """
        self.stats.disk_hits -= 1
        CURRENT_TRACER.get().incr("cache.disk_hits", -1.0)
        self.stats.misses += 1
        self._observe("reject", key, "misses")
        self._quarantine(self._path(key))

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside into ``<cache_dir>/corrupt/``."""
        self.stats.corrupt += 1
        self._observe("quarantine", path.stem, "corrupt")
        quarantine_dir = self.cache_dir / "corrupt"
        try:
            quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine_dir / path.name)
        except OSError:
            # Quarantine is best-effort; at minimum drop the broken
            # file so the next put() can rewrite it.
            try:
                path.unlink()
            except OSError:
                pass

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store *payload* under *key*."""
        self.stats.stores += 1
        self._observe("put", key, "stores")
        # Atomic publish: concurrent workers may race on the same key,
        # but both write the same profile and os.replace is atomic.
        atomic_write_json(self._path(key), payload)

    # -- maintenance ---------------------------------------------------
    def persistent_entries(self) -> int:
        """Number of entries in the current version tree."""
        root = self.version_dir
        if not root.is_dir():
            return 0
        return sum(1 for _ in root.glob("*/*.json"))

    def persistent_bytes(self) -> int:
        """Total size in bytes of the files in the current version tree."""
        root = self.version_dir
        if not root.is_dir():
            return 0
        return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())

    def prune(self) -> int:
        """Drop trees of other versions and source fingerprints; count them.

        Also drops the ``streams`` tree older versions kept beside the
        version trees.
        """
        if not self.cache_dir.is_dir():
            return 0
        removed = 0
        keep = self.version_dir.name
        for child in self.cache_dir.iterdir():
            stale = child.name.startswith("v") or child.name == "streams"
            if child.is_dir() and stale and child.name != keep:
                shutil.rmtree(child, ignore_errors=True)
                removed += 1
        return removed


def characterization_key(
    device: DeviceSpec,
    options: Any,
    abbr: str,
    scale: float,
    seed: int,
) -> str:
    """Cache key for one workload's characterization on one device.

    Keyed on the recipe, not the stream: ``get_workload(abbr, scale,
    seed)`` fully determines the launch stream, so a lookup needs no
    stream at all.  The device and simulation options cover the
    simulator and roofline classification.  Model edits are caught by
    the fingerprinted version directory, not by the key.
    """
    return stable_digest(
        ["characterization", CACHE_SCHEMA_VERSION, device, options, abbr,
         scale, seed]
    )
