"""Persistent result cache for the characterization engine.

Layout
------

A :class:`ResultCache` has two tiers:

* an **in-memory LRU** (bounded ``OrderedDict``) that serves repeated
  lookups within one process at dict speed, and
* an optional **persistent tier**: one JSON file per entry under
  ``<cache_dir>/<version>/<key[:2]>/<key>.json``, where ``<version>``
  is ``v<CACHE_SCHEMA_VERSION>-<fingerprint[:16]>``
  (:func:`~repro.gpu.digest.source_fingerprint`).

Keys are hex SHA-256 digests produced by :mod:`repro.gpu.digest`; the
two-character fan-out directory keeps any single directory small even
with hundreds of thousands of entries.  Writes are atomic (temp file +
``os.replace``) so concurrent worker processes sharing one cache
directory can never observe a torn entry; a corrupt or unreadable file
is treated as a miss and rewritten.

Invalidation is by directory, not deletion: the version directory is
named after the schema version *and* the model source, so a payload
schema bump or any edit to the model code orphans every stale entry at
once (``prune`` removes orphaned trees).  Nothing has to be bumped by
hand.

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
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.gpu.device import DeviceSpec
from repro.gpu.digest import (
    CACHE_SCHEMA_VERSION,
    source_fingerprint,
    stable_digest,
)


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

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.memory_hits += other.memory_hits
        self.disk_hits += other.disk_hits
        self.misses += other.misses
        self.stores += other.stores
        self.corrupt += other.corrupt

    def as_dict(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
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
        fields = ("memory_hits", "disk_hits", "misses", "stores", "corrupt")
        return cls(**{
            name: int(payload.get(name, 0)) for name in fields
        })

    def render(self) -> str:
        text = (
            f"{self.hits}/{self.lookups} hits "
            f"({self.memory_hits} memory, {self.disk_hits} disk), "
            f"{self.stores} stores, hit rate {self.hit_rate:.0%}"
        )
        if self.corrupt:
            text += f", {self.corrupt} corrupt entr{'y' if self.corrupt == 1 else 'ies'} quarantined"
        return text


@dataclass
class ResultCache:
    """Two-tier (LRU memory + optional disk) keyed cache."""

    cache_dir: Optional[Path] = None
    max_memory_entries: int = 4096
    stats: CacheStats = field(default_factory=CacheStats)
    #: Optional run-scoped tracer (see :mod:`repro.obs`): every get/put
    #: also bumps ``cache.*`` run metrics and, when an event log is
    #: attached, emits a ``cache.get``/``cache.put`` event.  Pure
    #: observation — hit/miss behavior and payloads are untouched.
    tracer: Optional[Any] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # An empty string (e.g. REPRO_CACHE_DIR="") means "no disk tier",
        # not Path("") == the current directory.
        if self.cache_dir is not None and str(self.cache_dir) != "":
            self.cache_dir = Path(self.cache_dir)
        else:
            self.cache_dir = None
        if self.max_memory_entries < 0:
            raise ValueError("max_memory_entries must be non-negative")
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    # -- paths ---------------------------------------------------------
    @property
    def version_dir(self) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / (
            f"v{CACHE_SCHEMA_VERSION}-{source_fingerprint()[:16]}"
        )

    def _path(self, key: str) -> Optional[Path]:
        root = self.version_dir
        if root is None:
            return None
        return root / key[:2] / f"{key}.json"

    # -- observability -------------------------------------------------
    def _observe(self, op: str, key: str, outcome: str) -> None:
        """Mirror one cache operation into the run-scoped tracer."""
        tracer = self.tracer
        if tracer is None:
            return
        tracer.incr(f"cache.{outcome}")
        tracer.event(
            f"cache.{op}", category="cache", key=key[:16], outcome=outcome
        )

    # -- core API ------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Payload stored under *key*, or ``None`` on a miss."""
        payload = self._memory.get(key)
        if payload is not None:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            self._observe("get", key, "memory_hits")
            return payload
        path = self._path(key)
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except FileNotFoundError:
                payload = None  # plain miss
            except OSError:
                payload = None  # unreadable (permissions, I/O) → miss
            except ValueError:
                # The file exists but does not parse (truncation, bit
                # rot): quarantine it so the recompute can cleanly
                # rewrite the entry.
                self._quarantine(path)
                payload = None
            if payload is not None and not isinstance(payload, dict):
                self._quarantine(path)  # parsed, but not an entry
                payload = None
            if payload is not None:
                self.stats.disk_hits += 1
                self._observe("get", key, "disk_hits")
                self._remember(key, payload)
                return payload
        self.stats.misses += 1
        self._observe("get", key, "misses")
        return None

    def reject(self, key: str) -> None:
        """Re-book the disk hit :meth:`get` just served for *key* as corrupt.

        For a caller whose schema check fails on a payload that parsed:
        the lookup counts as a miss, and the entry leaves the memory
        tier and is quarantined, exactly as if it had not parsed, so the
        caller recomputes and rewrites it.  Only a disk hit can be
        schema-corrupt: the memory tier holds what :meth:`put` stored
        and what :meth:`get` read, and a rejected read is dropped here.
        """
        self.stats.disk_hits -= 1
        if self.tracer is not None:
            self.tracer.incr("cache.disk_hits", -1.0)
        self.stats.misses += 1
        self._observe("reject", key, "misses")
        self._memory.pop(key, None)
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
        """Store *payload* under *key* in both tiers."""
        self.stats.stores += 1
        self._observe("put", key, "stores")
        self._remember(key, payload)
        path = self._path(key)
        if path is None:
            return
        # Atomic publish: concurrent workers may race on the same key,
        # but both write identical content and os.replace is atomic.
        atomic_write_json(path, payload)

    def _remember(self, key: str, payload: Dict[str, Any]) -> None:
        if self.max_memory_entries == 0:
            return
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    # -- maintenance ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._memory)

    def persistent_entries(self) -> int:
        """Number of entries in the current persistent version tree."""
        root = self.version_dir
        if root is None or not root.is_dir():
            return 0
        return sum(1 for _ in root.glob("*/*.json"))

    def prune(self) -> int:
        """Drop trees of other versions and source fingerprints; count them.

        Also drops the ``streams`` tree older versions kept beside the
        version trees.
        """
        if self.cache_dir is None or not self.cache_dir.is_dir():
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
