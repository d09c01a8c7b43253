"""Stable content digests for the GPU-model value types.

The result cache (:mod:`repro.core.cache`) keys a characterization on
a SHA-256 digest of its recipe — the
:class:`~repro.gpu.device.DeviceSpec`, the
:class:`~repro.gpu.simulator.SimulationOptions` and the workload's
abbr, scale and seed — and stores the launch stream's digest beside it.
This module provides the canonicalization and hashing primitives those
digests are built from, and the source fingerprint that names the
cache's version directory.

Design rules that make the digests trustworthy cache keys:

* **Stability** — the digest of equal values is identical across
  processes, interpreter restarts and ``PYTHONHASHSEED`` values.
  Floats are hashed via :meth:`float.hex` (exact, locale-independent),
  dict keys are sorted, and SHA-256 itself is deterministic.
* **Injectivity by construction** — canonical forms are tagged with the
  dataclass name and field names, so two different types (or the same
  type with permuted field values) cannot collide structurally.
* **Versioned invalidation** — :data:`CACHE_SCHEMA_VERSION` is folded
  into every key; bump it when the canonical form or the serialized
  payloads change.  Model changes need no bump: the persistent cache
  lives under a directory named after :func:`source_fingerprint`, so
  editing the model source orphans every stale entry by itself.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

from repro.gpu.kernel import KernelCharacteristics, KernelLaunch

#: Version folded into every cache key.  Bump on any change to the
#: canonical form or the serialized payloads.
CACHE_SCHEMA_VERSION = 1

#: ``repro/`` sources that cannot change a characterization: the front
#: ends and observability.
_NOT_MODEL_SOURCE = ("cli.py", "__main__.py", "service/", "obs/")


def canonicalize(obj: Any) -> Any:
    """Reduce *obj* to a JSON-safe canonical form with stable hashing.

    Supports the primitives, lists/tuples, string-keyed dicts and
    (recursively) dataclasses.  Floats become their exact hex form so
    the digest never depends on repr shortening rules.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float.hex(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        form: Dict[str, Any] = {"__dataclass__": type(obj).__name__}
        for field in dataclasses.fields(obj):
            form[field.name] = canonicalize(getattr(obj, field.name))
        return form
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("only string-keyed dicts can be canonicalized")
        return {k: canonicalize(obj[k]) for k in sorted(obj)}
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r} values")


def stable_digest(obj: Any) -> str:
    """Hex SHA-256 of the canonical form of *obj*."""
    encoded = json.dumps(
        canonicalize(obj), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def kernel_digest(kernel: KernelCharacteristics) -> str:
    """Content digest of one kernel description."""
    return stable_digest(["kernel", CACHE_SCHEMA_VERSION, kernel])


def launch_stream_digest(
    launches: Iterable[KernelLaunch],
    _memo: Optional[Dict[KernelCharacteristics, str]] = None,
) -> str:
    """Content digest of an ordered launch stream.

    Streams routinely repeat a handful of kernels thousands of times, so
    per-kernel digests are memoized and the stream hash is folded
    incrementally instead of materializing one giant canonical form.
    """
    memo: Dict[KernelCharacteristics, str] = (
        _memo if _memo is not None else {}
    )
    hasher = hashlib.sha256(
        f"launch-stream:{CACHE_SCHEMA_VERSION}".encode("utf-8")
    )
    for launch in launches:
        digest = memo.get(launch.kernel)
        if digest is None:
            digest = kernel_digest(launch.kernel)
            memo[launch.kernel] = digest
        hasher.update(
            f"{launch.stream_id}|{launch.phase}|{digest}".encode("utf-8")
        )
    return hasher.hexdigest()


def source_fingerprint(root: Optional[Path] = None) -> str:
    """Hex SHA-256 of the model source and the numeric stack it runs on.

    Hashes the relative path and bytes of every ``*.py`` file under
    *root* (default: the installed ``repro`` package) except the
    non-model sources of ``_NOT_MODEL_SOURCE``, plus the numpy and
    scipy versions.  Any edit that could change a result changes the
    fingerprint, and so the cache's version directory.  The package's
    own fingerprint is computed once per process.
    """
    if root is None:
        return _package_fingerprint()
    root = Path(root)
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative.startswith(_NOT_MODEL_SOURCE):
            continue
        hasher.update(f"{relative}\0".encode("utf-8"))
        hasher.update(path.read_bytes())
    for package in ("numpy", "scipy"):
        try:
            version = importlib.import_module(package).__version__
        except ImportError:
            version = "absent"
        hasher.update(f"\0{package}=={version}".encode("utf-8"))
    return hasher.hexdigest()


@functools.lru_cache(maxsize=1)
def _package_fingerprint() -> str:
    return source_fingerprint(Path(__file__).resolve().parents[1])
