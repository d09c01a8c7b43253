"""Stream-level cache: launch streams keyed on the workload recipe alone.

The result cache (:mod:`repro.core.cache`) memoizes *characterizations*
under ``(device, options, abbr, scale, seed)`` keys — one entry per
(workload, device) pair.  Stream **generation**, however, is completely
device-independent and dominates a cold run's wall clock, so a device
sweep that misses the result cache for a new device would regenerate
every stream even though nothing about the stream changed.

:class:`StreamCache` fills that gap: it persists the steady-state
launch stream itself, keyed on the workload recipe (abbr, scale, seed)
and the steady-state flag — **no device, no simulation options** — so any sweep or suite run over the same workload
preset reuses the stream no matter which devices it targets.  Keys are
deliberately disjoint from :func:`repro.core.cache.characterization_key`
material (different tag), and entries live in their own ``streams``
namespace of the result cache's version tree.

Staleness: the key does not hash the stream *content* (that would
require generating it, defeating the point).  It does not need to: the
entries live under the fingerprinted version directory of
:class:`~repro.core.cache.ResultCache`, so an edit to any workload model
orphans every cached stream.  :data:`STREAM_CACHE_SCHEMA_VERSION` only
versions the payload layout below.

Serialization is lossless: floats survive the JSON round trip
bit-for-bit (repr-based encoding), kernels are stored once in a
first-appearance table, and launches as ``(kernel_index, stream_id,
phase)`` triples — so a deserialized stream has the same content digest
and at least the same kernel-object sharing as the generated one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.cache import ResultCache
from repro.gpu.digest import CACHE_SCHEMA_VERSION, stable_digest
from repro.gpu.kernel import (
    InstructionMix,
    KernelCharacteristics,
    KernelLaunch,
    MemoryFootprint,
)

#: Bump when the stream payload layout changes incompatibly.
STREAM_CACHE_SCHEMA_VERSION = 1

__all__ = [
    "STREAM_CACHE_SCHEMA_VERSION",
    "StreamCache",
    "launches_from_payload",
    "launches_to_payload",
    "stream_key",
]


def stream_key(
    abbr: str, scale: float, seed: int, steady_state: bool = True
) -> str:
    """Cache key for one workload's (cropped) launch stream.

    Keyed on the recipe, like the result cache, and device-free by
    design: the same entry serves every device of a sweep.
    ``steady_state`` is part of the key because the profiler's cropping
    changes which launches are measured.
    """
    return stable_digest(
        ["launch-stream", CACHE_SCHEMA_VERSION, abbr, scale, seed, steady_state]
    )


def _kernel_to_dict(kernel: KernelCharacteristics) -> Dict[str, Any]:
    mix = kernel.mix
    memory = kernel.memory
    return {
        "name": kernel.name,
        "grid_blocks": kernel.grid_blocks,
        "threads_per_block": kernel.threads_per_block,
        "warp_insts": kernel.warp_insts,
        "mix": {
            "fp32": mix.fp32,
            "ld_st": mix.ld_st,
            "branch": mix.branch,
            "sync": mix.sync,
        },
        "memory": {
            "bytes_read": memory.bytes_read,
            "bytes_written": memory.bytes_written,
            "reuse_factor": memory.reuse_factor,
            "l1_locality": memory.l1_locality,
            "coalescence": memory.coalescence,
            "l2_carry_in": memory.l2_carry_in,
            "working_set_bytes": memory.working_set_bytes,
        },
        "ilp": kernel.ilp,
        "mlp": kernel.mlp,
        "tags": list(kernel.tags),
    }


def _kernel_from_dict(payload: Dict[str, Any]) -> KernelCharacteristics:
    return KernelCharacteristics(
        name=payload["name"],
        grid_blocks=payload["grid_blocks"],
        threads_per_block=payload["threads_per_block"],
        warp_insts=payload["warp_insts"],
        mix=InstructionMix(**payload["mix"]),
        memory=MemoryFootprint(**payload["memory"]),
        ilp=payload["ilp"],
        mlp=payload["mlp"],
        tags=tuple(payload["tags"]),
    )


def launches_to_payload(launches: Iterable[KernelLaunch]) -> Dict[str, Any]:
    """Serialize a launch stream: kernel table + per-launch triples.

    Kernels are deduplicated by *equality* (like the simulator's memo),
    so the payload stores each distinct kernel once regardless of how
    many launch objects share (or merely equal) it.
    """
    index_of: Dict[KernelCharacteristics, int] = {}
    kernels: List[Dict[str, Any]] = []
    triples: List[List[Any]] = []
    for launch in launches:
        kernel = launch.kernel
        idx = index_of.get(kernel)
        if idx is None:
            idx = len(kernels)
            index_of[kernel] = idx
            kernels.append(_kernel_to_dict(kernel))
        triples.append([idx, launch.stream_id, launch.phase])
    return {
        "schema": STREAM_CACHE_SCHEMA_VERSION,
        "kernels": kernels,
        "launches": triples,
    }


def launches_from_payload(payload: Dict[str, Any]) -> List[KernelLaunch]:
    """Rebuild the stream written by :func:`launches_to_payload`.

    Raises ``KeyError``/``TypeError``/``ValueError`` on any schema
    mismatch (including dataclass validation), which callers treat as a
    cache miss.
    """
    if payload.get("schema") != STREAM_CACHE_SCHEMA_VERSION:
        raise ValueError(
            f"stream payload schema {payload.get('schema')!r} != "
            f"{STREAM_CACHE_SCHEMA_VERSION}"
        )
    kernels = [_kernel_from_dict(item) for item in payload["kernels"]]
    launches: List[KernelLaunch] = []
    for idx, stream_id, phase in payload["launches"]:
        launches.append(
            KernelLaunch(
                kernel=kernels[idx], stream_id=stream_id, phase=phase
            )
        )
    return launches


@dataclass
class StreamCache:
    """Persistent launch-stream store (a thin :class:`ResultCache` skin).

    Given the result cache's ``cache_dir``, its entries live in the
    ``streams`` namespace of the same version tree, so stream and
    characterization entries never share a directory but are orphaned
    (and pruned) together.  It reuses the result cache's two-tier LRU +
    atomic-write + quarantine machinery wholesale.
    """

    cache_dir: Optional[Union[str, Any]] = None
    backend: ResultCache = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.backend = ResultCache(
            cache_dir=self.cache_dir, namespace="streams"
        )

    @property
    def stats(self) -> Any:
        return self.backend.stats

    @property
    def tracer(self) -> Optional[Any]:
        return self.backend.tracer

    @tracer.setter
    def tracer(self, value: Optional[Any]) -> None:
        self.backend.tracer = value

    def get(self, key: str) -> Optional[List[KernelLaunch]]:
        """The cached stream under *key*, or ``None`` on a miss.

        A payload that fails validation is reported as a miss (the
        caller regenerates and overwrites it).
        """
        payload = self.backend.get(key)
        if payload is None:
            return None
        try:
            return launches_from_payload(payload)
        except (KeyError, TypeError, ValueError, IndexError):
            return None

    def put(self, key: str, launches: Sequence[KernelLaunch]) -> None:
        """Store *launches* under *key* (atomic, crash-safe)."""
        self.backend.put(key, launches_to_payload(launches))
