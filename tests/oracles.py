"""Test oracles: result differs and readers for formats ``repro`` only writes.

``diff_characterizations``/``diff_suite_results`` are the differential
tests' comparison primitives: field-by-field equality checks between
two runs of the same pipeline (serial vs. parallel, cold vs. warm
cache) that report *where* two results diverge instead of a bare
boolean, so a failing differential test names the drifted quantity.

``suite_run_report_from_dict`` and ``load_trace`` read back what
:func:`repro.core.serialize.suite_run_report_to_dict` and
:func:`repro.profiler.trace_export.export_trace` write; the tests use
them to prove those formats lossless.

``reference_levels`` and ``reference_ranks`` are plain BFS and
PageRank over a graph workload's own graph, for checking the
instrumented implementations.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List, Union

import numpy as np

from repro.core.config import ScalePreset
from repro.core.resilience import WorkloadFailure
from repro.core.serialize import characterization_from_dict
from repro.core.suite import SuiteResult, SuiteRunReport
from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import (
    InstructionMix,
    KernelCharacteristics,
    KernelLaunch,
    MemoryFootprint,
)
from repro.obs.metrics import RunProfile
from repro.profiler.trace_export import TRACE_VERSION
from repro.workloads.extensions.pagerank import PageRankWorkload
from repro.workloads.graphs.bfs import GunrockBFS


# -- differential comparison -------------------------------------------
def _diff_value(path: str, a, b, out: List[str]) -> None:
    """Recursively record human-readable differences between values."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        if type(a) is not type(b):
            out.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
            return
        for field_ in dataclasses.fields(a):
            _diff_value(
                f"{path}.{field_.name}",
                getattr(a, field_.name),
                getattr(b, field_.name),
                out,
            )
        return
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for index, (left, right) in enumerate(zip(a, b)):
            _diff_value(f"{path}[{index}]", left, right, out)
        return
    if a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def diff_characterizations(a, b, label: str = "") -> List[str]:
    """Field-by-field differences between two characterizations.

    Empty list ⇔ ``a == b`` (both are plain dataclass trees), so a
    drift failure names the exact metric.
    """
    out: List[str] = []
    _diff_value(label or getattr(a, "abbr", "characterization"), a, b, out)
    return out


def diff_suite_results(a: SuiteResult, b: SuiteResult) -> List[str]:
    """Differences between two suite runs (keys and per-workload data)."""
    out: List[str] = []
    if list(a.results) != list(b.results):
        out.append(
            f"workload sets differ: {sorted(a.results)} != {sorted(b.results)}"
        )
        return out
    for abbr in a.results:
        out.extend(
            diff_characterizations(a.results[abbr], b.results[abbr], abbr)
        )
    return out


# -- run reports -------------------------------------------------------
def _run_record_from_dict(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Constructor keyword arguments for the run record's fields."""
    profile = payload.get("run_profile")
    return {
        "failures": [WorkloadFailure(**f) for f in payload.get("failures", [])],
        "attempts": {
            abbr: int(count)
            for abbr, count in payload.get("attempts", {}).items()
        },
        "fallback_reason": payload.get("fallback_reason"),
        "resumed": list(payload.get("resumed", [])),
        "run_profile": RunProfile(**profile) if profile is not None else None,
        "trace_dir": payload.get("trace_dir"),
    }


def suite_run_report_from_dict(payload: Dict[str, Any]) -> SuiteRunReport:
    """The inverse of :func:`repro.core.serialize.suite_run_report_to_dict`."""
    return SuiteRunReport(
        device=DeviceSpec(**payload["device"]),
        preset=ScalePreset(**payload["preset"]),
        results={
            abbr: characterization_from_dict(result)
            for abbr, result in payload["results"].items()
        },
        **_run_record_from_dict(payload),
    )


# -- kernel traces -----------------------------------------------------
def _record_to_launch(record: dict) -> KernelLaunch:
    kernel = KernelCharacteristics(
        name=record["name"],
        grid_blocks=record["grid_blocks"],
        threads_per_block=record["threads_per_block"],
        warp_insts=record["warp_insts"],
        mix=InstructionMix(**record["mix"]),
        memory=MemoryFootprint(**record["memory"]),
        ilp=record["ilp"],
        mlp=record.get("mlp", 4.0),
        tags=tuple(record["tags"]),
    )
    return KernelLaunch(
        kernel=kernel,
        stream_id=record.get("stream_id", 0),
        phase=record.get("phase", ""),
    )


def load_trace(path: Union[str, Path]) -> List[KernelLaunch]:
    """Load a JSONL trace written by :func:`repro.profiler.export_trace`."""
    path = Path(path)
    launches: List[KernelLaunch] = []
    with path.open("r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        version = header.get("trace_version")
        if version != TRACE_VERSION:
            raise ValueError(
                f"unsupported trace version {version!r} in {path}"
            )
        for line in handle:
            line = line.strip()
            if line:
                launches.append(_record_to_launch(json.loads(line)))
    return launches


# -- graph algorithms --------------------------------------------------
def reference_levels(workload: GunrockBFS) -> np.ndarray:
    """Plain BFS level per vertex (-1 if unreachable)."""
    graph = workload._build_graph()
    n = graph.num_vertices
    levels = np.full(n, -1, dtype=np.int64)
    source = int(workload.source) % n
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        neighbors = np.unique(graph.expand(frontier))
        fresh = neighbors[levels[neighbors] < 0]
        levels[fresh] = depth
        frontier = fresh
    return levels


def reference_ranks(workload: PageRankWorkload) -> np.ndarray:
    """The converged PageRank vector of the workload's graph."""
    graph = workload._build_graph()
    n = graph.num_vertices
    degrees = np.maximum(1, graph.out_degrees()).astype(np.float64)
    rank = np.full(n, 1.0 / n)
    for _ in range(workload.max_iterations):
        contribution = rank / degrees
        accumulated = np.zeros(n)
        np.add.at(accumulated, graph.indices,
                  np.repeat(contribution, np.diff(graph.indptr)))
        updated = (1.0 - workload.damping) / n + workload.damping * accumulated
        updated /= updated.sum()
        if float(np.abs(updated - rank).sum()) < workload.tolerance:
            return updated
        rank = updated
    return rank
