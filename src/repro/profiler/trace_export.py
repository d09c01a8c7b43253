"""Kernel-trace export (the paper's stated future work).

The Cactus paper's conclusion announces "Cactus instruction traces that
are compatible with state-of-the-art GPU simulators".  This module
implements that extension for our substrate: a launch stream serializes
to a line-oriented JSON trace that records, per launch, the geometry,
instruction counts, mix, and memory footprint — enough for a trace-driven
simulator to replay the workload without re-running the application
model.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Union

from repro.gpu.kernel import KernelLaunch

TRACE_VERSION = 1


def _launch_to_record(launch: KernelLaunch) -> dict:
    kernel = launch.kernel
    return {
        "name": kernel.name,
        "grid_blocks": kernel.grid_blocks,
        "threads_per_block": kernel.threads_per_block,
        "warp_insts": kernel.warp_insts,
        "ilp": kernel.ilp,
        "mlp": kernel.mlp,
        "tags": list(kernel.tags),
        "mix": {
            "fp32": kernel.mix.fp32,
            "ld_st": kernel.mix.ld_st,
            "branch": kernel.mix.branch,
            "sync": kernel.mix.sync,
        },
        "memory": {
            "bytes_read": kernel.memory.bytes_read,
            "bytes_written": kernel.memory.bytes_written,
            "reuse_factor": kernel.memory.reuse_factor,
            "l1_locality": kernel.memory.l1_locality,
            "coalescence": kernel.memory.coalescence,
            "l2_carry_in": kernel.memory.l2_carry_in,
            "working_set_bytes": kernel.memory.working_set_bytes,
        },
        "stream_id": launch.stream_id,
        "phase": launch.phase,
    }


def export_trace(
    launches: Iterable[KernelLaunch], path: Union[str, Path]
) -> int:
    """Write launches to *path* as a versioned JSONL trace.

    Returns the number of launches written.
    """
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"trace_version": TRACE_VERSION}) + "\n")
        for launch in launches:
            handle.write(json.dumps(_launch_to_record(launch)) + "\n")
            count += 1
    return count

