#!/usr/bin/env python3
"""Diff a workload's profile across two devices.

Characterizes GMS on the RTX 3080 and the A100 from one launch stream
and prints the per-kernel speedup table: the compute-bound non-bonded kernel tracks the SM-count
ratio while the memory-bound PME kernels track the bandwidth ratio —
the per-kernel view behind the device-sweep ablation.

Usage::

    python examples/profile_diff.py [ABBR] [scale]
"""

import sys

from repro.core import characterize_devices
from repro.gpu import A100, RTX_3080
from repro.profiler import diff_profiles
from repro.workloads import get_workload


def main() -> None:
    abbr = sys.argv[1] if len(sys.argv) > 1 else "GMS"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5

    results = characterize_devices(
        get_workload(abbr, scale=scale), [RTX_3080, A100]
    )
    diff = diff_profiles(
        results[RTX_3080.name].profile, results[A100.name].profile
    )
    print(f"{abbr} at scale {scale}: {RTX_3080.name} -> {A100.name}\n")
    print(diff.render(top=12))
    print(f"\nbandwidth ratio: "
          f"{A100.dram_bandwidth_gbs / RTX_3080.dram_bandwidth_gbs:.2f}x, "
          f"peak-GIPS ratio: {A100.peak_gips / RTX_3080.peak_gips:.2f}x")
    regressions = diff.regressions()
    if regressions:
        print(f"regressions: {[d.name for d in regressions]}")


if __name__ == "__main__":
    main()
