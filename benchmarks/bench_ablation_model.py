"""Ablations of the GPU model's design choices (DESIGN.md section 6).

Disabling each model component must change the measured picture in the
direction its design rationale predicts:

* no cache model  -> DRAM traffic explodes, intensities collapse;
* no launch overhead -> the road-network BFS (thousands of tiny
  launches) speeds up dramatically, big workloads barely move;
* no latency model -> irregular kernels get unrealistically fast.
"""

import pytest

from repro.core import characterize
from repro.gpu import (
    GPUSimulator,
    InstructionMix,
    KernelCharacteristics,
    MemoryFootprint,
    RTX_3080,
    SimulationOptions,
)
from repro.gpu.simulator import TimingOptions
from repro.workloads import get_workload


def _pointer_chase_kernel() -> KernelCharacteristics:
    """A latency-bound probe: L2-resident working set (few DRAM
    transactions), one outstanding dependent load per warp."""
    return KernelCharacteristics(
        name="pointer_chase_probe",
        grid_blocks=4096,
        threads_per_block=256,
        warp_insts=2e8,
        mix=InstructionMix(fp32=0.05, ld_st=0.45, branch=0.10),
        memory=MemoryFootprint(
            bytes_read=3e6,  # fits the 5 MB L2
            reuse_factor=64.0,
            l1_locality=0.05,
            coalescence=0.5,
        ),
        ilp=1.1,
        mlp=1.05,
    )


def _profile(abbr, scale, options=None):
    return characterize(get_workload(abbr, scale=scale), options=options).profile


def _run_ablations():
    base_gms = _profile("GMS", 0.1)
    nocache_gms = _profile(
        "GMS", 0.1, SimulationOptions(model_caches=False)
    )
    base_gru = _profile("GRU", 0.005)
    nooverhead_gru = _profile(
        "GRU", 0.005,
        SimulationOptions(timing=TimingOptions(model_launch_overhead=False)),
    )
    chase = _pointer_chase_kernel()
    base_chase = GPUSimulator().run_kernel(chase)
    nolatency_chase = GPUSimulator(
        options=SimulationOptions(timing=TimingOptions(model_latency=False))
    ).run_kernel(chase)
    return {
        "gms": (base_gms, nocache_gms),
        "gru": (base_gru, nooverhead_gru),
        "chase": (base_chase, nolatency_chase),
    }


def test_ablation_model(benchmark, save_exhibit):
    results = benchmark.pedantic(_run_ablations, rounds=1, iterations=1)

    base_gms, nocache_gms = results["gms"]
    base_gru, nooverhead_gru = results["gru"]
    base_chase, nolatency_chase = results["chase"]

    lines = [
        "Model ablations:",
        f"  caches off   (GMS): II {base_gms.instruction_intensity:7.2f} "
        f"-> {nocache_gms.instruction_intensity:7.2f}",
        f"  overhead off (GRU): time {base_gru.total_time_s * 1e3:7.2f} ms "
        f"-> {nooverhead_gru.total_time_s * 1e3:7.2f} ms",
        f"  latency off  (pointer chase): GIPS {base_chase.gips:7.2f} "
        f"-> {nolatency_chase.gips:7.2f}",
    ]
    save_exhibit("ablation_model", "\n".join(lines))

    # Cache model: without it, DRAM transactions balloon and the
    # compute-side GMS collapses towards the memory side.
    assert (
        nocache_gms.instruction_intensity
        < 0.5 * base_gms.instruction_intensity
    )
    # Launch overhead: dominates the road BFS; removing it must speed
    # GRU up by a large factor.
    assert nooverhead_gru.total_time_s < 0.5 * base_gru.total_time_s
    # Latency model: a dependent-load probe over an L2-resident set is
    # latency-bound; without the model it jumps to (near) peak issue.
    assert nolatency_chase.gips > 3.0 * base_chase.gips
