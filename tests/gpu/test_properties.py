"""Property-based tests on the GPU model (hypothesis).

These check the invariants that every roofline figure in the paper
relies on, across the whole space of plausible kernels, on the product
simulator.  The DRAM-traffic floor is an intermediate quantity of the
cache model, so it is checked on the scalar oracle.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    GPUSimulator,
    InstructionMix,
    KernelCharacteristics,
    MemoryFootprint,
    RTX_3080,
)
from tests.gpu.scalar_oracle import CacheModel


@st.composite
def kernels(draw):
    fp32 = draw(st.floats(0.0, 0.7))
    ld_st = draw(st.floats(0.0, min(0.6, 0.95 - fp32)))
    branch = draw(st.floats(0.0, min(0.2, 0.99 - fp32 - ld_st)))
    sync = draw(st.floats(0.0, min(0.1, 1.0 - fp32 - ld_st - branch)))
    mix = InstructionMix(fp32=fp32, ld_st=ld_st, branch=branch, sync=sync)
    memory = MemoryFootprint(
        bytes_read=draw(st.floats(0.0, 1e9)),
        bytes_written=draw(st.floats(0.0, 1e8)),
        reuse_factor=draw(st.floats(1.0, 64.0)),
        l1_locality=draw(st.floats(0.0, 1.0)),
        coalescence=draw(st.floats(0.05, 1.0)),
    )
    return KernelCharacteristics(
        name="prop",
        grid_blocks=draw(st.integers(1, 200_000)),
        threads_per_block=draw(st.sampled_from([32, 64, 128, 256, 512, 1024])),
        warp_insts=draw(st.floats(1e3, 1e11)),
        mix=mix,
        memory=memory,
        ilp=draw(st.floats(1.0, 8.0)),
        mlp=draw(st.floats(1.0, 16.0)),
    )


MODEL = GPUSimulator(RTX_3080)


@given(kernels())
@settings(max_examples=200, deadline=None)
def test_achieved_gips_respects_both_roofs(kernel):
    metrics = MODEL.run_kernel(kernel)
    assert metrics.gips <= RTX_3080.peak_gips * (1 + 1e-9)
    memory_roof = metrics.instruction_intensity * RTX_3080.peak_gtxn_per_s
    assert metrics.gips <= memory_roof * (1 + 1e-6)


@given(kernels())
@settings(max_examples=200, deadline=None)
def test_metrics_are_finite_and_in_range(kernel):
    m = MODEL.run_kernel(kernel)
    assert math.isfinite(m.duration_s) and m.duration_s > 0
    assert math.isfinite(m.gips) and m.gips > 0
    assert 0.0 <= m.l1_hit_rate <= 1.0
    assert 0.0 <= m.l2_hit_rate <= 1.0
    assert 0.0 <= m.sm_efficiency <= 1.0
    assert 0.0 <= m.warp_occupancy <= RTX_3080.max_warps_per_sm + 1e-9
    assert 0.0 <= m.sp_utilization <= 1.0
    assert 0.0 <= m.ld_st_utilization <= 1.0
    stalls = m.execution_stall + m.pipe_stall + m.sync_stall + m.memory_stall
    assert 0.0 <= stalls <= 1.0 + 1e-9


@given(kernels(), st.floats(1.5, 10.0))
@settings(max_examples=100, deadline=None)
def test_more_work_on_a_full_machine_is_never_faster(kernel, factor):
    """Once the grid already fills the machine, scaling the work up can
    only slow the kernel down (cache cliffs make it superlinear, fill
    effects cannot make it sublinear)."""
    base = MODEL.run_kernel(kernel)
    if base.sm_efficiency < 1.0:
        return  # partially filled machines may speed up with more work
    bigger = MODEL.run_kernel(kernel.scaled(factor))
    assert bigger.duration_s >= base.duration_s * 0.999


@given(kernels())
@settings(max_examples=100, deadline=None)
def test_dram_traffic_never_below_compulsory(kernel):
    result = CacheModel(RTX_3080).run(kernel)
    compulsory_txn = (
        kernel.memory.unique_bytes / RTX_3080.dram_transaction_bytes
    )
    assert result.dram_transactions >= compulsory_txn * 0.999
