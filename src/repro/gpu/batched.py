"""Batched device-axis simulation: one stream, many devices.

This module is the one implementation of the analytical timing model
(occupancy, cache hierarchy, instruction-roofline timing and the
Table IV metrics).  :func:`batch_kernel_metrics` evaluates it for all
``(device, kernel)`` pairs in a single broadcast pass: kernel-side
quantities become a ``(K,)`` row vector, device-side parameters a
``(D, 1)`` column vector, and every model expression is evaluated on
the resulting ``(D, K)`` matrix.  :func:`simulate_devices` walks a
launch stream **once** to collect its distinct kernels and runs that
pass for all its devices, so a device sweep does not pay the stream
walk per device.  It is the one driver of the model for any device
count: a suite run is its one-device case, and
:class:`~repro.gpu.simulator.GPUSimulator` is a one-device view of it.

Every element must equal the per-kernel scalar form of the model, kept
as a frozen oracle in ``tests/gpu/scalar_oracle/``, bit for bit.  That
is achievable because the analytical model uses only IEEE-exact
operations — ``+ - * /``, ``min``/``max``, ``ceil`` and integer
division; no transcendentals.  Three rules keep the batched pass exact:

* every expression is written with the *same associativity* as its
  scalar counterpart in the oracle, so each element sees the identical
  sequence of correctly-rounded operations;
* kernel-only quantities are computed per kernel with plain Python
  floats (literally the scalar formulas) before being packed into
  arrays, and device-only products (``peak_gips * 1e9`` …) are
  precomputed per device the same way;
* branches become ``np.where`` with both sides evaluated — the selected
  side is the exact expression the scalar code would have run —
  guarded by ``np.errstate`` plus masking where the untaken side
  divides by zero.

``tests/gpu/test_batched_devices.py`` pins the contract differentially
against the oracle on every zoo device and every pinned Cactus
workload at two presets, under every option ablation, plus
hypothesis-perturbed devices.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import KernelCharacteristics, KernelLaunch
from repro.gpu.metrics import KernelMetrics
from repro.gpu.simulator import SimulationOptions, TimingOptions
from repro.obs import CURRENT_TRACER

__all__ = ["simulate_devices", "batch_kernel_metrics"]

#: Cost of a block-wide barrier, in scheduler cycles per sync instruction.
BARRIER_LATENCY_CYCLES = 120.0

#: Peak per-SM warp-instruction throughput of the FP32 pipeline and the
#: load/store units, in warp instructions per cycle.  On Ampere each SM
#: has 128 FP32 lanes (4 warps/cycle) and 4 LSU groups (we model an
#: effective 2 warp ld/st per cycle).
FP32_WARPS_PER_CYCLE = 4.0
LSU_WARPS_PER_CYCLE = 2.0


def _collect_distinct(
    launches: Iterable[KernelLaunch],
) -> Tuple[List[KernelCharacteristics], List[int]]:
    """One stream walk: distinct kernels (first-seen order) + indices.

    Grouping is by kernel *equality*, so repeated launches of an equal
    kernel map to one shared metrics record downstream (the aggregation
    layer groups by object identity).
    """
    index_of: Dict[KernelCharacteristics, int] = {}
    kernels: List[KernelCharacteristics] = []
    indices: List[int] = []
    for launch in launches:
        kernel = launch.kernel
        idx = index_of.get(kernel)
        if idx is None:
            idx = len(kernels)
            index_of[kernel] = idx
            kernels.append(kernel)
        indices.append(idx)
    return kernels, indices


def batch_kernel_metrics(
    kernels: Sequence[KernelCharacteristics],
    devices: Sequence[DeviceSpec],
    timing: Optional[TimingOptions] = None,
    model_caches: bool = True,
) -> List[List[KernelMetrics]]:
    """Metric records for every (device, kernel) pair, batched.

    Returns ``result[d][k]``: the metrics of ``kernels[k]`` on
    ``devices[d]``, bit-for-bit equal to the scalar oracle run for
    that device and kernel.
    """
    opts = timing or TimingOptions()
    n_dev = len(devices)
    n_ker = len(kernels)
    if n_ker == 0:
        return [[] for _ in range(n_dev)]

    # -- kernel-side rows (K,): plain-Python scalar math, packed --------
    # One pass over the kernel list: each kernel's attributes and
    # footprint properties are read exactly once and every derived
    # scalar is computed with the verbatim scalar-model expression
    # (reusing a subexpression's float value is bit-exact — it is the
    # same correctly-rounded double either way).  Streams with
    # thousands of structurally distinct kernels (GRU's per-level BFS
    # frontiers) spend their time here, so the packing is as much a hot
    # path as the broadcast math below.
    wpb_l: List[int] = []
    grid_l: List[int] = []
    warp_insts_l: List[float] = []
    ilp_l: List[float] = []
    ld_st_l: List[float] = []
    fp32_l: List[float] = []
    alu_coeff_l: List[float] = []
    sync_barrier_l: List[float] = []
    mlp_l: List[float] = []
    unique_l: List[float] = []
    total_l: List[float] = []
    working_set_l: List[float] = []
    l1_hit_l: List[float] = []
    carry_l: List[float] = []
    l1_rate_l: List[float] = []
    read_share_l: List[float] = []
    txn_inflation_l: List[float] = []
    cold_floor_l: List[float] = []
    compulsory_l: List[float] = []
    nocache_l: List[float] = []
    for k in kernels:
        mix = k.mix
        memory = k.memory
        unique = memory.unique_bytes
        total = memory.total_access_bytes
        carry = unique * memory.l2_carry_in
        l1_hit = (total - unique) * memory.l1_locality
        wpb_l.append(k.warps_per_block)
        grid_l.append(k.grid_blocks)
        warp_insts_l.append(k.warp_insts)
        ilp_l.append(k.ilp)
        ld_st_l.append(mix.ld_st)
        fp32_l.append(mix.fp32)
        # Exact scalar associativity: (1.0 - ld_st) - sync.
        alu_coeff_l.append(1.0 - mix.ld_st - mix.sync)
        sync_barrier_l.append(mix.sync * BARRIER_LATENCY_CYCLES)
        mlp_l.append(k.mlp)
        unique_l.append(unique)
        total_l.append(total)
        working_set_l.append(memory.effective_working_set)
        l1_hit_l.append(l1_hit)
        carry_l.append(carry)
        l1_rate_l.append(l1_hit / total if total > 0 else 0.0)
        read_share_l.append(
            memory.bytes_read / unique if unique > 0 else 1.0
        )
        txn_inflation_l.append(1.0 / memory.coalescence)
        cold_floor_l.append(unique - carry)
        compulsory_l.append(unique * 0.02)
        # No-cache ablation traffic (device-independent).
        nocache_l.append(total / memory.coalescence)

    wpb = np.array(wpb_l, dtype=np.int64)
    grid = np.array(grid_l, dtype=np.int64)
    warp_insts = np.array(warp_insts_l, dtype=np.float64)
    ilp = np.array(ilp_l, dtype=np.float64)
    ld_st = np.array(ld_st_l, dtype=np.float64)
    fp32 = np.array(fp32_l, dtype=np.float64)
    alu_coeff = np.array(alu_coeff_l, dtype=np.float64)
    sync_barrier = np.array(sync_barrier_l, dtype=np.float64)
    mlp = np.array(mlp_l, dtype=np.float64)
    unique_b = np.array(unique_l, dtype=np.float64)
    total_b = np.array(total_l, dtype=np.float64)
    zero_traffic = total_b <= 0
    working_set = np.array(working_set_l, dtype=np.float64)
    l1_hit_b = np.array(l1_hit_l, dtype=np.float64)
    l2_in_b = total_b - l1_hit_b
    l2_repeat_b = np.maximum(0.0, l2_in_b - unique_b)
    carry_b = np.array(carry_l, dtype=np.float64)
    l1_hit_rate_k = np.array(l1_rate_l, dtype=np.float64)
    read_share = np.array(read_share_l, dtype=np.float64)
    txn_inflation = np.array(txn_inflation_l, dtype=np.float64)
    cold_floor = np.array(cold_floor_l, dtype=np.float64)
    compulsory_floor = np.array(compulsory_l, dtype=np.float64)
    nocache_total = np.array(nocache_l, dtype=np.float64)

    # -- device-side columns (D, 1): Python-float precomputation -------
    def col(values: List[float]) -> np.ndarray:
        return np.array(values, dtype=np.float64).reshape(n_dev, 1)

    def icol(values: List[int]) -> np.ndarray:
        return np.array(values, dtype=np.int64).reshape(n_dev, 1)

    max_blocks = icol([d.max_blocks_per_sm for d in devices])
    max_warps = icol([d.max_warps_per_sm for d in devices])
    num_sms = icol([d.num_sms for d in devices])
    num_sms_f = col([float(d.num_sms) for d in devices])
    l2_cap = col([float(d.l2_bytes) for d in devices])
    txn_bytes = col([float(d.dram_transaction_bytes) for d in devices])
    l1_lat = col([d.l1_latency_cycles for d in devices])
    l2_lat = col([d.l2_latency_cycles for d in devices])
    dram_lat = col([d.dram_latency_cycles for d in devices])
    alu_lat = col([d.alu_latency_cycles for d in devices])
    schedulers = col([float(d.warp_schedulers_per_sm) for d in devices])
    peak_gips_hz = col([d.peak_gips * 1e9 for d in devices])
    peak_txn_rate = col(
        [d.peak_gtxn_per_s * 1e9 * opts.dram_efficiency for d in devices]
    )
    clock_hz = col([d.clock_hz for d in devices])
    peak_sm_ipc = col(
        [d.warp_schedulers_per_sm * d.warp_insts_per_cycle for d in devices]
    )
    if opts.model_launch_overhead:
        overhead = col([d.kernel_launch_overhead_s for d in devices])
    else:
        overhead = col([0.0 for _ in devices])

    # over="ignore": a Python float division overflows to inf silently,
    # as the scalar model's does (a near-zero working set gives
    # l2_cap / working_set = inf, then min(1.0, inf) = 1.0).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # -- occupancy (oracle: scalar_oracle/occupancy.py) ------------
        blocks_per_sm = np.minimum(max_blocks, np.maximum(1, max_warps // wpb))
        warps_full = np.minimum(max_warps, blocks_per_sm * wpb)
        blocks_per_wave = blocks_per_sm * num_sms
        waves = np.maximum(1.0, np.ceil(grid / blocks_per_wave))
        full_waves = grid // blocks_per_wave
        tail_blocks = grid - full_waves * blocks_per_wave
        tail_zero = tail_blocks == 0

        tail_fill = tail_blocks / blocks_per_wave
        tail_sm_fraction = np.minimum(1.0, tail_blocks / num_sms)
        weight_full = full_waves / waves
        weight_tail = 1.0 / waves
        warps_full_f = warps_full.astype(np.float64)
        avg_active_warps = np.where(
            tail_zero,
            warps_full_f,
            warps_full * (weight_full + weight_tail * tail_fill),
        )
        sm_eff = np.where(
            tail_zero, 1.0, weight_full + weight_tail * tail_sm_fraction
        )
        active_warps_per_sm = warps_full_f

        # -- memory system (oracle: scalar_oracle/memory.py) -----------
        if model_caches:
            l2_fraction = np.where(
                working_set > 0,
                np.minimum(1.0, l2_cap / working_set),
                1.0,
            )
            l2_hit_b = l2_repeat_b * l2_fraction
            l2_hit_b = l2_hit_b + carry_b
            dram_b = l2_in_b - l2_hit_b
            dram_b = np.maximum(dram_b, cold_floor)
            dram_b = np.maximum(dram_b, compulsory_floor)
            l2_hit_rate = np.where(l2_in_b > 0, l2_hit_b / l2_in_b, 0.0)
            l2_hit_rate = np.where(zero_traffic, 0.0, l2_hit_rate)
            dram_txns = dram_b / txn_bytes * txn_inflation
            dram_txns = np.where(zero_traffic, 0.0, dram_txns)
            dram_read_b = dram_b * read_share * txn_inflation
            dram_read_b = np.where(zero_traffic, 0.0, dram_read_b)
            l1_hr = np.where(zero_traffic, 0.0, l1_hit_rate_k)
            l1_hr = np.broadcast_to(l1_hr, (n_dev, n_ker))
        else:
            l2_hit_rate = np.zeros((n_dev, n_ker), dtype=np.float64)
            l1_hr = np.zeros((n_dev, n_ker), dtype=np.float64)
            dram_txns = nocache_total / txn_bytes
            dram_read_b = np.broadcast_to(
                nocache_total * read_share, (n_dev, n_ker)
            )

        # -- timing (oracle: scalar_oracle/timing.py, time) ------------
        raw_lat = l1_hr * l1_lat + (1.0 - l1_hr) * (
            l2_hit_rate * l2_lat + (1.0 - l2_hit_rate) * dram_lat
        )
        mem_lat = raw_lat / mlp
        avg_lat = ld_st * mem_lat + sync_barrier + alu_coeff * alu_lat

        if opts.model_latency:
            warps_per_scheduler = active_warps_per_sm / schedulers
            issue_eff = np.minimum(
                1.0, warps_per_scheduler * ilp / avg_lat
            )
        else:
            issue_eff = np.ones((n_dev, n_ker), dtype=np.float64)

        effective_gips = peak_gips_hz * sm_eff * issue_eff
        compute_time = warp_insts / effective_gips
        memory_time = dram_txns / peak_txn_rate
        bound_time = np.maximum(compute_time, memory_time)
        duration = overhead + bound_time
        overhead_bound = overhead > bound_time
        memory_bound = ~overhead_bound & (memory_time >= compute_time)

        # -- Table IV metrics (oracle: scalar_oracle/timing.py) --------
        active_time = np.maximum(duration - overhead, 1e-12)
        total_ipc = warp_insts / (active_time * clock_hz)
        sm_ipc = total_ipc / np.maximum(1e-9, num_sms_f * sm_eff)

        sp_util = np.minimum(1.0, fp32 * sm_ipc / FP32_WARPS_PER_CYCLE)
        ld_st_util = np.minimum(1.0, ld_st * sm_ipc / LSU_WARPS_PER_CYCLE)

        busy_frac = np.minimum(1.0, sm_ipc / peak_sm_ipc)
        stall_total = np.maximum(0.0, 1.0 - busy_frac)

        mem_share = (ld_st * raw_lat / mlp) / avg_lat
        sync_share = sync_barrier / avg_lat
        exec_share = np.maximum(0.0, 1.0 - mem_share - sync_share)

        mw_saturated = np.minimum(1.0, mem_share + 0.3)
        denom = np.maximum(1e-9, exec_share + sync_share)
        mem_weight = np.where(memory_bound, mw_saturated, mem_share)
        exec_weight = np.where(
            memory_bound, exec_share * (1.0 - mw_saturated) / denom, exec_share
        )
        sync_weight = np.where(
            memory_bound, sync_share * (1.0 - mw_saturated) / denom, sync_share
        )

        pipe_pressure = np.maximum(sp_util, ld_st_util)
        memory_stall = stall_total * mem_weight
        sync_stall = stall_total * sync_weight
        execution_stall = stall_total * exec_weight * (1.0 - pipe_pressure)
        pipe_stall = stall_total * exec_weight * pipe_pressure

        dram_read_tp = dram_read_b / duration / 1e9

    # -- assemble one shared KernelMetrics per (device, kernel) --------
    results: List[List[KernelMetrics]] = []
    for d in range(n_dev):
        duration_row = duration[d].tolist()
        dram_txns_row = dram_txns[d].tolist()
        occ_row = avg_active_warps[d].tolist()
        sm_eff_row = sm_eff[d].tolist()
        l1_row = l1_hr[d].tolist()
        l2_row = l2_hit_rate[d].tolist()
        read_tp_row = dram_read_tp[d].tolist()
        ld_st_util_row = ld_st_util[d].tolist()
        sp_util_row = sp_util[d].tolist()
        exec_stall_row = execution_stall[d].tolist()
        pipe_stall_row = pipe_stall[d].tolist()
        sync_stall_row = sync_stall[d].tolist()
        mem_stall_row = memory_stall[d].tolist()
        row: List[KernelMetrics] = []
        for k, kernel in enumerate(kernels):
            row.append(
                KernelMetrics(
                    name=kernel.name,
                    duration_s=duration_row[k],
                    warp_insts=kernel.warp_insts,
                    dram_transactions=dram_txns_row[k],
                    invocations=1,
                    warp_occupancy=occ_row[k],
                    sm_efficiency=sm_eff_row[k],
                    l1_hit_rate=l1_row[k],
                    l2_hit_rate=l2_row[k],
                    dram_read_throughput_gbs=read_tp_row[k],
                    ld_st_utilization=ld_st_util_row[k],
                    sp_utilization=sp_util_row[k],
                    fraction_branches=kernel.mix.branch,
                    fraction_ld_st=kernel.mix.ld_st,
                    execution_stall=exec_stall_row[k],
                    pipe_stall=pipe_stall_row[k],
                    sync_stall=sync_stall_row[k],
                    memory_stall=mem_stall_row[k],
                    tags=kernel.tags,
                )
            )
        results.append(row)
    return results


def simulate_devices(
    launches: Iterable[KernelLaunch],
    devices: Sequence[DeviceSpec],
    options: Optional[SimulationOptions] = None,
) -> List[List[KernelMetrics]]:
    """Simulate one launch stream on N devices in a single pass.

    Returns ``result[d]``: one :class:`KernelMetrics` per launch, in
    launch order, for ``devices[d]`` — with repeated launches of an
    equal kernel sharing a single metrics object per device (the
    aggregation layer relies on that identity structure).  Every
    device's records equal the scalar oracle's bit for bit, as pinned
    by the differential tests; one stream walk and one
    :func:`batch_kernel_metrics` pass serve any number of devices.
    """
    if not devices:
        raise ValueError("simulate_devices needs at least one device")
    names = [d.name for d in devices]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate device names in sweep: {names}")
    opts = options or SimulationOptions()
    kernels, indices = _collect_distinct(launches)
    per_device = batch_kernel_metrics(
        kernels, devices, timing=opts.timing, model_caches=opts.model_caches
    )
    results = [
        [records[idx] for idx in indices] for records in per_device
    ]
    # Counted once per device, so a sweep reads like N one-device runs
    # in the run metrics.
    tracer = CURRENT_TRACER.get()
    tracer.incr("sim.launches", float(len(indices) * len(devices)))
    tracer.incr("sim.distinct_kernels", float(len(kernels) * len(devices)))
    return results
