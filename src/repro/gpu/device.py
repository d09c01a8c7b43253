"""Device specifications for the analytical GPU model.

The Cactus paper measures on an Nvidia RTX 3080 (Table II) and derives its
instruction roofline from the published device parameters:

* peak performance: ``68 SMs x 4 warp schedulers x 1 warp inst/cycle x
  1.9 GHz = 516.8 GIPS`` (Giga warp Instructions Per Second),
* peak memory bandwidth: ``760.3 GB/s / 32 B per transaction =
  23.75 GTXN/s`` (Giga Transactions per Second),
* roofline elbow: ``516.8 / 23.75 = 21.76`` warp instructions per DRAM
  transaction.

:class:`DeviceSpec` captures exactly those parameters plus the handful of
micro-architectural quantities the timing model needs (cache capacities,
occupancy limits, latencies).  The values for the RTX 3080 preset follow
the paper and public Ampere documentation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


@dataclass(frozen=True)
class DeviceSpec:
    """Parameters of a GPU device used by the timing model.

    All rates are expressed in the paper's units: *warp* instructions
    (one warp instruction = 32 thread instructions) and 32-byte DRAM
    transactions.
    """

    name: str
    num_sms: int
    warp_schedulers_per_sm: int
    warp_insts_per_cycle: float
    clock_ghz: float
    dram_bandwidth_gbs: float
    dram_transaction_bytes: int = 32
    l2_bytes: int = 5 * MIB
    l1_bytes_per_sm: int = 128 * KIB
    dram_bytes: int = 10 * GIB
    max_warps_per_sm: int = 48
    max_blocks_per_sm: int = 16
    max_threads_per_block: int = 1024
    warp_size: int = 32
    # Latency parameters (cycles) used for latency-bound kernels and for
    # the latency-hiding/issue-efficiency model.
    alu_latency_cycles: float = 6.0
    l1_latency_cycles: float = 30.0
    l2_latency_cycles: float = 200.0
    dram_latency_cycles: float = 470.0
    # Fixed host-side cost of launching one kernel (seconds).  This is
    # what makes the thousands of tiny launches in the road-network BFS
    # latency-bound rather than bandwidth-bound.
    kernel_launch_overhead_s: float = 3.0e-6

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ValueError(f"num_sms must be positive, got {self.num_sms}")
        if self.clock_ghz <= 0:
            raise ValueError(f"clock_ghz must be positive, got {self.clock_ghz}")
        if self.dram_bandwidth_gbs <= 0:
            raise ValueError(
                f"dram_bandwidth_gbs must be positive, got {self.dram_bandwidth_gbs}"
            )
        if self.dram_transaction_bytes <= 0:
            raise ValueError("dram_transaction_bytes must be positive")

    @property
    def peak_gips(self) -> float:
        """Peak warp-instruction throughput in Giga warp insts/second."""
        return (
            self.num_sms
            * self.warp_schedulers_per_sm
            * self.warp_insts_per_cycle
            * self.clock_ghz
        )

    @property
    def peak_gtxn_per_s(self) -> float:
        """Peak DRAM transaction throughput (Giga 32-byte txns/second)."""
        return self.dram_bandwidth_gbs / self.dram_transaction_bytes

    @property
    def roofline_elbow(self) -> float:
        """Instruction intensity at which the memory roof meets the
        compute roof (warp instructions per DRAM transaction)."""
        return self.peak_gips / self.peak_gtxn_per_s

    @property
    def clock_hz(self) -> float:
        return self.clock_ghz * 1e9

    @property
    def max_threads_per_sm(self) -> int:
        return self.max_warps_per_sm * self.warp_size

    def with_overrides(self, **kwargs: object) -> "DeviceSpec":
        """Return a copy of this spec with selected fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


#: The paper's measurement platform (Table II): RTX 3080, Ampere,
#: 68 SMs, 1.9 GHz, 10 GB GDDR6X at 760.3 GB/s, 5 MB L2.
#:
#: Provenance: Cactus Table II plus Nvidia's published GA102
#: specifications (Ampere whitepaper).  This is the device every golden
#: fixture is pinned on; never edit it in place — add a new zoo entry.
RTX_3080 = DeviceSpec(
    name="RTX 3080",
    num_sms=68,
    warp_schedulers_per_sm=4,
    warp_insts_per_cycle=1.0,
    clock_ghz=1.9,
    dram_bandwidth_gbs=760.3,
    l2_bytes=5 * MIB,
    l1_bytes_per_sm=128 * KIB,
    dram_bytes=10 * GIB,
)

#: Larger Ampere sibling; used by the device-sweep ablation.
#:
#: Provenance: Nvidia GA102 whitepaper (82 SMs, 1.86 GHz boost,
#: 936.2 GB/s GDDR6X, 6 MB L2, 24 GB).
RTX_3090 = DeviceSpec(
    name="RTX 3090",
    num_sms=82,
    warp_schedulers_per_sm=4,
    warp_insts_per_cycle=1.0,
    clock_ghz=1.86,
    dram_bandwidth_gbs=936.2,
    l2_bytes=6 * MIB,
    l1_bytes_per_sm=128 * KIB,
    dram_bytes=24 * GIB,
)

#: Data-center Ampere part (A100-SXM4-40GB).
#:
#: Provenance: Nvidia A100 (GA100) whitepaper — 108 SMs, 1.41 GHz
#: boost, 1555 GB/s HBM2e, 40 MB L2, 192 KB unified L1/shared per SM,
#: 64-warp occupancy limit.  The hierarchical-roofline methodology of
#: Yang et al. (arXiv:2008.11326) uses the same peak derivation
#: (SMs x schedulers x 1 warp inst/cycle x clock) that
#: :attr:`DeviceSpec.peak_gips` implements.
A100 = DeviceSpec(
    name="A100",
    num_sms=108,
    warp_schedulers_per_sm=4,
    warp_insts_per_cycle=1.0,
    clock_ghz=1.41,
    dram_bandwidth_gbs=1555.0,
    l2_bytes=40 * MIB,
    l1_bytes_per_sm=192 * KIB,
    dram_bytes=40 * GIB,
    max_warps_per_sm=64,
)

#: A small embedded-class device (Xavier-like) for sweep ablations.
EDGE_GPU = DeviceSpec(
    name="EdgeGPU",
    num_sms=8,
    warp_schedulers_per_sm=4,
    warp_insts_per_cycle=1.0,
    clock_ghz=1.1,
    dram_bandwidth_gbs=137.0,
    l2_bytes=512 * KIB,
    l1_bytes_per_sm=64 * KIB,
    dram_bytes=8 * GIB,
)

#: Data-center Pascal part (Tesla P100-SXM2-16GB).
#:
#: Provenance: Nvidia Tesla P100 (GP100) whitepaper — 56 SMs with two
#: warp schedulers each, 1.48 GHz boost, 732 GB/s HBM2, 4 MB L2, 24 KB
#: L1 per SM, 64-warp occupancy limit.  Instruction latencies follow
#: the per-architecture microbenchmark characterization of Arafa et al.
#: (arXiv:1905.08778), which reports ~6-cycle ALU dependent-issue
#: latency on Pascal and a deeper DRAM path than Volta/Ampere.
P100 = DeviceSpec(
    name="P100",
    num_sms=56,
    warp_schedulers_per_sm=2,
    warp_insts_per_cycle=1.0,
    clock_ghz=1.48,
    dram_bandwidth_gbs=732.0,
    l2_bytes=4 * MIB,
    l1_bytes_per_sm=24 * KIB,
    dram_bytes=16 * GIB,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    alu_latency_cycles=6.0,
    l1_latency_cycles=82.0,
    l2_latency_cycles=234.0,
    dram_latency_cycles=600.0,
)

#: Data-center Volta part (Tesla V100-SXM2-16GB).
#:
#: Provenance: Nvidia Tesla V100 (GV100) whitepaper — 80 SMs x 4
#: schedulers at 1.53 GHz boost, 900 GB/s HBM2, 6 MB L2, 128 KB
#: unified L1/shared per SM, 64-warp limit.  These are exactly the
#: peaks Yang et al. (arXiv:2008.11326) build their V100 instruction
#: roofline from (489.6 warp GIPS; 28.1 GTXN/s; elbow ~17.4
#: insts/txn).  Latencies follow the Volta microbenchmarks of Arafa et
#: al. (arXiv:1905.08778) and Jia et al.: ~4-cycle ALU, ~28-cycle L1,
#: ~193-cycle L2.
V100 = DeviceSpec(
    name="V100",
    num_sms=80,
    warp_schedulers_per_sm=4,
    warp_insts_per_cycle=1.0,
    clock_ghz=1.53,
    dram_bandwidth_gbs=900.0,
    l2_bytes=6 * MIB,
    l1_bytes_per_sm=128 * KIB,
    dram_bytes=16 * GIB,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    alu_latency_cycles=4.0,
    l1_latency_cycles=28.0,
    l2_latency_cycles=193.0,
    dram_latency_cycles=400.0,
)

#: Data-center Hopper part (H100-SXM5-80GB).
#:
#: Provenance: Nvidia H100 (GH100) whitepaper — 132 SMs x 4 schedulers
#: at 1.98 GHz boost, 3350 GB/s HBM3, 50 MB L2, 256 KB unified
#: L1/shared per SM, 64-warp limit.  The machine balance (elbow ~10
#: insts/txn) is the most bandwidth-rich in the zoo, which is what
#: pushes borderline Cactus workloads to the compute-intensive side.
H100 = DeviceSpec(
    name="H100",
    num_sms=132,
    warp_schedulers_per_sm=4,
    warp_insts_per_cycle=1.0,
    clock_ghz=1.98,
    dram_bandwidth_gbs=3350.0,
    l2_bytes=50 * MIB,
    l1_bytes_per_sm=256 * KIB,
    dram_bytes=80 * GIB,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    alu_latency_cycles=4.0,
    l1_latency_cycles=32.0,
    l2_latency_cycles=260.0,
    dram_latency_cycles=480.0,
)

#: Consumer Ada Lovelace flagship (RTX 4090).
#:
#: Provenance: Nvidia Ada (AD102) whitepaper — 128 SMs x 4 schedulers
#: at 2.52 GHz boost, 1008 GB/s GDDR6X, 72 MB L2, 128 KB L1 per SM.
#: Compute-rich balance (elbow ~41 insts/txn): the counterweight to
#: H100 in the zoo, pulling borderline workloads to the memory side.
RTX_4090 = DeviceSpec(
    name="RTX 4090",
    num_sms=128,
    warp_schedulers_per_sm=4,
    warp_insts_per_cycle=1.0,
    clock_ghz=2.52,
    dram_bandwidth_gbs=1008.0,
    l2_bytes=72 * MIB,
    l1_bytes_per_sm=128 * KIB,
    dram_bytes=24 * GIB,
)

#: The original four presets (kept stable for existing callers).
DEVICE_PRESETS: Dict[str, DeviceSpec] = {
    spec.name: spec for spec in (RTX_3080, RTX_3090, A100, EDGE_GPU)
}

#: The full 8-device zoo the sweep pipeline fans out over: the paper's
#: RTX 3080 baseline plus published data-center (P100/V100/A100/H100),
#: consumer (RTX 3090/4090) and embedded (EdgeGPU) parts, ordered by
#: roughly increasing peak compute.  Every spec carries a provenance
#: docstring naming its published source.
DEVICE_ZOO: Dict[str, DeviceSpec] = {
    spec.name: spec
    for spec in (
        EDGE_GPU,
        P100,
        V100,
        RTX_3080,
        RTX_3090,
        A100,
        RTX_4090,
        H100,
    )
}


def _canonical_device_name(name: str) -> str:
    """Lookup normalization: case/space/dash/underscore-insensitive."""
    return "".join(ch for ch in name.lower() if ch.isalnum())


_ZOO_BY_CANONICAL: Dict[str, DeviceSpec] = {
    _canonical_device_name(name): spec for name, spec in DEVICE_ZOO.items()
}


def device_by_name(name: str) -> DeviceSpec:
    """Resolve a zoo device from a human-typed name.

    Accepts the exact zoo name plus forgiving variants (``rtx3080``,
    ``RTX-3080``, ``a100``).  Raises ``KeyError`` with the list of
    known devices for anything else.
    """
    spec = _ZOO_BY_CANONICAL.get(_canonical_device_name(name))
    if spec is None:
        known = ", ".join(DEVICE_ZOO)
        raise KeyError(f"unknown device {name!r}; known devices: {known}")
    return spec
