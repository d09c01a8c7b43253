"""Analytical cache-hierarchy model.

Turns a kernel's :class:`~repro.gpu.kernel.MemoryFootprint` into L1/L2
hit rates and a DRAM transaction count.  The model is deliberately
simple and deterministic — a capacity/reuse model in the spirit of
analytical reuse-distance approximations:

* the *compulsory* traffic (each unique byte fetched once) can never hit;
* the repeat traffic (``reuse_factor - 1`` touches per byte) hits in a
  cache level with probability equal to the resident fraction of the
  working set at that level;
* L1 only captures the short-range share of the reuse
  (``l1_locality``), since inter-block reuse on a GPU bypasses the
  per-SM L1s.

The output is exactly what the instruction roofline needs: the number of
32-byte DRAM transactions, plus the hit rates the correlation and
clustering analyses consume.

Part of the frozen scalar oracle: the product evaluates this model as
``(device, kernel)`` matrix expressions in :mod:`repro.gpu.batched` with
identical associativity, and the differential tests in
``tests/gpu/test_batched_devices.py`` pin bit-for-bit equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import DeviceSpec
from repro.gpu.kernel import KernelCharacteristics


@dataclass(frozen=True)
class MemorySystemResult:
    """Outcome of running one kernel through the cache model."""

    l1_hit_rate: float
    l2_hit_rate: float
    dram_transactions: float
    dram_read_bytes: float
    dram_write_bytes: float
    total_access_transactions: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.l1_hit_rate <= 1.0:
            raise ValueError(f"l1_hit_rate out of range: {self.l1_hit_rate}")
        if not 0.0 <= self.l2_hit_rate <= 1.0:
            raise ValueError(f"l2_hit_rate out of range: {self.l2_hit_rate}")
        if self.dram_transactions < 0:
            raise ValueError("dram_transactions must be non-negative")

    @property
    def dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes


def _resident_fraction(capacity_bytes: float, working_set_bytes: float) -> float:
    """Fraction of a working set resident in a cache of given capacity.

    1.0 when the working set fits; otherwise the resident fraction
    ``capacity / working_set`` (a fully-associative steady-state
    approximation).
    """
    if working_set_bytes <= 0:
        return 1.0
    return min(1.0, capacity_bytes / working_set_bytes)


class CacheModel:
    """Capacity/reuse cache model for a :class:`DeviceSpec`."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    def run(self, kernel: KernelCharacteristics) -> MemorySystemResult:
        """Model one kernel launch; returns hit rates and DRAM traffic."""
        device = self.device
        footprint = kernel.memory
        txn = device.dram_transaction_bytes

        unique_bytes = footprint.unique_bytes
        total_bytes = footprint.total_access_bytes
        if total_bytes <= 0:
            # Pure-compute kernel: no memory traffic at all.
            return MemorySystemResult(
                l1_hit_rate=0.0,
                l2_hit_rate=0.0,
                dram_transactions=0.0,
                dram_read_bytes=0.0,
                dram_write_bytes=0.0,
                total_access_transactions=0.0,
            )

        repeat_bytes = total_bytes - unique_bytes
        working_set = footprint.effective_working_set

        # --- L1: captures the short-range share of the reuse.  Tiled
        # kernels (GEMM, convolution) choose their tiles to fit the
        # shared memory/L1 budget, so ``l1_locality`` directly expresses
        # the fraction of repeat traffic served on-SM; capacity is the
        # kernel author's responsibility, not the model's.
        l1_hit_bytes = repeat_bytes * footprint.l1_locality

        # --- L2: sees compulsory traffic plus the long-range repeat
        # traffic that missed (or bypassed) L1; capacity matters here,
        # judged against the kernel's true working set.
        l2_in_bytes = total_bytes - l1_hit_bytes
        l2_repeat_bytes = max(0.0, l2_in_bytes - unique_bytes)
        l2_fraction = _resident_fraction(device.l2_bytes, working_set)
        l2_hit_bytes = l2_repeat_bytes * l2_fraction

        # Producer-consumer locality *between* kernels: when a workload's
        # activations fit in L2, a kernel's "compulsory" input was just
        # written by its predecessor and is still resident.
        carry_bytes = unique_bytes * footprint.l2_carry_in
        l2_hit_bytes += carry_bytes

        dram_bytes = l2_in_bytes - l2_hit_bytes
        # DRAM traffic can never drop below the cold-miss footprint.
        dram_bytes = max(dram_bytes, unique_bytes - carry_bytes)
        dram_bytes = max(dram_bytes, unique_bytes * 0.02)

        l1_hit_rate = l1_hit_bytes / total_bytes
        l2_hit_rate = l2_hit_bytes / l2_in_bytes if l2_in_bytes > 0 else 0.0

        read_share = (
            footprint.bytes_read / unique_bytes if unique_bytes > 0 else 1.0
        )
        # Poor coalescence means each 32-byte transaction carries only a
        # fraction of useful data: the same miss traffic costs more
        # transactions (and more raw DRAM bytes).
        txn_inflation = 1.0 / footprint.coalescence
        return MemorySystemResult(
            l1_hit_rate=l1_hit_rate,
            l2_hit_rate=l2_hit_rate,
            dram_transactions=dram_bytes / txn * txn_inflation,
            dram_read_bytes=dram_bytes * read_share * txn_inflation,
            dram_write_bytes=dram_bytes * (1.0 - read_share) * txn_inflation,
            total_access_transactions=total_bytes / txn,
        )
