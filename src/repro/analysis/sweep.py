"""Cross-device sweep analysis: what changes when the platform does.

The single-device analyses (roofline, Table I, dominant kernels) each
describe one platform.  A device sweep produces the same artifacts for
every :class:`~repro.gpu.device.DeviceSpec` in a zoo, and the questions
worth asking are *differential*:

* **Where does the roofline elbow sit per device?**  The elbow
  (``peak_gips / peak_gtxn_per_s``) is the compute/memory boundary; a
  bandwidth-rich part (H100 at ~10 insts/txn) pushes it far left of a
  bandwidth-starved one (RTX 4090 at ~41), so the same workload can sit
  on opposite sides on different hardware.
* **Which workloads flip classification?**  A workload that is
  compute-intensive on one device and memory-intensive on another is
  exactly the kind of platform-sensitive application the paper's
  subsetting methodology must keep.
* **Does the dominant-kernel set shift?**  Per-kernel durations change
  with the device balance, so the kernels covering the top-N% of GPU
  time can differ — a warning that single-device kernel subsetting does
  not transfer.

Everything here consumes a
:class:`~repro.core.sweep.SweepRunReport` (or its plain
``{abbr: {device: Characterization}}`` results) and is pure analysis —
no simulation, no I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.gpu.device import DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.characterize import Characterization

__all__ = [
    "DeviceElbowRow",
    "SweepAnalysis",
    "WorkloadClassRow",
    "analyze_sweep",
    "dominant_kernel_shifts",
    "elbow_table",
    "render_sweep_markdown",
]


@dataclass(frozen=True)
class DeviceElbowRow:
    """One device's roofline geometry."""

    name: str
    peak_gips: float
    peak_gtxn_per_s: float
    elbow: float  # warp insts per 32B transaction at the roof corner


@dataclass(frozen=True)
class WorkloadClassRow:
    """One workload's aggregate intensity class on every device."""

    abbr: str
    #: ``device name -> "compute" | "memory"`` (sweep device order).
    classes: Tuple[Tuple[str, str], ...]

    @property
    def flips(self) -> bool:
        return len({cls for _, cls in self.classes}) > 1

    def class_on(self, device_name: str) -> str:
        for name, cls in self.classes:
            if name == device_name:
                return cls
        raise KeyError(device_name)


@dataclass
class SweepAnalysis:
    """The differential summary of one device sweep."""

    devices: List[DeviceSpec]
    baseline: str  # device name the shift columns compare against
    elbows: List[DeviceElbowRow]
    classes: List[WorkloadClassRow]
    #: ``abbr -> device name -> (added, removed)`` dominant-kernel names
    #: relative to the baseline device (devices with no shift omitted).
    dominant_shifts: Dict[str, Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]]] = field(
        default_factory=dict
    )

    @property
    def flipped_workloads(self) -> List[str]:
        return [row.abbr for row in self.classes if row.flips]


def elbow_table(devices: Sequence[DeviceSpec]) -> List[DeviceElbowRow]:
    """Roofline-elbow positions, sorted from memory-rich to -starved.

    A low elbow means the device's bandwidth roof reaches peak compute
    at low intensity — more of the intensity axis is compute-side.
    """
    rows = [
        DeviceElbowRow(
            name=d.name,
            peak_gips=d.peak_gips,
            peak_gtxn_per_s=d.peak_gtxn_per_s,
            elbow=d.roofline_elbow,
        )
        for d in devices
    ]
    return sorted(rows, key=lambda r: r.elbow)


def _dominant_names(char: "Characterization") -> Tuple[str, ...]:
    return tuple(sorted(p.label for p in char.dominant_points))


def dominant_kernel_shifts(
    per_device: Dict[str, "Characterization"], baseline: str
) -> Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """Per-device (added, removed) dominant kernels vs *baseline*.

    Devices whose dominant set matches the baseline's are omitted, so an
    empty dict means the selection is platform-stable for this workload.
    """
    base = set(_dominant_names(per_device[baseline]))
    shifts: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}
    for name, char in per_device.items():
        if name == baseline:
            continue
        here = set(_dominant_names(char))
        if here != base:
            shifts[name] = (
                tuple(sorted(here - base)),
                tuple(sorted(base - here)),
            )
    return shifts


def analyze_sweep(
    results: Dict[str, Dict[str, "Characterization"]],
    devices: Sequence[DeviceSpec],
    baseline: Optional[str] = None,
) -> SweepAnalysis:
    """Differential analysis of sweep *results* across *devices*.

    *results* is the ``SweepRunReport.results`` mapping; *baseline*
    names the comparison device for dominant-kernel shifts (default:
    ``"RTX 3080"`` — the paper's platform — when swept, else the first
    device).
    """
    names = [d.name for d in devices]
    if baseline is None:
        baseline = "RTX 3080" if "RTX 3080" in names else names[0]
    if baseline not in names:
        raise KeyError(f"baseline {baseline!r} not in sweep ({names})")

    classes: List[WorkloadClassRow] = []
    shifts: Dict[str, Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]]] = {}
    for abbr, per_device in results.items():
        classes.append(
            WorkloadClassRow(
                abbr=abbr,
                classes=tuple(
                    (name, per_device[name].aggregate_point.intensity_class)
                    for name in names
                    if name in per_device
                ),
            )
        )
        if baseline in per_device:
            workload_shifts = dominant_kernel_shifts(per_device, baseline)
            if workload_shifts:
                shifts[abbr] = workload_shifts
    return SweepAnalysis(
        devices=list(devices),
        baseline=baseline,
        elbows=elbow_table(devices),
        classes=classes,
        dominant_shifts=shifts,
    )


def render_sweep_markdown(analysis: SweepAnalysis) -> str:
    """The sweep report section: elbows, class matrix, flips, shifts."""
    lines: List[str] = ["## Device sweep", ""]

    lines.append("### Roofline elbows")
    lines.append("")
    lines.append(
        "| Device | Peak GIPS | Peak GTxn/s | Elbow (insts/txn) |"
    )
    lines.append("|---|---:|---:|---:|")
    for row in analysis.elbows:
        lines.append(
            f"| {row.name} | {row.peak_gips:.1f} | "
            f"{row.peak_gtxn_per_s:.2f} | {row.elbow:.2f} |"
        )
    lines.append("")

    names = [d.name for d in analysis.devices]
    lines.append("### Aggregate intensity class per device")
    lines.append("")
    lines.append("| Workload | " + " | ".join(names) + " | Flips |")
    lines.append("|---|" + "---|" * len(names) + "---|")
    for row in analysis.classes:
        cells = []
        lookup = dict(row.classes)
        for name in names:
            cls = lookup.get(name, "-")
            cells.append("C" if cls == "compute" else "M" if cls == "memory" else cls)
        flag = "yes" if row.flips else ""
        lines.append(
            f"| {row.abbr} | " + " | ".join(cells) + f" | {flag} |"
        )
    lines.append("")

    flipped = analysis.flipped_workloads
    if flipped:
        lines.append(
            f"Classification flips across the sweep: "
            f"**{', '.join(flipped)}** — platform-sensitive; a "
            f"single-device compute/memory label does not transfer."
        )
    else:
        lines.append(
            "No workload flips classification across the sweep."
        )
    lines.append("")

    lines.append(
        f"### Dominant-kernel shifts vs {analysis.baseline}"
    )
    lines.append("")
    if not analysis.dominant_shifts:
        lines.append(
            "Dominant-kernel sets are identical on every device."
        )
    else:
        for abbr in sorted(analysis.dominant_shifts):
            for device_name, (added, removed) in sorted(
                analysis.dominant_shifts[abbr].items()
            ):
                parts = []
                if added:
                    parts.append("+" + ", +".join(added))
                if removed:
                    parts.append("-" + ", -".join(removed))
                lines.append(
                    f"- **{abbr}** on {device_name}: {'; '.join(parts)}"
                )
    lines.append("")
    return "\n".join(lines)
