"""Lossless JSON serialization of characterization results.

The result cache stores whole :class:`~repro.core.characterize.Characterization`
objects on disk; the differential test harness requires that a cached
result compares **equal** to a freshly computed one.  Python floats
round-trip through JSON exactly (the encoder emits ``repr``-quality
decimal forms), so the only care needed here is structural: tuples must
come back as tuples and nested dataclasses must be rebuilt as the right
types.

Every helper pair here is an exact inverse: ``X_from_dict(X_to_dict(x))
== x`` bit-for-bit.  Device specs, presets and whole run reports are
only ever written; the tests read run reports back with their own
oracle.  The golden fixture generator reuses the same encoders so
fixtures and cache payloads share one format.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, List

from repro.analysis.distribution import Table1Row
from repro.analysis.roofline import RooflinePoint
from repro.core.characterize import Characterization
from repro.core.config import ScalePreset
from repro.gpu.device import DeviceSpec
from repro.gpu.metrics import KernelMetrics
from repro.profiler.records import ApplicationProfile, KernelProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.suite import RunRecord, SuiteRunReport
    from repro.core.sweep import SweepRunReport


# -- roofline points ---------------------------------------------------
def roofline_point_to_dict(point: RooflinePoint) -> Dict[str, Any]:
    return {
        "label": point.label,
        "workload": point.workload,
        "intensity": point.intensity,
        "gips": point.gips,
        "time_share": point.time_share,
        "intensity_class": point.intensity_class,
        "latency_class": point.latency_class,
    }


def roofline_point_from_dict(payload: Dict[str, Any]) -> RooflinePoint:
    return RooflinePoint(**payload)


# -- Table I rows ------------------------------------------------------
def table1_row_to_dict(row: Table1Row) -> Dict[str, Any]:
    return {
        "workload": row.workload,
        "abbr": row.abbr,
        "domain": row.domain,
        "total_warp_insts": row.total_warp_insts,
        "weighted_avg_insts_per_kernel": row.weighted_avg_insts_per_kernel,
        "kernels_100": row.kernels_100,
        "kernels_70": row.kernels_70,
    }


def table1_row_from_dict(payload: Dict[str, Any]) -> Table1Row:
    return Table1Row(**payload)


# -- profiles ----------------------------------------------------------
def kernel_profile_to_dict(profile: KernelProfile) -> Dict[str, Any]:
    return {
        "name": profile.name,
        "invocations": profile.invocations,
        "total_time_s": profile.total_time_s,
        "total_warp_insts": profile.total_warp_insts,
        "total_dram_transactions": profile.total_dram_transactions,
        "metrics": profile.metrics.to_json_dict(),
        "tags": list(profile.tags),
    }


def kernel_profile_from_dict(payload: Dict[str, Any]) -> KernelProfile:
    return KernelProfile(
        name=payload["name"],
        invocations=payload["invocations"],
        total_time_s=payload["total_time_s"],
        total_warp_insts=payload["total_warp_insts"],
        total_dram_transactions=payload["total_dram_transactions"],
        metrics=KernelMetrics.from_json_dict(payload["metrics"]),
        tags=tuple(payload["tags"]),
    )


def application_profile_to_dict(profile: ApplicationProfile) -> Dict[str, Any]:
    return {
        "workload": profile.workload,
        "suite": profile.suite,
        "domain": profile.domain,
        "kernels": [kernel_profile_to_dict(k) for k in profile.kernels],
    }


def application_profile_from_dict(payload: Dict[str, Any]) -> ApplicationProfile:
    # ApplicationProfile re-sorts by total time on construction; the
    # serialized order is already time-sorted and list.sort is stable,
    # so the round trip preserves kernel order exactly.
    return ApplicationProfile(
        workload=payload["workload"],
        suite=payload["suite"],
        domain=payload["domain"],
        kernels=[kernel_profile_from_dict(k) for k in payload["kernels"]],
    )


# -- full characterization --------------------------------------------
def characterization_to_dict(result: Characterization) -> Dict[str, Any]:
    return {
        "abbr": result.abbr,
        "profile": application_profile_to_dict(result.profile),
        "table1": table1_row_to_dict(result.table1),
        "cumulative_curve": [list(pair) for pair in result.cumulative_curve],
        "aggregate_point": roofline_point_to_dict(result.aggregate_point),
        "kernel_points": [
            roofline_point_to_dict(p) for p in result.kernel_points
        ],
        "dominant_points": [
            roofline_point_to_dict(p) for p in result.dominant_points
        ],
    }


def device_spec_to_dict(device: DeviceSpec) -> Dict[str, Any]:
    return dataclasses.asdict(device)


def scale_preset_to_dict(preset: ScalePreset) -> Dict[str, Any]:
    return dataclasses.asdict(preset)


# -- whole run reports -------------------------------------------------
def _run_record_to_dict(report: "RunRecord") -> Dict[str, Any]:
    """The run record's fields, in wire order (shared by both reports)."""
    return {
        "failures": [failure.as_dict() for failure in report.failures],
        "attempts": dict(report.attempts),
        "fallback_reason": report.fallback_reason,
        "resumed": list(report.resumed),
        "run_profile": (
            report.run_profile.as_dict()
            if report.run_profile is not None
            else None
        ),
        "trace_dir": report.trace_dir,
    }


def suite_run_report_to_dict(report: "SuiteRunReport") -> Dict[str, Any]:
    """Serialize a whole run report — survivors *and* failure record.

    The failure/resilience fields (``failures``, ``attempts``,
    ``fallback_reason``, ``resumed``, ``run_profile``) are first-class:
    a report that degraded or lost workloads round-trips with its full
    post-mortem, not just the surviving characterizations.
    """
    return {
        "device": device_spec_to_dict(report.device),
        "preset": scale_preset_to_dict(report.preset),
        "results": {
            abbr: characterization_to_dict(result)
            for abbr, result in report.results.items()
        },
        **_run_record_to_dict(report),
    }


def sweep_run_report_to_dict(report: "SweepRunReport") -> Dict[str, Any]:
    """Serialize a device-sweep run report, post-mortem included.

    Same contract as :func:`suite_run_report_to_dict`, with ``results``
    holding one characterization dict per ``(workload, device)`` pair
    and the swept device list serialized in sweep order.
    """
    return {
        "devices": [device_spec_to_dict(d) for d in report.devices],
        "preset": scale_preset_to_dict(report.preset),
        "results": {
            abbr: {
                name: characterization_to_dict(entry)
                for name, entry in per_device.items()
            }
            for abbr, per_device in report.results.items()
        },
        **_run_record_to_dict(report),
    }


def characterization_from_dict(payload: Dict[str, Any]) -> Characterization:
    curve: List = [
        (int(count), float(fraction))
        for count, fraction in payload["cumulative_curve"]
    ]
    return Characterization(
        abbr=payload["abbr"],
        profile=application_profile_from_dict(payload["profile"]),
        table1=table1_row_from_dict(payload["table1"]),
        cumulative_curve=curve,
        aggregate_point=roofline_point_from_dict(payload["aggregate_point"]),
        kernel_points=[
            roofline_point_from_dict(p) for p in payload["kernel_points"]
        ],
        dominant_points=[
            roofline_point_from_dict(p) for p in payload["dominant_points"]
        ],
    )
