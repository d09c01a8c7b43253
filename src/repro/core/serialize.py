"""JSON forms of characterization results and the result-cache entry.

Two formats live here:

* **The cache entry** (:func:`cache_entry_to_dict` /
  :func:`cache_entry_from_dict`) stores the one thing every Section-V
  analysis is derived from: the per-kernel profile, as one row of
  :class:`~repro.gpu.metrics.KernelMetrics` values per kernel under a
  ``fields`` header.  Decoding rebuilds the profile and runs
  :func:`~repro.core.characterize.build_characterization` on it, the
  same function a cold run calls, so a hit equals a fresh result by
  construction.  Python floats round-trip through JSON exactly (the
  encoder emits ``repr``-quality decimal forms), so the rebuilt profile
  is bit-for-bit the stored one.
* **The result form** (:func:`characterization_to_dict` and the
  run-report encoders) writes every derived result in full, for the
  service payloads, the golden fixtures and the benchmark's result
  fingerprints.  It is only ever written; the tests read run reports
  back with their own oracle.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict

from repro.analysis.distribution import Table1Row
from repro.analysis.roofline import RooflinePoint
from repro.core.characterize import Characterization, build_characterization
from repro.core.config import ScalePreset
from repro.gpu.device import DeviceSpec
from repro.gpu.metrics import KernelMetrics
from repro.profiler.records import ApplicationProfile, KernelProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.suite import RunRecord, SuiteRunReport
    from repro.core.sweep import SweepRunReport


#: The cache entry's row layout: every ``KernelMetrics`` field, in
#: declaration order.
METRIC_FIELDS = tuple(f.name for f in dataclasses.fields(KernelMetrics))
_TAGS = METRIC_FIELDS.index("tags")


# -- cache entries -----------------------------------------------------
def cache_entry_to_dict(
    result: Characterization, stream_digest: str, compute_s: float
) -> Dict[str, Any]:
    """The result-cache entry of *result*: its profile as metric rows.

    *stream_digest* is the digest of the launch stream the result was
    computed from; *compute_s* is this entry's share of the seconds
    that computing it took, which a hit saves.
    """
    profile = result.profile
    rows = []
    for kernel in profile.kernels:
        row = [getattr(kernel.metrics, name) for name in METRIC_FIELDS]
        row[_TAGS] = list(row[_TAGS])
        rows.append(row)
    return {
        "abbr": result.abbr,
        "workload": profile.workload,
        "suite": profile.suite,
        "domain": profile.domain,
        "fields": list(METRIC_FIELDS),
        "rows": rows,
        "stream_digest": stream_digest,
        "compute_s": compute_s,
    }


def cache_entry_from_dict(
    payload: Dict[str, Any], device: DeviceSpec
) -> Characterization:
    """The characterization on *device* of an entry written by
    :func:`cache_entry_to_dict`.

    Raises ``KeyError``, ``TypeError`` or ``ValueError`` for a payload
    that is not such an entry (another layout, a stale ``fields``
    header, a row of the wrong width, no kernels).
    """
    if tuple(payload["fields"]) != METRIC_FIELDS:
        raise ValueError(f"entry fields {payload['fields']!r} are stale")
    kernels = []
    for row in payload["rows"]:
        if len(row) != len(METRIC_FIELDS):
            raise ValueError(f"entry row has {len(row)} values")
        values = list(row)
        values[_TAGS] = tuple(values[_TAGS])
        kernels.append(KernelProfile.from_metrics(KernelMetrics(*values)))
    if not kernels:
        raise ValueError("entry has no kernels")
    # ApplicationProfile re-sorts by total time; the rows are already
    # time-sorted and list.sort is stable, so kernel order survives.
    profile = ApplicationProfile(
        workload=payload["workload"],
        suite=payload["suite"],
        domain=payload["domain"],
        kernels=kernels,
    )
    return build_characterization(payload["abbr"], profile, device)


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


def application_profile_to_dict(profile: ApplicationProfile) -> Dict[str, Any]:
    return {
        "workload": profile.workload,
        "suite": profile.suite,
        "domain": profile.domain,
        "kernels": [kernel_profile_to_dict(k) for k in profile.kernels],
    }


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
