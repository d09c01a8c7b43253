"""Request validation and job identity for the characterization service.

The service boundary accepts untrusted JSON; everything behind it
(:mod:`repro.core.engine` and below) only ever sees fully validated,
strongly typed values.  :func:`parse_job_request` is the single funnel:
it resolves devices (zoo name or inline :class:`DeviceSpec` payload),
builds :class:`~repro.gpu.simulator.SimulationOptions` field-by-field
(unknown keys are rejected, never silently dropped), resolves the
workload selection against the registry, and collects *every* problem
into one :class:`ValidationError` so a client fixes its request in one
round trip.

Job identity — the coalescing contract
--------------------------------------

:meth:`JobRequest.job_key` is a content digest of exactly what decides
a job's results: kind, device(s), simulation options, preset, the
workload selection resolved by
:func:`~repro.workloads.registry.select_workloads` (the rule the engine
runs) and the cache schema version.  Two requests share a key **iff**
the engine would produce bit-identical results for them, so coalescing
on the key can never serve a wrong answer.  Execution details that
cannot change results (engine worker count) are deliberately excluded.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import (
    LAPTOP_SCALE,
    OBSERVATION_SCALE,
    PAPER_SCALE,
    ScalePreset,
)
from repro.gpu.device import DEVICE_ZOO, DeviceSpec, device_by_name
from repro.gpu.digest import CACHE_SCHEMA_VERSION, stable_digest
from repro.gpu.simulator import SimulationOptions, TimingOptions
from repro.workloads.registry import checked_selection, select_workloads

__all__ = [
    "JobRequest",
    "MAX_ENGINE_JOBS",
    "PRESETS",
    "ValidationError",
    "device_to_dict",
    "parse_job_request",
]

PRESETS: Dict[str, ScalePreset] = {
    "laptop": LAPTOP_SCALE,
    "observation": OBSERVATION_SCALE,
    "paper": PAPER_SCALE,
}

#: Engine worker-process ceiling for one service job.  The service's
#: own worker pool is the scaling axis; a single job fanning out over
#: many processes would starve its neighbours.
MAX_ENGINE_JOBS = 8

_KINDS = ("suite", "sweep")

_REQUEST_KEYS = {
    "kind", "suites", "workloads", "preset",
    "device", "devices", "options", "jobs",
}


class ValidationError(ValueError):
    """A request failed validation; ``errors`` lists every problem."""

    def __init__(self, errors: List[str]) -> None:
        super().__init__("; ".join(errors))
        self.errors = list(errors)

    def as_dict(self) -> Dict[str, Any]:
        return {"error": "invalid request", "details": self.errors}


def device_to_dict(device: DeviceSpec) -> Dict[str, Any]:
    """Full field payload of one device spec (inverse of inline parse)."""
    return dataclasses.asdict(device)


def _parse_device(
    payload: Any, errors: List[str], where: str
) -> Optional[DeviceSpec]:
    """Zoo name or inline spec dict → :class:`DeviceSpec`."""
    if isinstance(payload, str):
        try:
            return device_by_name(payload)
        except KeyError as exc:
            errors.append(f"{where}: {exc.args[0]}")
            return None
    if not isinstance(payload, dict):
        errors.append(
            f"{where}: expected a zoo device name or an inline spec "
            f"object, got {type(payload).__name__}"
        )
        return None
    known = {f.name for f in dataclasses.fields(DeviceSpec)}
    unknown = sorted(set(payload) - known)
    if unknown:
        errors.append(f"{where}: unknown device fields {unknown}")
        return None
    required = {
        f.name
        for f in dataclasses.fields(DeviceSpec)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING  # type: ignore[misc]
    }
    missing = sorted(required - set(payload))
    if missing:
        errors.append(f"{where}: missing device fields {missing}")
        return None
    try:
        return DeviceSpec(**payload)
    except (TypeError, ValueError) as exc:
        errors.append(f"{where}: {exc}")
        return None


def _parse_options(
    payload: Any, errors: List[str]
) -> SimulationOptions:
    """``options`` object → :class:`SimulationOptions` (strict keys)."""
    if payload is None:
        return SimulationOptions()
    if not isinstance(payload, dict):
        errors.append(
            f"options: expected an object, got {type(payload).__name__}"
        )
        return SimulationOptions()
    unknown = sorted(set(payload) - {"model_caches", "timing"})
    if unknown:
        errors.append(f"options: unknown fields {unknown}")
    model_caches = payload.get("model_caches", True)
    if not isinstance(model_caches, bool):
        errors.append("options.model_caches: expected a boolean")
        model_caches = True
    timing_payload = payload.get("timing")
    timing = TimingOptions()
    if timing_payload is not None:
        if not isinstance(timing_payload, dict):
            errors.append(
                f"options.timing: expected an object, got "
                f"{type(timing_payload).__name__}"
            )
        else:
            known = {f.name for f in dataclasses.fields(TimingOptions)}
            unknown = sorted(set(timing_payload) - known)
            if unknown:
                errors.append(f"options.timing: unknown fields {unknown}")
            else:
                try:
                    timing = TimingOptions(**timing_payload)
                except (TypeError, ValueError) as exc:
                    errors.append(f"options.timing: {exc}")
    return SimulationOptions(timing=timing, model_caches=model_caches)


def _parse_names(
    payload: Any, errors: List[str], where: str
) -> Optional[Tuple[str, ...]]:
    if payload is None:
        return None
    if isinstance(payload, str):
        payload = [payload]
    if not isinstance(payload, (list, tuple)) or not all(
        isinstance(item, str) for item in payload
    ):
        errors.append(f"{where}: expected a list of strings")
        return None
    if not payload:
        errors.append(f"{where}: must not be empty")
        return None
    return tuple(payload)


@dataclass(frozen=True)
class JobRequest:
    """A fully validated characterization request (hashable identity)."""

    kind: str
    suites: Tuple[str, ...]
    workloads: Optional[Tuple[str, ...]]
    preset: ScalePreset
    devices: Tuple[DeviceSpec, ...]
    options: SimulationOptions
    #: Engine worker processes for this job (0/1 → serial).  Not part
    #: of the job key: worker count cannot change results.
    jobs: int = 1

    @property
    def device(self) -> DeviceSpec:
        return self.devices[0]

    def job_key(self) -> str:
        """Content digest identifying this request's result.

        The layout, tags included, is pinned: persisted job records
        coalesce on it, so it must not drift.
        """
        selected = select_workloads(self.suites, self.workloads)
        if self.kind == "sweep":
            run = ["sweep-run", CACHE_SCHEMA_VERSION, list(self.devices)]
        else:
            run = ["suite-run", CACHE_SCHEMA_VERSION, self.device]
        base = stable_digest(run + [self.options, self.preset, selected])
        return stable_digest(["service-job", base])

    def to_dict(self) -> Dict[str, Any]:
        """JSON payload that parses back to an equal request."""
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "suites": list(self.suites),
            "preset": self.preset.name,
            "options": {
                "model_caches": self.options.model_caches,
                "timing": dataclasses.asdict(self.options.timing),
            },
            "jobs": self.jobs,
        }
        if self.workloads is not None:
            payload["workloads"] = list(self.workloads)
        if self.kind == "sweep":
            payload["devices"] = [device_to_dict(d) for d in self.devices]
        else:
            payload["device"] = device_to_dict(self.device)
        return payload


def parse_job_request(payload: Any) -> JobRequest:
    """Validate an untrusted submission payload into a :class:`JobRequest`.

    Raises :class:`ValidationError` carrying *every* problem found, not
    just the first one.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        raise ValidationError(
            [f"request body: expected an object, got {type(payload).__name__}"]
        )

    unknown = sorted(set(payload) - _REQUEST_KEYS)
    if unknown:
        errors.append(f"request: unknown fields {unknown}")

    kind = payload.get("kind", "suite")
    if kind not in _KINDS:
        errors.append(
            f"kind: expected one of {list(_KINDS)}, got {kind!r}"
        )
        kind = "suite"

    preset_name = payload.get("preset", "laptop")
    preset = PRESETS.get(preset_name) if isinstance(preset_name, str) else None
    if preset is None:
        errors.append(
            f"preset: expected one of {sorted(PRESETS)}, got {preset_name!r}"
        )
        preset = LAPTOP_SCALE

    suites = _parse_names(
        payload.get("suites", ["Cactus"]), errors, "suites"
    ) or ("Cactus",)
    workloads = _parse_names(payload.get("workloads"), errors, "workloads")

    # -- devices -------------------------------------------------------
    devices: List[DeviceSpec] = []
    if kind == "sweep":
        if "device" in payload:
            errors.append("device: sweep jobs take 'devices' (a list)")
        raw_devices = payload.get("devices")
        if not isinstance(raw_devices, (list, tuple)) or not raw_devices:
            errors.append("devices: sweep jobs need a non-empty device list")
        else:
            for index, item in enumerate(raw_devices):
                spec = _parse_device(item, errors, f"devices[{index}]")
                if spec is not None:
                    devices.append(spec)
            names = [d.name for d in devices]
            if len(set(names)) != len(names):
                errors.append(f"devices: duplicate device names in {names}")
    else:
        if "devices" in payload:
            errors.append("devices: suite jobs take 'device' (a single spec)")
        raw_device = payload.get("device", "RTX 3080")
        spec = _parse_device(raw_device, errors, "device")
        if spec is not None:
            devices.append(spec)

    options = _parse_options(payload.get("options"), errors)

    jobs = payload.get("jobs", 1)
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        errors.append(f"jobs: expected an integer, got {jobs!r}")
        jobs = 1
    elif not 0 <= jobs <= MAX_ENGINE_JOBS:
        errors.append(f"jobs: must be in [0, {MAX_ENGINE_JOBS}], got {jobs}")
        jobs = 1

    # -- selection (needs valid suites) --------------------------------
    if not errors:
        try:
            checked_selection(suites, workloads)
        except ValueError as exc:
            errors.append(exc.args[0])

    if errors:
        raise ValidationError(errors)
    return JobRequest(
        kind=kind,
        suites=suites,
        workloads=workloads,
        preset=preset,
        devices=tuple(devices),
        options=options,
        jobs=jobs,
    )


def zoo_payload() -> List[Dict[str, Any]]:
    """The device-zoo listing served by ``GET /v1/devices``."""
    return [
        dict(
            device_to_dict(spec),
            peak_gips=spec.peak_gips,
            peak_gtxn_per_s=spec.peak_gtxn_per_s,
            roofline_elbow=spec.roofline_elbow,
        )
        for spec in DEVICE_ZOO.values()
    ]
