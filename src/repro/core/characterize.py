"""Per-workload characterization: the full Section V treatment.

``characterize_devices(workload, devices)`` runs the workload through
the profiler once and bundles every per-application analysis of the
paper for each device: Table I row, cumulative time curve, aggregate
and per-kernel roofline points, and the dominant-kernel selection.
``characterize(workload, device)`` is its one-device view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.analysis.distribution import Table1Row, table1_row
from repro.analysis.roofline import (
    RooflinePoint,
    application_roofline,
    kernel_roofline,
)
from repro.gpu.device import RTX_3080, DeviceSpec
from repro.profiler.profiler import Profiler
from repro.profiler.records import ApplicationProfile
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import ResultCache


@dataclass
class Characterization:
    """Everything the paper derives from one workload."""

    abbr: str
    profile: ApplicationProfile
    table1: Table1Row
    cumulative_curve: List[Tuple[int, float]]
    aggregate_point: RooflinePoint
    kernel_points: List[RooflinePoint]
    dominant_points: List[RooflinePoint]

    @property
    def is_memory_intensive(self) -> bool:
        return not self.aggregate_point.is_compute_intensive

    @property
    def dominant_sides(self) -> Tuple[int, int]:
        """(compute-intensive, memory-intensive) counts among the
        dominant kernels."""
        compute = sum(1 for p in self.dominant_points if p.is_compute_intensive)
        return compute, len(self.dominant_points) - compute


def build_characterization(
    abbr: str, profile: ApplicationProfile, device: DeviceSpec = RTX_3080
) -> Characterization:
    """Derive every Section-V analysis from an existing profile."""
    from repro.analysis.distribution import cumulative_time_curve

    return Characterization(
        abbr=abbr,
        profile=profile,
        table1=table1_row(profile, abbr=abbr),
        cumulative_curve=cumulative_time_curve(profile, max_kernels=14),
        aggregate_point=application_roofline(profile, device),
        kernel_points=kernel_roofline(profile, device=device),
        dominant_points=kernel_roofline(
            profile, profile.dominant_kernels, device=device
        ),
    )


def characterize(
    workload: Workload,
    device: DeviceSpec = RTX_3080,
    options=None,
    cache: Optional["ResultCache"] = None,
    tracer=None,
) -> Characterization:
    """Run the full per-workload characterization pipeline on one device.

    A one-device :func:`characterize_devices`: with a *cache*, the
    result is memoized under a content-addressed key of ``(device,
    simulation options, launch-stream digest)`` — a warm hit skips the
    simulation and every analysis step and deserializes a result that
    compares equal to a fresh computation.

    *tracer* (see :mod:`repro.obs`) wraps each phase — ``stream-gen``,
    ``cache-lookup``, ``simulate``, ``analyze``, ``cache-store`` — in a
    span.  Pure observation: the stream, the cache key, and the result
    are bit-for-bit identical with tracing on or off.
    """
    return characterize_devices(
        workload, [device], options=options, cache=cache, tracer=tracer
    )[device.name]


def characterize_devices(
    workload: Workload,
    devices,
    options=None,
    cache: Optional["ResultCache"] = None,
    stream_cache=None,
    tracer=None,
    steady_state: bool = True,
    stream=None,
) -> "dict[str, Characterization]":
    """Characterize one workload across N devices from ONE stream.

    The device-sweep inner loop: the launch stream is acquired exactly
    once (from the *stream* argument, the device-free *stream_cache*,
    or — last resort — fresh generation under a ``stream-gen`` span),
    every device's result cache entry is probed under its
    content-addressed characterization key (the same for suite runs and
    sweeps, so each warms the other), and only the missing devices go
    through the batched device-axis simulator
    (:func:`repro.gpu.batched.simulate_devices`) — a single broadcast
    pass instead of N scalar walks.

    Returns ``{device.name: Characterization}`` in *devices* order.
    This is the only characterization path: :func:`characterize` is its
    one-device view, and for one device the batched simulator *is* the
    scalar ``GPUSimulator.run_stream``.
    """
    from repro.gpu.batched import simulate_devices
    from repro.gpu.simulator import SimulationOptions
    from repro.obs import NULL_TRACER

    tracer = tracer or NULL_TRACER
    options = options or SimulationOptions()
    abbr = workload.abbr
    identity = {
        "name": workload.name,
        "abbr": workload.abbr,
        "suite": workload.suite,
        "domain": workload.domain,
    }

    # -- stream acquisition: memo > stream cache > generation ----------
    skey: Optional[str] = None
    if stream_cache is not None:
        from repro.core.streamcache import stream_key

        skey = stream_key(
            identity, workload.scale, workload.seed, steady_state
        )
        if stream is None:
            with tracer.span(
                "stream-cache-lookup", category="phase", workload=abbr
            ):
                stream = stream_cache.get(skey)
    generated = False
    if stream is None:
        with tracer.span(
            "stream-gen", category="phase", workload=abbr
        ) as sp:
            profiler = Profiler(steady_state=steady_state)
            stream = profiler.prepare_stream(workload)
            sp.set_attr("launches", len(stream))
        generated = True
    if generated and stream_cache is not None and skey is not None:
        with tracer.span(
            "stream-cache-store", category="phase", workload=abbr
        ):
            stream_cache.put(skey, stream)

    # -- per-device result-cache probes (scalar-compatible keys) -------
    results: "dict[str, Characterization]" = {}
    missing = list(devices)
    keys: "dict[str, str]" = {}
    if cache is not None:
        from repro.core.cache import characterization_key
        from repro.core.serialize import characterization_from_dict

        with tracer.span(
            "cache-lookup",
            category="phase",
            workload=abbr,
            devices=len(missing),
        ) as sp:
            still_missing = []
            for device in missing:
                key = characterization_key(
                    device, options, identity, stream
                )
                keys[device.name] = key
                payload = cache.get(key)
                if payload is not None:
                    try:
                        results[device.name] = characterization_from_dict(
                            payload
                        )
                        continue
                    except (KeyError, TypeError, ValueError):
                        pass  # schema-corrupt entry → recompute below
                still_missing.append(device)
            missing = still_missing
            sp.set_attr("hits", len(results))

    # -- batched simulate + per-device analysis for the misses ---------
    if missing:
        with tracer.span(
            "simulate",
            category="phase",
            workload=abbr,
            devices=len(missing),
        ) as sp:
            per_device = simulate_devices(
                stream,
                missing,
                options=options,
                tracer=tracer,
            )
            sp.set_attr("launches", len(stream))
        aggregator = Profiler(steady_state=steady_state)
        with tracer.span(
            "analyze", category="phase", workload=abbr, devices=len(missing)
        ):
            fresh = {}
            for device, metrics in zip(missing, per_device):
                profile = aggregator.profile_metrics(
                    stream,
                    metrics,
                    workload=workload.name,
                    suite=workload.suite,
                    domain=workload.domain,
                )
                fresh[device.name] = build_characterization(
                    workload.abbr, profile, device
                )
        if cache is not None:
            from repro.core.serialize import characterization_to_dict

            with tracer.span(
                "cache-store",
                category="phase",
                workload=abbr,
                devices=len(fresh),
            ):
                for name, result in fresh.items():
                    cache.put(keys[name], characterization_to_dict(result))
        results.update(fresh)

    return {device.name: results[device.name] for device in devices}
