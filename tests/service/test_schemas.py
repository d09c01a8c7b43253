"""Request validation and the job-key (coalescing) contract."""

import pytest

from repro.gpu.device import DEVICE_ZOO, RTX_3080, device_by_name
from repro.gpu.digest import CACHE_SCHEMA_VERSION, stable_digest
from repro.service.schemas import (
    MAX_ENGINE_JOBS,
    JobRequest,
    ValidationError,
    parse_job_request,
    zoo_payload,
)
from repro.workloads.registry import select_workloads


def _parse(**overrides):
    payload = {"workloads": ["DCG"], "device": "RTX 3080"}
    payload.update(overrides)
    return parse_job_request(payload)


class TestParsing:
    def test_minimal_request_defaults(self):
        request = parse_job_request({})
        assert request.kind == "suite"
        assert request.suites == ("Cactus",)
        assert request.preset.name == "laptop"
        assert request.device.name == "RTX 3080"
        assert request.jobs == 1

    def test_round_trips_through_to_dict(self):
        request = _parse(
            preset="laptop",
            jobs=2,
            options={"model_caches": False},
        )
        again = parse_job_request(request.to_dict())
        assert again == request
        assert again.job_key() == request.job_key()

    def test_inline_device_spec_equals_zoo_lookup(self):
        zoo = _parse(device="V100")
        spec = device_by_name("V100")
        inline = _parse(
            device={f: getattr(spec, f) for f in spec.__dataclass_fields__}
        )
        assert inline.device == zoo.device
        assert inline.job_key() == zoo.job_key()

    def test_sweep_request(self):
        request = parse_job_request(
            {
                "kind": "sweep",
                "workloads": ["DCG"],
                "devices": ["RTX 3080", "V100"],
            }
        )
        assert request.kind == "sweep"
        assert [d.name for d in request.devices] == [
            "RTX 3080", "V100",
        ]

    def test_workload_selection_resolves_in_registration_order(self):
        request = _parse(workloads=["nst", "DCG"])  # case-insensitive
        assert select_workloads(request.suites, request.workloads) == [
            "DCG", "NST",
        ]


class TestValidationErrors:
    def test_collects_every_error(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_job_request(
                {
                    "kind": "banana",
                    "preset": "galactic",
                    "jobs": "many",
                    "proxy_tol": -1,
                    "frobnicate": True,
                }
            )
        details = "\n".join(excinfo.value.errors)
        for fragment in ("kind", "preset", "jobs"):
            assert fragment in details
        # The retired similarity-proxy tolerance is an unknown key now.
        unknown = [e for e in excinfo.value.errors if "unknown fields" in e]
        assert unknown == ["request: unknown fields ['frobnicate', 'proxy_tol']"]
        assert len(excinfo.value.errors) >= 4

    def test_as_dict_shape(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_job_request({"workloads": []})
        payload = excinfo.value.as_dict()
        assert payload["error"] == "invalid request"
        assert isinstance(payload["details"], list)

    @pytest.mark.parametrize(
        "payload",
        [
            "not an object",
            {"device": "No Such GPU"},
            {"device": {"name": "x", "bogus_field": 1}},
            {"workloads": ["NOPE"]},
            {"suites": ["NoSuchSuite"]},
            {"kind": "sweep", "devices": []},
            {"kind": "sweep", "devices": ["RTX 3080", "RTX 3080"]},
            {"kind": "sweep", "device": "RTX 3080"},
            {"kind": "suite", "devices": ["RTX 3080"]},
            {"options": {"nonsense": 1}},
            {"options": {"timing": {"nonsense": 1}}},
            {"proxy_tol": float("nan")},
            {"proxy_tol": True},
            {"jobs": MAX_ENGINE_JOBS + 1},
            {"jobs": -1},
        ],
    )
    def test_rejected_payloads(self, payload):
        if isinstance(payload, dict):
            payload.setdefault("workloads", ["DCG"])
        with pytest.raises(ValidationError):
            parse_job_request(payload)


class TestJobKey:
    """The coalescing contract: same key iff same engine results."""

    def test_result_affecting_fields_change_the_key(self):
        base = _parse().job_key()
        assert _parse(workloads=["NST"]).job_key() != base
        assert _parse(device="V100").job_key() != base
        assert (
            _parse(options={"model_caches": False}).job_key() != base
        )
        assert (
            _parse(options={"timing": {"dram_efficiency": 0.5}}).job_key()
            != base
        )

    def test_key_is_engine_run_key_based(self):
        request = _parse()
        base = stable_digest([
            "suite-run", CACHE_SCHEMA_VERSION, request.device,
            request.options, request.preset,
            select_workloads(request.suites, request.workloads),
        ])
        # The service key is a digest *over* the run-identity digest:
        # any change to the run's identity changes the job key too.
        assert request.job_key() == stable_digest(["service-job", base])
        assert request.job_key() != base
        assert _parse().job_key() == request.job_key()

    def test_engine_run_keys_are_pinned(self):
        """Job keys must not drift: persisted job records coalesce on them.

        Each key is a digest over the run-identity digest the engine
        once used as its journal key; both inner values are pinned.
        """
        suite = parse_job_request(
            {"workloads": ["GST", "DCG"], "device": "RTX 3080"}
        )
        sweep = parse_job_request(
            {"kind": "sweep", "workloads": ["GST", "DCG"],
             "devices": ["RTX 3080", "V100"]}
        )
        assert select_workloads(sweep.suites, sweep.workloads) == [
            "GST", "DCG",
        ]
        assert suite.job_key() == stable_digest([
            "service-job",
            "93ffd733d77b9861173978260731e428"
            "38e0372cb174577ecaead87142e543e4",
        ])
        assert sweep.job_key() == stable_digest([
            "service-job",
            "96ed81d183cb31222efbf2766bfe52b0"
            "47265543cb51749a69c5ffd67a683caf",
        ])
        assert sweep.devices[0] == RTX_3080 == suite.device
        # Deterministic, and insensitive to selection spelling.
        assert suite.job_key() == _parse(workloads=["dcg", "gst"]).job_key()

    def test_execution_details_do_not_change_the_key(self):
        assert _parse(jobs=1).job_key() == _parse(jobs=4).job_key()

    def test_suite_and_sweep_keys_differ(self):
        suite_key = _parse().job_key()
        sweep_key = parse_job_request(
            {"kind": "sweep", "workloads": ["DCG"], "devices": ["RTX 3080"]}
        ).job_key()
        assert suite_key != sweep_key


class TestZooPayload:
    def test_lists_every_device_with_derived_rates(self):
        payload = zoo_payload()
        assert {entry["name"] for entry in payload} == set(DEVICE_ZOO)
        for entry in payload:
            assert entry["peak_gips"] > 0
            assert entry["peak_gtxn_per_s"] > 0
            assert entry["roofline_elbow"] > 0
