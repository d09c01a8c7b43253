"""Golden coverage and MD digest checks for the launch-stream fixture.

Two guards around ``fixtures/stream_digests.json``:

* **Coverage** — every workload registered in the Cactus suite must
  carry a pinned digest at every preset.  Without this, a newly added
  workload (or a newly added preset) ships unpinned and the
  digest-differential safety net silently never applies to it.
* **Stream digests** — every Cactus workload is recomputed and
  compared against the fixture at the observation preset, and the three
  molecular workloads at the paper preset too (their vectorized stream
  generator makes the full paper-scale streams cheap enough to verify
  outright).  The laptop preset is checked workload by workload in
  ``tests/workloads/test_graph_hotpaths.py``.

Run with ``pytest -m golden``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.core.config import LAPTOP_SCALE, OBSERVATION_SCALE, PAPER_SCALE
from repro.gpu.digest import launch_stream_digest
from repro.profiler.profiler import Profiler
from repro.workloads.registry import get_workload, list_workloads

pytestmark = pytest.mark.golden

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "stream_digests.json"

PRESETS = {
    "laptop": LAPTOP_SCALE,
    "observation": OBSERVATION_SCALE,
    "paper": PAPER_SCALE,
}

MD_WORKLOADS = ("GMS", "LMR", "LMC")

#: The workloads whose streams are recomputed at each preset.
DIGEST_CHECKS = {
    "observation": tuple(list_workloads("Cactus")),
    "paper": MD_WORKLOADS,
}


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_every_cactus_workload_pinned_at_every_preset(fixture):
    """A registered workload without a pinned digest fails loudly here
    instead of silently shipping outside the differential safety net."""
    presets = fixture["presets"]
    assert sorted(presets) == sorted(PRESETS), (
        "fixture presets drifted from the configured scale presets"
    )
    registered = set(list_workloads("Cactus"))
    for preset_name, pinned in presets.items():
        missing = sorted(registered - set(pinned))
        assert not missing, (
            f"Cactus workloads with no pinned stream digest at the "
            f"{preset_name!r} preset: {missing}; regenerate the fixture "
            f"(tests/golden/fixtures/) and review the diff"
        )
        unknown = sorted(set(pinned) - registered)
        assert not unknown, (
            f"fixture pins digests for unregistered workloads at "
            f"{preset_name!r}: {unknown}"
        )


def test_fixture_entries_are_well_formed(fixture):
    for preset_name, pinned in fixture["presets"].items():
        for abbr, entry in pinned.items():
            assert re.fullmatch(r"[0-9a-f]{64}", entry["digest"]), (
                preset_name, abbr,
            )
            assert entry["launches"] > 0, (preset_name, abbr)


@pytest.mark.parametrize(
    "preset_name, workloads", DIGEST_CHECKS.items(), ids=list(DIGEST_CHECKS)
)
def test_md_stream_digests_match_fixture(fixture, preset_name, workloads):
    preset = PRESETS[preset_name]
    pinned = fixture["presets"][preset_name]
    profiler = Profiler()
    for abbr in workloads:
        reference = pinned[abbr]
        workload = get_workload(
            abbr, scale=preset.for_workload(abbr), seed=0
        )
        stream = profiler.prepare_stream(workload)
        assert len(stream) == reference["launches"], (preset_name, abbr)
        assert launch_stream_digest(stream) == reference["digest"], (
            preset_name, abbr,
        )
