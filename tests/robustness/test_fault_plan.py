"""Unit tests for the deterministic fault-injection harness."""

import os
import pickle

import pytest

from repro.core import ResultCache
from tests.faults import (
    CORRUPT_RESULT,
    CRASH,
    CRASH_PERMANENT,
    HANG,
    FaultPlan,
    FaultSpec,
    InjectedPermanentFault,
    InjectedTransientFault,
    corrupt_characterization,
    flip_cache_bytes,
)
from tests.oracles import diff_characterizations


class TestFaultSpec:
    def test_fires_on_configured_attempts_only(self):
        spec = FaultSpec(abbr="GMS", kind=CRASH, attempts=(1, 2))
        assert spec.fires("GMS", 1)
        assert spec.fires("gms", 2)  # case-insensitive
        assert not spec.fires("GMS", 3)
        assert not spec.fires("GST", 1)

    def test_empty_attempts_means_every_attempt(self):
        spec = FaultSpec(abbr="GMS", kind=CRASH, attempts=())
        assert all(spec.fires("GMS", n) for n in range(1, 10))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(abbr="GMS", kind="meteor-strike")


class TestFaultPlan:
    def test_before_raises_transient_and_permanent(self):
        plan = FaultPlan(
            faults=(
                FaultSpec("AAA", CRASH),
                FaultSpec("BBB", CRASH_PERMANENT),
            )
        )
        with pytest.raises(InjectedTransientFault):
            plan.before("AAA", 1)
        with pytest.raises(InjectedPermanentFault):
            plan.before("BBB", 1)
        plan.before("AAA", 2)  # beyond the schedule: no-op
        plan.before("CCC", 1)  # unlisted workload: no-op

    def test_transient_fault_is_oserror_permanent_is_valueerror(self):
        # The classification contract the retry policy depends on.
        assert issubclass(InjectedTransientFault, OSError)
        assert issubclass(InjectedPermanentFault, ValueError)

    def test_empty_plan_is_falsy_noop(self):
        plan = FaultPlan()
        assert not plan
        plan.before("GMS", 1)
        assert plan.after("GMS", 1, "result", None) == "result"

    def test_plan_is_picklable(self):
        plan = FaultPlan.single("GMS", HANG, hang_s=12.0)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        # The creating pid travels with the plan: a pool worker under
        # any start method compares against its parent's pid.
        assert clone.pid == plan.pid == os.getpid()

    def test_random_plan_replayable_from_seed(self):
        abbrs = ["GMS", "LMR", "LMC", "GST", "GRU", "DCG"]
        a = FaultPlan.random(abbrs, seed=42)
        b = FaultPlan.random(abbrs, seed=42)
        c = FaultPlan.random(abbrs, seed=43)
        assert a == b
        assert a != c  # overwhelmingly likely for different seeds

    def test_for_workload_filters(self):
        plan = FaultPlan(
            faults=(FaultSpec("GMS", CRASH), FaultSpec("GST", CRASH))
        )
        assert len(plan.for_workload("gms")) == 1
        assert plan.for_workload("GRU") == ()


class TestCorruption:
    def test_corrupt_characterization_is_detectable(self, baseline):
        original = baseline["GMS"]
        corrupted = corrupt_characterization(original)
        assert corrupted != original
        diffs = diff_characterizations(original, corrupted, "GMS")
        assert diffs, "corruption must be visible to the differential"
        # Only the instruction counters were touched, structurally the
        # object is still a valid Characterization.
        assert corrupted.abbr == original.abbr
        assert len(corrupted.profile.kernels) == len(original.profile.kernels)

    def test_corrupt_result_fault_applies(self, baseline):
        plan = FaultPlan.single("GMS", CORRUPT_RESULT)
        original = {"RTX 3080": baseline["GMS"], "V100": baseline["GMS"]}
        corrupted = plan.after("GMS", 1, original, None)
        # Every device's entry of the attempt is corrupted.
        assert list(corrupted) == list(original)
        assert all(corrupted[name] != original[name] for name in original)
        assert plan.after("GMS", 2, original, None) == original  # off-schedule

    def test_flip_cache_bytes(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("aa" + "0" * 62, {"v": 1})
        assert flip_cache_bytes(cache) == 1
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get("aa" + "0" * 62) is None  # corrupt → miss
        assert fresh.stats.corrupt == 1

    def test_flip_cache_bytes_without_disk_tier_is_noop(self, tmp_path):
        # No version tree written yet, or no cache at all.
        assert flip_cache_bytes(ResultCache(cache_dir=tmp_path)) == 0
        assert flip_cache_bytes(None) == 0
