"""Property-based tests over the whole workload inventory.

Invariants every workload model must satisfy regardless of scale and
seed: non-empty launch streams, valid kernel characteristics, a stable
kernel menu for the structured workloads, and instruction totals that
grow with scale.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import characterize
from repro.workloads import get_workload, list_workloads

#: One representative per workload family (keeps the property runs
#: fast while touching every substrate).
FAMILY_REPS = ["GMS", "LMC", "GRU", "SPT", "LGT", "SGEMM", "KMEANS", "PGR"]

#: Workloads whose kernel menu must not depend on the RNG seed.
MENU_STABLE = ["GMS", "LMR", "LMC", "DCG", "NST", "RFL", "SPT", "LGT",
               "SGEMM", "LUD", "AN"]


@pytest.mark.parametrize("abbr", FAMILY_REPS)
def test_stream_is_nonempty_and_valid(abbr):
    stream = get_workload(abbr, scale=0.01, seed=0).launch_stream()
    assert len(stream) > 0
    for launch in stream:
        kernel = launch.kernel
        assert kernel.warp_insts > 0
        assert kernel.grid_blocks > 0
        assert 0 < kernel.threads_per_block <= 1024
        assert kernel.memory.unique_bytes >= 0


@pytest.mark.parametrize("abbr", MENU_STABLE)
def test_kernel_menu_seed_invariant(abbr):
    menu = lambda seed: set(  # noqa: E731
        get_workload(abbr, scale=0.02, seed=seed).launch_stream().kernel_names
    )
    assert menu(0) == menu(7)


@given(st.sampled_from(FAMILY_REPS), st.integers(0, 50))
@settings(max_examples=16, deadline=None)
def test_profiles_are_internally_consistent(abbr, seed):
    profile = characterize(get_workload(abbr, scale=0.01, seed=seed)).profile
    assert profile.total_time_s > 0
    assert profile.num_kernels >= 1
    shares = profile.time_shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    # Dominant prefix is genuinely sorted by time.
    times = [k.total_time_s for k in profile.kernels]
    assert times == sorted(times, reverse=True)


@pytest.mark.parametrize("abbr", ["GMS", "SPT", "SGEMM"])
def test_instruction_totals_grow_with_scale(abbr):
    small = get_workload(abbr, scale=0.02).launch_stream().total_warp_insts
    large = get_workload(abbr, scale=0.1).launch_stream().total_warp_insts
    assert large > 1.5 * small


def test_every_registered_workload_profiles_cleanly():
    """Smoke: all 45 registered workloads run end-to-end at tiny scale."""
    count = 0
    for suite in ("Cactus", "CactusExt", "Parboil", "Rodinia", "Tango"):
        for abbr in list_workloads(suite):
            profile = characterize(get_workload(abbr, scale=0.003)).profile
            assert profile.num_kernels >= 1, abbr
            count += 1
    assert count == 45
