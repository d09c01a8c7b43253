"""Shared fixtures for the fault-injection robustness suite.

Every test here runs a small three-workload slice of the Cactus suite
(one molecular, two graph workloads — the cheapest at laptop scale) so
the whole suite stays fast while still covering the serial and pool
paths.  ``baseline`` is the fault-free reference every differential
assertion compares against, computed once per session.
"""

from __future__ import annotations

import pytest

from repro.core import LAPTOP_SCALE, RetryPolicy, run_suite, run_sweep
from repro.gpu import RTX_3080, V100

#: Registration-ordered slice used throughout: GMS < GST < GRU.
WORKLOADS = ["GMS", "GST", "GRU"]

#: Fast-retry policy: keeps backoff sleeps out of the test wall-clock.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.001, backoff_max_s=0.01)


def run_slice(**kwargs):
    """A suite run over the standard three-workload slice."""
    return run_suite(
        ["Cactus"], preset=LAPTOP_SCALE, workloads=WORKLOADS, **kwargs
    )


def run_sweep_slice(**kwargs):
    """A two-device sweep over the standard three-workload slice."""
    return run_sweep(
        [RTX_3080, V100], preset=LAPTOP_SCALE, workloads=WORKLOADS, **kwargs
    )


@pytest.fixture(scope="session")
def baseline():
    """Fault-free serial reference run (bit-for-bit ground truth)."""
    return run_slice()


@pytest.fixture(scope="session")
def sweep_baseline():
    """Fault-free two-device sweep reference run."""
    return run_sweep_slice()
