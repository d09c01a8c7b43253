"""Fixtures shared across the test packages."""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.engine import CharacterizationEngine


def _pools_started_by(monkeypatch, method: str) -> None:
    """Make every engine pool start its workers with *method*."""
    context = multiprocessing.get_context(method)

    def new_pool(self, jobs, tasks):
        return ProcessPoolExecutor(
            max_workers=min(jobs, tasks), mp_context=context
        )

    monkeypatch.setattr(CharacterizationEngine, "_new_pool", new_pool)


@pytest.fixture
def forkserver_pool(monkeypatch):
    """Engine pools whose workers start from a forkserver.

    Such a worker re-imports every module instead of inheriting the
    parent's memory, so module state set at import time — and the
    parent thread's context variables — differ from the parent's
    (under ``fork`` they do not).
    """
    _pools_started_by(monkeypatch, "forkserver")


@pytest.fixture
def fork_pool(monkeypatch):
    """Engine pools whose workers are forked from the parent."""
    _pools_started_by(monkeypatch, "fork")
