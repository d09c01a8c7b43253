"""Unit tests for the retry/timeout/backoff policy."""

import math
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.resilience import (
    PERMANENT,
    TRANSIENT,
    RetryPolicy,
    WorkloadFailure,
    classify_exception,
)
from tests.faults import InjectedPermanentFault, InjectedTransientFault


class TestClassification:
    @pytest.mark.parametrize(
        "exc",
        [
            OSError("io"),
            PermissionError("perm"),
            BrokenPipeError("pipe"),
            ConnectionResetError("conn"),
            EOFError("eof"),
            TimeoutError("slow"),
            FuturesTimeout(),
            BrokenProcessPool("dead"),
            MemoryError(),
            InjectedTransientFault("injected"),
        ],
    )
    def test_transient(self, exc):
        assert classify_exception(exc) == TRANSIENT

    @pytest.mark.parametrize(
        "exc",
        [
            ValueError("bad"),
            TypeError("bad"),
            KeyError("bad"),
            ZeroDivisionError(),
            NotImplementedError(),
            RuntimeError("bad"),
            InjectedPermanentFault("injected"),
        ],
    )
    def test_permanent(self, exc):
        assert classify_exception(exc) == PERMANENT

    def test_should_retry_respects_class_and_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(OSError("x"), 1)
        assert policy.should_retry(OSError("x"), 2)
        assert not policy.should_retry(OSError("x"), 3)  # budget exhausted
        assert not policy.should_retry(ValueError("x"), 1)  # permanent

    def test_no_retries_policy(self):
        policy = RetryPolicy(max_attempts=1)
        assert not policy.should_retry(OSError("x"), 1)


class TestBackoff:
    def test_deterministic_for_same_seed(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        schedule_a = [a.backoff_s("GMS", n) for n in range(1, 6)]
        schedule_b = [b.backoff_s("GMS", n) for n in range(1, 6)]
        assert schedule_a == schedule_b

    def test_jitter_varies_with_seed_and_key(self):
        base = RetryPolicy(seed=0).backoff_s("GMS", 2)
        assert RetryPolicy(seed=1).backoff_s("GMS", 2) != base
        assert RetryPolicy(seed=0).backoff_s("GST", 2) != base

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5, jitter=0.0
        )
        delays = [policy.backoff_s("X", n) for n in range(1, 8)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays[2] == pytest.approx(0.4)
        assert all(d == pytest.approx(0.5) for d in delays[3:])
        assert delays == sorted(delays)

    def test_jitter_stays_within_band_and_cap(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=1.0, jitter=0.25
        )
        for key in ("A", "B", "C", "D"):
            for attempt in range(1, 5):
                nominal = min(1.0, 0.1 * 2 ** (attempt - 1))
                delay = policy.backoff_s(key, attempt)
                assert 0.0 <= delay <= 1.0
                assert nominal * 0.75 <= delay or delay == 1.0
                assert delay <= nominal * 1.25

    def test_zero_attempt_is_free(self):
        assert RetryPolicy().backoff_s("X", 0) == 0.0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"max_attempts": -1},
            {"timeout_s": 0.0},
            {"timeout_s": -5.0},
            {"timeout_s": float("nan")},
            {"timeout_s": float("inf")},
            {"backoff_base_s": -0.1},
            {"backoff_base_s": float("nan")},
            {"backoff_factor": 0.5},
            {"backoff_max_s": 0.0, "backoff_base_s": 1.0},
            {"jitter": -0.1},
            {"jitter": 1.5},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestFromEnv:
    def test_reads_retries_and_timeout(self):
        policy = RetryPolicy.from_env(
            {"REPRO_RETRIES": "4", "REPRO_TIMEOUT": "12.5"}
        )
        assert policy.max_attempts == 5  # N retries = N+1 attempts
        assert policy.timeout_s == 12.5

    def test_empty_env_gives_defaults(self):
        policy = RetryPolicy.from_env({})
        assert policy == RetryPolicy()

    def test_overrides_beat_env(self):
        policy = RetryPolicy.from_env({"REPRO_RETRIES": "4"}, max_attempts=2)
        assert policy.max_attempts == 2

    @pytest.mark.parametrize(
        "env",
        [
            {"REPRO_RETRIES": "many"},
            {"REPRO_TIMEOUT": "soon"},
            {"REPRO_RETRIES": "-3"},
            {"REPRO_TIMEOUT": "nan"},
        ],
    )
    def test_garbage_env_rejected_with_clear_error(self, env):
        with pytest.raises(ValueError) as excinfo:
            RetryPolicy.from_env(env)
        assert "REPRO_" in str(excinfo.value)


class TestWorkloadFailure:
    def test_from_exception_captures_traceback(self):
        try:
            raise ValueError("model exploded")
        except ValueError as exc:
            failure = WorkloadFailure.from_exception(
                "GMS", exc, attempts=2, elapsed_s=1.25
            )
        assert failure.abbr == "GMS"
        assert failure.error_type == "ValueError"
        assert failure.classification == PERMANENT
        assert "Traceback (most recent call last)" in failure.traceback
        assert "model exploded" in failure.traceback
        assert failure.attempts == 2
        rendered = failure.render()
        assert "GMS" in rendered and "ValueError" in rendered
        assert failure.as_dict()["elapsed_s"] == 1.25
