"""Unit tests for the retry/timeout/backoff policy."""

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
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5
        )
        delays = [policy.backoff_s(n) for n in range(1, 8)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays[2] == pytest.approx(0.4)
        assert all(d == pytest.approx(0.5) for d in delays[3:])
        assert delays == sorted(delays)

    def test_zero_attempt_is_free(self):
        assert RetryPolicy().backoff_s(0) == 0.0


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
            {"backoff_max_s": float("nan")},
            {"backoff_factor": float("inf")},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


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
