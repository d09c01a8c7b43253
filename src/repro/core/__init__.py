"""End-to-end orchestration: the top-down characterization pipeline."""

from repro.core.cache import CacheStats, ResultCache
from repro.core.characterize import (
    Characterization,
    build_characterization,
    characterize,
    characterize_devices,
)
from repro.core.compare import (
    ObservationReport,
    check_observations,
)
from repro.core.config import (
    LAPTOP_SCALE,
    OBSERVATION_SCALE,
    PAPER_SCALE,
    ScalePreset,
)
from repro.core.engine import CharacterizationEngine
from repro.core.journal import RunJournal
from repro.core.resilience import (
    RetryPolicy,
    SuiteRunError,
    WorkloadFailure,
    classify_exception,
)
from repro.core.serialize import (
    suite_run_report_to_dict,
    sweep_run_report_to_dict,
)
from repro.core.suite import SuiteRunReport, run_suite
from repro.core.sweep import SweepRunReport, run_sweep

__all__ = [
    "CacheStats",
    "Characterization",
    "CharacterizationEngine",
    "ResultCache",
    "RetryPolicy",
    "RunJournal",
    "SuiteRunError",
    "SweepRunReport",
    "WorkloadFailure",
    "build_characterization",
    "characterize",
    "characterize_devices",
    "classify_exception",
    "ObservationReport",
    "check_observations",
    "LAPTOP_SCALE",
    "OBSERVATION_SCALE",
    "PAPER_SCALE",
    "ScalePreset",
    "SuiteRunReport",
    "run_suite",
    "run_sweep",
    "suite_run_report_to_dict",
    "sweep_run_report_to_dict",
]
