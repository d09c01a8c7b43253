"""Workload registry.

Maps workload abbreviations to factories and records suite membership,
so the pipeline, benchmarks and examples can request workloads by name
(``get_workload("GMS")``) or whole suites (``cactus_workloads()``).
Factories are registered by the suite modules at import time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.workloads.base import Workload

WorkloadFactory = Callable[..., Workload]

_REGISTRY: Dict[str, WorkloadFactory] = {}
_SUITES: Dict[str, List[str]] = {}


def register_workload(
    abbr: str, suite: str, factory: WorkloadFactory
) -> WorkloadFactory:
    """Register *factory* under *abbr* as a member of *suite*."""
    key = abbr.upper()
    if key in _REGISTRY:
        raise ValueError(f"workload {abbr!r} already registered")
    _REGISTRY[key] = factory
    _SUITES.setdefault(suite, []).append(key)
    return factory


def _ensure_loaded() -> None:
    """Import the suite modules so their registrations run."""
    # Imported lazily to avoid import cycles at package-init time.
    import repro.workloads.suites  # noqa: F401


def get_workload(abbr: str, scale: float = 1.0, seed: int = 0) -> Workload:
    """Instantiate the workload registered under *abbr*."""
    _ensure_loaded()
    if not isinstance(abbr, str):
        # A Workload instance (or anything else) here used to surface as
        # a bare AttributeError on .upper() — name the contract instead.
        raise TypeError(
            "get_workload expects a workload abbreviation string such as "
            f"'GST', not {type(abbr).__name__!r}; pass Workload instances "
            "directly to the pipeline instead of re-resolving them"
        )
    key = abbr.upper()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown workload {abbr!r}; known: {known}")
    return _REGISTRY[key](scale=scale, seed=seed)


def list_suites() -> List[str]:
    """Names of every registered suite, in registration order."""
    _ensure_loaded()
    return list(_SUITES)


def list_workloads(suite: Optional[str] = None) -> List[str]:
    """Abbreviations of all registered workloads (optionally one suite)."""
    _ensure_loaded()
    if suite is None:
        return sorted(_REGISTRY)
    if suite not in _SUITES:
        known = ", ".join(sorted(_SUITES))
        raise KeyError(f"unknown suite {suite!r}; known: {known}")
    return list(_SUITES[suite])


def select_workloads(
    suites: Sequence[str], workloads: Optional[Sequence[str]] = None
) -> List[str]:
    """Abbreviations of *suites* in registration order, restricted to
    *workloads* (case-insensitive) when given.

    The one selection rule: the engine runs exactly this list, and the
    service keys a job on it.  Raises KeyError for an unknown suite.
    """
    selected = [abbr for suite in suites for abbr in list_workloads(suite)]
    if workloads is not None:
        wanted = {w.upper() for w in workloads}
        selected = [abbr for abbr in selected if abbr in wanted]
    return selected


def checked_selection(
    suites: Sequence[str], workloads: Optional[Sequence[str]] = None
) -> List[str]:
    """:func:`select_workloads`, or a ValueError for a request it would
    quietly shrink: an unknown suite, a workload in none of *suites*, or
    an empty selection.  The CLI and the service validate with this."""
    try:
        known = select_workloads(suites)
    except KeyError as exc:
        raise ValueError(f"suites: {exc.args[0]}") from None
    if workloads is not None:
        bad = sorted({w.upper() for w in workloads} - set(known))
        if bad:
            raise ValueError(f"workloads: {bad} not in suites {list(suites)}")
    selected = select_workloads(suites, workloads)
    if not selected:
        raise ValueError("workloads: selection is empty")
    return selected


def cactus_workloads(scale: float = 1.0, seed: int = 0) -> List[Workload]:
    """The ten Cactus workloads (Table I), in paper order."""
    _ensure_loaded()
    order = ["GMS", "LMR", "LMC", "GST", "GRU", "DCG", "NST", "RFL", "SPT", "LGT"]
    return [get_workload(abbr, scale=scale, seed=seed) for abbr in order]

