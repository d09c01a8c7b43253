"""Per-layer timing read from outside the program.

The benchmark installs timing wrappers on public functions of each
layer of ``repro``, runs one iteration, and removes them again.  No
span lives inside the program: every number here comes from the calls
*into* a layer, the way DeepProf reads GPU cost from execution traces
(arXiv:1707.03750).

A wrapper replaces its target wherever callers look it up: on the
defining class for methods, and in every ``repro`` module that bound a
module-level function by name (``from x import f``).  A span records
calls, total time and self time (total minus the time of wrapped calls
nested inside it).

A target that no longer exists is reported as missing; its metrics read
0.  Later refactors may delete functions, and that must not crash the
benchmark.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Cactus workload abbreviations, in paper order.  Their streams are
#: timed one by one; every other workload's stream lands in ``.prt``.
CACTUS = ("GMS", "LMR", "LMC", "GST", "GRU", "DCG", "NST", "RFL", "SPT", "LGT")


def _stream_label(trace: "LayerTrace", args: tuple) -> Optional[str]:
    abbr = getattr(args[1], "abbr", "")
    return "stream." + (abbr if abbr in CACTUS else "prt")


def _result_cache_label(op: str) -> Callable[["LayerTrace", tuple], Optional[str]]:
    """``cache.<op>``, unless the call is a StreamCache's own backend I/O."""

    def label(trace: "LayerTrace", args: tuple) -> Optional[str]:
        if trace.innermost().startswith("streamcache."):
            return None
        return "cache." + op

    return label


def _count_stream(counts: collections.Counter, args: tuple, result: Any) -> None:
    counts["launches"] += len(result)


def _count_run_stream(counts: collections.Counter, args: tuple, result: Any) -> None:
    counts["sim_launches"] += len(result)
    counts["distinct_kernels"] += len({id(m) for m in result})


def _count_simulate_devices(
    counts: collections.Counter, args: tuple, result: Any
) -> None:
    if result:
        counts["sim_launches"] += len(result[0])
        counts["distinct_kernels"] += len({id(m) for m in result[0]})


def _count_hits(name: str) -> Callable[[collections.Counter, tuple, Any], None]:
    """A hit is a ``get()`` that returns a payload."""

    def observe(counts: collections.Counter, args: tuple, result: Any) -> None:
        counts[name] += result is not None

    return observe


#: (span, module, qualified name, label, observer).  ``label`` picks the
#: span name per call (None: pass the call through untimed); ``observer``
#: counts work from the call's arguments and result.
SPANS: Tuple[Tuple[str, str, str, Any, Any], ...] = (
    ("stream", "repro.profiler.profiler", "Profiler.prepare_stream",
     _stream_label, _count_stream),
    ("md_neighbor", "repro.workloads.molecular.neighbor", "CellList.build",
     None, None),
    ("md_step", "repro.workloads.molecular.gromacs",
     "GromacsNPT.launch_stream", None, None),
    ("md_step", "repro.workloads.molecular.lammps",
     "LammpsRhodopsin.launch_stream", None, None),
    ("md_step", "repro.workloads.molecular.lammps",
     "LammpsColloid.launch_stream", None, None),
    ("graph_generate", "repro.workloads.graphs.generator", "social_network",
     None, None),
    ("graph_generate", "repro.workloads.graphs.generator", "road_network",
     None, None),
    ("csr_build", "repro.workloads.graphs.csr", "CSRGraph.from_edges",
     None, None),
    ("bfs_levels", "repro.workloads.graphs.bfs", "GunrockBFS.launch_stream",
     None, None),
    ("ml_emit", "repro.workloads.ml.training",
     "MLTrainingWorkload.launch_stream", None, None),
    ("steady_state", "repro.profiler.steady_state", "select_steady_state",
     None, None),
    ("aggregate", "repro.profiler.profiler", "Profiler.profile_metrics",
     None, None),
    ("run_stream", "repro.gpu.simulator", "GPUSimulator.run_stream",
     None, _count_run_stream),
    ("simulate_devices", "repro.gpu.batched", "simulate_devices",
     None, _count_simulate_devices),
    ("characterize", "repro.core.characterize", "build_characterization",
     None, None),
    ("report", "repro.core.report", "generate_report", None, None),
    ("observations", "repro.core.compare", "check_observations", None, None),
    ("sweep", "repro.analysis.sweep", "analyze_sweep", None, None),
    ("sweep", "repro.analysis.sweep", "render_sweep_markdown", None, None),
    ("similarity_build", "repro.analysis.similarity", "KernelIndex.build",
     None, None),
    ("similarity_query", "repro.analysis.similarity", "KernelIndex.knn",
     None, None),
    ("cache.key", "repro.core.cache", "characterization_key", None, None),
    ("cache.get", "repro.core.cache", "ResultCache.get",
     _result_cache_label("get"), _count_hits("cache.hits")),
    ("cache.put", "repro.core.cache", "ResultCache.put",
     _result_cache_label("put"), None),
    ("streamcache.get", "repro.core.streamcache", "StreamCache.get",
     None, _count_hits("streamcache.hits")),
    ("streamcache.put", "repro.core.streamcache", "StreamCache.put",
     None, None),
    ("to_dict", "repro.core.serialize", "characterization_to_dict",
     None, None),
    ("from_dict", "repro.core.serialize", "characterization_from_dict",
     None, None),
    ("mark_done", "repro.core.journal", "SweepJournal.mark_done", None, None),
    ("engine", "repro.core.engine", "CharacterizationEngine.run_suite",
     None, None),
    ("engine", "repro.core.engine", "CharacterizationEngine.run_sweep",
     None, None),
)


def span_targets() -> List[str]:
    """``module:qualname`` of every declared span target."""
    return [f"{module}:{qualname}" for _, module, qualname, _, _ in SPANS]


class LayerTrace:
    """Span recorder: install wrappers, run, remove them, read metrics."""

    def __init__(self) -> None:
        #: span -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = collections.defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        self.counts: collections.Counter = collections.Counter()
        #: ``module:qualname`` targets whose wrapper ran at least once.
        self.fired: set = set()
        #: Declared targets that do not exist in this version of repro.
        self.missing: List[str] = []
        self._stack: List[List[Any]] = []  # [span, child seconds]
        self._undo: List[Tuple[Any, str, Any]] = []

    def innermost(self) -> str:
        return self._stack[-1][0] if self._stack else ""

    # -- wrappers ------------------------------------------------------
    def _wrap(self, name, target, fn, label, observe):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace.fired.add(target)
            span = label(trace, args) if label is not None else name
            if span is None:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            trace._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                trace._stack.pop()
                if trace._stack:
                    trace._stack[-1][1] += elapsed
                stat = trace.spans[span]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
            if observe is not None:
                observe(trace.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for name, module_name, qualname, label, observe in SPANS:
            target = f"{module_name}:{qualname}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(target)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(target)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(name, target, raw.__func__, label, observe)
                )
            else:
                wrapped = self._wrap(name, target, raw, label, observe)
            if owner_name:
                self._patch(owner, attr, wrapped)
                continue
            # Module-level function: patch every by-name binding of it.
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, wrapped) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- metrics -------------------------------------------------------
    def calls(self, span: str) -> float:
        return self.spans[span][0] if span in self.spans else 0

    def total(self, span: str) -> float:
        return self.spans[span][1] if span in self.spans else 0.0

    def self_time(self, span: str) -> float:
        return self.spans[span][2] if span in self.spans else 0.0

    def metrics(self, bytes_written: int, overhead_frac: float) -> Dict[str, float]:
        """Every per-layer metric of BENCHMARK.json, by name."""
        streams = {s: v for s, v in self.spans.items() if s.startswith("stream.")}
        gpu_self = self.self_time("run_stream") + self.self_time("simulate_devices")
        counts = self.counts
        gets = self.calls("cache.get")
        stream_gets = self.calls("streamcache.get")
        out: Dict[str, float] = {
            "workloads.stream_s": sum(v[1] for v in streams.values()),
        }
        for abbr in CACTUS + ("prt",):
            out[f"workloads.stream_s.{abbr}"] = self.total(f"stream.{abbr}")
        out.update({
            "workloads.md_neighbor_s": self.self_time("md_neighbor"),
            "workloads.md_step_s": self.self_time("md_step"),
            "workloads.graph_generate_s": self.self_time("graph_generate"),
            "workloads.csr_build_s": self.self_time("csr_build"),
            "workloads.bfs_levels_s": self.self_time("bfs_levels"),
            "workloads.ml_emit_s": self.self_time("ml_emit"),
            "workloads.launches": counts["launches"],
            "profiler.steady_state_s": self.self_time("steady_state"),
            "profiler.aggregate_s": self.self_time("aggregate"),
            "gpu.run_stream_s": self.self_time("run_stream"),
            "gpu.simulate_devices_s": self.self_time("simulate_devices"),
            "gpu.distinct_kernels": counts["distinct_kernels"],
            "gpu.launches_per_s": (
                counts["sim_launches"] / gpu_self if gpu_self > 0 else 0.0
            ),
            "analysis.characterize_s": self.self_time("characterize"),
            "analysis.report_s": self.self_time("report"),
            "analysis.observations_s": self.self_time("observations"),
            "analysis.sweep_s": self.self_time("sweep"),
            "analysis.similarity_build_s": self.self_time("similarity_build"),
            "analysis.similarity_query_s": self.self_time("similarity_query"),
            "cache.key_s": self.self_time("cache.key"),
            "cache.get_s": self.self_time("cache.get"),
            "cache.put_s": self.self_time("cache.put"),
            "cache.gets": gets,
            "cache.puts": self.calls("cache.put"),
            "cache.hit_frac": counts["cache.hits"] / gets if gets else 0.0,
            "cache.bytes_written": bytes_written,
            "streamcache.get_s": self.self_time("streamcache.get"),
            "streamcache.put_s": self.self_time("streamcache.put"),
            "streamcache.hit_frac": (
                counts["streamcache.hits"] / stream_gets if stream_gets else 0.0
            ),
            "serialize.to_dict_s": self.self_time("to_dict"),
            "serialize.from_dict_s": self.self_time("from_dict"),
            "journal.mark_done_s": self.self_time("mark_done"),
            "engine.self_s": self.self_time("engine"),
            "trace.overhead_frac": overhead_frac,
        })
        return out
