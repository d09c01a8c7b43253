"""The paper's characterization toolkit (Section V).

* :mod:`~repro.analysis.distribution` — GPU-time distribution and
  dominant-kernel statistics (Figs. 2-3, Table I).
* :mod:`~repro.analysis.roofline` — the instruction roofline model
  (Figs. 4-7).
* :mod:`~repro.analysis.correlation` — Pearson-correlation analysis
  between primary and profiler metrics (Fig. 8).
* :mod:`~repro.analysis.famd` — Factor Analysis of Mixed Data, from
  scratch (the denoising step before clustering).
* :mod:`~repro.analysis.clustering` — Ward agglomerative clustering and
  dendrogram rendering (Fig. 9).
* :mod:`~repro.analysis.survey` — the benchmark-popularity survey data
  (Fig. 1).
* :mod:`~repro.analysis.sweep` — cross-device differentials (roofline
  elbows, classification flips, dominant-kernel shifts) over a device
  sweep.
* :mod:`~repro.analysis.similarity` — kernel-similarity index
  (exact-scan nearest / k-NN / representative-subset queries over
  standardized feature vectors).
"""

from repro.analysis.clustering import (
    ClusteringResult,
    cut_tree,
    render_dendrogram,
    ward_clustering,
)
from repro.analysis.correlation import (
    CorrelationBand,
    correlation_matrix,
    pearson,
)
from repro.analysis.distribution import (
    cumulative_time_curve,
    dominance_histogram,
    table1_row,
)
from repro.analysis.famd import FAMDResult, famd
from repro.analysis.roofline import (
    RooflinePoint,
    application_roofline,
    classify_intensity,
    classify_latency,
    kernel_roofline,
)
from repro.analysis.subsetting import (
    RedundancyRow,
    SubsetResult,
    coverage,
    redundancy_report,
    representatives_for_coverage,
    select_representatives,
)
from repro.analysis.similarity import (
    METRIC_FEATURES,
    STRUCTURAL_FEATURES,
    KernelIndex,
    Neighbor,
    kernel_features,
    metric_features,
)
from repro.analysis.survey import SURVEY_COUNTS, survey_table
from repro.analysis.sweep import (
    DeviceElbowRow,
    SweepAnalysis,
    WorkloadClassRow,
    analyze_sweep,
    elbow_table,
    render_sweep_markdown,
)

__all__ = [
    "ClusteringResult",
    "cut_tree",
    "render_dendrogram",
    "ward_clustering",
    "CorrelationBand",
    "correlation_matrix",
    "pearson",
    "cumulative_time_curve",
    "dominance_histogram",
    "table1_row",
    "FAMDResult",
    "famd",
    "RooflinePoint",
    "application_roofline",
    "classify_intensity",
    "classify_latency",
    "kernel_roofline",
    "RedundancyRow",
    "SubsetResult",
    "coverage",
    "redundancy_report",
    "representatives_for_coverage",
    "select_representatives",
    "METRIC_FEATURES",
    "STRUCTURAL_FEATURES",
    "KernelIndex",
    "Neighbor",
    "kernel_features",
    "metric_features",
    "SURVEY_COUNTS",
    "survey_table",
    "DeviceElbowRow",
    "SweepAnalysis",
    "WorkloadClassRow",
    "analyze_sweep",
    "elbow_table",
    "render_sweep_markdown",
]
