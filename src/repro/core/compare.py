"""Cactus-vs-PRT comparison: the paper's Observations 1-12.

``check_observations`` evaluates every qualitative claim of Section V
against a pair of suite runs and reports which hold, with evidence —
the reproduction's "did we get the same shape?" scoreboard (used by
EXPERIMENTS.md and the integration tests).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.clustering import cut_tree, ward_clustering
from repro.analysis.correlation import correlation_matrix
from repro.analysis.famd import famd
from repro.core.suite import SuiteResult
from repro.gpu.device import RTX_3080
from repro.gpu.metrics import PRIMARY_METRICS, SECONDARY_METRICS


@dataclass
class Observation:
    """One checked claim."""

    number: int
    claim: str
    passed: bool
    evidence: str


@dataclass
class ObservationReport:
    """All twelve observations."""

    observations: List[Observation]

    @property
    def passed(self) -> int:
        return sum(1 for o in self.observations if o.passed)

    @property
    def total(self) -> int:
        return len(self.observations)

    def render(self) -> str:
        lines = [f"Observations: {self.passed}/{self.total} hold"]
        for o in self.observations:
            status = "PASS" if o.passed else "FAIL"
            lines.append(f"  [{status}] #{o.number} {o.claim}")
            lines.append(f"         {o.evidence}")
        return "\n".join(lines)


def _dominant_kernel_features(
    result: SuiteResult, suites: List[str]
) -> Tuple[Dict[str, List[float]], Dict[str, List[str]], List[str], List[str]]:
    """FAMD inputs over the dominant kernels of the given suites."""
    quantitative: Dict[str, List[float]] = {
        m: [] for m in set(PRIMARY_METRICS) | set(SECONDARY_METRICS)
    }
    qualitative: Dict[str, List[str]] = {"intensity": [], "latency": []}
    labels: List[str] = []
    owners: List[str] = []
    for suite in suites:
        for characterization in result.suite(suite):
            for point, kernel in zip(
                characterization.dominant_points,
                characterization.profile.dominant_kernels,
            ):
                labels.append(f"{characterization.abbr}:{kernel.name}")
                owners.append(characterization.abbr)
                for metric in quantitative:
                    if metric == "gips":
                        quantitative[metric].append(kernel.gips)
                    elif metric == "instruction_intensity":
                        quantitative[metric].append(
                            kernel.instruction_intensity
                        )
                    else:
                        quantitative[metric].append(
                            kernel.metrics.metric(metric)
                        )
                qualitative["intensity"].append(point.intensity_class)
                qualitative["latency"].append(point.latency_class)
    return quantitative, qualitative, labels, owners


def cluster_dominant_kernels(
    cactus: SuiteResult, prt: SuiteResult, n_clusters: int = 6
):
    """FAMD + Ward over all dominant kernels; returns
    (labels, owners, assignment, suite-of-owner map)."""
    q1, c1, l1, o1 = _dominant_kernel_features(cactus, ["Cactus"])
    q2, c2, l2, o2 = _dominant_kernel_features(
        prt, ["Parboil", "Rodinia", "Tango"]
    )
    quantitative = {k: q1[k] + q2[k] for k in q1}
    qualitative = {k: c1[k] + c2[k] for k in c1}
    labels = l1 + l2
    owners = o1 + o2
    suite_of = {abbr: "Cactus" for abbr in o1}
    suite_of.update({abbr: "PRT" for abbr in o2})

    factors = famd(quantitative, qualitative)
    # Keep the few most significant factors (the denoising step the
    # paper describes); 80 % of variance keeps ~5 components here.
    k = max(2, factors.components_for_variance(0.80))
    tree = ward_clustering(factors.coordinates[:, :k], labels)
    assignment = cut_tree(tree, n_clusters)
    return labels, owners, assignment, suite_of, tree


def check_observations(
    cactus: SuiteResult, prt: SuiteResult
) -> ObservationReport:
    """Evaluate Observations 1-12 on the two suite runs."""
    elbow = RTX_3080.roofline_elbow
    observations: List[Observation] = []

    cactus_chars = cactus.suite("Cactus")
    prt_chars = [
        c
        for suite in ("Parboil", "Rodinia", "Tango")
        for c in prt.suite(suite)
    ]

    # --- Obs 1: real-life apps execute many more kernels -------------
    avg_cactus = sum(c.profile.num_kernels for c in cactus_chars) / len(
        cactus_chars
    )
    avg_prt = sum(c.profile.num_kernels for c in prt_chars) / len(prt_chars)
    observations.append(
        Observation(
            1,
            "Cactus workloads execute many more kernels than PRT",
            avg_cactus > 3 * avg_prt,
            f"avg kernels: Cactus {avg_cactus:.1f} vs PRT {avg_prt:.1f}",
        )
    )

    # --- Obs 2: totals rise to multiple tens --------------------------
    max_kernels = max(c.profile.num_kernels for c in cactus_chars)
    observations.append(
        Observation(
            2,
            "Total kernels rise to multiple tens for ML workloads",
            max_kernels >= 40,
            f"max distinct kernels in one workload: {max_kernels}",
        )
    )

    # --- Obs 3: input-dependent kernels -------------------------------
    lmr = {k.name for k in cactus["LMR"].profile.kernels}
    lmc = {k.name for k in cactus["LMC"].profile.kernels}
    gst = {k.name for k in cactus["GST"].profile.kernels}
    gru = {k.name for k in cactus["GRU"].profile.kernels}
    observations.append(
        Observation(
            3,
            "Different inputs trigger different kernels (LAMMPS, BFS)",
            bool(lmr ^ lmc) and bool(gst ^ gru),
            f"LAMMPS kernel-set difference: {len(lmr ^ lmc)}; "
            f"BFS: {len(gst ^ gru)}",
        )
    )

    # --- Obs 4: PRT unambiguous ----------------------------------------
    mixed_prt = [
        c.abbr
        for c in prt_chars
        if len({p.is_compute_intensive for p in c.kernel_points}) > 1
    ]
    observations.append(
        Observation(
            4,
            "PRT benchmarks are either memory- or compute-intensive, "
            "with at most two exceptions",
            len(mixed_prt) <= 2,
            f"mixed PRT workloads: {mixed_prt}",
        )
    )

    # --- Obs 5: Cactus primarily memory-intensive ----------------------
    memory_side = [c.abbr for c in cactus_chars if c.is_memory_intensive]
    observations.append(
        Observation(
            5,
            "Cactus applications are primarily memory-intensive",
            len(memory_side) >= 7 and "GMS" not in memory_side,
            f"memory-side: {memory_side} (GMS compute-side as in Fig. 5)",
        )
    )

    # --- Obs 6: mixed kernels inside Cactus apps ------------------------
    mixed_cactus = [
        c.abbr
        for c in cactus_chars
        if len({p.is_compute_intensive for p in c.kernel_points}) > 1
    ]
    observations.append(
        Observation(
            6,
            "Cactus workloads mix memory- and compute-intensive kernels",
            len(mixed_cactus) >= 8,
            f"mixed Cactus workloads: {mixed_cactus}",
        )
    )

    # --- Obs 7: ML diversity --------------------------------------------
    ml = [c for c in cactus_chars if c.abbr in ("DCG", "NST", "RFL", "SPT", "LGT")]
    ml_kernel_counts = {c.abbr: c.profile.num_kernels for c in ml}
    observations.append(
        Observation(
            7,
            "ML applications feature many kernels with wide diversity",
            all(n >= 35 for n in ml_kernel_counts.values()),
            f"ML kernel counts: {ml_kernel_counts}",
        )
    )

    # --- Obs 8: ML dominant kernels near the memory roof ----------------
    near_roof = 0
    for c in ml:
        for p in c.dominant_points:
            if not p.is_compute_intensive and p.distance_to_roof() > 0.6:
                near_roof += 1
    observations.append(
        Observation(
            8,
            "ML dominant kernels include memory-bandwidth-bound ones",
            near_roof >= 3,
            f"dominant ML kernels within 60% of the memory roof: {near_roof}",
        )
    )

    # --- Obs 9: richer correlations in Cactus ---------------------------
    cactus_matrix = correlation_matrix(cactus.profiles("Cactus"))
    prt_profiles = [c.profile for c in prt_chars]
    prt_matrix = correlation_matrix(prt_profiles)
    cactus_links = sum(
        len(cactus_matrix.correlated_columns(r)) for r in PRIMARY_METRICS
    )
    prt_links = sum(
        len(prt_matrix.correlated_columns(r)) for r in PRIMARY_METRICS
    )
    observations.append(
        Observation(
            9,
            "Cactus correlates with more metrics than PRT",
            cactus_links > prt_links,
            f"|PCC|>=0.2 cells: Cactus {cactus_links} vs PRT {prt_links}",
        )
    )

    # --- Obs 10-12: clustering ------------------------------------------
    labels, owners, assignment, suite_of, _ = cluster_dominant_kernels(
        cactus, prt
    )
    clusters_of: Dict[str, set] = {}
    for owner, cluster in zip(owners, assignment):
        clusters_of.setdefault(owner, set()).add(cluster)

    prt_abbrs = {c.abbr for c in prt_chars}
    prt_spread = max(
        (len(clusters_of[a]) for a in prt_abbrs if a in clusters_of),
        default=0,
    )
    observations.append(
        Observation(
            10,
            "PRT kernels stay within at most two clusters per benchmark",
            prt_spread <= 2,
            f"max clusters per PRT benchmark: {prt_spread}",
        )
    )

    cactus_spread = {
        a: len(clusters_of.get(a, set()))
        for a in ("GMS", "LMC", "NST", "RFL", "SPT", "LGT")
    }
    multi = sum(1 for v in cactus_spread.values() if v >= 2)
    wide = sum(1 for v in cactus_spread.values() if v >= 3)
    observations.append(
        Observation(
            11,
            "Kernels of the same Cactus application land in different "
            "clusters",
            multi >= 5 and wide >= 2,
            f"clusters per Cactus workload: {cactus_spread}",
        )
    )

    per_cluster = Counter()
    cactus_per_cluster = Counter()
    for owner, cluster in zip(owners, assignment):
        per_cluster[cluster] += 1
        if suite_of[owner] == "Cactus":
            cactus_per_cluster[cluster] += 1
    dominated = [
        cluster
        for cluster in per_cluster
        if cactus_per_cluster[cluster] / per_cluster[cluster] > 0.6
    ]
    cactus_presence = sum(1 for c in per_cluster if cactus_per_cluster[c] > 0)
    observations.append(
        Observation(
            12,
            "Cactus covers a larger part of the workload space",
            len(dominated) >= 2 and cactus_presence >= len(per_cluster) - 1,
            f"Cactus-dominated clusters: {sorted(dominated)}; Cactus "
            f"present in {cactus_presence}/{len(per_cluster)} clusters",
        )
    )

    return ObservationReport(observations=observations)
