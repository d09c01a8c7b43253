"""Graph-analytics workload substrate.

A real CSR breadth-first search with Gunrock's frontier-centric phase
structure (advance / filter / compact), running on synthetic graphs that
reproduce the two input classes of the paper: a scale-free social
network (SOC-Twitter10) and a near-planar road network (Road-USA).
Per-level kernel launches are sized by the *actual* frontier the search
produces, which is what makes the two inputs behave so differently
(Observation #3: one fat-frontier kernel dominates the social graph;
thousands of tiny launches dominate the road graph).
"""

from repro.workloads.graphs.bfs import GunrockBFS, RoadBFS, SocialBFS
from repro.workloads.graphs.csr import CSRGraph
from repro.workloads.graphs.generator import road_network, social_network
from repro.workloads.graphs.sampling import CdfSampler

__all__ = [
    "CSRGraph",
    "CdfSampler",
    "GunrockBFS",
    "RoadBFS",
    "SocialBFS",
    "road_network",
    "social_network",
]
