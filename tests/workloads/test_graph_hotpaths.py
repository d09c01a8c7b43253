"""Differential tests for the vectorized graph hot paths.

The BFS driver, graph generators and CSR builder were rewritten for
speed under a strict contract: the launch streams — and therefore every
``launch_stream_digest``, cache key and downstream figure — must be
**bit-for-bit identical** to the original implementations.  These tests
enforce the contract three ways:

1. component differentials against faithful reimplementations of the
   original (argsort ``from_edges``, double-``repeat`` ``expand``,
   ``rng.choice`` endpoint draws) on adversarial random inputs;
2. an end-to-end differential: a legacy BFS driver built from the legacy
   components, compared by stream digest against the production path
   over ``(scale, seed, source)``;
3. pinned digests: every Cactus workload's stream digest at the laptop
   preset against the checked-in fixture captured from the
   pre-vectorization code.

The endpoint sampler's compiled lookup is held to its numpy bisection
and to ``cdf.searchsorted`` on adversarial uniforms, on both the native
and the ``REPRO_NO_CELLKERNEL`` paths, and the compiled CSR counting
sort to its numpy phases, byte for byte.  The two-pass streamed social
build is held to the legacy generator on both paths, down to graphs of
a few vertices; the direct-write road build to the frozen previous
generator.  Both builds and the BFS over the social graph are held to
memory bounds, and the int32 vertex-id format to range checks made
before any narrowing.
"""

from __future__ import annotations

import json
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gpu.digest import launch_stream_digest
from repro.gpu.kernel import LaunchStream
from repro.profiler.profiler import Profiler
from repro.workloads.graphs import frontier as ops
from repro.workloads.graphs.bfs import (
    TRACTABLE_VERTICES,
    GunrockBFS,
    RoadBFS,
    SocialBFS,
)
from repro.workloads.graphs import csr
from repro.workloads.graphs.csr import CSRGraph
from repro.workloads.graphs.generator import road_network, social_network
from repro.workloads import native
from repro.workloads.graphs.sampling import SAMPLE_CHUNK, CdfSampler
from repro.workloads.registry import get_workload

_HAS_COMPILER = any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))
needs_compiler = pytest.mark.skipif(
    not _HAS_COMPILER, reason="no C compiler (cc, gcc or clang) on PATH"
)


DIGEST_FIXTURE = (
    Path(__file__).parent.parent / "golden" / "fixtures" / "stream_digests.json"
)


# ---------------------------------------------------------------------------
# Legacy reference implementations (the pre-vectorization code, verbatim
# modulo variable names).  These define what "unchanged behaviour" means.
# ---------------------------------------------------------------------------

def legacy_from_edges(num_vertices, src, dst):
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.argsort(src, kind="stable")
    dst_sorted = dst[order]
    counts = np.bincount(src[order], minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst_sorted


def legacy_expand(graph, frontier):
    starts = graph.indptr[frontier]
    ends = graph.indptr[frontier + 1]
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(starts, lengths)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    return graph.indices[offsets + within]


def legacy_social_network(num_vertices, avg_degree=12.6,
                          power_law_exponent=2.1, seed=0):
    rng = np.random.default_rng(seed)
    num_edges = int(num_vertices * avg_degree)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (power_law_exponent - 1.0))
    weights = np.minimum(weights, weights.sum() * 0.02 / avg_degree)
    probabilities = weights / weights.sum()
    src = rng.choice(num_vertices, size=num_edges, p=probabilities)
    dst = rng.choice(num_vertices, size=num_edges, p=probabilities)
    keep = src != dst
    indptr, indices = legacy_from_edges(num_vertices, src[keep], dst[keep])
    return CSRGraph(indptr, indices)


def legacy_road_network(num_vertices, edge_keep_probability=0.2, seed=0):
    """The road generator before its endpoints were written in place:
    lattice pieces concatenated, then both directions."""
    rng = np.random.default_rng(seed)
    side = int(np.sqrt(num_vertices))
    n = side * side
    vertices = np.arange(n, dtype=np.int32)
    row, col = np.divmod(vertices, side)
    horizontal = vertices[col < side - 1]
    first_in_row = vertices[: n - side : side]
    candidates = vertices[(row < side - 1) & (col > 0)]
    kept = candidates[rng.random(len(candidates)) < edge_keep_probability]
    src = np.concatenate([horizontal, first_in_row, kept])
    dst = np.concatenate([horizontal + 1, first_in_row + side, kept + side])
    indptr, indices = legacy_from_edges(
        n, np.concatenate([src, dst]), np.concatenate([dst, src])
    )
    return CSRGraph(indptr, indices)


def legacy_launch_stream(workload, graph):
    """The original per-level scan BFS driver, on a prebuilt graph."""
    n = graph.num_vertices
    visited = np.zeros(n, dtype=bool)
    source = int(workload.source) % n
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)

    stream = LaunchStream()
    stream.launch(ops.init_distances_kernel(n), phase="init")

    total_edges = max(1, graph.num_edges)
    explored_edges = 0
    level = 0
    while frontier.size > 0:
        level += 1
        edges = graph.frontier_edges(frontier)
        unvisited = int(n - visited.sum())
        unexplored_edges = max(1, total_edges - explored_edges)
        explored_edges += edges
        use_pull = (
            workload.direction_optimizing
            and edges > unexplored_edges / workload.beamer_alpha
            and frontier.size > n / workload.beamer_beta
        )
        degrees = graph.indptr[frontier + 1] - graph.indptr[frontier]
        avg_deg = max(1.0, float(degrees.mean()))
        sqrt_n = float(np.sqrt(n))
        use_lb = frontier.size > 32 and (
            float(degrees.max()) > workload.lb_skew * avg_deg
            or frontier.size > workload.lb_size_sqrt * sqrt_n
        )

        unvisited_vertices = np.flatnonzero(~visited)

        raw_neighbors = legacy_expand(graph, frontier)
        raw_out = raw_neighbors.size
        candidates = np.unique(raw_neighbors)
        new_mask = ~visited[candidates]
        next_frontier = candidates[new_mask]
        visited[next_frontier] = True

        phase = f"level{level}"
        if use_pull:
            scanned = int(graph.frontier_edges(unvisited_vertices) * 0.6)
            stream.launch(ops.bitmap_convert_kernel(n), phase=phase)
            stream.launch(
                ops.advance_pull_kernel(unvisited, scanned), phase=phase
            )
        else:
            if use_lb:
                stream.launch(
                    ops.output_offsets_kernel(frontier.size), phase=phase
                )
                stream.launch(
                    ops.advance_lb_kernel(frontier.size, edges), phase=phase
                )
            else:
                stream.launch(
                    ops.advance_twc_kernel(frontier.size, edges), phase=phase
                )
            stream.launch(ops.filter_cull_kernel(raw_out), phase=phase)
            duplication = raw_out / max(1, next_frontier.size)
            if (
                duplication > workload.uniquify_duplication
                and raw_out > 0.001 * total_edges
            ):
                stream.launch(ops.uniquify_kernel(raw_out), phase=phase)
            if raw_out > workload.compact_sqrt * sqrt_n:
                stream.launch(ops.compact_scan_kernel(raw_out), phase=phase)
                stream.launch(ops.compact_scatter_kernel(raw_out), phase=phase)

        if next_frontier.size > workload.bitmask_threshold * n:
            stream.launch(
                ops.bitmask_update_kernel(next_frontier.size), phase=phase
            )
        stream.launch(
            ops.length_reduce_kernel(max(1, next_frontier.size)), phase=phase
        )
        frontier = next_frontier
    return stream


# ---------------------------------------------------------------------------
# Component differentials
# ---------------------------------------------------------------------------

@given(
    n=st.integers(2, 5000),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 20000),
)
@settings(max_examples=25, deadline=None)
def test_cdf_sampler_replays_rng_choice_exactly(n, seed, size):
    """CdfSampler consumes the same uniforms and returns the same draws."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = np.minimum(ranks**-0.9, ranks.sum() * 0.002)
    p = weights / weights.sum()
    expected = np.random.default_rng(seed).choice(n, size=size, p=p)
    actual = CdfSampler(p).sample(np.random.default_rng(seed), size)
    np.testing.assert_array_equal(actual, expected)


@given(weights=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=200),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_cdf_sampler_replays_arbitrary_weights(weights, seed):
    p = np.asarray(weights) / np.sum(weights)
    n = p.size
    expected = np.random.default_rng(seed).choice(n, size=500, p=p)
    actual = CdfSampler(p).sample(np.random.default_rng(seed), 500)
    np.testing.assert_array_equal(actual, expected)


@given(
    num_vertices=st.integers(1, 300),
    num_edges=st.integers(0, 2000),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_from_edges_matches_legacy_argsort_build(num_vertices, num_edges, seed):
    """Counting-sort CSR build: same indptr, same (stable) indices order,
    duplicates preserved."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges)
    dst = rng.integers(0, num_vertices, size=num_edges)
    graph = CSRGraph.from_edges(num_vertices, src, dst)
    indptr, indices = legacy_from_edges(num_vertices, src, dst)
    np.testing.assert_array_equal(graph.indptr, indptr)
    np.testing.assert_array_equal(graph.indices, indices)


def test_from_edges_rejects_out_of_range_endpoints():
    with pytest.raises(ValueError):
        CSRGraph.from_edges(3, np.array([0, 3]), np.array([1, 2]))
    with pytest.raises(ValueError):
        CSRGraph.from_edges(3, np.array([0, 1]), np.array([1, -1]))


@needs_compiler
@pytest.mark.parametrize(
    "src, dst", [([0, 3], [1, 2]), ([0, -1], [1, 2]), ([0, 1], [3, 2]),
                 ([0, 1], [1, -1])],
    ids=["src-high", "src-negative", "dst-high", "dst-negative"],
)
def test_compiled_sort_rejects_out_of_range_ids_itself(src, dst, monkeypatch):
    """The C count and scatter phases check every id they read against
    [0, V) on their own (status 1), and from_edges turns that status
    into ValueError."""
    lib = native.load_kernel()
    assert lib is not None
    src = np.array(src, dtype=np.int32)
    dst = np.array(dst, dtype=np.int32)
    indptr = np.zeros(4, dtype=np.int64)
    indices = np.empty(2, dtype=np.int32)
    if src.min() < 0 or src.max() >= 3:
        assert lib.csr_count(3, src, 2, indptr) == 1
    indptr[:] = [0, 1, 1, 2]
    assert lib.csr_scatter(3, src, dst, 2, indptr, indices, 2) == 1
    # With the Python range check bypassed, the C check alone rejects.
    monkeypatch.setattr(
        csr, "_vertex_ids", lambda ids, n, what: ids.astype(np.int32)
    )
    with pytest.raises(ValueError, match="out-of-range"):
        CSRGraph.from_edges(3, src, dst)


# 2**32 + 1 wraps to the valid id 1 under a bare int32 cast, and
# 2**31 + 2 to a negative one; both must be caught in the input dtype.
_WRAPPING_IDS = [2**32 + 1, 2**32, 2**31 + 2]


@pytest.mark.parametrize("bad", _WRAPPING_IDS)
@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_from_edges_checks_range_before_narrowing(bad, dtype):
    ok = np.array([0, 2], dtype=dtype)
    wide = np.array([0, bad], dtype=dtype)
    with pytest.raises(ValueError, match="out-of-range"):
        CSRGraph.from_edges(3, wide, ok)
    with pytest.raises(ValueError, match="out-of-range"):
        CSRGraph.from_edges(3, ok, wide)


@pytest.mark.parametrize("bad", _WRAPPING_IDS)
def test_constructor_checks_range_before_narrowing(bad):
    with pytest.raises(ValueError, match="out-of-range"):
        CSRGraph(np.array([0, 1, 2]), np.array([1, bad], dtype=np.int64))


def test_vertex_count_must_fit_int32():
    with pytest.raises(ValueError, match="int32 ids"):
        CSRGraph.from_edges(2**31, np.array([0]), np.array([1]))
    # A zero-stride indptr of 2**31 + 1 entries: V = 2**31 with no
    # memory behind it, rejected before any O(V) check touches it.
    indptr = np.broadcast_to(np.int64(0), (2**31 + 1,))
    with pytest.raises(ValueError, match="int32 ids"):
        CSRGraph(indptr, np.empty(0, dtype=np.int32))


def test_sampler_outcomes_must_fit_int32():
    weights = np.broadcast_to(np.float64(1.0), (2**31,))
    with pytest.raises(ValueError, match="int32 indices"):
        CdfSampler(weights)


@needs_compiler
@given(
    num_vertices=st.integers(1, 300),
    num_edges=st.integers(0, 2000),
    empty_rows=st.integers(0, 150),
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.int32, np.int64]),
)
@settings(max_examples=50, deadline=None)
def test_compiled_and_argsort_builds_are_byte_identical(
    num_vertices, num_edges, empty_rows, seed, dtype
):
    """The compiled counting sort and the argsort fallback agree on
    values and dtypes, with duplicate edges and vertices without
    out-edges."""
    assert native.load_kernel() is not None
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, num_vertices, size=num_edges, dtype=dtype)
    # Vertices below empty_rows get no out-edges.
    sources = sources[sources >= min(empty_rows, num_vertices - 1)]
    dst = rng.integers(0, num_vertices, size=sources.size, dtype=dtype)
    compiled_graph = CSRGraph.from_edges(num_vertices, sources, dst)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csr.native, "load_kernel", lambda: None)
        numpy_graph = CSRGraph.from_edges(num_vertices, sources, dst)
    for graph in (compiled_graph, numpy_graph):
        assert graph.indptr.dtype == np.int64
        assert graph.indices.dtype == np.int32
    assert compiled_graph.indptr.tobytes() == numpy_graph.indptr.tobytes()
    assert compiled_graph.indices.tobytes() == numpy_graph.indices.tobytes()


@given(
    num_vertices=st.integers(1, 200),
    num_edges=st.integers(0, 1500),
    frontier_size=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_expand_matches_legacy_repeat_gather(
    num_vertices, num_edges, frontier_size, seed
):
    """The cumsum-trick expand returns the identical neighbour sequence —
    including through zero-degree frontier vertices."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges)
    dst = rng.integers(0, num_vertices, size=num_edges)
    graph = CSRGraph.from_edges(num_vertices, src, dst)
    frontier = np.unique(
        rng.integers(0, num_vertices, size=min(frontier_size, num_vertices))
    )
    np.testing.assert_array_equal(
        graph.expand(frontier), legacy_expand(graph, frontier)
    )


def test_expand_zero_degree_frontier_vertices():
    # Vertex 1 has no out-edges; the slice-jump scatter must not collide.
    graph = CSRGraph.from_edges(
        4, np.array([0, 0, 2, 3, 3]), np.array([1, 2, 3, 0, 1])
    )
    frontier = np.array([0, 1, 2, 3], dtype=np.int64)
    np.testing.assert_array_equal(
        graph.expand(frontier), legacy_expand(graph, frontier)
    )
    empty = graph.expand(np.array([1]))
    assert empty.size == 0 and empty.dtype == graph.indices.dtype == np.int32
    assert graph.expand(np.array([0, 2])).dtype == np.int32


@given(
    num_vertices=st.integers(1, 200),
    num_edges=st.integers(0, 1500),
    frontier_size=st.integers(1, 60),
    chunk=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_mark_neighbors_matches_expand(
    num_vertices, num_edges, frontier_size, chunk, seed
):
    """Windowed marking sets exactly the expanded neighbours, whatever
    the window size relative to the adjacency lists."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges)
    dst = rng.integers(0, num_vertices, size=num_edges)
    graph = CSRGraph.from_edges(num_vertices, src, dst)
    frontier = np.unique(
        rng.integers(0, num_vertices, size=min(frontier_size, num_vertices))
    )
    expected = np.zeros(num_vertices, dtype=bool)
    expected[graph.expand(frontier)] = True
    marked = np.zeros(num_vertices, dtype=bool)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csr, "MARK_CHUNK_EDGES", chunk)
        graph.mark_neighbors(frontier, marked)
    np.testing.assert_array_equal(marked, expected)


@given(n=st.integers(2000, 60000), seed=st.integers(0, 1000))
@settings(max_examples=8, deadline=None)
def test_social_network_matches_legacy_generator(n, seed):
    """Generator + CSR build end to end: identical graph arrays."""
    new = social_network(n, seed=seed)
    old = legacy_social_network(n, seed=seed)
    np.testing.assert_array_equal(new.indptr, old.indptr)
    np.testing.assert_array_equal(new.indices, old.indices)


@pytest.mark.parametrize("num_vertices", [2, 3, 5, 16, 64])
def test_tiny_social_networks_match_legacy_generator(lookup_path, num_vertices):
    """A few vertices: self-loops are common, and rows of only
    self-loops and vertices without out-edges occur.  Compiled and
    numpy phases alike give the legacy graph, byte for byte."""
    for seed in range(5):
        graph = social_network(num_vertices, seed=seed)
        legacy = legacy_social_network(num_vertices, seed=seed)
        assert legacy.num_edges < int(num_vertices * 12.6)  # loops dropped
        assert graph.indptr.tobytes() == legacy.indptr.tobytes()
        assert graph.indices.tobytes() == legacy.indices.tobytes()


def _chunked(array, chunk):
    return [array[start : start + chunk] for start in range(0, array.size, chunk)]


@given(
    num_vertices=st.integers(1, 200),
    num_edges=st.integers(0, 1500),
    loop_only_rows=st.integers(0, 60),
    empty_rows=st.integers(0, 60),
    chunk=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_streamed_build_matches_legacy_without_self_loops(
    lookup_path, num_vertices, num_edges, loop_only_rows, empty_rows, chunk, seed
):
    """The two-pass chunked build with self-loops dropped equals the
    argsort build of the other edges: about half the edges are loops,
    rows below loop_only_rows hold only loops, rows below empty_rows
    (taken first) none, at any chunking."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int32)
    src = src[src >= min(empty_rows, num_vertices - 1)]
    dst = rng.integers(0, num_vertices, size=src.size, dtype=np.int32)
    loops = (rng.random(src.size) < 0.5) | (src < loop_only_rows)
    dst[loops] = src[loops]
    graph = CSRGraph.from_edge_stream(
        num_vertices,
        iter(_chunked(src, chunk)),
        zip(_chunked(src, chunk), _chunked(dst, chunk)),
        drop_self_loops=True,
    )
    keep = src != dst
    indptr, indices = legacy_from_edges(num_vertices, src[keep], dst[keep])
    assert graph.indptr.dtype == np.int64 and graph.indices.dtype == np.int32
    np.testing.assert_array_equal(graph.indptr, indptr)
    np.testing.assert_array_equal(graph.indices, indices)


@pytest.mark.parametrize("bad", [-1, 3, 2**31 - 1])
def test_streamed_build_rejects_out_of_range_ids(lookup_path, bad):
    ok = np.array([0, 1, 2], dtype=np.int32)
    wrong = np.array([0, bad, 2], dtype=np.int32)
    with pytest.raises(ValueError, match="out-of-range"):
        CSRGraph.from_edge_stream(
            3, [wrong], [(wrong, ok)], drop_self_loops=True
        )
    with pytest.raises(ValueError, match="out-of-range"):
        CSRGraph.from_edge_stream(3, [ok], [(ok, wrong)], drop_self_loops=True)
    with pytest.raises(ValueError, match="out-of-range"):
        CSRGraph.from_edge_stream(
            3, [wrong.astype(np.int64)], [], drop_self_loops=True
        )


@pytest.mark.parametrize(
    "edges",
    [
        [([0, 0], [1, 2])],
        [([0, 0, 2], [1, 2, 0]), ([0], [1])],
        [([0, 2, 2], [1, 2, 0])],
    ],
    ids=["short", "long", "last-row-overfilled"],
)
def test_streamed_build_rejects_edges_that_do_not_replay(lookup_path, edges):
    """A replay of another length, or one that overfills the last row,
    is a ValueError before any write past the indices array."""
    src = np.array([0, 0, 2], dtype=np.int32)
    pairs = [
        (np.array(s, dtype=np.int32), np.array(d, dtype=np.int32))
        for s, d in edges
    ]
    with pytest.raises(ValueError, match="do not replay"):
        CSRGraph.from_edge_stream(3, [src], pairs, drop_self_loops=False)


# 4099 is not a square: the generator uses the 64 x 64 lattice.
@pytest.mark.parametrize("num_vertices", [4, 10, 4099, 40_000])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("keep", [0.2, 1.0])
def test_road_network_matches_legacy_generator(num_vertices, seed, keep):
    """Direct-write road build: the concatenating generator's graph,
    byte for byte."""
    graph = road_network(num_vertices, keep, seed=seed)
    legacy = legacy_road_network(num_vertices, keep, seed=seed)
    assert graph.indptr.dtype == np.int64 and graph.indices.dtype == np.int32
    assert graph.indptr.tobytes() == legacy.indptr.tobytes()
    assert graph.indices.tobytes() == legacy.indices.tobytes()


# ---------------------------------------------------------------------------
# End-to-end stream differentials over (scale, seed, source)
# ---------------------------------------------------------------------------

@given(
    workload_cls=st.sampled_from([SocialBFS, RoadBFS]),
    scale=st.sampled_from([0.0005, 0.001, 0.002]),
    seed=st.integers(0, 100),
    source=st.integers(0, 10**6),
)
@settings(max_examples=10, deadline=None)
def test_bfs_stream_digest_matches_legacy_driver(
    workload_cls, scale, seed, source
):
    """Scan-free BFS emits a bit-identical launch stream to the original
    per-level-scan driver running on the legacy-built graph."""
    workload = workload_cls(scale=scale, seed=seed, source=source)
    legacy_generator = (
        legacy_social_network if workload_cls is SocialBFS
        else legacy_road_network
    )
    graph = legacy_generator(workload._num_vertices(), seed=seed)
    legacy = legacy_launch_stream(workload, graph)
    current = workload.launch_stream()
    assert len(current) == len(legacy)
    assert launch_stream_digest(current) == launch_stream_digest(legacy)


@pytest.mark.parametrize("chunk", [2, 3, 7, 64])
def test_bfs_stream_digest_with_tiny_mark_windows(monkeypatch, chunk):
    """Dense levels marked a few edges at a time, so windows start and
    end before, on and after adjacency-list boundaries: the stream is
    still the legacy driver's."""
    workload = SocialBFS(scale=0.001, seed=3, source=11)
    graph = workload._build_graph()
    expected = launch_stream_digest(legacy_launch_stream(workload, graph))
    monkeypatch.setattr(csr, "MARK_CHUNK_EDGES", chunk)
    assert launch_stream_digest(workload.launch_stream()) == expected


def test_all_cactus_stream_digests_match_pinned_fixture():
    """Every Cactus workload, laptop preset: digest unchanged vs the
    fixture captured from the pre-vectorization implementation."""
    from repro.core.config import LAPTOP_SCALE

    pinned = json.loads(DIGEST_FIXTURE.read_text())["presets"]["laptop"]
    profiler = Profiler()
    for abbr, reference in sorted(pinned.items()):
        workload = get_workload(
            abbr, scale=LAPTOP_SCALE.for_workload(abbr), seed=0
        )
        stream = profiler.prepare_stream(workload)
        assert len(stream) == reference["launches"], abbr
        assert launch_stream_digest(stream) == reference["digest"], abbr


def test_samplers_reject_bad_probabilities():
    with pytest.raises(ValueError):
        CdfSampler(np.array([]))
    with pytest.raises(ValueError):
        CdfSampler(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        CdfSampler(np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# Compiled endpoint sampler: differentials against the numpy bisection
# ---------------------------------------------------------------------------

@pytest.fixture(params=["native", "numpy"])
def lookup_path(request, monkeypatch):
    """Run the test on the compiled lookup, then with the kernels disabled."""
    if request.param == "native":
        if not _HAS_COMPILER:
            pytest.skip("no C compiler (cc, gcc or clang) on PATH")
        monkeypatch.delenv(native.ENV_DISABLE, raising=False)
    else:
        monkeypatch.setenv(native.ENV_DISABLE, "1")
    native.reset_kernel_cache()
    assert (native.load_kernel() is not None) == (request.param == "native")
    yield request.param
    native.reset_kernel_cache()


def _adversarial_uniforms(sampler):
    """0, every bucket edge k/K and its neighbours, every cdf value and
    its neighbours, and the largest double below 1."""
    edges = np.arange(sampler._buckets + 1, dtype=np.float64) / sampler._buckets
    points = np.concatenate([edges, sampler.cdf, [0.0, 1.0 - 2.0**-53]])
    u = np.concatenate([
        points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)
    ])
    return u[(u >= 0.0) & (u < 1.0)]


def _assert_lookups_agree(sampler, u):
    assert sampler._guide.dtype == np.int32
    expected = sampler.cdf.searchsorted(u, side="right")
    oracle = sampler._lookup_numpy(u, np.empty(u.size, dtype=np.int32))
    np.testing.assert_array_equal(oracle, expected)
    np.testing.assert_array_equal(sampler.lookup(u), expected)


@needs_compiler
@given(
    weights=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-9, 1e6)), min_size=1, max_size=80
    ).filter(lambda w: sum(w) > 0),
    log2_buckets=st.one_of(st.none(), st.integers(1, 9)),
    extra=st.lists(
        st.floats(0.0, 1.0, exclude_max=True), min_size=0, max_size=50
    ),
)
@settings(max_examples=100, deadline=None)
def test_compiled_lookup_matches_numpy_and_searchsorted(
    weights, log2_buckets, extra
):
    """Compiled lookup == numpy bisection == searchsorted, including
    zero-probability entries (repeated cdf values), bucket edges and
    their nextafter neighbours, and 1 - 2**-53."""
    assert native.load_kernel() is not None
    buckets = None if log2_buckets is None else 1 << log2_buckets
    sampler = CdfSampler(np.asarray(weights), guide_buckets=buckets)
    u = np.concatenate([_adversarial_uniforms(sampler), extra])
    _assert_lookups_agree(sampler, u)


@needs_compiler
@pytest.mark.parametrize(
    "p", [[1.0], [0.3, 0.7], [0.0, 1.0], [1.0, 0.0], [0.5, 0.0, 0.0, 0.5]],
    ids=["n1", "n2", "n2-zero-first", "n2-zero-last", "zero-middle"],
)
def test_compiled_lookup_on_tiny_tables(p):
    assert native.load_kernel() is not None
    sampler = CdfSampler(np.asarray(p))
    _assert_lookups_agree(sampler, _adversarial_uniforms(sampler))


@pytest.mark.parametrize(
    "size",
    [SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 3 * SAMPLE_CHUNK + 7],
    ids=["chunk-1", "chunk", "chunk+1", "3chunk+7"],
)
def test_chunked_sample_replays_rng_choice(lookup_path, size):
    """Chunked draws concatenate to one rng.random(size) call, so the
    sample is rng.choice's, and both leave the generator in one state."""
    p = np.random.default_rng(5).random(3000) ** 4
    p[::7] = 0.0
    p /= p.sum()
    expected_rng = np.random.default_rng(9)
    expected = expected_rng.choice(p.size, size=size, p=p)
    actual_rng = np.random.default_rng(9)
    actual = CdfSampler(p).sample(actual_rng, size)
    assert actual.dtype == np.int32
    np.testing.assert_array_equal(actual, expected)
    assert actual_rng.random() == expected_rng.random()


@pytest.mark.parametrize(
    "bad", [np.nan, 1.0, -1e-300, -1.0, np.inf, -np.inf, 1.5],
    ids=["nan", "one", "tiny-negative", "negative", "inf", "-inf", "above"],
)
def test_lookup_rejects_uniforms_outside_unit_interval(lookup_path, bad):
    sampler = CdfSampler(np.arange(1.0, 40.0))
    u = np.random.default_rng(0).random(1000)
    sampler.lookup(u)
    u[-1] = bad
    with pytest.raises(ValueError, match=r"finite and in \[0, 1\)"):
        sampler.lookup(u)


def test_lookup_rejects_mismatched_output():
    sampler = CdfSampler(np.arange(1.0, 5.0))
    with pytest.raises(ValueError, match="out must have shape"):
        sampler.lookup(np.zeros(10), out=np.empty(9, dtype=np.int32))
    with pytest.raises(ValueError, match="C-contiguous int32"):
        sampler.lookup(np.zeros(10), out=np.empty(10, dtype=np.int64))
    with pytest.raises(ValueError, match="C-contiguous int32"):
        sampler.lookup(np.zeros(10), out=np.empty(20, dtype=np.int32)[::2])


_MEMORY_VERTICES = 100_000
_MEMORY_EDGES = int(_MEMORY_VERTICES * 12.6)


def _traced_peak(fn):
    """(result, peak traced bytes above the start) of calling *fn*."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base


def _warm_up_builds():
    """One small build of each graph: the first call's one-time imports
    and ctypes setup stay out of the traced windows."""
    assert native.load_kernel() is not None
    social_network(1000, seed=0)
    road_network(1000, seed=0)


# Python objects a traced build may hold beyond its arrays.
_TRACE_SLACK = 64 * 1024


@needs_compiler
def test_social_network_build_memory_is_bounded():
    """Peak traced memory of the 100 K-vertex two-pass build, in bytes:

    * ``4 E``: the int32 CSR indices of all E drawn edges (self-loops
      are dropped from them only at the end);
    * ``8 (V + 1)``: the int64 indptr, counted, then the scatter cursors;
    * ``8 V + 4 (K + 1)``: the sampler's float64 CDF and its int32 guide
      table of ``K = 2 ** ceil(log2(2 V))`` buckets;
    * ``28 SAMPLE_CHUNK``: pass 2's two chunk iterators (sources and
      destinations), each with a float64 uniform and an int32 id
      buffer, and pass 1's last int32 chunk, still referenced;
    * 64 KiB of Python objects.

    That is 0.95 × E × 8 bytes at V = 100 K.  Holding both endpoint
    arrays (1.66 × E × 8 traced by the one-pass build), keeping the
    sources alive through the scatter (+0.5), or an int64 guide,
    indices or scratch array breaks it.  The graph is the legacy
    generator's, byte for byte."""
    # The bound is the compiled build's (the numpy phases sort each
    # chunk and mark self-loops with full-size temporaries).
    _warm_up_builds()
    graph, peak = _traced_peak(
        lambda: social_network(_MEMORY_VERTICES, seed=0)
    )
    buckets = 1 << int(np.ceil(np.log2(2 * _MEMORY_VERTICES)))
    bound = (
        4 * _MEMORY_EDGES
        + 8 * (_MEMORY_VERTICES + 1)
        + 8 * _MEMORY_VERTICES
        + 4 * (buckets + 1)
        + 28 * SAMPLE_CHUNK
        + _TRACE_SLACK
    )
    assert peak <= bound
    legacy = legacy_social_network(_MEMORY_VERTICES, seed=0)
    assert graph.indptr.dtype == np.int64
    assert graph.indices.dtype == np.int32
    assert graph.indptr.tobytes() == legacy.indptr.tobytes()
    assert graph.indices.tobytes() == legacy.indices.tobytes()


@needs_compiler
def test_road_network_build_memory_is_bounded():
    """Peak traced memory of the 100 K-vertex road build: its two int32
    endpoint arrays and the int32 CSR indices, each of the graph's E
    directed edges, and the int64 indptr, ``12 E + 8 (V + 1)`` bytes,
    plus 64 KiB of Python objects.  The row/column arrays, lattice
    pieces and one-direction copies the concatenating build held on
    top (about 2 × this bound) break it."""
    _warm_up_builds()
    graph, peak = _traced_peak(
        lambda: road_network(_MEMORY_VERTICES, seed=0)
    )
    n = graph.num_vertices
    assert peak <= 12 * graph.num_edges + 8 * (n + 1) + _TRACE_SLACK
    legacy = legacy_road_network(_MEMORY_VERTICES, seed=0)
    assert graph.indptr.tobytes() == legacy.indptr.tobytes()
    assert graph.indices.tobytes() == legacy.indices.tobytes()


def test_bfs_memory_above_the_graph_is_bounded(monkeypatch):
    """The BFS over a prebuilt 100 K-vertex social graph allocates at
    most one int64 array of E entries beyond the graph: its dense
    levels, whose raw output nearly reaches E, are marked in bounded
    windows instead of gathered whole."""
    graph = social_network(_MEMORY_VERTICES, seed=0)
    workload = SocialBFS(scale=0.001)
    monkeypatch.setattr(workload, "_build_graph", lambda: graph)
    expected = launch_stream_digest(legacy_launch_stream(workload, graph))
    stream, peak = _traced_peak(workload.launch_stream)
    assert peak <= 1.0 * _MEMORY_EDGES * 8
    assert launch_stream_digest(stream) == expected


# ---------------------------------------------------------------------------
# Satellites: registry TypeError, tractability warning
# ---------------------------------------------------------------------------

def test_get_workload_rejects_workload_instances():
    workload = get_workload("GST", scale=0.001)
    with pytest.raises(TypeError, match="abbreviation string"):
        get_workload(workload)
    with pytest.raises(TypeError, match="abbreviation string"):
        get_workload(42)


def test_graph_workload_warns_above_tractability_threshold():
    # The implicit scale=1.0 default builds the full 21M-vertex paper
    # graph; instantiation (not traversal) must warn.
    with pytest.warns(UserWarning, match="tractability threshold"):
        SocialBFS()
    with pytest.warns(UserWarning, match="tractability threshold"):
        RoadBFS(scale=1.0)


def test_graph_workload_silent_below_threshold():
    import warnings as _warnings

    for cls in (SocialBFS, RoadBFS):
        # PAPER_SCALE graph scale and the CLI's characterize default are
        # both routine surfaces; neither may warn.
        for scale in (0.05, 0.25):
            workload = cls(scale=scale)
            assert workload._num_vertices() <= TRACTABLE_VERTICES
            with _warnings.catch_warnings():
                _warnings.simplefilter("error")
                cls(scale=scale)


def test_tractability_threshold_above_paper_scale_graphs():
    from repro.core.config import PAPER_SCALE

    for cls in (SocialBFS, RoadBFS):
        abbr = cls(scale=0.001).abbr
        scaled = cls(scale=PAPER_SCALE.for_workload(abbr))
        assert scaled._num_vertices() <= TRACTABLE_VERTICES


def test_gunrock_bfs_base_hooks_are_abstract():
    with pytest.raises(NotImplementedError):
        GunrockBFS(scale=0.001)
