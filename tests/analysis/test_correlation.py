"""Tests for the Pearson-correlation analysis (Fig. 8 machinery)."""

import pytest

from repro.analysis.correlation import (
    CorrelationBand,
    correlation_matrix,
    pearson,
)
from repro.gpu import KernelMetrics
from repro.profiler.records import ApplicationProfile, aggregate_launches


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_independent_is_near_zero(self):
        assert abs(pearson([1, 2, 3, 4], [1, -1, 1, -1])) < 0.5

    def test_constant_sample_gives_zero(self):
        assert pearson([1.0, 1.0, 1.0], [1, 2, 3]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            pearson([1, 2], [1])

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="two samples"):
            pearson([1], [1])


class TestBanding:
    def test_fig8_colour_bands(self):
        assert CorrelationBand.from_value(0.75) is CorrelationBand.STRONG
        assert CorrelationBand.from_value(-0.6) is CorrelationBand.STRONG
        assert CorrelationBand.from_value(0.3) is CorrelationBand.WEAK
        assert CorrelationBand.from_value(0.1) is CorrelationBand.NONE
        assert CorrelationBand.from_value(0.5) is CorrelationBand.STRONG
        assert CorrelationBand.from_value(0.2) is CorrelationBand.WEAK


def _profile(rows):
    """rows: list of dicts of metric overrides per kernel."""
    kernels = []
    for index, overrides in enumerate(rows):
        metrics = KernelMetrics(
            name=f"k{index}",
            duration_s=overrides.pop("duration_s", 1.0),
            warp_insts=overrides.pop("warp_insts", 1e9),
            dram_transactions=overrides.pop("dram_transactions", 1e6),
            **overrides,
        )
        kernels.append(aggregate_launches(metrics.name, [metrics]))
    return ApplicationProfile(
        workload="w", suite="s", domain="d", kernels=kernels
    )


class TestCorrelationMatrix:
    def test_detects_engineered_correlation(self):
        # occupancy tracks duration-derived gips exactly.
        profile = _profile(
            [
                {"warp_insts": 1e9, "warp_occupancy": 10.0},
                {"warp_insts": 2e9, "warp_occupancy": 20.0},
                {"warp_insts": 3e9, "warp_occupancy": 30.0},
                {"warp_insts": 4e9, "warp_occupancy": 40.0},
            ]
        )
        matrix = correlation_matrix([profile], rows=("gips",),
                                    columns=("warp_occupancy",))
        assert matrix.value("gips", "warp_occupancy") == pytest.approx(1.0)
        assert matrix.band("gips", "warp_occupancy") is CorrelationBand.STRONG

    def test_correlated_columns_filters_none(self):
        profile = _profile(
            [
                {"warp_insts": 1e9, "warp_occupancy": 10.0, "sync_stall": 0.9},
                {"warp_insts": 2e9, "warp_occupancy": 20.0, "sync_stall": 0.1},
                {"warp_insts": 3e9, "warp_occupancy": 30.0, "sync_stall": 0.8},
                {"warp_insts": 4e9, "warp_occupancy": 40.0, "sync_stall": 0.2},
            ]
        )
        matrix = correlation_matrix(
            [profile], rows=("gips",),
            columns=("warp_occupancy", "sync_stall"),
        )
        assert "warp_occupancy" in matrix.correlated_columns("gips")

    def test_constant_columns_do_not_correlate(self):
        # 1.9 averages to 1.9000000000000001: the deviations of a
        # constant column are rounding noise, identical in both columns.
        profile = _profile(
            [
                {"warp_insts": 1e9, "warp_occupancy": 1.9, "sync_stall": 1.9},
                {"warp_insts": 2e9, "warp_occupancy": 1.9, "sync_stall": 1.9},
                {"warp_insts": 3e9, "warp_occupancy": 1.9, "sync_stall": 1.9},
            ]
        )
        matrix = correlation_matrix(
            [profile], rows=("gips", "warp_occupancy"),
            columns=("warp_occupancy", "sync_stall"),
        )
        assert set(matrix.values.values()) == {0.0}
        assert matrix.correlated_columns("warp_occupancy") == []

    def test_requires_two_kernels(self):
        with pytest.raises(ValueError, match="two kernels"):
            correlation_matrix([_profile([{}])])

    def test_render_contains_legend(self):
        profile = _profile([{"warp_insts": 1e9}, {"warp_insts": 2e9}])
        art = correlation_matrix([profile]).render()
        assert "strong" in art and "weak" in art


from hypothesis import example, given, settings
from hypothesis import strategies as st


_values = st.floats(-1e6, 1e6, allow_nan=False).filter(
    lambda v: v == 0.0 or abs(v) > 1e-3  # keep away from denormals
)


@given(
    st.lists(st.tuples(_values, _values), min_size=2, max_size=64)
)
@settings(max_examples=100, deadline=None)
@example([(1.9, 1.9)] * 3)
def test_pearson_properties(pairs):
    """|PCC| <= 1, symmetric, and invariant to affine rescaling."""
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    value = pearson(xs, ys)
    assert -1.0 <= value <= 1.0
    assert pearson(ys, xs) == pytest.approx(value, abs=1e-9)
    if abs(value) > 1e-6:  # affine invariance, away from degeneracy
        rescaled = pearson([2.0 * x + 3.0 for x in xs], ys)
        assert rescaled == pytest.approx(value, abs=1e-3)
