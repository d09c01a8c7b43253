"""Integration test: the paper's Observations 1-12 on a full run.

This is the reproduction's headline check — the qualitative claims of
Section V evaluated end-to-end on both suites.  Observation 9 is a
known partial match (see EXPERIMENTS.md): the Cactus side reproduces
the paper's numbers, but our four-archetype PRT models correlate more
broadly than the 32 real binaries did.
"""

import pytest

from repro.analysis.correlation import correlation_matrix, pearson
from repro.core import OBSERVATION_SCALE, check_observations, run_suite
from repro.gpu.metrics import PRIMARY_METRICS, SECONDARY_METRICS


@pytest.fixture(scope="module")
def suite_runs():
    cactus = run_suite(["Cactus"], preset=OBSERVATION_SCALE)
    prt = run_suite(["Parboil", "Rodinia", "Tango"], preset=OBSERVATION_SCALE)
    return cactus, prt


@pytest.fixture(scope="module")
def report(suite_runs):
    return check_observations(*suite_runs)


class TestObservations:
    def test_at_least_eleven_observations_hold(self, report):
        assert report.passed >= 11, report.render()

    @pytest.mark.parametrize("number", [1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12])
    def test_observation_holds(self, report, number):
        observation = next(
            o for o in report.observations if o.number == number
        )
        assert observation.passed, observation.evidence

    def test_observation_9_cactus_side_matches_paper(self, suite_runs):
        """The paper: GIPS correlates (|PCC|>=0.2) with ~7 metrics for
        Cactus.  Our Cactus population reproduces that breadth."""
        cactus, _ = suite_runs
        matrix = correlation_matrix(cactus.profiles("Cactus"))
        assert len(matrix.correlated_columns("gips")) >= 6

    def test_report_renders(self, report):
        text = report.render()
        assert "Observations:" in text
        assert "#12" in text


class TestCorrelationExactness:
    """``correlation_matrix`` centres each metric's sample once per call;
    every cell must still equal :func:`pearson` on the same two
    samples, bit for bit."""

    @pytest.mark.parametrize("side", ["cactus", "prt"])
    @pytest.mark.parametrize("dominant_only", [False, True])
    def test_every_cell_is_pearson_bit_for_bit(
        self, suite_runs, side, dominant_only
    ):
        cactus, prt = suite_runs
        profiles = cactus.profiles("Cactus") if side == "cactus" else [
            c.profile
            for suite in ("Parboil", "Rodinia", "Tango")
            for c in prt.suite(suite)
        ]
        matrix = correlation_matrix(profiles, dominant_only=dominant_only)
        kernels = [
            k
            for p in profiles
            for k in (p.dominant_kernels if dominant_only else p.kernels)
        ]
        for row in PRIMARY_METRICS:
            xs = [k.metric(row) for k in kernels]
            for column in SECONDARY_METRICS:
                ys = [k.metric(column) for k in kernels]
                expected = pearson(xs, ys)
                actual = matrix.value(row, column)
                assert actual.hex() == float(expected).hex(), (row, column)

    def test_metric_in_rows_and_columns(self, suite_runs):
        # A metric on both axes is centred once and serves both.
        cactus, _ = suite_runs
        profiles = cactus.profiles("Cactus")
        metrics = ("gips", "sm_efficiency", "warp_occupancy")
        matrix = correlation_matrix(profiles, rows=metrics, columns=metrics)
        kernels = [k for p in profiles for k in p.kernels]
        for row in metrics:
            xs = [k.metric(row) for k in kernels]
            for column in metrics:
                ys = [k.metric(column) for k in kernels]
                assert matrix.value(row, column) == pearson(xs, ys)
