"""Integration: the simulated campaigns reproduce the paper's *shapes*.

These tests assert the qualitative claims of §4 (the ones EXPERIMENTS.md
tracks) on session-scale campaigns.  Absolute equality with the paper's
numbers is neither expected nor asserted — bands are deliberately generous so
the tests check mechanisms, not calibration luck.
"""

import numpy as np
import pytest

from repro.core.analyzer import ThreadTimingAnalyzer
from repro.experiments.config import CampaignConfig
from repro.experiments.paper import SECTION4_METRICS, TABLE1_PASS_PERCENT
from repro.experiments.session import CampaignSession


@pytest.fixture(scope="module")
def reports(request):
    datasets = request.getfixturevalue("all_datasets")
    return {
        name: ThreadTimingAnalyzer(ds).report(include_earlybird=False)
        for name, ds in datasets.items()
    }


@pytest.fixture(scope="module")
def miniqmc_multiprocess_dataset():
    """A MiniQMC campaign with enough distinct process populations for the
    coarse-level (application / application-iteration) normality claims.

    The paper's application-level rejection pools 80 process-trial walker
    populations; with only the two processes of the shared smoke fixture the
    between-process variance heterogeneity that drives the rejection is not
    yet resolvable, so this test uses a dozen populations.
    """
    config = CampaignConfig(
        "miniqmc", trials=2, processes=6, iterations=30, threads=48, seed=424242
    )
    return CampaignSession(config).run().dataset


class TestMedianArrivals:
    @pytest.mark.parametrize("application", ["minife", "minimd", "miniqmc"])
    def test_mean_median_within_10_percent_of_paper(self, reports, application):
        measured = reports[application].mean_median_arrival_ms
        expected = SECTION4_METRICS[application]["mean_median_arrival_ms"]
        assert measured == pytest.approx(expected, rel=0.10)


class TestDistributionShape:
    def test_minife_is_left_skewed_with_tiny_iqr(self, reports):
        report = reports["minife"]
        assert report.skew_direction == "early"
        assert report.mean_iqr_ms < 0.5

    def test_miniqmc_has_the_widest_distribution(self, reports):
        assert reports["miniqmc"].mean_iqr_ms > 5 * reports["minife"].mean_iqr_ms
        assert reports["miniqmc"].mean_iqr_ms > 5 * reports["minimd"].mean_iqr_ms
        assert reports["miniqmc"].mean_iqr_ms == pytest.approx(
            SECTION4_METRICS["miniqmc"]["mean_iqr_ms"], rel=0.35
        )

    def test_minimd_two_phase_behaviour(self, all_datasets):
        series = ThreadTimingAnalyzer(all_datasets["minimd"]).percentile_series()
        warmup = series.iqr_summary(slice(0, 19))
        steady = series.iqr_summary(slice(19, None))
        assert warmup["mean"] > 3 * steady["mean"]


class TestLaggards:
    def test_minife_laggard_fraction_band(self, reports):
        assert 0.08 <= reports["minife"].laggard_fraction <= 0.40

    def test_minimd_steady_laggards_are_rare(self, all_datasets):
        analyzer = ThreadTimingAnalyzer(all_datasets["minimd"])
        laggards = analyzer.laggards()
        steady = [
            has
            for key, has in zip(laggards.keys, laggards.has_laggard)
            if key[-1] >= 19
        ]
        assert np.mean(steady) < 0.15

    def test_reclaimable_time_ordering(self, reports):
        assert (
            reports["miniqmc"].mean_reclaimable_ms
            > reports["minife"].mean_reclaimable_ms
        )
        assert (
            reports["miniqmc"].mean_reclaimable_ms
            > reports["minimd"].mean_reclaimable_ms
        )


class TestNormalityClasses:
    def test_application_level_rejected_for_minife_and_minimd(self, reports):
        assert reports["minife"].application_level_rejected
        assert reports["minimd"].application_level_rejected

    def test_application_level_rejected_for_miniqmc_with_many_processes(
        self, miniqmc_multiprocess_dataset
    ):
        study = ThreadTimingAnalyzer(miniqmc_multiprocess_dataset).normality()
        assert study.application_rejects_normality()
        # while the individual process-iterations remain overwhelmingly normal
        rates = study.process_iteration_pass_rates()
        assert min(rates.values()) > 0.85

    def test_table1_qualitative_classes(self, reports):
        """MiniFE ≈ never normal, MiniMD mostly normal, MiniQMC ~95 % normal."""
        minife = reports["minife"].process_iteration_pass_rates
        minimd = reports["minimd"].process_iteration_pass_rates
        miniqmc = reports["miniqmc"].process_iteration_pass_rates
        assert max(minife.values()) < 0.10
        assert min(minimd.values()) > 0.50
        assert min(miniqmc.values()) > 0.85

    def test_table1_ordering_matches_paper(self, reports):
        for test_name in ("dagostino", "shapiro_wilk", "anderson_darling"):
            measured = [
                reports[app].process_iteration_pass_rates[test_name]
                for app in ("minife", "minimd", "miniqmc")
            ]
            paper = [
                TABLE1_PASS_PERCENT[app][test_name] / 100.0
                for app in ("minife", "minimd", "miniqmc")
            ]
            assert np.argsort(measured).tolist() == np.argsort(paper).tolist()
