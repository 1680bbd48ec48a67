"""Shared fixtures.

Campaign datasets are expensive enough to be worth sharing, so the three
per-application smoke datasets are built once per session.  All fixtures are
deterministic (fixed seeds).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.timing import TimingDataset
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession


def pytest_configure(config):
    # deprecated or soon-to-change APIs fail the suite instead of scrolling
    # past in the warnings summary
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")
    config.addinivalue_line("filterwarnings", "error::FutureWarning")


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def _smoke_dataset(application: str) -> TimingDataset:
    config = CampaignConfig(
        application=application,
        trials=1,
        processes=2,
        iterations=30,
        threads=48,
        seed=202304,
    )
    return CampaignSession(config).run().dataset


@pytest.fixture(scope="session")
def minife_dataset() -> TimingDataset:
    return _smoke_dataset("minife")


@pytest.fixture(scope="session")
def minimd_dataset() -> TimingDataset:
    return _smoke_dataset("minimd")


@pytest.fixture(scope="session")
def miniqmc_dataset() -> TimingDataset:
    return _smoke_dataset("miniqmc")


@pytest.fixture(scope="session")
def all_datasets(minife_dataset, minimd_dataset, miniqmc_dataset):
    return {
        "minife": minife_dataset,
        "minimd": minimd_dataset,
        "miniqmc": miniqmc_dataset,
    }


@pytest.fixture()
def smoke_config() -> CampaignConfig:
    return CampaignConfig.smoke()
