"""Removed backends, shims and modules fail loudly at every entry point:
an error naming what *is* available, never a silent fallback to another path.
"""

import importlib

import pytest

import repro
import repro.experiments
import repro.mpi
from repro.experiments.backends import get_backend
from repro.experiments.config import CampaignConfig
from repro.scenarios import get_scenario

RETIRED_BACKENDS = ("batched", "chunked")
REGISTERED_BACKENDS = ("campaign", "event", "vectorized")


def _assert_lists_registered(message: str) -> None:
    for name in REGISTERED_BACKENDS:
        assert name in message


class TestRetiredBackends:
    @pytest.mark.parametrize("name", RETIRED_BACKENDS)
    def test_get_backend_lists_registered_names(self, name):
        with pytest.raises(ValueError, match=name) as excinfo:
            get_backend(name)
        _assert_lists_registered(str(excinfo.value))

    @pytest.mark.parametrize("name", ["Batched", " chunked "])
    def test_normalised_spellings_are_rejected_too(self, name):
        with pytest.raises(ValueError, match="registered backends"):
            get_backend(name)

    @pytest.mark.parametrize("name", RETIRED_BACKENDS)
    def test_config_rejects_retired_backend(self, name):
        with pytest.raises(ValueError, match="registered backends"):
            CampaignConfig(application="minife", backend=name)

    @pytest.mark.parametrize("name", RETIRED_BACKENDS)
    def test_with_backend_rejects_retired_backend(self, name):
        with pytest.raises(ValueError) as excinfo:
            CampaignConfig.smoke().with_backend(name)
        _assert_lists_registered(str(excinfo.value))

    @pytest.mark.parametrize("name", RETIRED_BACKENDS)
    def test_scenario_override_rejects_retired_backend(self, name):
        scenario = get_scenario("manzano-default")
        with pytest.raises(ValueError, match="registered backends"):
            scenario.campaign_config("smoke", backend=name)


class TestRetiredModules:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.experiments.campaign",
            "repro.workloads",
            "repro.mpi.comm",
            "repro.mpi.p2p",
            "repro.mpi.collectives",
        ],
    )
    def test_module_is_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize("package", [repro, repro.experiments], ids=lambda p: p.__name__)
    @pytest.mark.parametrize("name", ["run_campaign", "run_all_campaigns", "quick_campaign"])
    def test_shim_is_not_exported(self, package, name):
        assert name not in getattr(package, "__all__", ())
        with pytest.raises(AttributeError):
            getattr(package, name)

    def test_mpi_package_exports_only_the_transfer_model(self):
        # datatypes, the network/NIC model and partitioned transfers remain;
        # the communicator, message matching and collective cost models are gone
        for name in ("Communicator", "Rank", "Message", "MessageQueue",
                     "barrier_time", "bcast_time", "allreduce_time"):
            assert name not in repro.mpi.__all__
            assert not hasattr(repro.mpi, name)
        for name in repro.mpi.__all__:
            assert getattr(repro.mpi, name) is not None
