"""Unit tests for the network / NIC model and datatypes."""

import numpy as np
import pytest

from repro.mpi.datatypes import BYTE, DOUBLE, FLOAT, INT, BufferSpec, Datatype
from repro.mpi.network import NetworkModel, NICModel, omni_path


class TestDatatypes:
    def test_extent(self):
        assert DOUBLE.extent(10) == 80
        assert BYTE.extent(3) == 3

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            Datatype("bad", 0)
        with pytest.raises(ValueError):
            DOUBLE.extent(-1)

    def test_buffer_partition_contiguous_and_complete(self):
        array = np.arange(10, dtype=np.float64)
        spec = BufferSpec(10, DOUBLE, array)
        pieces = spec.partition(3)
        assert [p.count for p in pieces] == [4, 3, 3]
        np.testing.assert_array_equal(
            np.concatenate([p.array for p in pieces]), array
        )
        assert sum(p.nbytes for p in pieces) == spec.nbytes

    def test_buffer_mismatched_array_rejected(self):
        with pytest.raises(ValueError):
            BufferSpec(5, DOUBLE, np.zeros(4))

    @pytest.mark.parametrize(
        "datatype, size", [(DOUBLE, 8), (FLOAT, 4), (INT, 4), (BYTE, 1)],
        ids=lambda value: getattr(value, "name", str(value)),
    )
    def test_predefined_datatype_sizes(self, datatype, size):
        assert datatype.size_bytes == size
        assert datatype.extent(0) == 0
        assert BufferSpec(3, datatype).nbytes == 3 * size

    @pytest.mark.parametrize(
        "count, n_partitions", [(10, 3), (3, 5), (0, 4), (16, 4), (17, 1)]
    )
    def test_partition_sizes_are_near_equal_and_complete(self, count, n_partitions):
        pieces = BufferSpec(count, FLOAT).partition(n_partitions)
        sizes = [piece.count for piece in pieces]
        assert len(pieces) == n_partitions
        assert sum(sizes) == count
        assert max(sizes) - min(sizes) <= 1
        # the remainder goes to the earliest partitions
        assert sizes == sorted(sizes, reverse=True)
        assert all(piece.datatype is FLOAT for piece in pieces)

    def test_partition_without_array_carries_no_payload(self):
        assert all(p.array is None for p in BufferSpec(7).partition(2))

    def test_partition_count_must_be_positive(self):
        with pytest.raises(ValueError):
            BufferSpec(8).partition(0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            BufferSpec(-1)


class TestNetworkModel:
    def test_message_time_monotone_in_size(self):
        net = omni_path()
        small = net.message_time(1024)
        large = net.message_time(1024 * 1024)
        assert large > small

    def test_message_time_increases_with_hops(self):
        net = omni_path()
        assert net.message_time(4096, hops=4) > net.message_time(4096, hops=1)

    def test_rendezvous_threshold(self):
        net = NetworkModel(eager_threshold_bytes=1000, rendezvous_overhead_s=1e-5)
        assert net.protocol_overhead(1000) == 0.0
        assert net.protocol_overhead(1001) == pytest.approx(1e-5)

    def test_serialization_matches_bandwidth(self):
        net = NetworkModel(bandwidth_bytes_per_s=1e9)
        assert net.serialization_time(1_000_000) == pytest.approx(1e-3)

    def test_effective_bandwidth_below_link_rate(self):
        net = omni_path()
        assert net.effective_bandwidth(1 << 20) < net.bandwidth_bytes_per_s

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_bytes_per_s=0.0)
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1.0)


class TestNICModel:
    def test_fifo_serialisation_of_simultaneous_submissions(self):
        net = NetworkModel(
            latency_s=0.0, per_hop_latency_s=0.0, o_send_s=0.0, o_recv_s=0.0,
            bandwidth_bytes_per_s=1e6, eager_threshold_bytes=1 << 30,
        )
        nic = NICModel(net, hops=0)
        first = nic.submit(1000, at_time=0.0)   # 1 ms on the wire
        second = nic.submit(1000, at_time=0.0)  # must queue behind the first
        assert first.injection_done == pytest.approx(1e-3)
        assert second.start_time == pytest.approx(1e-3)
        assert second.injection_done == pytest.approx(2e-3)

    def test_idle_gap_is_not_billed(self):
        net = NetworkModel(latency_s=0.0, o_send_s=0.0, o_recv_s=0.0,
                           bandwidth_bytes_per_s=1e6, eager_threshold_bytes=1 << 30)
        nic = NICModel(net)
        nic.submit(1000, at_time=0.0)
        late = nic.submit(1000, at_time=10.0)  # long after the NIC went idle
        assert late.start_time == pytest.approx(10.0)

    def test_submit_many_orders_by_request_time(self):
        nic = NICModel(omni_path())
        records = nic.submit_many([100, 100, 100], [3e-3, 1e-3, 2e-3])
        # result order matches input order, but service order follows times
        assert records[1].start_time < records[2].start_time < records[0].start_time

    def test_reset_clears_queue(self):
        nic = NICModel(omni_path())
        nic.submit(1 << 20, at_time=0.0)
        assert nic.busy_until > 0.0
        nic.reset()
        assert nic.busy_until == 0.0
        assert nic.log == []
