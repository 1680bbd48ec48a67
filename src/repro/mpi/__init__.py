"""Simulated MPI layer.

The paper's early-bird question is ultimately a communication question: given
the measured thread arrival times, how much sooner can message contents be
delivered if each thread initiates transmission of its own partition (MPI 4.0
partitioned communication) instead of waiting for the slowest thread (classic
bulk-synchronous send)?  Answering it quantitatively needs an MPI model:

* :mod:`~repro.mpi.datatypes` — element types and buffer descriptors.
* :mod:`~repro.mpi.network` — a LogGP-style network/NIC model with an
  Omni-Path-like preset (the paper's interconnect).
* :mod:`~repro.mpi.partitioned` — MPI-4.0-style partitioned transfers
  (``Psend_init`` / ``Pready`` / ``Parrived``), in both an event-driven form
  and the closed-form variant the early-bird feasibility model evaluates.
"""

from repro.mpi.datatypes import BYTE, DOUBLE, FLOAT, INT, Datatype
from repro.mpi.network import NetworkModel, NICModel, omni_path
from repro.mpi.partitioned import (
    PartitionedRecvRequest,
    PartitionedSendRequest,
    PartitionedTransfer,
    partitioned_completion_times,
)

__all__ = [
    "Datatype",
    "DOUBLE",
    "FLOAT",
    "INT",
    "BYTE",
    "NetworkModel",
    "NICModel",
    "omni_path",
    "PartitionedSendRequest",
    "PartitionedRecvRequest",
    "PartitionedTransfer",
    "partitioned_completion_times",
]
