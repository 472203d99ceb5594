"""Parallel file system model.

The paper's opening argument: "the increasing performance gap between
computation and I/O in high-end computing environment renders traditional
post-processing data analysis approach based on disk I/O infeasible."
To make that comparison runnable, this module models a Lustre/GPFS-class
parallel file system as two shared links on the machine's network -- one
write link, one read link -- with byte accounting.

Every attached client's writes ride the one write link, and its reads the
one read link, so concurrent clients split the storage system's aggregate
bandwidth evenly, exactly like network transfers, while a read burst
cannot starve writers.
"""

from __future__ import annotations

from repro.hpc.event import Event, Simulator
from repro.hpc.network import Link, Network

__all__ = ["ParallelFileSystem"]

# The network endpoints the PFS's write and read links end at.
_WRITE_EP = "pfs.write"
_READ_EP = "pfs.read"


class ParallelFileSystem:
    """A bandwidth-shared storage target attached to a network.

    Parameters
    ----------
    sim, network:
        The simulation and the machine network to attach to.
    write_bandwidth, read_bandwidth:
        Aggregate sequential bandwidths of the storage system.
    latency:
        Per-operation software/metadata latency.

    Clients reach it through the network endpoints ``"pfs.write"`` and
    ``"pfs.read"``.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        write_bandwidth: float,
        read_bandwidth: float,
        latency: float = 1e-3,
    ):
        self.sim = sim
        self.network = network
        self._write_link = Link(_WRITE_EP, float(write_bandwidth), float(latency))
        self._read_link = Link(_READ_EP, float(read_bandwidth), float(latency))
        self.bytes_written = 0.0
        self.bytes_read = 0.0

    def attach(self, client: str) -> None:
        """Put ``client`` (a network endpoint) on the shared write/read links."""
        self.network.connect(client, _WRITE_EP, self._write_link)
        self.network.connect(_READ_EP, client, self._read_link)

    def write(self, client: str, nbytes: float) -> Event:
        """Start a write from ``client``; returns the completion event.

        Raises :class:`~repro.errors.SimulationError` if ``client`` was
        never attached.
        """
        done = self.network.transfer(client, _WRITE_EP, nbytes)
        self.bytes_written += nbytes
        return done

    def read(self, client: str, nbytes: float) -> Event:
        """Start a read into ``client``; returns the completion event."""
        done = self.network.transfer(_READ_EP, client, nbytes)
        self.bytes_read += nbytes
        return done
