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
    endpoint:
        Prefix of the PFS endpoints (``"<endpoint>.write"`` and
        ``"<endpoint>.read"``) created on the network.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        write_bandwidth: float,
        read_bandwidth: float,
        latency: float = 1e-3,
        endpoint: str = "pfs",
    ):
        self.sim = sim
        self.network = network
        self._write_ep = f"{endpoint}.write"
        self._read_ep = f"{endpoint}.read"
        self._write_link = Link(self._write_ep, float(write_bandwidth), float(latency))
        self._read_link = Link(self._read_ep, float(read_bandwidth), float(latency))
        self.bytes_written = 0.0
        self.bytes_read = 0.0

    def attach(self, client: str) -> None:
        """Put ``client`` (a network endpoint) on the shared write/read links."""
        self.network.connect(client, self._write_ep, self._write_link)
        self.network.connect(self._read_ep, client, self._read_link)

    def write(self, client: str, nbytes: float) -> Event:
        """Start a write from ``client``; returns the completion event.

        Raises :class:`~repro.errors.SimulationError` if ``client`` was
        never attached.
        """
        done = self.network.transfer(client, self._write_ep, nbytes)
        self.bytes_written += nbytes
        return done

    def read(self, client: str, nbytes: float) -> Event:
        """Start a read into ``client``; returns the completion event."""
        done = self.network.transfer(self._read_ep, client, nbytes)
        self.bytes_read += nbytes
        return done
