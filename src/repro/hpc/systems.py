"""Calibrated presets for the two systems used in the paper.

The constants are *calibration* values chosen so that the simulated
workflows land in the paper's reported operating regime (per-step
simulation times of tens of seconds, end-to-end runs of 1000-4500 s,
adaptive overhead < 6% of simulation time).  They are not vendor specs:
``core_rate`` is a sustained useful rate in cell-updates/second for a
multi-stage AMR Godunov update, orders of magnitude below peak flops.

Shapes (cores/node, memory/node) match the real machines:

- Intrepid (IBM BG/P): quad-core 850 MHz nodes, 2 GB RAM (500 MB/core),
  3-D torus.
- Titan (Cray XK7): 16-core AMD Opteron nodes, 32 GB RAM, Gemini
  interconnect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ResourceError
from repro.hpc.event import Simulator
from repro.hpc.network import Network
from repro.hpc.topology import staging_uplink
from repro.units import GiB, MiB

__all__ = ["SystemSpec", "intrepid", "titan", "build_workflow_network"]


@dataclass(frozen=True)
class SystemSpec:
    """Shape and calibration constants for one system.

    The PFS bandwidths are the share a job of the paper's size sees, not
    the file system's aggregate peak; the power figures are sustained
    per-core draws derived from each system's published total power.
    """

    name: str
    cores_per_node: int
    memory_per_node: float  # bytes
    core_rate: float  # sustained cell-updates / second / core
    node_injection_bw: float  # bytes/s a node can push into the fabric
    network_latency: float  # one-way software+wire latency, seconds
    pfs_write_bandwidth: float = 10.0e9  # bytes/s, job share
    pfs_read_bandwidth: float = 12.0e9  # bytes/s, job share
    pfs_latency: float = 1e-3  # per-operation metadata latency, seconds
    core_power_active: float = 10.0  # watts while computing
    core_power_idle: float = 4.0  # watts while allocated but idle
    network_energy_per_byte: float = 1.0e-9  # joules per byte moved

    def __post_init__(self):
        for attr in ("cores_per_node", "memory_per_node", "core_rate",
                     "node_injection_bw", "pfs_write_bandwidth",
                     "pfs_read_bandwidth"):
            value = getattr(self, attr)
            if not value > 0:
                raise ResourceError(
                    f"{self.name}: {attr} must be positive, got {value}"
                )

    @property
    def memory_per_core(self) -> float:
        """Bytes of RAM per core (the paper quotes 500 MB/core on Intrepid)."""
        return self.memory_per_node / self.cores_per_node

    def nodes_for_cores(self, cores: int) -> int:
        """Smallest node count providing ``cores`` cores."""
        if cores < 1:
            raise ResourceError(f"need at least one core, got {cores}")
        return math.ceil(cores / self.cores_per_node)

    def partition_memory(self, cores: int) -> float:
        """Bytes of RAM on the whole nodes a ``cores``-core partition spans."""
        return float(self.nodes_for_cores(cores) * self.memory_per_node)


def intrepid() -> SystemSpec:
    """Intrepid IBM BlueGene/P at Argonne (40,960 nodes, 557 TF peak)."""
    return SystemSpec(
        name="intrepid",
        cores_per_node=4,
        memory_per_node=2 * GiB,
        core_rate=2.0e4,
        node_injection_bw=1.7 * GiB,
        network_latency=6.0e-6,
        pfs_write_bandwidth=8.0e9,
        pfs_read_bandwidth=10.0e9,
        core_power_active=7.7,  # 557 TF at ~1.26 MW over 163,840 cores
        core_power_idle=3.0,
    )


def titan() -> SystemSpec:
    """Titan Cray XK7 at Oak Ridge (18,688 nodes, 20 PF peak, Gemini)."""
    return SystemSpec(
        name="titan",
        cores_per_node=16,
        memory_per_node=32 * GiB,
        core_rate=6.0e4,
        node_injection_bw=4.0 * GiB,
        network_latency=2.0e-6,
        pfs_write_bandwidth=30.0e9,  # Spider/Lustre job share
        pfs_read_bandwidth=36.0e9,
        core_power_active=15.0,
        core_power_idle=5.0,
    )


def build_workflow_network(
    sim: Simulator,
    spec: SystemSpec,
    sim_cores: int,
    staging_cores: int,
) -> Network:
    """Build the staging-uplink network for a two-partition workflow.

    The network has endpoints ``"sim"`` and ``"staging"``; each side's
    bandwidth is the aggregate injection bandwidth of the whole nodes its
    partition spans.
    """
    return staging_uplink(
        sim,
        sim_injection_bw=spec.node_injection_bw * spec.nodes_for_cores(sim_cores),
        staging_ingest_bw=spec.node_injection_bw * spec.nodes_for_cores(staging_cores),
        latency=spec.network_latency,
    )


# Guard against accidental unit errors in presets: Intrepid must expose the
# paper's 500 MB/core figure.
assert abs(intrepid().memory_per_core - 512 * MiB) < 1e-6
