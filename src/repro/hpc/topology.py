"""The interconnect topology the workflows run on.

The workflow experiments use the aggregate two-partition model
(:func:`staging_uplink`): all simulation nodes behind one endpoint, all
staging nodes behind another, joined by a link whose capacity equals the
aggregate injection bandwidth of the smaller partition.  This is the level
of detail the paper's policies observe (they see transfer latencies, not
per-hop congestion).
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.hpc.event import Simulator
from repro.hpc.network import Network

__all__ = ["staging_uplink"]


def staging_uplink(
    sim: Simulator,
    sim_injection_bw: float,
    staging_ingest_bw: float,
    latency: float,
) -> Network:
    """Two-endpoint model: ``sim`` and ``staging`` joined by one shared link.

    The link capacity is the min of the simulation partition's aggregate
    injection bandwidth and the staging partition's aggregate ingest
    bandwidth -- whichever side saturates first bounds in-transit sends.
    """
    if sim_injection_bw <= 0 or staging_ingest_bw <= 0:
        raise SimulationError("partition bandwidths must be positive")
    net = Network(sim)
    net.add_link(
        "sim",
        "staging",
        bandwidth=min(sim_injection_bw, staging_ingest_bw),
        latency=latency,
        name="uplink",
    )
    return net
