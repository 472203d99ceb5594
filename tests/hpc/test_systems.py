"""Unit tests for the system presets: a workflow's machine is a spec + core counts."""

import pytest

from repro.errors import ResourceError, SimulationError
from repro.hpc.event import Simulator
from repro.hpc.systems import build_workflow_network, intrepid, titan
from repro.units import GiB


class TestPartitionMemory:
    @pytest.mark.parametrize("preset", [intrepid, titan])
    @pytest.mark.parametrize("cores", [1, 4, 16, 17, 64, 1024, 8192])
    def test_equals_per_node_sum(self, preset, cores):
        """Bit-equal to summing one float pool per node, as a whole-node
        partition of this spec holds."""
        spec = preset()
        nodes = spec.nodes_for_cores(cores)
        per_node_sum = sum(float(spec.memory_per_node) for _ in range(nodes))
        assert spec.partition_memory(cores) == per_node_sum
        assert isinstance(spec.partition_memory(cores), float)

    def test_rounds_up_to_whole_nodes(self):
        assert titan().partition_memory(17) == 2 * 32 * GiB
        assert intrepid().partition_memory(3) == 2 * GiB

    def test_needs_a_core(self):
        with pytest.raises(ResourceError):
            titan().partition_memory(0)


class TestWorkflowNetwork:
    def test_uplink_is_the_smaller_partition_injection(self):
        spec = titan()
        net = build_workflow_network(Simulator(), spec, sim_cores=1024,
                                     staging_cores=64)
        uplink = net.link_between("sim", "staging")
        assert uplink.bandwidth == spec.node_injection_bw * 4  # 64 / 16 nodes
        assert uplink.latency == spec.network_latency

    def test_partial_nodes_count_whole(self):
        spec = titan()
        net = build_workflow_network(Simulator(), spec, sim_cores=1024,
                                     staging_cores=17)
        assert net.link_between("sim", "staging").bandwidth == (
            spec.node_injection_bw * 2)

    def test_rejects_empty_partition(self):
        with pytest.raises(ResourceError):
            build_workflow_network(Simulator(), titan(), sim_cores=0,
                                   staging_cores=64)


class TestTopologies:
    def test_staging_uplink_capacity_is_min(self):
        spec = titan()
        # 32 simulation nodes against 64 staging nodes: the simulation
        # side's injection bandwidth bounds the uplink.
        net = build_workflow_network(Simulator(), spec, sim_cores=512,
                                     staging_cores=1024)
        assert net.link_between("sim", "staging").bandwidth == (
            spec.node_injection_bw * 32)
        assert net.link_between("staging", "sim") is net.link_between("sim", "staging")

    def test_staging_uplink_rejects_bad_bw(self):
        # SystemSpec refuses a non-positive injection bandwidth when built;
        # the uplink itself re-checks the bandwidth it is handed.
        spec = titan()
        object.__setattr__(spec, "node_injection_bw", 0.0)
        with pytest.raises(SimulationError, match="'uplink' needs positive bandwidth"):
            build_workflow_network(Simulator(), spec, sim_cores=16,
                                   staging_cores=16)
