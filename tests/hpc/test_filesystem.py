"""Tests for the parallel file system model."""

import pytest

from repro.errors import SimulationError
from repro.hpc.event import Simulator
from repro.hpc.filesystem import ParallelFileSystem
from repro.hpc.network import Network


@pytest.fixture()
def setup():
    sim = Simulator()
    net = Network(sim)
    net.add_link("sim", "staging", bandwidth=1e9)
    pfs = ParallelFileSystem(sim, net, write_bandwidth=100.0,
                             read_bandwidth=200.0, latency=0.5)
    pfs.attach("sim")
    pfs.attach("staging")
    return sim, net, pfs


class TestReadWrite:
    def test_write_time(self, setup):
        sim, _net, pfs = setup
        done = pfs.write("sim", 1000.0)
        sim.run(done)
        assert sim.now == pytest.approx(0.5 + 10.0)
        assert pfs.bytes_written == 1000.0

    def test_read_time(self, setup):
        sim, _net, pfs = setup
        done = pfs.read("staging", 1000.0)
        sim.run(done)
        assert sim.now == pytest.approx(0.5 + 5.0)
        assert pfs.bytes_read == 1000.0

    def test_concurrent_writers_share_bandwidth(self, setup):
        sim, _net, pfs = setup
        d1 = pfs.write("sim", 500.0)
        d2 = pfs.write("staging", 500.0)
        sim.run(sim.all_of([d1, d2]))
        # 100 B/s shared between two 500 B writes -> 10 s + latency.
        assert sim.now == pytest.approx(10.5)

    def test_reads_do_not_contend_with_writes(self, setup):
        sim, _net, pfs = setup
        w = pfs.write("sim", 1000.0)  # 10 s at full write bw
        r = pfs.read("staging", 2000.0)  # 10 s at full read bw
        sim.run(sim.all_of([w, r]))
        assert sim.now == pytest.approx(10.5)


class TestValidation:
    def test_unattached_client_rejected(self, setup):
        _sim, _net, pfs = setup
        with pytest.raises(SimulationError):
            pfs.write("stranger", 10.0)
        with pytest.raises(SimulationError):
            pfs.read("stranger", 10.0)

    def test_double_attach_is_noop(self, setup):
        sim, net, pfs = setup
        write_link = net.link_between("sim", "pfs.write")
        read_link = net.link_between("pfs.read", "sim")
        pfs.attach("sim")
        assert net.link_between("sim", "pfs.write") is write_link
        assert net.link_between("pfs.read", "sim") is read_link
        # Every client still shares the one write link.
        assert net.link_between("staging", "pfs.write") is write_link

    def test_bad_bandwidths_rejected(self):
        sim = Simulator()
        net = Network(sim)
        with pytest.raises(SimulationError):
            ParallelFileSystem(sim, net, write_bandwidth=0, read_bandwidth=1)
