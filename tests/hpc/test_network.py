"""Unit tests for the fluid-flow network model."""

import pytest

from repro.errors import SimulationError
from repro.hpc.event import Simulator
from repro.hpc.network import Network
from repro.hpc.topology import staging_uplink
from repro.units import GiB


@pytest.fixture()
def sim():
    return Simulator()


def simple_net(sim, bandwidth=100.0, latency=0.0):
    net = Network(sim)
    net.add_link("a", "b", bandwidth=bandwidth, latency=latency)
    return net


class TestSingleFlow:
    def test_transfer_time_is_size_over_bandwidth(self, sim):
        net = simple_net(sim, bandwidth=100.0)
        done = net.transfer("a", "b", nbytes=500.0)
        sim.run(done)
        assert sim.now == pytest.approx(5.0)

    def test_latency_added_once(self, sim):
        net = simple_net(sim, bandwidth=100.0, latency=2.0)
        done = net.transfer("a", "b", nbytes=100.0)
        sim.run(done)
        assert sim.now == pytest.approx(3.0)

    def test_zero_byte_transfer_costs_latency_only(self, sim):
        net = simple_net(sim, bandwidth=100.0, latency=1.5)
        done = net.transfer("a", "b", nbytes=0.0)
        sim.run(done)
        assert sim.now == pytest.approx(1.5)

    def test_negative_size_rejected(self, sim):
        net = simple_net(sim)
        with pytest.raises(SimulationError):
            net.transfer("a", "b", nbytes=-1.0)

    def test_transfer_value_is_transfer_record(self, sim):
        net = simple_net(sim, bandwidth=10.0)

        def proc(sim):
            xfer = yield net.transfer("a", "b", nbytes=50.0)
            return xfer

        p = sim.process(proc(sim))
        sim.run()
        assert p.value.size == 50.0
        assert p.value.elapsed == pytest.approx(5.0)

    def test_no_route_raises(self, sim):
        net = simple_net(sim)
        with pytest.raises(SimulationError):
            net.transfer("a", "zzz", nbytes=10.0)


class TestBandwidthSharing:
    def test_two_equal_flows_halve_rate(self, sim):
        net = simple_net(sim, bandwidth=100.0)
        d1 = net.transfer("a", "b", nbytes=500.0)
        d2 = net.transfer("a", "b", nbytes=500.0)
        sim.run(sim.all_of([d1, d2]))
        # Each gets 50 B/s -> both finish at t=10.
        assert sim.now == pytest.approx(10.0)

    def test_short_flow_finishes_then_long_speeds_up(self, sim):
        net = simple_net(sim, bandwidth=100.0)
        long = net.transfer("a", "b", nbytes=1000.0)
        short = net.transfer("a", "b", nbytes=100.0)
        finish = {}

        def watch(sim, evt, tag):
            yield evt
            finish[tag] = sim.now

        sim.process(watch(sim, long, "long"))
        sim.process(watch(sim, short, "short"))
        sim.run()
        # Shared 50/50 until short drains 100 B at t=2; long then has 900 B
        # left at full rate -> 2 + 9 = 11.
        assert finish["short"] == pytest.approx(2.0)
        assert finish["long"] == pytest.approx(11.0)

    def test_late_join_slows_existing_flow(self, sim):
        net = simple_net(sim, bandwidth=100.0)
        first = net.transfer("a", "b", nbytes=1000.0)

        def join_later(sim):
            yield sim.timeout(5.0)
            second = net.transfer("a", "b", nbytes=250.0)
            yield second
            return sim.now

        j = sim.process(join_later(sim))
        sim.run(first)
        # First runs alone 0-5 (500 B done), shares 5-10 (second drains its
        # 250 B at 50 B/s), then finishes the last 250 B alone by t=12.5.
        assert j.value == pytest.approx(10.0)
        assert sim.now == pytest.approx(12.5)

    def test_bytes_accounting(self, sim):
        net = simple_net(sim, bandwidth=100.0)
        d1 = net.transfer("a", "b", nbytes=300.0)
        d2 = net.transfer("a", "b", nbytes=200.0)
        sim.run(sim.all_of([d1, d2]))
        assert net.total_bytes_moved == pytest.approx(500.0)
        assert net.link_between("a", "b").bytes_carried == pytest.approx(500.0)


class TestMultiLinkRoutes:
    def test_bottleneck_limits_rate(self, sim):
        net = Network(sim)
        net.add_link("a", "m", bandwidth=100.0)
        net.add_link("m", "b", bandwidth=10.0)
        done = net.transfer("a", "b", nbytes=100.0)
        sim.run(done)
        assert sim.now == pytest.approx(10.0)

    def test_cross_traffic_on_shared_link(self, sim):
        # Flows a->b and c->b share only the m->b link.
        net = Network(sim)
        net.add_link("a", "m", bandwidth=1000.0)
        net.add_link("c", "m", bandwidth=1000.0)
        net.add_link("m", "b", bandwidth=100.0)
        d1 = net.transfer("a", "b", nbytes=500.0)
        d2 = net.transfer("c", "b", nbytes=500.0)
        sim.run(sim.all_of([d1, d2]))
        assert sim.now == pytest.approx(10.0)

    def test_max_min_fairness_disjoint_bottlenecks(self, sim):
        # Flow 1 uses a narrow private link; flow 2 shares the wide link.
        # Max-min: flow 1 is capped at 10, flow 2 gets the remaining 90.
        net = Network(sim)
        net.add_link("x", "m", bandwidth=10.0)
        net.add_link("m", "y", bandwidth=100.0)
        net.add_link("w", "m", bandwidth=1000.0)
        d1 = net.transfer("x", "y", nbytes=100.0)  # rate 10 -> t=10
        d2 = net.transfer("w", "y", nbytes=450.0)  # rate 90 -> t=5
        finish = {}

        def watch(sim, evt, tag):
            yield evt
            finish[tag] = sim.now

        sim.process(watch(sim, d1, "narrow"))
        sim.process(watch(sim, d2, "wide"))
        sim.run()
        assert finish["narrow"] == pytest.approx(10.0)
        assert finish["wide"] == pytest.approx(5.0)

    def test_estimate_matches_uncontended_run(self, sim):
        net = Network(sim)
        net.add_link("a", "m", bandwidth=100.0, latency=0.5)
        net.add_link("m", "b", bandwidth=50.0, latency=0.5)
        est = net.estimate_transfer_time("a", "b", 100.0)
        done = net.transfer("a", "b", 100.0)
        sim.run(done)
        assert sim.now == pytest.approx(est)


class TestTopologies:
    def test_staging_uplink_capacity_is_min(self, sim):
        net = staging_uplink(sim, sim_injection_bw=10 * GiB,
                             staging_ingest_bw=2 * GiB, latency=1e-6)
        assert net.link_between("sim", "staging").bandwidth == 2 * GiB

    def test_staging_uplink_rejects_bad_bw(self, sim):
        with pytest.raises(SimulationError):
            staging_uplink(sim, sim_injection_bw=0, staging_ingest_bw=1, latency=0)
