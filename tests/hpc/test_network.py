"""Unit tests for the fluid-flow network model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hpc.event import Simulator
from repro.hpc.filesystem import ParallelFileSystem
from repro.hpc.network import Network


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

    def test_simultaneous_completions_fire_in_admission_order(self, sim):
        net = simple_net(sim, bandwidth=100.0)
        events = [net.transfer("a", "b", nbytes=100.0) for _ in range(8)]
        fired = []

        def watch(sim, evt):
            xfer = yield evt
            fired.append((xfer.transfer_id, sim.now))

        for evt in reversed(events):
            sim.process(watch(sim, evt))
        sim.run()
        assert fired == [(i, pytest.approx(8.0)) for i in range(8)]


def progressive_filling(routes, bandwidth):
    """Max-min fair rates by progressive filling over multi-link routes.

    The rate code of the former general-topology network, kept as an
    oracle that shares no code with :mod:`repro.hpc.network`: ``routes``
    maps each flow to the names of the links it crosses and ``bandwidth``
    maps each link name to its capacity.
    """
    rates = {}
    unfrozen = set(routes)
    capacity = {link: bandwidth[link] for links in routes.values()
                for link in links}
    for flow in routes:
        rates[flow] = 0.0
    while unfrozen:
        # Bottleneck link: smallest fair share among links carrying
        # unfrozen flows.
        shares = {}
        loads = {}
        for flow in unfrozen:
            for link in routes[flow]:
                loads[link] = loads.get(link, 0) + 1
        for link, load in loads.items():
            shares[link] = capacity[link] / load
        bottleneck = min(shares, key=lambda lk: shares[lk])
        fair = shares[bottleneck]
        frozen_now = {f for f in unfrozen if bottleneck in routes[f]}
        for flow in frozen_now:
            rates[flow] = fair
            for link in routes[flow]:
                capacity[link] -= fair
        unfrozen -= frozen_now
    return rates


_KINDS = ["uplink", "write", "read"]


class TestProgressiveFillingOracle:
    """Each flow's rate is the exact float progressive filling assigns.

    The oracle sees the former topology: uplink flows cross the uplink,
    and a PFS flow crosses its client's own effectively unbounded link
    (1e18 B/s) and then the shared write or read link.
    """

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        flows=st.lists(
            st.tuples(st.sampled_from(_KINDS), st.sampled_from(["sim", "staging"]),
                      st.floats(1.0, 1e4), st.floats(0.0, 20.0)),
            min_size=1, max_size=12,
        ),
        update=st.tuples(st.sampled_from(_KINDS), st.floats(0.0, 20.0),
                         st.floats(10.0, 2000.0)),
    )
    def test_rates_match_oracle(self, flows, update):
        sim = Simulator()
        checked = []

        class CheckedNetwork(Network):
            def _reschedule(self):
                super()._reschedule()
                check()

        net = CheckedNetwork(sim)
        net.add_link("sim", "staging", bandwidth=700.0)
        pfs = ParallelFileSystem(sim, net, write_bandwidth=300.0,
                                 read_bandwidth=450.0, latency=0.25)
        pfs.attach("sim")
        pfs.attach("staging")
        pairs = {"uplink": ("sim", "staging"), "write": ("sim", "pfs.write"),
                 "read": ("pfs.read", "sim")}
        links = {kind: net.link_between(*pair) for kind, pair in pairs.items()}

        def route(flow):
            if flow.link is links["uplink"]:
                return ("uplink",)
            if flow.link is links["write"]:
                return (f"{flow.src}--write.hub", "write")
            return (f"{flow.dst}--read.hub", "read")

        def check():
            active = [f for link in links.values() for f in link.flows]
            bandwidth = {kind: link.bandwidth for kind, link in links.items()}
            for client in ("sim", "staging"):
                bandwidth[f"{client}--write.hub"] = 1e18
                bandwidth[f"{client}--read.hub"] = 1e18
            expected = progressive_filling({f: route(f) for f in active}, bandwidth)
            assert {f: f.rate for f in active} == expected
            checked.append(len(active))

        def start(kind, client, size, offset):
            yield sim.timeout(offset)
            if kind == "uplink":
                peer = "staging" if client == "sim" else "sim"
                yield net.transfer(client, peer, size)
            elif kind == "write":
                yield pfs.write(client, size)
            else:
                yield pfs.read(client, size)

        def degrade(kind, at, bandwidth):
            yield sim.timeout(at)
            net.update_link(*pairs[kind], bandwidth=bandwidth)

        procs = [sim.process(start(*flow)) for flow in flows]
        sim.process(degrade(*update))
        sim.run()
        assert all(p.triggered for p in procs)
        assert not any(link.flows for link in links.values())
        assert max(checked) >= 1
