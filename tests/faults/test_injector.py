"""FaultInjector unit tests: wiring validation, timed application, queries."""

import pytest

from repro.errors import FaultError
from repro.faults import (
    CoreLoss,
    CoreRestore,
    FaultInjector,
    FaultPlan,
    LinkDegrade,
    ObjectCorrupt,
    ObjectDrop,
    Straggler,
)
from repro.hpc.event import Simulator
from repro.hpc.network import Network
from repro.observability import Observer, Tracer
from repro.observability.events import FAULT_CLEARED, FAULT_INJECTED
from repro.staging.area import StagingArea


def wired(plan, tracer=None, total_cores=4):
    """A fully wired injector over a tiny simulator/network/staging trio."""
    observer = Observer(tracer=tracer)
    injector = FaultInjector(plan, observer=observer)
    sim = Simulator()
    injector.attach_simulator(sim)
    net = Network(sim)
    net.add_link("sim", "staging", bandwidth=100.0, latency=0.0)
    area = StagingArea(sim, net, core_rate=10.0, total_cores=total_cores,
                       faults=injector)
    injector.attach_network(net)
    observer.bind_clock(lambda: sim.now)
    return injector, sim, net, area


class TestWiring:
    def test_needs_a_fault_plan(self):
        with pytest.raises(FaultError, match="FaultPlan"):
            FaultInjector([CoreLoss(at=1.0, cores=2)])

    def test_empty_plan_arms_without_attachments(self):
        injector = FaultInjector(FaultPlan())
        injector.arm()  # nothing to schedule, nothing to validate
        assert injector.injected == 0

    def test_timed_fault_without_simulator_rejected(self):
        injector = FaultInjector(FaultPlan([CoreLoss(at=1.0, cores=2)]))
        with pytest.raises(FaultError, match="simulator"):
            injector.arm()

    def test_staging_fault_without_staging_rejected(self):
        injector = FaultInjector(FaultPlan([CoreLoss(at=1.0, cores=2)]))
        injector.attach_simulator(Simulator())
        with pytest.raises(FaultError, match="staging"):
            injector.arm()

    def test_link_fault_without_network_rejected(self):
        injector = FaultInjector(
            FaultPlan([LinkDegrade(at=1.0, duration=1.0, bandwidth_factor=0.5)])
        )
        injector.attach_simulator(Simulator())
        with pytest.raises(FaultError, match="[Nn]etwork"):
            injector.arm()

    @pytest.mark.parametrize("dst", ["pfs.write.hub", "nowhere"])
    def test_link_fault_on_missing_link_rejected_at_arm(self, dst):
        plan = FaultPlan([LinkDegrade(at=1.0, duration=1.0, src="sim", dst=dst,
                                      bandwidth_factor=0.5)])
        injector, sim, _net, _area = wired(plan)
        with pytest.raises(FaultError, match=(
                rf"network\.degrade at t=1\.0: no link between 'sim' and '{dst}'")):
            injector.arm()
        sim.run()  # nothing was scheduled: the clock never reaches t=1
        assert sim.now == 0

    def test_double_arm_rejected(self):
        injector, _sim, _net, _area = wired(FaultPlan())
        injector.arm()
        with pytest.raises(FaultError, match="already armed"):
            injector.arm()


class TestCoreFaults:
    def test_core_loss_and_restore_fire_at_planned_times(self):
        tracer = Tracer()
        plan = FaultPlan([
            CoreLoss(at=5.0, cores=2),
            CoreRestore(at=9.0, cores=2),
        ])
        injector, sim, _net, area = wired(plan, tracer=tracer)
        injector.arm()
        observed = []

        def probe(sim):
            for t in (4.0, 6.0, 10.0):
                yield sim.timeout(t - sim.now)
                observed.append((sim.now, area.healthy_cores))

        sim.process(probe(sim))
        sim.run()
        assert observed == [(4.0, 4), (6.0, 2), (10.0, 4)]
        assert injector.injected == 2
        kinds = [e.fields["fault"] for e in tracer.events(kind=FAULT_INJECTED)]
        assert kinds == ["staging.core_loss", "staging.core_restore"]

    def test_total_loss_makes_staging_unreachable(self):
        plan = FaultPlan([CoreLoss(at=1.0, cores=4)])
        injector, sim, _net, area = wired(plan)
        injector.arm()
        sim.run()
        assert area.healthy_cores == 0
        assert not area.reachable


class TestLinkDegrade:
    def test_window_scales_and_restores_exactly(self):
        plan = FaultPlan([
            LinkDegrade(at=2.0, duration=3.0,
                        bandwidth_factor=0.1, latency_factor=10.0),
        ])
        injector, sim, net, _area = wired(plan)
        injector.arm()
        link = net.link_between("sim", "staging")
        base_bandwidth, base_latency = link.bandwidth, link.latency
        observed = []

        def probe(sim):
            for t in (1.0, 3.0, 6.0):
                yield sim.timeout(t - sim.now)
                observed.append((link.bandwidth, link.latency))

        sim.process(probe(sim))
        sim.run()
        assert observed[0] == (base_bandwidth, base_latency)
        assert observed[1] == (pytest.approx(base_bandwidth * 0.1),
                               pytest.approx(base_latency * 10.0))
        # Exact restore: the pristine values verbatim, not a re-multiply.
        assert observed[2] == (base_bandwidth, base_latency)

    def test_overlapping_windows_compose_multiplicatively(self):
        plan = FaultPlan([
            LinkDegrade(at=1.0, duration=4.0, bandwidth_factor=0.5),
            LinkDegrade(at=2.0, duration=1.0, bandwidth_factor=0.5),
        ])
        injector, sim, net, _area = wired(plan)
        injector.arm()
        link = net.link_between("sim", "staging")
        base = link.bandwidth
        observed = []

        def probe(sim):
            for t in (2.5, 4.0, 6.0):
                yield sim.timeout(t - sim.now)
                observed.append(link.bandwidth)

        sim.process(probe(sim))
        sim.run()
        assert observed[0] == pytest.approx(base * 0.25)
        assert observed[1] == pytest.approx(base * 0.5)
        assert observed[2] == base

    def test_cleared_event_emitted_when_window_closes(self):
        tracer = Tracer()
        plan = FaultPlan([LinkDegrade(at=1.0, duration=1.0, bandwidth_factor=0.5)])
        injector, sim, _net, _area = wired(plan, tracer=tracer)
        injector.arm()
        sim.run()
        cleared = tracer.events(kind=FAULT_CLEARED)
        assert len(cleared) == 1
        assert cleared[0].fields["fault"] == "network.degrade"
        assert cleared[0].ts == 2.0


class TestStragglers:
    def test_service_multiplier_sampled_inside_window(self):
        plan = FaultPlan([Straggler(at=10.0, duration=5.0, factor=3.0)])
        injector, _sim, _net, _area = wired(plan)
        injector.arm()
        assert injector.service_multiplier(9.9) == 1.0
        assert injector.service_multiplier(10.0) == 3.0
        assert injector.service_multiplier(14.9) == 3.0
        assert injector.service_multiplier(15.0) == 1.0

    def test_overlapping_windows_multiply(self):
        plan = FaultPlan([
            Straggler(at=0.0, duration=10.0, factor=2.0),
            Straggler(at=5.0, duration=10.0, factor=3.0),
        ])
        injector, _sim, _net, _area = wired(plan)
        injector.arm()
        assert injector.service_multiplier(7.0) == 6.0


class TestStepFaults:
    def test_drops_consumed_per_attempt(self):
        plan = FaultPlan([ObjectDrop(step=3, count=2)])
        injector, _sim, _net, _area = wired(plan)
        injector.arm()
        assert injector.may_drop(3)
        assert not injector.may_drop(2)
        assert injector.consume_drop(3)
        assert injector.consume_drop(3)
        assert not injector.consume_drop(3)
        assert not injector.may_drop(3)
        assert injector.injected == 2

    def test_corrupts_consumed_and_traced(self):
        tracer = Tracer()
        plan = FaultPlan([ObjectCorrupt(step=1)])
        injector, _sim, _net, _area = wired(plan, tracer=tracer)
        injector.arm()
        assert injector.consume_corrupt(1)
        assert not injector.consume_corrupt(1)
        assert not injector.consume_corrupt(0)
        events = tracer.events(kind=FAULT_INJECTED)
        assert len(events) == 1
        assert events[0].fields["fault"] == "staging.object_corrupt"
