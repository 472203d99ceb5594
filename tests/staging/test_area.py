"""Tests for the in-transit staging area."""

import pytest

from repro.errors import StagingError
from repro.faults import FaultInjector, FaultPlan, ObjectDrop
from repro.hpc.event import Process, Simulator
from repro.hpc.network import Network
from repro.observability import Tracer
from repro.observability.events import FAULT_INJECTED, STAGING_RETRY
from repro.observability.observer import Observer
from repro.staging.area import StagingArea


@pytest.fixture()
def sim():
    return Simulator()


def make_area(sim, cores=4, rate=10.0, bw=1000.0, memory=float("inf"), active=None):
    net = Network(sim)
    net.add_link("sim", "staging", bandwidth=bw)
    return StagingArea(
        sim, net, core_rate=rate, total_cores=cores, active_cores=active,
        memory_bytes=memory,
    )


class TestServiceModel:
    def test_service_time_formula(self, sim):
        area = make_area(sim, cores=4, rate=10.0)
        assert area.service_time(work_units=400.0) == pytest.approx(10.0)
        assert area.service_time(400.0, cores=8) == pytest.approx(5.0)

    def test_job_runs_after_ingest(self, sim):
        area = make_area(sim, cores=4, rate=10.0, bw=100.0)
        job = area.submit(step=0, nbytes=200.0, work_units=400.0)
        sim.run(job.done)
        # Ingest: 200/100 = 2 s; service: 400/(10*4) = 10 s.
        assert job.started_at == pytest.approx(2.0)
        assert job.finished_at == pytest.approx(12.0)

    def test_fifo_across_steps(self, sim):
        area = make_area(sim, cores=2, rate=10.0, bw=1e9)
        j1 = area.submit(0, 10.0, 100.0)
        j2 = area.submit(1, 10.0, 100.0)
        sim.run(sim.all_of([j1.done, j2.done]))
        assert j1.finished_at <= j2.started_at
        assert [j.step for j in area.completed] == [0, 1]

    def test_memory_freed_after_completion(self, sim):
        area = make_area(sim, memory=500.0)
        job = area.submit(0, 400.0, 10.0)
        assert area.memory_used == 400.0
        sim.run(job.done)
        assert area.memory_used == 0.0

    def test_submit_over_memory_raises(self, sim):
        area = make_area(sim, memory=100.0)
        area.submit(0, 80.0, 1.0)
        assert not area.can_fit(50.0)
        with pytest.raises(StagingError):
            area.submit(1, 50.0, 1.0)

    def test_bytes_ingested_accumulates(self, sim):
        area = make_area(sim)
        a = area.submit(0, 100.0, 1.0)
        b = area.submit(1, 150.0, 1.0)
        sim.run(sim.all_of([a.done, b.done]))
        assert area.bytes_ingested == 250.0

    def test_invalid_construction(self, sim):
        net = Network(sim)
        net.add_link("sim", "staging", bandwidth=1.0)
        with pytest.raises(StagingError):
            StagingArea(sim, net, core_rate=0, total_cores=4)
        with pytest.raises(StagingError):
            StagingArea(sim, net, core_rate=1, total_cores=0)
        with pytest.raises(StagingError):
            StagingArea(sim, net, core_rate=1, total_cores=4, active_cores=5)


class TestRemainingTimeEstimate:
    def test_idle_area_zero(self, sim):
        area = make_area(sim)
        assert area.estimated_remaining_time() == 0.0
        assert not area.busy

    def test_estimate_includes_running_and_queued(self, sim):
        area = make_area(sim, cores=2, rate=10.0, bw=1e12)
        area.submit(0, 1.0, 200.0)  # 10 s service
        area.submit(1, 1.0, 100.0)  # 5 s service

        def probe(sim):
            yield sim.timeout(3.0)
            return area.estimated_remaining_time()

        p = sim.process(probe(sim))
        sim.run()
        # At t=3: running job has ~7 s left (started just after ingest),
        # queued job needs 5 s.
        assert p.value == pytest.approx(12.0, abs=0.1)
        assert area.busy or p.value > 0

    def test_estimate_drains_to_zero(self, sim):
        area = make_area(sim, cores=2, rate=10.0)
        job = area.submit(0, 1.0, 100.0)
        sim.run(job.done)
        assert area.estimated_remaining_time() == pytest.approx(0.0)


class TestResizeAndUtilization:
    def test_resize_changes_future_service(self, sim):
        area = make_area(sim, cores=8, rate=10.0, active=4, bw=1e12)

        def scenario(sim):
            j1 = area.submit(0, 1.0, 400.0)  # on 4 cores: 10 s
            yield j1.done
            area.set_active_cores(8)
            j2 = area.submit(1, 1.0, 400.0)  # on 8 cores: 5 s
            yield j2.done
            return (j1.finished_at - j1.started_at, j2.finished_at - j2.started_at)

        p = sim.process(scenario(sim))
        sim.run()
        d1, d2 = p.value
        assert d1 == pytest.approx(10.0, abs=1e-6)
        assert d2 == pytest.approx(5.0, abs=1e-6)

    def test_resize_validation(self, sim):
        area = make_area(sim, cores=4)
        with pytest.raises(StagingError):
            area.set_active_cores(0)
        with pytest.raises(StagingError):
            area.set_active_cores(5)

    def test_utilization_efficiency(self, sim):
        area = make_area(sim, cores=4, rate=10.0, bw=1e12)
        job = area.submit(0, 1.0, 400.0)  # 10 s busy on 4 cores

        def wait_then_idle(sim):
            yield job.done
            yield sim.timeout(10.0)  # 10 s idle

        sim.process(wait_then_idle(sim))
        sim.run()
        # ~40 busy core-s over ~80 allocated core-s.
        assert area.utilization_efficiency() == pytest.approx(0.5, abs=0.01)
        assert area.idle_time() == pytest.approx(40.0, abs=1.0)

    def test_core_history_records_changes(self, sim):
        area = make_area(sim, cores=8, active=2)

        def resize(sim):
            yield sim.timeout(1.0)
            area.set_active_cores(6)

        sim.process(resize(sim))
        sim.run()
        assert [(s.start, s.cores) for s in area.core_history] == [(0.0, 2), (1.0, 6)]

    def test_adaptive_beats_static_utilization(self, sim):
        """The headline of Fig. 9/Eq. 12: fewer active cores for the same
        work means higher utilization efficiency."""
        results = {}
        for label, active in (("static", 8), ("adaptive", 2)):
            s = Simulator()
            area = make_area(s, cores=8, rate=10.0, active=active, bw=1e12)
            last = None
            for step in range(5):
                last = area.submit(step, 1.0, 100.0)
            s.run(last.done)

            def idle_tail(s=s):
                yield s.timeout(5.0)

            s.process(idle_tail())
            s.run()
            results[label] = area.utilization_efficiency()
        assert results["adaptive"] > results["static"]


class TestResizeFaultInterleaving:
    """Regression: an Eq. 9-10 resize racing a fault window must preserve
    the core invariant ``active_cores <= healthy_cores <= total_cores``
    (with a nominal single-core active set during a total blackout).

    The buggy area skipped the resize clamp whenever no core was healthy,
    so a resize landing inside a blackout window enabled up to
    ``total_cores``, and a later partial restore left jobs running on
    more cores than were physically healthy.
    """

    def _invariant_ok(self, area):
        return area.active_cores <= max(1, area.healthy_cores) <= area.total_cores

    def test_resize_during_seeded_blackout_is_clamped(self):
        from repro.faults.scenarios import build_scenario

        plan = build_scenario("blackout", horizon=100.0, seed=7,
                              staging_cores=8, steps=12)
        injector = FaultInjector(plan)
        sim = Simulator()
        injector.attach_simulator(sim)
        net = Network(sim)
        net.add_link("sim", "staging", bandwidth=1e9, latency=0.0)
        area = StagingArea(sim, net, core_rate=10.0, total_cores=8,
                           faults=injector)
        injector.attach_network(net)
        injector.arm()
        observed = []

        def resize_mid_blackout():
            # The blackout scenario kills all cores over [0.35, 0.65] of
            # the horizon; land the resize squarely inside the window.
            yield sim.timeout(50.0)
            observed.append(("reachable", area.reachable))
            area.set_active_cores(8)
            observed.append(("invariant", self._invariant_ok(area)))

        sim.process(resize_mid_blackout())
        sim.run()
        assert ("reachable", False) in observed
        assert ("invariant", True) in observed, (
            "resize during blackout must clamp to the healthy pool"
        )
        assert self._invariant_ok(area)

    def test_partial_restore_cannot_exceed_healthy_cores(self, sim):
        area = make_area(sim, cores=8)
        assert area.fail_cores(8) == 8
        # Full blackout: the nominal active set collapses to one core.
        assert area.active_cores == 1
        # A resize landing during the blackout stays clamped.
        area.set_active_cores(5)
        assert area.active_cores == 1
        assert area.restore_cores(4) == 4
        assert self._invariant_ok(area)
        # Restored capacity is re-enabled by an explicit resize only.
        area.set_active_cores(8)
        assert area.active_cores == 4
        assert self._invariant_ok(area)

    def test_fault_free_resize_path_unchanged(self, sim):
        area = make_area(sim, cores=8)
        area.set_active_cores(3)
        assert area.active_cores == 3
        area.set_active_cores(8)
        assert area.active_cores == 8
        with pytest.raises(StagingError):
            area.set_active_cores(9)


def dropping_area(drops, step=3):
    """A traced area whose fault plan drops ``drops`` ingests of ``step``.

    The uplink moves 100 B/s with no latency, so a 100-byte ingest
    attempt takes exactly 1 s.
    """
    sim = Simulator()
    tracer = Tracer()
    observer = Observer(tracer)
    observer.bind_clock(lambda: sim.now)
    injector = FaultInjector(FaultPlan([ObjectDrop(step=step, count=drops)]),
                             observer=observer)
    injector.attach_simulator(sim)
    net = Network(sim)
    net.add_link("sim", "staging", bandwidth=100.0, latency=0.0)
    area = StagingArea(sim, net, core_rate=10.0, total_cores=4,
                       faults=injector, observer=observer)
    injector.attach_network(net)
    injector.arm()
    return sim, area, tracer


class TestIngestRetry:
    """Bounded retry with exponential backoff of dropped ingests."""

    def test_four_drops_exhaust_the_retries(self):
        sim, area, tracer = dropping_area(drops=4)
        area.submit(3, nbytes=100.0, work_units=10.0)
        with pytest.raises(StagingError) as excinfo:
            sim.run()
        error = excinfo.value
        assert str(error) == (
            "ingest(step=3): retries exhausted after 4 attempts")
        assert isinstance(error.__cause__, StagingError)
        assert str(error.__cause__) == (
            "ingest(step=3): attempt 4 rejected (corrupt result)")
        # Four 1 s attempts and the three backoffs between them.
        assert sim.now == 7.5
        assert area.retries == 3
        assert [e.fields["attempt"] for e in tracer.events(kind=STAGING_RETRY)] \
            == [1, 2, 3]
        assert len(tracer.events(kind=FAULT_INJECTED)) == 4
        assert area.completed == []

    def test_three_drops_recover_with_pinned_backoff(self):
        sim, area, tracer = dropping_area(drops=3)
        job = area.submit(3, nbytes=100.0, work_units=10.0)
        sim.run(job.done)
        retries = tracer.events(kind=STAGING_RETRY)
        assert [e.fields["backoff_seconds"] for e in retries] == [0.5, 1.0, 2.0]
        assert [e.fields["attempt"] for e in retries] == [1, 2, 3]
        assert all(e.step == 3 and e.fields["nbytes"] == 100.0 for e in retries)
        # Each retry is announced when its 1 s attempt lands; the next
        # attempt starts one backoff later.
        assert [e.ts for e in retries] == [1.0, 2.5, 4.5]
        assert job.started_at == 4.5 + 2.0 + 1.0
        assert area.retries == 3
        assert len(tracer.events(kind=FAULT_INJECTED)) == 3
        assert len(area.completed) == 1
        assert area.bytes_ingested == 100.0

    def test_undropped_step_takes_the_plain_transfer(self):
        sim, area, tracer = dropping_area(drops=1, step=3)
        job = area.submit(2, nbytes=100.0, work_units=10.0)
        assert not isinstance(job.ingest_done, Process)
        sim.run(job.done)
        assert job.started_at == 1.0
        assert area.retries == 0
        assert tracer.events(kind=STAGING_RETRY) == []
