"""Scenario-builder tests: the named catalog is valid, seeded, deterministic."""

import pytest

from repro.errors import FaultError
from repro.faults import SCENARIOS, CoreLoss, FaultPlan, ObjectDrop, build_scenario
from repro.faults.plan import TIMED_KINDS


class TestCatalog:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_builds_a_valid_plan(self, name):
        plan = build_scenario(name, horizon=100.0, seed=0,
                              staging_cores=64, steps=20)
        assert isinstance(plan, FaultPlan)
        assert len(plan) >= 1

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_timed_faults_land_inside_the_horizon(self, name):
        horizon = 250.0
        plan = build_scenario(name, horizon=horizon, seed=3,
                              staging_cores=64, steps=20)
        for fault in plan.timed():
            assert 0.0 <= fault.at <= horizon

    def test_every_scenario_has_a_description(self):
        for name, (description, builder) in SCENARIOS.items():
            assert description
            assert callable(builder)

    def test_blackout_kills_every_core(self):
        plan = build_scenario("blackout", horizon=100.0, staging_cores=48)
        losses = [f for f in plan if isinstance(f, CoreLoss)]
        assert losses and losses[0].cores == 48

    def test_flaky_ingest_always_drops_something(self):
        for seed in range(5):
            plan = build_scenario("flaky-ingest", horizon=100.0, seed=seed,
                                  staging_cores=64, steps=20)
            assert any(isinstance(f, ObjectDrop) for f in plan)


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_same_seed_same_plan(self, name):
        a = build_scenario(name, horizon=123.0, seed=7, staging_cores=32,
                           steps=15)
        b = build_scenario(name, horizon=123.0, seed=7, staging_cores=32,
                           steps=15)
        assert a == b

    def test_seed_varies_the_random_scenarios(self):
        a = build_scenario("stragglers", horizon=100.0, seed=0)
        b = build_scenario("stragglers", horizon=100.0, seed=1)
        assert a != b


class TestErrors:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(FaultError, match="unknown fault scenario"):
            build_scenario("meteor-strike", horizon=100.0)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(FaultError, match="horizon"):
            build_scenario("blackout", horizon=0.0)
