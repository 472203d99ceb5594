"""Fault-plan unit tests: validation, ordering, identity, serialization."""

import pytest

from repro.errors import FaultError
from repro.faults import (
    FAULT_KINDS,
    CoreLoss,
    CoreRestore,
    FaultPlan,
    LinkDegrade,
    ObjectCorrupt,
    ObjectDrop,
    Straggler,
)
from repro.faults.plan import STEP_KINDS, TIMED_KINDS


class TestRegistry:
    def test_every_fault_class_is_registered(self):
        kinds = {cls.kind for cls in TIMED_KINDS + STEP_KINDS}
        assert kinds == set(FAULT_KINDS)

    def test_registry_has_descriptions(self):
        for kind, description in FAULT_KINDS.items():
            assert description, f"{kind} has no description"


class TestValidation:
    @pytest.mark.parametrize("fault", [
        CoreLoss(at=-1.0, cores=4),
        CoreLoss(at=1.0, cores=0),
        CoreRestore(at=-0.5, cores=4),
        CoreRestore(at=1.0, cores=-2),
        LinkDegrade(at=-1.0, duration=1.0),
        LinkDegrade(at=1.0, duration=0.0),
        LinkDegrade(at=1.0, duration=1.0, bandwidth_factor=0.0),
        LinkDegrade(at=1.0, duration=1.0, latency_factor=-1.0),
        Straggler(at=-1.0, duration=1.0, factor=2.0),
        Straggler(at=1.0, duration=-1.0, factor=2.0),
        Straggler(at=1.0, duration=1.0, factor=0.5),
        ObjectDrop(step=-1),
        ObjectDrop(step=0, count=0),
        ObjectCorrupt(step=-3),
        ObjectCorrupt(step=0, repeats=0),
    ])
    def test_invalid_fault_rejected_at_plan_construction(self, fault):
        with pytest.raises(FaultError):
            FaultPlan([fault])

    def test_non_fault_rejected(self):
        with pytest.raises(FaultError, match="not a fault"):
            FaultPlan(["core_loss"])

    def test_valid_faults_accepted(self):
        plan = FaultPlan([
            CoreLoss(at=0.0, cores=1),
            LinkDegrade(at=2.0, duration=1.0, bandwidth_factor=0.1),
            ObjectDrop(step=0),
        ])
        assert len(plan) == 3


class TestOrdering:
    def test_timed_faults_sorted_by_firing_time(self):
        late = CoreRestore(at=9.0, cores=2)
        early = CoreLoss(at=1.0, cores=2)
        plan = FaultPlan([late, early])
        assert plan.faults == (early, late)

    def test_step_faults_sort_after_timed_in_construction_order(self):
        drop_b = ObjectDrop(step=7)
        drop_a = ObjectDrop(step=3)
        timed = Straggler(at=5.0, duration=1.0, factor=2.0)
        plan = FaultPlan([drop_b, timed, drop_a])
        assert plan.faults == (timed, drop_b, drop_a)

    def test_equal_times_keep_construction_order(self):
        loss = CoreLoss(at=4.0, cores=1)
        restore = CoreRestore(at=4.0, cores=1)
        plan = FaultPlan([restore, loss])
        assert plan.faults == (restore, loss)


class TestViews:
    def test_timed_excludes_step_faults(self):
        plan = FaultPlan([
            CoreLoss(at=1.0, cores=2),
            ObjectDrop(step=0),
            ObjectCorrupt(step=1),
        ])
        assert all(hasattr(f, "at") for f in plan.timed())
        assert len(plan.timed()) == 1

    def test_drops_and_corrupts_aggregate_per_step(self):
        plan = FaultPlan([
            ObjectDrop(step=2, count=2),
            ObjectDrop(step=2, count=1),
            ObjectDrop(step=5, count=1),
            ObjectCorrupt(step=2, repeats=3),
        ])
        assert plan.drops_by_step() == {2: 3, 5: 1}
        assert plan.corrupts_by_step() == {2: 3}

    def test_empty_plan(self):
        plan = FaultPlan()
        assert len(plan) == 0
        assert list(plan) == []
        assert plan.timed() == ()
        assert plan.drops_by_step() == {}
        assert plan.describe() == "(empty fault plan)"


class TestIdentity:
    def test_identity_stable_across_construction_order(self):
        a = FaultPlan([CoreLoss(at=1.0, cores=2), Straggler(at=3.0, duration=1.0, factor=2.0)])
        b = FaultPlan([Straggler(at=3.0, duration=1.0, factor=2.0), CoreLoss(at=1.0, cores=2)])
        assert a == b

    def test_identity_distinguishes_plans(self):
        a = FaultPlan([CoreLoss(at=1.0, cores=2)])
        b = FaultPlan([CoreLoss(at=1.0, cores=3)])
        assert a != b
        assert a != FaultPlan()

    def test_describe_lists_every_fault(self):
        plan = FaultPlan([CoreLoss(at=1.0, cores=2), ObjectDrop(step=4)])
        text = plan.describe()
        assert "staging.core_loss" in text
        assert "staging.object_drop" in text
        assert "step=4" in text
