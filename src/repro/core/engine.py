"""The Adaptation Engine: selects and executes adaptation mechanisms.

"The Adaptation Engine is responsible for selecting and executing
appropriate adaptations based on user preference and hints, operational
state provided by the monitor, and the adaptation policies."

The engine supports the paper's experimental configurations:

- *local* adaptation -- a single layer's policy runs (Sections 5.2.1,
  5.2.2, 5.2.3 each evaluate one layer);
- *global* (cross-layer) adaptation -- Section 4.4's root-leaf plan is
  computed from the user objective, then executed leaves-to-root with the
  intermediate state updated between mechanisms (the application layer's
  chosen factor shrinks the S_data the resource and middleware layers
  see).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.actions import (
    AdaptationAction,
    PlaceAnalysis,
    Placement,
    SetDownsampleFactor,
    SetStagingCores,
)
from repro.core.mechanisms import Layer
from repro.core.policies.application import ApplicationLayerPolicy
from repro.core.policies.crosslayer import standard_plan
from repro.core.policies.middleware import MiddlewarePolicy
from repro.core.policies.resource import ResourcePolicy
from repro.core.preferences import UserHints, UserPreferences
from repro.core.state import OperationalState
from repro.errors import PolicyError
from repro.observability.events import ADAPT_ACTION, ADAPT_DECISION
from repro.observability.observer import NULL_OBSERVER, Observer

__all__ = ["AdaptationDecision", "AdaptationEngine"]


@dataclass
class AdaptationDecision:
    """Everything the engine decided for one step.

    Unset aspects (layer not in the plan) are ``None``; the host applies
    only what is set.
    """

    step: int
    factor: int | None = None
    placement: Placement | None = None
    insitu_fraction: float = 0.0  # meaningful when placement is HYBRID
    staging_cores: int | None = None
    actions: list[AdaptationAction] = field(default_factory=list)


class AdaptationEngine:
    """Runs the adaptation plan against operational-state snapshots.

    Parameters
    ----------
    preferences, hints:
        The user inputs of the conceptual architecture.
    layers:
        Explicit layer set for *local* adaptation (e.g.
        ``{Layer.MIDDLEWARE}``).  ``None`` selects *global* mode: the
        cross-layer root-leaf plan derived from ``preferences.objective``.
    trigger:
        Optional :class:`~repro.workflow.triggers.TriggerPolicy`; when
        injected, every committed decision is reported back via
        ``note_adapted`` so change-detecting policies can reset their
        references to the state they just adapted to.
    observer:
        The observability hooks
        (:class:`~repro.observability.observer.Observer`).  Every call
        to :meth:`adapt` emits an ``adapt.decision`` event carrying the
        inputs the plan ran on (estimated backlog, in-situ/in-transit
        times) plus one ``adapt.action`` event per layer with the
        policy's own reasoning; the ledger records the resource layer's
        staging-core choice and the middleware layer's implied
        staging-memory demand as predictions the host later resolves
        against realized values.  The default observer's hooks are null
        objects that do nothing.
    """

    def __init__(
        self,
        preferences: UserPreferences | None = None,
        hints: UserHints | None = None,
        layers: set[Layer] | None = None,
        hybrid_placement: bool = False,
        trigger=None,
        observer: Observer = NULL_OBSERVER,
    ):
        self.preferences = preferences or UserPreferences()
        self.hints = hints or UserHints()
        self.application = ApplicationLayerPolicy(
            self.hints, objective=self.preferences.objective
        )
        self.middleware = MiddlewarePolicy(
            hybrid=hybrid_placement, objective=self.preferences.objective
        )
        self.resource = ResourcePolicy()
        if layers is None:
            self.plan = list(standard_plan(self.preferences.objective))
            self.mode = "global"
        else:
            if not layers:
                raise PolicyError("local adaptation needs at least one layer")
            # Local plans keep the canonical order: application first,
            # then resource, then middleware (data dependencies).
            order = [Layer.APPLICATION, Layer.RESOURCE, Layer.MIDDLEWARE]
            self.plan = [layer for layer in order if layer in layers]
            self.mode = "local"
        self.tracer = observer.tracer
        self.ledger = observer.ledger
        self.trigger = trigger
        self.decisions: list[AdaptationDecision] = []

    def adapt(self, state: OperationalState) -> AdaptationDecision:
        """Execute the plan on ``state``; returns the combined decision.

        Between mechanisms the working state is updated so downstream
        mechanisms observe upstream effects: the application layer's
        reduction shrinks data/analysis estimates, the resource layer's
        allocation changes M and T_intransit.
        """
        decision = AdaptationDecision(step=state.step)
        working = state
        degraded = not state.staging_reachable
        for layer in self.plan:
            if layer is Layer.APPLICATION:
                action = self.application.decide(working)
                decision.factor = action.factor
                decision.actions.append(action)
                working = working.with_reduction(action.factor)
            elif layer is Layer.RESOURCE:
                if degraded:
                    # Every staging core is dead; there is nothing to size
                    # until the substrate comes back.
                    continue
                action = self.resource.decide(working)
                decision.staging_cores = action.cores
                decision.actions.append(action)
                working = working._derive(
                    staging_active_cores=action.cores,
                    est_intransit_time=working.analysis_work
                    / (working.core_rate * action.cores),
                )
            elif layer is Layer.MIDDLEWARE:
                if degraded:
                    # Graceful degradation: with staging unreachable the
                    # only feasible placement is in-situ.
                    action = PlaceAnalysis(
                        step=working.step,
                        placement=Placement.IN_SITU,
                        insitu_fraction=1.0,
                        reason="staging unreachable; degrading to in-situ",
                    )
                else:
                    action = self.middleware.decide(working)
                decision.placement = action.placement
                decision.insitu_fraction = action.insitu_fraction
                decision.actions.append(action)
            else:  # pragma: no cover - enum is closed
                raise PolicyError(f"unknown layer {layer}")
        self.decisions.append(decision)
        if self.trigger is not None:
            self.trigger.note_adapted(state.step, decision)
        if decision.staging_cores is not None:
            self.ledger.predict(
                "staging_cores", state.step, float(decision.staging_cores),
                mechanism="resource",
            )
        if decision.placement is Placement.IN_TRANSIT:
            self.ledger.predict(
                "memory_demand", state.step, working.data_bytes,
                mechanism="middleware",
            )
        elif decision.placement is Placement.HYBRID:
            self.ledger.predict(
                "memory_demand", state.step,
                (1.0 - decision.insitu_fraction) * working.data_bytes,
                mechanism="middleware",
            )
        if self.tracer.enabled:
            # `degraded` is only present on degraded decisions so that
            # fault-free traces stay byte-identical to pre-fault builds.
            extra = {"degraded": True} if degraded else {}
            self.tracer.emit(
                ADAPT_DECISION,
                step=state.step,
                mode=self.mode,
                plan=[layer.value for layer in self.plan],
                **extra,
                factor=decision.factor,
                placement=(
                    decision.placement.value if decision.placement else None
                ),
                insitu_fraction=decision.insitu_fraction,
                staging_cores=decision.staging_cores,
                # The inputs the plan ran on (pre-propagation snapshot).
                data_bytes=state.data_bytes,
                analysis_work=state.analysis_work,
                est_insitu_time=state.est_insitu_time,
                est_intransit_time=state.est_intransit_time,
                est_intransit_remaining=state.est_intransit_remaining,
                est_next_sim_time=state.est_next_sim_time,
                staging_busy=state.staging_busy,
                insitu_memory_ok=state.insitu_memory_ok,
                intransit_memory_ok=state.intransit_memory_ok,
            )
            for layer, action in zip(self.plan, decision.actions):
                self.tracer.emit(
                    ADAPT_ACTION,
                    step=state.step,
                    layer=layer.value,
                    action=type(action).__name__,
                    reason=action.reason,
                )
        return decision
