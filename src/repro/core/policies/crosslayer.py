"""Combined cross-layer policy: root-leaf coordination (paper Section 4.4).

The three steps of the paper's procedure, implemented over the mechanism
dependency graph, held as each mechanism's table of direct producers
(``a`` feeds ``b`` when ``a``'s outputs meet ``b``'s inputs):

1. **Look up root mechanisms** -- mechanisms whose own objective equals
   the user-defined objective.
2. **Look up leaf mechanisms** -- mechanisms whose outputs (transitively)
   feed a root's inputs ("goes through the formulation of root mechanisms
   and looks for their data dependencies with other layers' mechanisms").
3. **Execute** -- leaves before roots, leaves without dependencies first
   (Kahn's topological generations of the chosen mechanisms, each sorted
   by name).

For ``MINIMIZE_TIME_TO_SOLUTION`` this yields
``application -> resource -> middleware`` (S_data feeds both M and the
placement decision); for ``MAXIMIZE_RESOURCE_UTILIZATION`` it yields
``application -> resource`` with middleware excluded -- exactly the two
worked examples in the paper.
"""

from __future__ import annotations

import functools

from repro.core.mechanisms import Layer, Mechanism, standard_mechanisms
from repro.core.preferences import Objective
from repro.errors import PolicyError

__all__ = ["CrossLayerPolicy", "standard_plan"]


class CrossLayerPolicy:
    """Computes the mechanism execution plan for a user objective."""

    def __init__(self, mechanisms: dict[Layer, Mechanism] | None = None):
        self.mechanisms = mechanisms or standard_mechanisms()
        mechs = list(self.mechanisms.values())
        self._producers = {
            consumer: [p for p in mechs if p is not consumer and p.feeds(consumer)]
            for consumer in mechs
        }
        self._generations(mechs)  # raises on a cycle

    def _generations(self, chosen: list[Mechanism]) -> list[Mechanism]:
        """``chosen`` in dependency order: Kahn generations, each by name."""
        waiting = {m: {p for p in self._producers[m] if p in chosen}
                   for m in chosen}
        ordered: list[Mechanism] = []
        while waiting:
            ready = sorted((m for m, deps in waiting.items() if not deps),
                           key=lambda m: m.name)
            if not ready:
                raise PolicyError("mechanism dependency graph has a cycle")
            for m in ready:
                del waiting[m]
            for deps in waiting.values():
                deps.difference_update(ready)
            ordered.extend(ready)
        return ordered

    def roots(self, objective: Objective) -> list[Mechanism]:
        """Step 1: mechanisms sharing (serving) the user's objective."""
        return [m for m in self.mechanisms.values() if m.serves(objective)]

    def leaves(self, roots: list[Mechanism]) -> list[Mechanism]:
        """Step 2: mechanisms transitively feeding any root's inputs."""
        selected: set[Mechanism] = set()
        frontier = list(roots)
        while frontier:
            for producer in self._producers[frontier.pop()]:
                if producer not in selected:
                    selected.add(producer)
                    frontier.append(producer)
        return [m for m in self.mechanisms.values()
                if m in selected and m not in roots]

    def execution_plan(self, objective: Objective) -> list[Mechanism]:
        """Step 3: leaves then roots, in dependency (topological) order.

        Raises :class:`PolicyError` when no mechanism matches the
        objective (the paper's procedure has nothing to anchor on).
        """
        roots = self.roots(objective)
        if not roots:
            raise PolicyError(
                f"no mechanism has objective {objective.value!r}; "
                "cannot select a root"
            )
        return self._generations(roots + self.leaves(roots))

    def plan_layers(self, objective: Objective) -> list[Layer]:
        """Convenience: the execution plan as layer names."""
        return [m.layer for m in self.execution_plan(objective)]


@functools.cache
def standard_plan(objective: Objective) -> tuple[Layer, ...]:
    """The standard mechanisms' plan for ``objective``, computed once.

    The mechanism graph and the objective fully determine the plan, so
    every engine shares one result per objective instead of rebuilding
    the dependency table per workflow.
    """
    return tuple(CrossLayerPolicy().plan_layers(objective))
