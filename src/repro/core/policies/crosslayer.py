"""Combined cross-layer policy: root-leaf coordination (paper Section 4.4).

The three steps of the paper's procedure, implemented over a mechanism
dependency digraph (networkx):

1. **Look up root mechanisms** -- mechanisms whose own objective equals
   the user-defined objective.
2. **Look up leaf mechanisms** -- mechanisms whose outputs (transitively)
   feed a root's inputs ("goes through the formulation of root mechanisms
   and looks for their data dependencies with other layers' mechanisms").
3. **Execute** -- leaves before roots, leaves without dependencies first
   (topological order of the induced subgraph).

For ``MINIMIZE_TIME_TO_SOLUTION`` this yields
``application -> resource -> middleware`` (S_data feeds both M and the
placement decision); for ``MAXIMIZE_RESOURCE_UTILIZATION`` it yields
``application -> resource`` with middleware excluded -- exactly the two
worked examples in the paper.
"""

from __future__ import annotations

import functools

import networkx as nx

from repro.core.mechanisms import Layer, Mechanism, standard_mechanisms
from repro.core.preferences import Objective
from repro.errors import PolicyError

__all__ = ["CrossLayerPolicy", "standard_plan"]


class CrossLayerPolicy:
    """Computes the mechanism execution plan for a user objective."""

    def __init__(self, mechanisms: dict[Layer, Mechanism] | None = None):
        self.mechanisms = mechanisms or standard_mechanisms()
        self.graph = self._build_graph()

    def _build_graph(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        mechs = list(self.mechanisms.values())
        graph.add_nodes_from(mechs)
        for producer in mechs:
            for consumer in mechs:
                if producer is consumer:
                    continue
                if producer.feeds(consumer):
                    graph.add_edge(producer, consumer)
        if not nx.is_directed_acyclic_graph(graph):
            raise PolicyError("mechanism dependency graph has a cycle")
        return graph

    def roots(self, objective: Objective) -> list[Mechanism]:
        """Step 1: mechanisms sharing (serving) the user's objective."""
        return [m for m in self.mechanisms.values() if m.serves(objective)]

    def leaves(self, roots: list[Mechanism]) -> list[Mechanism]:
        """Step 2: mechanisms transitively feeding any root's inputs."""
        selected: set[Mechanism] = set()
        for root in roots:
            selected |= nx.ancestors(self.graph, root)
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
        chosen = set(roots) | set(self.leaves(roots))
        sub = self.graph.subgraph(chosen)
        order = list(nx.topological_sort(sub))
        # Deterministic tie-breaks: topological generations sorted by name.
        ordered: list[Mechanism] = []
        for generation in nx.topological_generations(sub):
            ordered.extend(sorted(generation, key=lambda m: m.name))
        return ordered if len(ordered) == len(order) else order

    def plan_layers(self, objective: Objective) -> list[Layer]:
        """Convenience: the execution plan as layer names."""
        return [m.layer for m in self.execution_plan(objective)]


@functools.cache
def standard_plan(objective: Objective) -> tuple[Layer, ...]:
    """The standard mechanisms' plan for ``objective``, computed once.

    The mechanism graph and the objective fully determine the plan, so
    every engine shares one result per objective instead of rebuilding
    the digraph per workflow.
    """
    return tuple(CrossLayerPolicy().plan_layers(objective))
