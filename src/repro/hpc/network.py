"""Interconnect model with max-min fair bandwidth sharing.

Transfers are fluid flows: each active flow drains at a rate computed by
progressive filling (water-filling) over the links on its route, the
textbook max-min fair allocation.  Whenever the flow set changes, progress
is materialized, rates are recomputed and the next completion is
rescheduled.  This captures the first-order behaviour that matters to the
paper's policies -- concurrent in-transit sends contend for staging ingest
bandwidth -- without modelling packets.

Routes are shortest paths on a :mod:`networkx` graph whose edges carry
:class:`Link` objects, so arbitrary topologies from
:mod:`repro.hpc.topology` plug in directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import networkx as nx

from repro.errors import SimulationError
from repro.hpc.event import Event, Simulator

__all__ = ["Link", "Network", "Transfer"]

_EPS_BYTES = 1e-6
_MIN_STEP = 1e-9  # seconds; smallest wake-up interval the scheduler will use


@dataclass(eq=False)
class Link:
    """A directed-capacity link: ``bandwidth`` bytes/s shared by its flows.

    ``latency`` is a one-way propagation delay added once per route hop.
    ``bytes_carried`` accumulates for the data-movement metrics.
    """

    name: str
    bandwidth: float
    latency: float = 0.0
    bytes_carried: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise SimulationError(f"link {self.name!r} needs positive bandwidth")
        if self.latency < 0:
            raise SimulationError(f"link {self.name!r} has negative latency")


@dataclass(eq=False)
class Transfer:
    """One fluid flow in progress.  ``done`` fires with the transfer itself."""

    transfer_id: int
    src: str
    dst: str
    size: float
    route: tuple[Link, ...]
    done: Event
    remaining: float = 0.0
    rate: float = 0.0
    started_at: float = 0.0
    finished_at: float | None = None

    @property
    def elapsed(self) -> float | None:
        """Wall time of the transfer once finished, else ``None``."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class Network:
    """Topology + flow scheduler.

    Usage::

        net = Network(sim)
        net.add_link("sim", "staging", bandwidth=10 * GiB, latency=5e-6)
        done = net.transfer("sim", "staging", nbytes=1 * GiB)
        sim.run(done)
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.graph = nx.Graph()
        self._flows: set[Transfer] = set()
        self._ids = itertools.count()
        self._last_update = sim.now
        self._wake_version = 0
        self._route_cache: dict[tuple[str, str], tuple[Link, ...]] = {}
        self.total_bytes_moved = 0.0

    # -- topology ---------------------------------------------------------

    def add_link(self, a: str, b: str, bandwidth: float, latency: float = 0.0,
                 name: str | None = None) -> Link:
        """Connect endpoints ``a`` and ``b`` with a shared-capacity link."""
        link = Link(name or f"{a}--{b}", bandwidth, latency)
        self.graph.add_edge(a, b, link=link)
        self._route_cache.clear()
        return link

    def update_link(self, a: str, b: str, bandwidth: float | None = None,
                    latency: float | None = None) -> Link:
        """Mutate a live link's capacity and/or latency.

        Progress of active flows is materialized at the old rates before
        the change and rates are recomputed after it, so the mutation is
        exact at the current timestamp.  New latency only affects
        transfers admitted after the change.
        """
        link = self.link_between(a, b)
        if bandwidth is not None and bandwidth <= 0:
            raise SimulationError(f"link {link.name!r} needs positive bandwidth")
        if latency is not None and latency < 0:
            raise SimulationError(f"link {link.name!r} has negative latency")
        self._materialize_progress()
        if bandwidth is not None:
            link.bandwidth = float(bandwidth)
        if latency is not None:
            link.latency = float(latency)
        self._reschedule()
        return link

    def link_between(self, a: str, b: str) -> Link:
        """The link directly joining ``a`` and ``b``."""
        try:
            return self.graph.edges[a, b]["link"]
        except KeyError:
            raise SimulationError(f"no link between {a!r} and {b!r}") from None

    def route(self, src: str, dst: str) -> tuple[Link, ...]:
        """Shortest-hop route between endpoints (cached)."""
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        try:
            path = nx.shortest_path(self.graph, src, dst)
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise SimulationError(f"no route from {src!r} to {dst!r}") from exc
        links = tuple(self.graph.edges[u, v]["link"] for u, v in zip(path, path[1:]))
        self._route_cache[key] = links
        return links

    # -- transfers ----------------------------------------------------------

    @property
    def active_flows(self) -> int:
        """Number of flows currently draining."""
        return len(self._flows)

    def transfer(self, src: str, dst: str, nbytes: float) -> Event:
        """Start an asynchronous transfer; returns its completion event."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        route = self.route(src, dst)
        if not route:
            raise SimulationError(f"src and dst are the same endpoint: {src!r}")
        done = self.sim.event(name=f"xfer({src}->{dst}, {nbytes:.0f}B)")
        flow = Transfer(
            transfer_id=next(self._ids),
            src=src,
            dst=dst,
            size=float(nbytes),
            route=route,
            done=done,
            remaining=float(nbytes),
            started_at=self.sim.now,
        )
        self.total_bytes_moved += flow.size
        for link in route:
            link.bytes_carried += flow.size
        propagation = sum(link.latency for link in route)
        if nbytes <= _EPS_BYTES:
            self.sim._schedule_at(self.sim.now + propagation, self._finish_zero,
                                  flow, kind="transfer")
        else:
            self.sim._schedule_at(self.sim.now + propagation, self._admit,
                                  flow, kind="transfer")
        return done

    def estimate_transfer_time(self, src: str, dst: str, nbytes: float) -> float:
        """Uncontended transfer time estimate (latency + size/bottleneck)."""
        route = self.route(src, dst)
        latency = sum(link.latency for link in route)
        if nbytes <= 0:
            return latency
        bottleneck = min(link.bandwidth for link in route)
        return latency + nbytes / bottleneck

    # -- fluid-flow internals ---------------------------------------------

    def _finish_zero(self, flow: Transfer) -> None:
        flow.finished_at = self.sim.now
        flow.done.succeed(flow)

    def _admit(self, flow: Transfer) -> None:
        self._materialize_progress()
        flow.started_at = min(flow.started_at, self.sim.now)
        self._flows.add(flow)
        self._reschedule()

    def _materialize_progress(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0:
            for flow in self._flows:
                flow.remaining = max(0.0, flow.remaining - flow.rate * dt)
        self._last_update = now

    def _recompute_rates(self) -> None:
        """Max-min fair allocation by progressive filling."""
        unfrozen = set(self._flows)
        capacity = {link: link.bandwidth for links in (f.route for f in self._flows)
                    for link in links}
        for flow in self._flows:
            flow.rate = 0.0
        while unfrozen:
            # Bottleneck link: smallest fair share among links carrying
            # unfrozen flows.
            shares: dict[Link, float] = {}
            loads: dict[Link, int] = {}
            for flow in unfrozen:
                for link in flow.route:
                    loads[link] = loads.get(link, 0) + 1
            for link, load in loads.items():
                shares[link] = capacity[link] / load
            bottleneck = min(shares, key=lambda lk: shares[lk])
            fair = shares[bottleneck]
            frozen_now = {f for f in unfrozen if bottleneck in f.route}
            for flow in frozen_now:
                flow.rate = fair
                for link in flow.route:
                    capacity[link] -= fair
            unfrozen -= frozen_now

    def _reschedule(self) -> None:
        self._recompute_rates()
        self._wake_version += 1
        if not self._flows:
            return
        horizon = min(
            (f.remaining / f.rate) for f in self._flows if f.rate > 0
        )
        # Never schedule a zero/denormal step: float residue on `remaining`
        # could otherwise pin the wake-up at the current timestamp forever.
        horizon = max(horizon, _MIN_STEP)
        self.sim._schedule_at(self.sim.now + horizon, self._wake,
                              self._wake_version, kind="transfer")

    def _wake(self, version: int) -> None:
        if version != self._wake_version:
            return  # superseded by a newer flow-set change
        self._materialize_progress()
        # A flow is done when its residue is below the absolute epsilon or
        # below what it drains within one minimum scheduling step.
        finished = [
            f for f in self._flows
            if f.remaining <= max(_EPS_BYTES, f.rate * _MIN_STEP)
        ]
        for flow in finished:
            self._flows.discard(flow)
            flow.remaining = 0.0
            flow.finished_at = self.sim.now
            flow.done.succeed(flow)
        self._reschedule()
