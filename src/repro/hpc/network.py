"""Interconnect model: a few shared links, each split fairly among its flows.

Transfers are fluid flows, and every transfer crosses exactly one finite
link: the simulation-staging uplink, or a parallel file system's write or
read link.  A link's bandwidth is split equally among the flows it
carries, so each drains at ``link.bandwidth / len(link.flows)`` -- the
max-min fair allocation progressive filling computes when each flow has
one binding link.  Whenever a link's flow set or capacity changes,
progress is materialized, rates are recomputed and the next completion is
rescheduled.  This captures the first-order behaviour that matters to the
paper's policies -- concurrent in-transit sends contend for staging ingest
bandwidth -- without modelling packets or hops.

Endpoints are plain names; the network maps each connected endpoint pair
(either direction) to its :class:`Link`, and several pairs may share one
link (every PFS client shares the PFS write link).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.hpc.event import Event, Simulator
from repro.hpc.kernel import TRANSFER

__all__ = ["Link", "Network", "Transfer"]

_EPS_BYTES = 1e-6
_MIN_STEP = 1e-9  # seconds; smallest wake-up interval the scheduler will use


@dataclass(eq=False)
class Link:
    """A shared-capacity link: ``bandwidth`` bytes/s split among ``flows``.

    ``latency`` is a one-way propagation delay added once per transfer.
    ``flows`` holds the link's active transfers in admission order.
    """

    name: str
    bandwidth: float
    latency: float = 0.0
    flows: list[Transfer] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise SimulationError(f"link {self.name!r} needs positive bandwidth")
        if self.latency < 0:
            raise SimulationError(f"link {self.name!r} has negative latency")

    def _share(self) -> None:
        """Give each active flow an equal share of the bandwidth."""
        if self.flows:
            rate = self.bandwidth / len(self.flows)
            for flow in self.flows:
                flow.rate = rate


@dataclass(eq=False)
class Transfer:
    """One fluid flow in progress.

    Its completion event (what :meth:`Network.transfer` returns) fires
    with the transfer itself.  The transfer does not hold that event, so
    the pair forms no reference cycle.
    """

    transfer_id: int
    src: str
    dst: str
    size: float
    link: Link
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
    """Endpoint pairs mapped to shared links, plus the flow scheduler.

    Usage::

        net = Network(sim)
        net.add_link("sim", "staging", bandwidth=10 * GiB, latency=5e-6)
        done = net.transfer("sim", "staging", nbytes=1 * GiB)
        sim.run(done)
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.kernel = sim.kernel
        self._links: dict[tuple[str, str], Link] = {}
        # Active flows in admission order, each mapped to its completion event.
        self._flows: dict[Transfer, Event] = {}
        self._ids = itertools.count()
        self._last_update = sim.kernel.now
        self._wake_version = 0
        self.total_bytes_moved = 0.0

    # -- links --------------------------------------------------------------

    def add_link(self, a: str, b: str, bandwidth: float, latency: float = 0.0,
                 name: str | None = None) -> Link:
        """Connect endpoints ``a`` and ``b`` with a new shared-capacity link."""
        return self.connect(a, b, Link(name or f"{a}--{b}", bandwidth, latency))

    def connect(self, a: str, b: str, link: Link) -> Link:
        """Route the endpoint pair ``a``/``b`` over an existing ``link``."""
        self._links[a, b] = self._links[b, a] = link
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
            link._share()
        if latency is not None:
            link.latency = float(latency)
        self._reschedule()
        return link

    def link_between(self, a: str, b: str) -> Link:
        """The link joining ``a`` and ``b`` (either direction)."""
        try:
            return self._links[a, b]
        except KeyError:
            raise SimulationError(f"no link between {a!r} and {b!r}") from None

    # -- transfers ----------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: float) -> Event:
        """Start an asynchronous transfer; returns its completion event,
        which fires with the finished :class:`Transfer`."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        link = self.link_between(src, dst)
        done = Event(self.sim, "xfer(%s->%s, %.0fB)", src, dst, nbytes)
        kernel = self.kernel
        flow = Transfer(
            transfer_id=next(self._ids),
            src=src,
            dst=dst,
            size=float(nbytes),
            link=link,
            remaining=float(nbytes),
            started_at=kernel.now,
        )
        self.total_bytes_moved += flow.size
        arrive = self._finish_zero if nbytes <= _EPS_BYTES else self._admit
        kernel.schedule(kernel.now + link.latency, TRANSFER, arrive, (flow, done))
        return done

    # -- fluid-flow internals ---------------------------------------------

    def _finish_zero(self, flow: Transfer, done: Event) -> None:
        flow.finished_at = self.kernel.now
        done.succeed(flow)

    def _admit(self, flow: Transfer, done: Event) -> None:
        self._materialize_progress()
        flow.started_at = min(flow.started_at, self.kernel.now)
        self._flows[flow] = done
        flow.link.flows.append(flow)
        flow.link._share()
        self._reschedule()

    def _materialize_progress(self) -> None:
        now = self.kernel.now
        dt = now - self._last_update
        if dt > 0:
            for flow in self._flows:
                flow.remaining = max(0.0, flow.remaining - flow.rate * dt)
        self._last_update = now

    def _reschedule(self) -> None:
        self._wake_version += 1
        if not self._flows:
            return
        horizon = min(f.remaining / f.rate for f in self._flows)
        # Never schedule a zero/denormal step: float residue on `remaining`
        # could otherwise pin the wake-up at the current timestamp forever.
        horizon = max(horizon, _MIN_STEP)
        kernel = self.kernel
        kernel.schedule(kernel.now + horizon, TRANSFER, self._wake,
                        (self._wake_version,))

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
            done = self._flows.pop(flow)
            flow.link.flows.remove(flow)
            flow.remaining = 0.0
            flow.finished_at = self.kernel.now
            done.succeed(flow)
        for link in dict.fromkeys(f.link for f in finished):
            link._share()
        self._reschedule()
