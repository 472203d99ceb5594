"""Simulated HPC machine substrate.

This package substitutes for the leadership-class systems the paper ran on
(Intrepid IBM BG/P and Titan Cray XK7).  It provides a typed
discrete-event engine over one heapq heap (:mod:`repro.hpc.kernel`,
see ``docs/kernel.md``), the deterministic generator-process adapter on
top of it (:mod:`repro.hpc.event`), a waitable FIFO store
(:mod:`repro.hpc.resources`), an interconnect of shared links that split
their bandwidth evenly among their flows (:mod:`repro.hpc.network`), a
parallel file system on two such links (:mod:`repro.hpc.filesystem`) and
calibrated presets for the two systems used in the paper, with the
two-partition staging uplink built from them (:mod:`repro.hpc.systems`).
A workflow sees the machine only through a preset's aggregate numbers
and its two partitions' core counts.
"""

from repro.hpc.event import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulator,
    Timeout,
)
from repro.hpc.kernel import (
    KERNEL_EVENT_KINDS,
    EventKernel,
    KernelCounters,
    event_kind_code,
    event_kind_name,
)
from repro.hpc.network import Link, Network, Transfer
from repro.hpc.resources import Store
from repro.hpc.systems import SystemSpec, build_workflow_network, intrepid, titan

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "EventKernel",
    "Interrupt",
    "KERNEL_EVENT_KINDS",
    "KernelCounters",
    "Link",
    "Network",
    "Process",
    "Simulator",
    "Store",
    "SystemSpec",
    "Timeout",
    "Transfer",
    "build_workflow_network",
    "event_kind_code",
    "event_kind_name",
    "intrepid",
    "titan",
]
