"""Multi-tenant workflow service over one shared simulated machine.

Layering (top of the stack documented in ``docs/architecture.md``)::

    WorkflowService          admission queue + arrival events (tenancy)
      AdmissionController    bounded queue, fifo/smallest/fair_share
      TenantScheduler        exact compute/staging pool bookkeeping
      CoupledWorkflow x N    per-tenant driver, Monitor, AdaptationEngine
        StagingArea x N      pool-wide area masked to the tenant's grant

Service traffic rides the kernel's ``tenant`` event kind
(:data:`repro.hpc.kernel.TENANT`).
"""

from repro.service.admission import ADMISSION_POLICIES, AdmissionController
from repro.service.scheduler import TenantScheduler
from repro.service.tenancy import (
    ServiceReport,
    Tenant,
    TenantReport,
    WorkflowService,
)

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionController",
    "ServiceReport",
    "Tenant",
    "TenantReport",
    "TenantScheduler",
    "WorkflowService",
]
