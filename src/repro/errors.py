"""Exception hierarchy shared across the package.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch package failures with a single handler while still being
able to discriminate by subsystem.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """Raised for invalid discrete-event simulation operations."""


class ResourceError(ReproError):
    """Raised when a simulated resource request cannot be satisfied."""


class GeometryError(ReproError):
    """Raised for invalid AMR box/layout geometry."""


class HierarchyError(ReproError):
    """Raised for inconsistent AMR hierarchy operations (nesting, ratios)."""


class StagingError(ReproError):
    """Raised by the staging area and its retry policy."""


class PolicyError(ReproError):
    """Raised when an adaptation policy receives inconsistent inputs."""


class WorkflowError(ReproError):
    """Raised by the coupled workflow driver."""


class TraceError(ReproError):
    """Raised for malformed or inconsistent workload traces."""


class ObservabilityError(ReproError):
    """Raised by the tracing and metrics subsystem."""


class FaultError(ReproError):
    """Raised for invalid fault plans or mis-wired fault injection."""


class ExperimentError(ReproError):
    """Raised by the experiment sweep runner (unknown ids, bad grids)."""


class ServiceError(ReproError):
    """Raised by the multi-tenant workflow service (admission, grants)."""
