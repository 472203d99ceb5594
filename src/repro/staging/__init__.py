"""The in-transit staging area, standing in for the paper's staging service.

The paper implements its adaptive runtime on top of an RDMA staging
service whose dynamic staging servers run the in-transit analysis.  The
adaptations act on one thing there: a resizable pool of staging cores
that ingests data under a memory limit (Eqs. 9-10, 12).  This package
models exactly that over the simulated machine:

- :mod:`repro.staging.area` -- the staging area: a resizable pool of
  staging cores executing analysis jobs, with ingest transfers over the
  simulated network, bounded retry with backoff for faulted ingests,
  and utilization accounting (Eq. 12).
"""

from repro.staging.area import AnalysisJob, StagingArea

__all__ = ["AnalysisJob", "StagingArea"]
