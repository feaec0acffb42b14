"""Simulation-as-a-service: async job runner, dedup result store, HTTP API.

The library's :class:`~repro.experiments.batch.BatchRunner` is a one-shot
in-process call; this package wraps it in a long-lived serving surface:

* :mod:`repro.service.store` -- a content-addressed result store that
  deduplicates submissions on the trial identity + seed + pulse budget
  + keyed runner knobs, so a resubmitted grid is a recorded cache hit served
  without touching a kernel.
* :mod:`repro.service.jobs` -- trial-grid specs (the same grids the
  thm11/thm13/cor15/table1 drivers build) plus an asyncio job runner
  that queues submissions, executes them through the existing
  ``executor="process"`` sharding (failure-isolated: a worker killed
  mid-batch loses no completed shard), and streams per-shard progress.
* :mod:`repro.service.api` -- a stdlib HTTP server over the runner
  (submit / poll / stream events / fetch results), and
  :mod:`repro.service.client` -- the matching thin client.

Boot it with ``python -m repro.service`` (see ``docs/service.md``).
"""

from repro.service.api import ServiceServer
from repro.service.client import ServiceClient
from repro.service.jobs import Job, JobRunner, build_trials
from repro.service.store import ResultStore, grid_key

__all__ = [
    "Job",
    "JobRunner",
    "ResultStore",
    "ServiceClient",
    "ServiceServer",
    "build_trials",
    "grid_key",
]
