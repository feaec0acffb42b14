"""Simulation-as-a-service: threaded job runner, dedup result store, HTTP API.

The library's :class:`~repro.experiments.batch.BatchRunner` is a one-shot
in-process call; this package wraps it in a long-lived serving surface:

* :mod:`repro.service.store` -- a content-addressed result store that
  deduplicates submissions on the trial identity + seed + pulse budget,
  so a resubmitted grid is a recorded cache hit served without touching
  a kernel.
* :mod:`repro.service.jobs` -- trial-grid specs (the same grids the
  thm11/thm13/cor15/table1 drivers build) plus a thread-pool job runner
  that queues submissions and streams their progress.  The batch
  runner's executor rule decides each job's shards: a small grid runs
  serially in its job thread, and a large one runs its second half on
  one worker pool kept across jobs (failure-isolated: a worker killed
  mid-batch loses no completed shard).
* :mod:`repro.service.api` -- a stdlib HTTP/1.1 keep-alive server over
  the runner (submit / wait / stream events / fetch results), and
  :mod:`repro.service.client` -- the matching keep-alive client.

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
