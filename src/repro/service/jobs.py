"""Trial-grid specs and the threaded job runner behind the service API.

A *submission* is a JSON-able dict::

    {"grid": {"kind": "thm11", "diameters": [4, 8], "seeds": [0, 1]},
     "num_pulses": 3}

``grid`` names one of the trial grids the experiment drivers build
(:func:`build_trials` maps it to a ``BatchTrial`` list) and
``num_pulses`` is the pulse budget (default 4); a submission carries no
other field.

The :class:`JobRunner` owns one thread pool of ``concurrency`` job
threads: submissions become :class:`Job` objects queued on the pool,
and each job thread runs one blocking, streamed batch at a time.
:class:`~repro.experiments.batch.BatchRunner`'s executor rule, the same
one every caller gets, decides each job's shards: a service-sized grid
runs serially in the job thread itself, and a grid the rule shards runs
its first half in the job thread and its second on the process-wide
worker pool -- failure-isolated, so a worker death loses no completed
shard.  Every executor event, the ``plan`` event naming the executor
included, lands in the job's ordered progress stream, which HTTP
clients poll or long-poll.  Results dedup through the
:class:`~repro.service.store.ResultStore`: a job whose grid key is
already stored completes instantly as a recorded cache hit.
"""

from __future__ import annotations

import itertools
import numbers
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.batch import BatchResult, BatchRunner, BatchTrial
from repro.service.store import ResultStore, grid_key

__all__ = [
    "GRID_KINDS",
    "Job",
    "JobRunner",
    "batch_payload",
    "build_trials",
    "to_jsonable",
]


# ----------------------------------------------------------------------
# Trial-grid specs
# ----------------------------------------------------------------------
def _thm11_grid(grid: Dict) -> List[BatchTrial]:
    """``{"diameters": [...], "seeds": [...]}`` -> the thm11 sweep."""
    trials: List[BatchTrial] = []
    seeds = grid.get("seeds", [0])
    for diameter in grid["diameters"]:
        trials.extend(
            BatchRunner.seed_sweep(
                int(diameter),
                [int(s) for s in seeds],
                num_pulses=int(grid.get("num_pulses", 4)),
                num_layers=grid.get("num_layers"),
            )
        )
    return trials


def _seed_sweep_grid(grid: Dict) -> List[BatchTrial]:
    """``{"diameter": D, "seeds": [...]}`` -> one-diameter sweep."""
    return BatchRunner.seed_sweep(
        int(grid["diameter"]),
        [int(s) for s in grid.get("seeds", [0])],
        num_pulses=int(grid.get("num_pulses", 4)),
        num_layers=grid.get("num_layers"),
    )


def _thm13_grid(grid: Dict) -> List[BatchTrial]:
    """``{"diameter", "seeds", "probability_scale"}`` -> the thm13 grid."""
    from repro.experiments.thm13_random_faults import thm13_trials

    seeds = grid.get("seeds")
    if seeds is None:
        seeds = list(range(int(grid.get("num_trials", 10))))
    trials, _ = thm13_trials(
        int(grid["diameter"]),
        [int(s) for s in seeds],
        num_pulses=int(grid.get("num_pulses", 3)),
        probability_scale=float(grid.get("probability_scale", 1.0)),
    )
    return trials


def _cor15_grid(grid: Dict) -> List[BatchTrial]:
    """``{"diameter", "seed"}`` -> the sustained-variation cell."""
    from repro.experiments.cor15_variation import cor15_trial

    trial, _ = cor15_trial(
        int(grid["diameter"]),
        num_pulses=int(grid.get("num_pulses", 6)),
        seed=int(grid.get("seed", 0)),
    )
    return [trial]


def _table1_grid(grid: Dict) -> List[BatchTrial]:
    """``{"diameters", "seeds"}`` -> the Gradient TRIX Table 1 cells."""
    from repro.experiments.table1 import table1_trials

    trials, _ = table1_trials(
        [int(d) for d in grid["diameters"]],
        [int(s) for s in grid.get("seeds", [0])],
        num_pulses=int(grid.get("num_pulses", 4)),
    )
    return trials


#: Grid ``kind`` -> builder.  These are the same grids the experiment
#: drivers batch (thm11/thm13/cor15/table1), factored out of them.
GRID_KINDS = {
    "thm11": _thm11_grid,
    "seed_sweep": _seed_sweep_grid,
    "thm13": _thm13_grid,
    "cor15": _cor15_grid,
    "table1": _table1_grid,
}


def build_trials(grid: Dict) -> List[BatchTrial]:
    """Materialize a grid spec dict into its :class:`BatchTrial` list.

    Example
    -------
    >>> from repro.service.jobs import build_trials
    >>> trials = build_trials({"kind": "thm11", "diameters": [4], "seeds": [0, 1]})
    >>> len(trials)
    2
    """
    if not isinstance(grid, dict) or "kind" not in grid:
        raise ValueError("grid spec must be a dict with a 'kind' field")
    kind = grid["kind"]
    if kind not in GRID_KINDS:
        raise ValueError(
            f"unknown grid kind {kind!r}; use one of {sorted(GRID_KINDS)}"
        )
    trials = GRID_KINDS[kind](grid)
    if not trials:
        raise ValueError(f"grid spec {grid!r} produced no trials")
    return trials


# ----------------------------------------------------------------------
# Result payloads
# ----------------------------------------------------------------------
def batch_payload(batch: BatchResult) -> Dict:
    """The served statistics of a finished batch (arrays, not JSON yet).

    Exactly the reductions the drivers consume, so a grid served over
    HTTP is bitwise-comparable to a direct in-process
    ``BatchRunner.run``; ``to_jsonable`` converts it losslessly (JSON
    floats round-trip ``float.__repr__`` exactly).
    """
    return {
        "num_trials": len(batch),
        "num_pulses": batch.num_pulses,
        "labels": [t.label for t in batch.trials],
        "max_local_skews": batch.max_local_skews(),
        "max_inter_layer_skews": batch.max_inter_layer_skews(),
        "overall_skews": batch.overall_skews(),
        "global_skews": batch.global_skews(),
        "local_skews": batch.local_skews(),
        "inter_layer_skews": batch.inter_layer_skews(),
        "correction_stats": batch.correction_stats(),
        "num_faults": batch.num_faults(),
        "stack_groups": [list(g) for g in batch.stack_groups],
        "fallback_reasons": {
            int(i): why for i, why in batch.fallback_reasons.items()
        },
    }


def to_jsonable(value):
    """Recursively convert a payload to JSON-serializable builtins."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


def _submission_pulses(submission: Dict) -> int:
    """Check a submission's fields and return its pulse budget.

    A submission is ``{"grid", "num_pulses"}``: any other field (the
    retired ``runner`` knobs included) is rejected by name, and the pulse
    budget must be an integer >= 1 (default 4).
    """
    unknown = sorted(set(submission) - {"grid", "num_pulses"})
    if unknown:
        raise ValueError(
            f"unknown submission field(s) {unknown}; a submission has "
            "only 'grid' and 'num_pulses'"
        )
    num_pulses = submission.get("num_pulses", 4)
    if (
        isinstance(num_pulses, bool)
        or not isinstance(num_pulses, numbers.Integral)
        or num_pulses < 1
    ):
        raise ValueError(f"num_pulses must be an integer >= 1, got {num_pulses!r}")
    return int(num_pulses)


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
class Job:
    """One submitted grid: status, ordered progress events, result handle.

    Event appends and reads synchronize on one condition variable, so
    HTTP handler threads can long-poll :meth:`events_since` while the
    executor thread streams shard progress in.
    """

    def __init__(
        self,
        job_id: str,
        spec: Dict,
        trials: Sequence[BatchTrial],
        num_pulses: int,
        key: Optional[str],
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.trials = list(trials)
        self.num_pulses = num_pulses
        self.key = key
        self.status = "queued"
        self.cache_hit: Optional[bool] = None
        self.error: Optional[str] = None
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.events: List[Dict] = []
        self._payload = None
        self._cond = threading.Condition()

    def emit(self, event: Dict) -> None:
        """Append one progress event (stamped with a monotonic ``seq``)."""
        with self._cond:
            self.events.append(
                {"seq": len(self.events), "ts": time.time(), **event}
            )
            self._cond.notify_all()

    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.status in ("done", "failed")

    def events_since(
        self, since: int = 0, wait: float = 0.0
    ) -> List[Dict]:
        """Events with ``seq >= since``; optionally block up to ``wait`` s.

        The long-poll building block of the ``/jobs/<id>/events``
        stream: a client holds the request open until new events arrive
        or the job finishes, then resumes from the last ``seq`` it saw.
        """
        deadline = time.monotonic() + wait
        with self._cond:
            while (
                wait > 0
                and len(self.events) <= since
                and not self.done
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return [dict(e) for e in self.events[since:]]

    def wait_done(self, timeout: float) -> bool:
        """Block up to ``timeout`` s for a terminal state; True once done.

        The building block of ``GET /jobs/<id>?wait=S``: one request
        that returns when the job finishes.
        """
        with self._cond:
            return self._cond.wait_for(lambda: self.done, timeout)

    def payload(self):
        """The finished statistics payload (None until ``done``)."""
        return self._payload

    def describe(self) -> Dict:
        """JSON-able status view (no trial objects, no payload)."""
        return {
            "id": self.id,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "key": self.key,
            "num_trials": len(self.trials),
            "num_pulses": self.num_pulses,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "num_events": len(self.events),
        }


class JobRunner:
    """Thread-pool job queue executing trial grids through ``BatchRunner``.

    ``concurrency`` bounds how many jobs execute at once (each job's
    own sharding is the ``BatchRunner`` executor rule's pick).  :meth:`start` is
    idempotent and :meth:`shutdown` stops taking jobs without
    interrupting the blocking batches already in flight (jobs are
    deterministic and cached, so a re-submission after restart is a
    hit).

    Example
    -------
    >>> from repro.service.jobs import JobRunner
    >>> runner = JobRunner().start()
    >>> job = runner.submit({
    ...     "grid": {"kind": "thm11", "diameters": [4], "seeds": [0]},
    ...     "num_pulses": 2,
    ... })
    >>> runner.wait(job.id, timeout=60).status
    'done'
    >>> [e["executor"] for e in job.events if e["event"] == "plan"]
    ['serial']
    >>> runner.shutdown()
    """

    def __init__(
        self, store: Optional[ResultStore] = None, concurrency: int = 2
    ) -> None:
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        self.store = store if store is not None else ResultStore()
        self.concurrency = concurrency
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pool: Optional[ThreadPoolExecutor] = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "JobRunner":
        """Create the job threads' pool (idempotent)."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                self.concurrency, thread_name_prefix="repro-service-job"
            )
        return self

    def shutdown(self) -> None:
        """Stop taking jobs; queued-but-unstarted jobs stay queued."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- submission -----------------------------------------------------
    def submit(
        self, submission: Dict, trials: Optional[Sequence[BatchTrial]] = None
    ) -> Job:
        """Validate a submission, enqueue it, and return its :class:`Job`.

        ``trials`` optionally bypasses the grid spec with pre-built
        trial objects (the programmatic path used by in-process callers
        and the chaos smoke test); HTTP submissions always come through
        ``submission["grid"]``.  Validation -- the submission's fields
        and pulse budget, then grid building -- happens here, in the
        caller's thread, so a bad submission fails the request instead
        of the job.
        """
        pool = self._pool
        if pool is None:
            raise RuntimeError("JobRunner is not started; call start() first")
        num_pulses = _submission_pulses(submission)
        if trials is None:
            trials = build_trials(submission.get("grid"))
        key = grid_key(trials, num_pulses)
        with self._lock:
            job_id = f"job-{next(self._ids):05d}"
            job = Job(
                job_id,
                spec=dict(submission),
                trials=trials,
                num_pulses=num_pulses,
                key=key,
            )
            self._jobs[job_id] = job
            self._order.append(job_id)
        job.emit({"event": "queued", "key": key})
        pool.submit(self._execute, job)
        return job

    # -- introspection ----------------------------------------------------
    def job(self, job_id: str) -> Optional[Job]:
        """The job registered under ``job_id``, or None."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every registered job, in submission order."""
        with self._lock:
            return [self._jobs[i] for i in self._order]

    def wait(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until ``job_id`` reaches a terminal state (or timeout)."""
        job = self.job(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if not job.wait_done(timeout):
            raise TimeoutError(
                f"job {job_id} still {job.status!r} after {timeout}s"
            )
        return job

    # -- execution --------------------------------------------------------
    def _execute(self, job: Job) -> None:
        """Run one job to completion (executor-thread context)."""
        job.status = "running"
        job.started = time.time()
        job.emit({"event": "started", "num_trials": len(job.trials)})
        try:
            payload = None
            if job.key is not None:
                payload = self.store.get(job.key)
            if payload is not None:
                job.cache_hit = True
                job.emit({"event": "cache", "status": "hit", "key": job.key})
            else:
                job.cache_hit = False
                job.emit(
                    {
                        "event": "cache",
                        "status": (
                            "miss" if job.key is not None else "uncacheable"
                        ),
                        "key": job.key,
                    }
                )
                # Streamed: service memory stays bounded, and the folded
                # statistics equal a materialized run's bitwise.
                runner = BatchRunner(num_pulses=job.num_pulses, store_times=False)
                batch = runner.run(job.trials, on_shard=job.emit)
                payload = batch_payload(batch)
                if job.key is not None:
                    self.store.put(job.key, payload)
            job._payload = payload
            job.status = "done"
            job.finished = time.time()
            job.emit({"event": "done", "cache_hit": job.cache_hit})
        except Exception as exc:
            job.error = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            job.status = "failed"
            job.finished = time.time()
            job.emit({"event": "failed", "error": job.error})
