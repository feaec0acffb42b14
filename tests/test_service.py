"""Tests for repro.service: job runner, dedup store, HTTP API.

The service contract under test, end to end:

* a grid submitted through the API returns statistics **bitwise equal**
  to a direct in-process ``BatchRunner.run`` (JSON floats round-trip
  ``float.__repr__`` exactly, so the equality is checked on the decoded
  JSON, NaN-aware),
* resubmitting the same grid is a **recorded cache hit** (the
  content-addressed store dedups on trial identity + seed + pulse
  budget + the keyed runner knobs; ``executor``/``shards`` deliberately
  excluded),
* a worker process dying mid-batch loses no completed shard and the
  job still completes (the ``BrokenProcessPool`` retry path, exercised
  deterministically through the service with an ``os._exit`` trial and
  for real -- SIGKILL on a live worker PID -- in the HTTP smoke),
* the HTTP/1.1 transport keeps one connection per client in step
  across requests: bodies are drained before any answer, and a
  connection the server closed while idle is reopened transparently.
"""

import json
import math
import multiprocessing
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.batch import BatchRunner, BatchTrial
from repro.experiments.common import standard_config
from repro.service import (
    Job,
    JobRunner,
    ResultStore,
    ServiceClient,
    ServiceServer,
    build_trials,
    grid_key,
)
from repro.service.api import _Handler
from repro.service.jobs import batch_payload, to_jsonable
from repro.service.store import CACHE_VERSION, KEYED_RUNNER_KNOBS

SMALL_GRID = {"kind": "thm11", "diameters": [4, 6], "seeds": [0, 1]}
NUM_PULSES = 3


def direct_payload(grid, num_pulses=NUM_PULSES):
    """The reference statistics: an in-process run of the same grid."""
    batch = BatchRunner(num_pulses=num_pulses, store_times=False).run(
        build_trials(grid)
    )
    return to_jsonable(batch_payload(batch))


def deep_equal(a, b):
    """Recursive equality with float NaN == NaN (bitwise via repr round-trip)."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            deep_equal(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            deep_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


#: Payload keys that describe the *execution path*, not the results: a
#: process-sharded run stacks per shard (different ``stack_groups``) and
#: a retried shard carries its worker-death note (different
#: ``fallback_reasons``).  Everything else is bitwise executor-invariant.
EXECUTOR_DIAGNOSTICS = ("stack_groups", "fallback_reasons")


def equal_statistics(served, reference):
    """``deep_equal`` over the statistics, minus executor diagnostics."""
    served = {
        k: v for k, v in served.items() if k not in EXECUTOR_DIAGNOSTICS
    }
    reference = {
        k: v for k, v in reference.items() if k not in EXECUTOR_DIAGNOSTICS
    }
    return deep_equal(served, reference)


class WorkerKiller:
    """Rate provider killing any pool worker that touches its trial.

    ``multiprocessing.parent_process()`` is None in the main process, so
    the in-parent shard retry (and any serial reference run) sees plain
    rate-1.0 clocks.
    """

    def __call__(self, node, pulse):
        if multiprocessing.parent_process() is not None:
            os._exit(17)
        return 1.0


# ----------------------------------------------------------------------
# Result store + grid keys
# ----------------------------------------------------------------------
class TestGridKey:
    def test_deterministic_across_rebuilds(self):
        key1 = grid_key(build_trials(SMALL_GRID), NUM_PULSES)
        key2 = grid_key(build_trials(SMALL_GRID), NUM_PULSES)
        assert key1 is not None
        assert key1 == key2

    def test_pulse_budget_enters_the_key(self):
        trials = build_trials(SMALL_GRID)
        assert grid_key(trials, 3) != grid_key(trials, 4)

    def test_grid_contents_enter_the_key(self):
        other = dict(SMALL_GRID, seeds=[0, 2])
        assert grid_key(build_trials(SMALL_GRID), NUM_PULSES) != grid_key(
            build_trials(other), NUM_PULSES
        )

    def test_executor_and_shards_are_excluded(self):
        trials = build_trials(SMALL_GRID)
        assert grid_key(trials, NUM_PULSES) == grid_key(
            trials, NUM_PULSES, {"executor": "process", "shards": 4}
        )

    def test_keyed_knob_is_store_times_alone(self):
        # The retired stacking/compaction/backend knobs, then
        # ``vectorize``, then ``sketch_rank`` and ``potential_levels``
        # left the key, so the layout changed three times and
        # CACHE_VERSION moved to 4.
        assert set(KEYED_RUNNER_KNOBS) == {"store_times"}
        assert CACHE_VERSION == 4
        trials = build_trials(SMALL_GRID)
        assert grid_key(trials, NUM_PULSES) != grid_key(
            trials, NUM_PULSES, {"store_times": False}
        )

    def test_explicit_default_hashes_like_omitted(self):
        trials = build_trials(SMALL_GRID)
        assert grid_key(trials, NUM_PULSES) == grid_key(
            trials, NUM_PULSES, {"store_times": True}
        )

    def test_unpicklable_grid_is_uncacheable(self):
        trial = BatchTrial(
            config=standard_config(4),
            clock_rates=lambda node, pulse: 1.0,
        )
        assert grid_key([trial], NUM_PULSES) is None


class TestResultStore:
    def test_pickle_round_trip_returns_fresh_copies(self):
        store = ResultStore()
        payload = {"skews": np.array([1.0, np.nan, 3.0])}
        store.put("k", payload)
        first = store.get("k")
        first["skews"][0] = 999.0
        second = store.get("k")
        np.testing.assert_array_equal(
            second["skews"], [1.0, np.nan, 3.0]
        )

    def test_stats_count_dedup_decisions_only(self):
        store = ResultStore()
        assert store.get("missing") is None
        store.put("k", {"x": 1})
        assert store.get("k") == {"x": 1}
        assert store.peek_bytes("k") is not None  # result fetch: no stat
        assert store.stats == {"entries": 1, "hits": 1, "misses": 1}

    def test_directory_persistence_round_trip(self, tmp_path):
        first = ResultStore(directory=str(tmp_path))
        first.put("cafe", {"skews": np.arange(3.0)})
        assert (tmp_path / "cafe.pkl").exists()
        second = ResultStore(directory=str(tmp_path))
        assert "cafe" in second
        np.testing.assert_array_equal(
            second.get("cafe")["skews"], np.arange(3.0)
        )

    def test_truncated_entry_is_a_miss_and_recomputed(self, tmp_path):
        # A half-written <key>.pkl must not fail its key forever: the
        # job recomputes, put replaces the file, and the resubmission
        # is served from the repaired entry.
        spec = {"grid": SMALL_GRID, "num_pulses": NUM_PULSES}
        defaults = {"executor": "serial", "store_times": False}
        first = JobRunner(
            store=ResultStore(directory=str(tmp_path)),
            runner_defaults=defaults,
        ).start()
        try:
            job = first.submit(spec)
            first.wait(job.id, timeout=120)
            assert job.status == "done"
        finally:
            first.shutdown()
        path = tmp_path / f"{job.key}.pkl"
        path.write_bytes(path.read_bytes()[:40])

        store = ResultStore(directory=str(tmp_path))
        second = JobRunner(store=store, runner_defaults=defaults).start()
        try:
            redo = second.submit(spec)
            second.wait(redo.id, timeout=120)
            assert redo.status == "done", redo.error
            assert redo.cache_hit is False
            assert store.stats == {"entries": 1, "hits": 0, "misses": 1}
            again = second.submit(spec)
            second.wait(again.id, timeout=120)
            assert again.cache_hit is True
        finally:
            second.shutdown()
        want = direct_payload(SMALL_GRID)
        assert deep_equal(to_jsonable(redo.payload()), want)
        assert deep_equal(to_jsonable(again.payload()), want)
        # The file on disk was rewritten whole.
        assert deep_equal(
            to_jsonable(ResultStore(directory=str(tmp_path)).get(job.key)),
            want,
        )


# ----------------------------------------------------------------------
# Job runner (in-process)
# ----------------------------------------------------------------------
@pytest.fixture()
def runner():
    instance = JobRunner(
        runner_defaults={"executor": "serial", "store_times": False}
    ).start()
    yield instance
    instance.shutdown()


class TestJobRunner:
    def test_payload_bitwise_equal_to_direct_run(self, runner):
        job = runner.submit({"grid": SMALL_GRID, "num_pulses": NUM_PULSES})
        runner.wait(job.id, timeout=120)
        assert job.status == "done"
        assert job.cache_hit is False
        assert deep_equal(
            to_jsonable(job.payload()), direct_payload(SMALL_GRID)
        )

    def test_resubmission_is_a_recorded_cache_hit(self, runner):
        first = runner.submit({"grid": SMALL_GRID, "num_pulses": NUM_PULSES})
        runner.wait(first.id, timeout=120)
        second = runner.submit({"grid": SMALL_GRID, "num_pulses": NUM_PULSES})
        runner.wait(second.id, timeout=120)
        assert second.key == first.key
        assert second.cache_hit is True
        assert deep_equal(
            to_jsonable(second.payload()), to_jsonable(first.payload())
        )
        stats = runner.store.stats
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert any(
            e["event"] == "cache" and e["status"] == "hit"
            for e in second.events
        )

    def test_different_pulse_budget_misses(self, runner):
        first = runner.submit({"grid": SMALL_GRID, "num_pulses": NUM_PULSES})
        runner.wait(first.id, timeout=120)
        other = runner.submit(
            {"grid": SMALL_GRID, "num_pulses": NUM_PULSES + 1}
        )
        runner.wait(other.id, timeout=120)
        assert other.cache_hit is False
        assert runner.store.stats["entries"] == 2

    def test_progress_stream_ordering(self, runner):
        job = runner.submit({"grid": SMALL_GRID, "num_pulses": NUM_PULSES})
        runner.wait(job.id, timeout=120)
        events = job.events_since(0)
        assert [e["seq"] for e in events] == list(range(len(events)))
        names = [e["event"] for e in events]
        assert names[0] == "queued"
        assert names[1] == "started"
        assert names[2] == "cache"
        assert names[-1] == "done"
        # Executor progress sits between the cache decision and done.
        assert names.index("plan") > names.index("cache")
        shard_events = [e for e in events if e["event"] == "shard"]
        assert shard_events, names
        assert all(e["status"] == "done" for e in shard_events)
        # Timestamps are monotone with seq.
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)

    def test_concurrent_submissions_all_complete(self, runner):
        grids = [
            {"kind": "seed_sweep", "diameter": d, "seeds": [s]}
            for d, s in [(4, 0), (4, 1), (6, 0), (6, 1)]
        ]
        jobs, errors = [], []

        def submit(grid):
            try:
                jobs.append(
                    runner.submit({"grid": grid, "num_pulses": NUM_PULSES})
                )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=submit, args=(g,)) for g in grids
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len({job.id for job in jobs}) == len(grids)
        for job in jobs:
            runner.wait(job.id, timeout=120)
            assert job.status == "done"
            assert job.payload() is not None
        assert len({job.key for job in jobs}) == len(grids)

    def test_uncacheable_grid_still_runs(self, runner):
        trial = BatchTrial(
            config=standard_config(4),
            clock_rates=lambda node, pulse: 1.0,
        )
        job = runner.submit(
            {"num_pulses": NUM_PULSES, "runner": {"executor": "serial"}},
            trials=[trial],
        )
        runner.wait(job.id, timeout=120)
        assert job.status == "done"
        assert job.key is None
        assert any(
            e["event"] == "cache" and e["status"] == "uncacheable"
            for e in job.events
        )
        assert runner.store.stats["entries"] == 0

    def test_bad_submissions_fail_the_submit_call(self, runner):
        with pytest.raises(ValueError, match="kind"):
            runner.submit({"grid": {"kind": "thm99"}})
        with pytest.raises(ValueError, match="grid spec"):
            runner.submit({"grid": None})
        with pytest.raises(ValueError, match="executor"):
            runner.submit(
                {"grid": SMALL_GRID, "runner": {"executor": "gpu"}}
            )
        assert runner.jobs() == []

    def test_retired_runner_knob_fails_the_submit_call(self, runner):
        # BatchRunner no longer takes the knobs, so validation names them.
        for knob, value in (
            ("kernel_backend", "numpy"),
            ("vectorize", False),
            ("sketch_rank", 2),
            ("potential_levels", [1]),
        ):
            with pytest.raises(TypeError, match=knob):
                runner.submit({"grid": SMALL_GRID, "runner": {knob: value}})
        assert runner.jobs() == []

    def test_trial_error_fails_the_job_not_the_runner(self, runner):
        config = standard_config(4)
        bad = BatchTrial(
            config=config,
            clock_rates=lambda node, pulse: (_ for _ in ()).throw(
                RuntimeError("clock exploded")
            ),
        )
        job = runner.submit(
            {"num_pulses": NUM_PULSES, "runner": {"executor": "serial"}},
            trials=[bad],
        )
        runner.wait(job.id, timeout=120)
        assert job.status == "failed"
        assert "clock exploded" in job.error
        assert job.events[-1]["event"] == "failed"
        # The runner survives and serves the next job.
        ok = runner.submit({"grid": SMALL_GRID, "num_pulses": NUM_PULSES})
        runner.wait(ok.id, timeout=120)
        assert ok.status == "done"

    def test_worker_death_through_the_service(self):
        runner = JobRunner(
            runner_defaults={
                "executor": "process",
                "shards": 2,
                "store_times": False,
            }
        ).start()
        try:
            trials = [
                BatchTrial(config=standard_config(4, seed=s))
                for s in range(4)
            ]
            trials.append(
                BatchTrial(
                    config=standard_config(4, seed=99),
                    clock_rates=WorkerKiller(),
                    label="killer",
                )
            )
            job = runner.submit({"num_pulses": NUM_PULSES}, trials=trials)
            runner.wait(job.id, timeout=120)
            assert job.status == "done"
            statuses = [
                e["status"] for e in job.events if e["event"] == "shard"
            ]
            assert "lost" in statuses
            assert statuses.count("retried") == statuses.count("lost")
            reference = BatchRunner(
                num_pulses=NUM_PULSES, store_times=False
            ).run(trials)
            assert deep_equal(
                to_jsonable(job.payload()["max_local_skews"]),
                to_jsonable(reference.max_local_skews()),
            )
        finally:
            runner.shutdown()

    def test_submit_before_start_raises(self):
        with pytest.raises(RuntimeError, match="start"):
            JobRunner().submit({"grid": SMALL_GRID})


class TestJobEvents:
    def test_long_poll_wakes_on_emit(self):
        job = Job("job-x", {}, [], NUM_PULSES, {}, key=None)
        seen = {}

        def poll():
            seen["events"] = job.events_since(0, wait=10.0)

        thread = threading.Thread(target=poll)
        thread.start()
        time.sleep(0.05)
        job.emit({"event": "queued"})
        thread.join(5.0)
        assert not thread.is_alive()
        assert [e["event"] for e in seen["events"]] == ["queued"]

    def test_since_offsets_paginate(self):
        job = Job("job-x", {}, [], NUM_PULSES, {}, key=None)
        for i in range(3):
            job.emit({"event": f"e{i}"})
        assert [e["seq"] for e in job.events_since(1)] == [1, 2]
        assert job.events_since(3) == []


# ----------------------------------------------------------------------
# HTTP API
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    instance = ServiceServer(port=0).start()
    yield instance
    instance.stop()


@pytest.fixture()
def client(server):
    return ServiceClient(server.url)


class TestServiceHTTP:
    GRID = {"kind": "thm11", "diameters": [4], "seeds": [0, 1]}

    def test_health(self, client):
        view = client.health()
        assert view["status"] == "ok"

    def test_submit_wait_fetch_bitwise(self, client):
        accepted = client.submit(
            self.GRID, num_pulses=NUM_PULSES, runner={"executor": "serial"}
        )
        assert accepted["status"] in ("queued", "running", "done")
        job = client.wait(accepted["id"])
        assert job["status"] == "done"
        served = client.result(accepted["id"])
        assert deep_equal(served, direct_payload(self.GRID))
        # The pickle fetch serves the same payload, arrays intact.
        pickled = client.result_pickle(accepted["id"])
        assert deep_equal(to_jsonable(pickled), served)

    def test_resubmit_is_a_cache_hit_over_http(self, client):
        first = client.submit(
            self.GRID, num_pulses=NUM_PULSES, runner={"executor": "serial"}
        )
        client.wait(first["id"])
        hits_before = client.store_stats()["hits"]
        second = client.submit(
            self.GRID, num_pulses=NUM_PULSES, runner={"executor": "serial"}
        )
        job = client.wait(second["id"])
        assert job["cache_hit"] is True
        assert job["key"] == client.job(first["id"])["key"]
        assert client.store_stats()["hits"] == hits_before + 1
        assert deep_equal(
            client.result(second["id"]), client.result(first["id"])
        )

    def test_event_stream_pagination(self, client):
        accepted = client.submit(
            self.GRID, num_pulses=NUM_PULSES, runner={"executor": "serial"}
        )
        client.wait(accepted["id"])
        view = client.events(accepted["id"])
        names = [e["event"] for e in view["events"]]
        assert names[0] == "queued"
        assert names[-1] == "done"
        assert view["next"] == len(view["events"])
        tail = client.events(accepted["id"], since=view["next"])
        assert tail["events"] == []

    def test_jobs_listing_in_submission_order(self, client):
        views = client.jobs()
        ids = [v["id"] for v in views]
        assert ids == sorted(ids)

    def test_workers_endpoint_lists_pids(self, client):
        assert isinstance(client.workers(), list)

    def test_bad_grid_is_a_400(self, client):
        with pytest.raises(RuntimeError, match="HTTP 400"):
            client.submit({"kind": "thm99"})

    def test_retired_runner_knob_is_a_400_naming_it(self, client):
        for knob, value in (
            ("kernel_backend", "numpy"),
            ("vectorize", False),
            ("sketch_rank", 2),
            ("potential_levels", [1]),
        ):
            with pytest.raises(RuntimeError, match=f"HTTP 400.*{knob}"):
                client.submit(SMALL_GRID, runner={knob: value})

    def test_unknown_job_is_a_404(self, client):
        with pytest.raises(RuntimeError, match="HTTP 404"):
            client.job("job-99999")
        with pytest.raises(RuntimeError, match="HTTP 404"):
            client.result("job-99999")

    def test_unknown_route_is_a_404(self, client):
        with pytest.raises(RuntimeError, match="HTTP 404"):
            client._request("/frobnicate")

    def test_unknown_post_route_keeps_the_connection_in_step(self, client):
        client.health()
        sock = client._connection().sock
        with pytest.raises(RuntimeError, match="HTTP 404"):
            client._request("/frobnicate", body={"padding": "x" * 4096})
        # The 404 drained the body, so the next request on the same
        # keep-alive connection parses cleanly.
        assert client.health()["status"] == "ok"
        assert client._connection().sock is sock

    def test_requests_reuse_one_socket(self, client):
        names = set()
        for _ in range(20):
            client.health()
            names.add(client._connection().sock.getsockname())
        client.store_stats()
        names.add(client._connection().sock.getsockname())
        assert len(names) == 1

    def test_idle_connection_closed_by_server_reconnects(
        self, server, monkeypatch
    ):
        monkeypatch.setattr(_Handler, "timeout", 0.1)
        client = ServiceClient(server.url)
        client.health()
        sock = client._connection().sock
        time.sleep(0.3)  # the server drops the idle connection
        assert client.health()["status"] == "ok"
        assert client._connection().sock is not sock

    def test_client_rejects_urls_it_cannot_speak_to(self):
        for url in ("https://127.0.0.1:8631", "127.0.0.1:8631"):
            with pytest.raises(ValueError, match="http://"):
                ServiceClient(url)

    def test_unreadable_body_length_closes_the_connection(self, server):
        with socket.create_connection((server.host, server.port), 5) as raw:
            raw.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: many\r\n\r\n{}"
            )
            reply = b""
            while chunk := raw.recv(4096):  # ends when the server closes
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"unreadable" in reply

    def test_experiments_cli_submit_path(self, server, capsys):
        from repro.experiments.__main__ import main as experiments_main

        code = experiments_main(
            [
                "--submit",
                json.dumps(self.GRID),
                "--url",
                server.url,
                "--pulses",
                str(NUM_PULSES),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "submitted job-" in out
        assert "max local skews" in out


# ----------------------------------------------------------------------
# Full-stack smoke: boot the app, kill a real worker, dedup on resubmit
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestServiceSmoke:
    """The CI ``service-smoke`` scenario, runnable locally.

    Boots ``python -m repro.service`` as a real subprocess, submits a
    grid big enough to hold worker processes busy for ~2 s, SIGKILLs
    one live worker PID from ``/workers`` mid-run, and requires the job
    to complete with a ``lost``/``retried`` shard pair and statistics
    bitwise equal to an in-process reference run; a resubmission must
    then be a recorded cache hit.
    """

    GRID = {"kind": "thm13", "diameter": 32, "num_trials": 12}
    PULSES = 10

    def _boot(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        line = proc.stdout.readline().strip()
        assert line.startswith("listening on "), line
        return proc, line.split()[-1]

    def _submit_and_kill(self, client, num_pulses):
        accepted = client.submit(
            self.GRID,
            num_pulses=num_pulses,
            runner={"executor": "process", "shards": 2},
        )
        deadline = time.monotonic() + 30.0
        pids = []
        while time.monotonic() < deadline:
            pids = client.workers()
            if pids:
                break
            time.sleep(0.02)
        assert pids, "worker processes never appeared"
        os.kill(pids[0], signal.SIGKILL)
        job = client.wait(accepted["id"], timeout=180)
        assert job["status"] == "done"
        events = client.events(accepted["id"])["events"]
        statuses = [
            e["status"] for e in events if e["event"] == "shard"
        ]
        return accepted["id"], job, statuses

    def test_boot_kill_worker_and_dedup(self):
        proc, url = self._boot()
        try:
            client = ServiceClient(url, timeout=60.0)
            assert client.health()["status"] == "ok"
            # The kill is real (SIGKILL on a live PID), so in principle
            # the batch could finish before it lands; one more attempt
            # at a fresh key keeps the assertion deterministic in
            # practice without weakening it.
            for attempt in range(2):
                job_id, job, statuses = self._submit_and_kill(
                    client, self.PULSES + attempt
                )
                if "lost" in statuses:
                    break
            assert "lost" in statuses, statuses
            assert statuses.count("retried") == statuses.count("lost")
            served = client.result(job_id)
            reference = direct_payload(
                self.GRID, num_pulses=self.PULSES + attempt
            )
            assert equal_statistics(served, reference)
            # The retry annotations name the worker death.
            assert any(
                "worker death" in why
                for why in served["fallback_reasons"].values()
            )
            # Resubmission: a recorded cache hit, no new worker pool.
            again = client.submit(
                self.GRID,
                num_pulses=self.PULSES + attempt,
                runner={"executor": "process", "shards": 2},
            )
            view = client.wait(again["id"])
            assert view["cache_hit"] is True
            stats = client.store_stats()
            assert stats["hits"] >= 1
            assert deep_equal(client.result(again["id"]), served)
        finally:
            proc.terminate()
            try:
                proc.wait(10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()

    def test_sigterm_joins_the_idle_worker_pool(self):
        proc, url = self._boot()
        try:
            client = ServiceClient(url, timeout=60.0)
            accepted = client.submit(
                SMALL_GRID,
                num_pulses=NUM_PULSES,
                runner={"executor": "process", "shards": 2},
            )
            assert client.wait(accepted["id"])["status"] == "done"
            idle = client.workers()
            assert idle, "the pool should outlive the job"
        finally:
            proc.terminate()
            try:
                proc.wait(10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
        assert proc.returncode == 0
        for pid in idle:
            # Joined and reaped by the exiting service, not orphaned.
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_pickle_result_round_trips_over_http(self):
        proc, url = self._boot()
        try:
            client = ServiceClient(url, timeout=60.0)
            grid = {"kind": "cor15", "diameter": 8, "seed": 0}
            accepted = client.submit(
                grid, num_pulses=NUM_PULSES, runner={"executor": "serial"}
            )
            client.wait(accepted["id"])
            payload = client.result_pickle(accepted["id"])
            blob = pickle.dumps(payload)
            assert deep_equal(
                to_jsonable(pickle.loads(blob)),
                to_jsonable(payload),
            )
            assert deep_equal(
                to_jsonable(payload), direct_payload(grid)
            )
        finally:
            proc.terminate()
            try:
                proc.wait(10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
