"""Stdlib HTTP surface over the job runner (no third-party framework).

Endpoints (all JSON unless noted):

==============================  ======================================
``GET /healthz``                liveness + job counts
``GET /workers``                PIDs of live worker processes (the
                                worker pool stays up between jobs,
                                so idle workers count)
``GET /store``                  result-store stats (entries/hits/misses)
``POST /jobs``                  submit a grid (see :mod:`.jobs`); 202
``GET /jobs``                   all jobs, submission order
``GET /jobs/<id>``              one job's status view; ``?wait=S``
                                holds the request until the job is
                                done or failed (at most 30 s)
``GET /jobs/<id>/events``       progress stream; ``?since=N&wait=S``
                                long-polls for events past ``N``
``GET /jobs/<id>/result``       finished statistics as JSON, or the
                                pickled payload with ``?format=pickle``
==============================  ======================================

The server is a ``ThreadingHTTPServer`` speaking HTTP/1.1 keep-alive:
one handler thread per client connection, which it serves until the
client closes it or it idles past :attr:`_Handler.timeout`.  Handler
threads validate and enqueue, and the blocking batch work happens on
the runner's job threads (and, for large grids, the process pool's
workers) -- so concurrent submissions and polls never block each other.
FastAPI would be the production face of this (see
``docs/service.md``); the stdlib server keeps the dependency budget at
zero while serving the same contract.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.jobs import JobRunner, to_jsonable
from repro.service.store import ResultStore

__all__ = ["ServiceServer"]


class _Handler(BaseHTTPRequestHandler):
    """Routes one request against the server's :class:`JobRunner`."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    #: Seconds a keep-alive connection may idle before its thread exits.
    timeout = 60.0
    #: Headers and body go out as separate writes; with Nagle's
    #: algorithm on, the body waits for the client's delayed ACK
    #: (~40 ms per keep-alive request).
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------
    @property
    def runner(self) -> JobRunner:
        """The job runner the owning server wraps."""
        return self.server.runner  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging (tests boot many servers)."""

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload) -> None:
        body = json.dumps(to_jsonable(payload)).encode()
        self._send(code, body, "application/json")

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> bytes:
        """Read the whole request body before any response.

        On a keep-alive connection unread body bytes would be parsed as
        the next request.  A body whose length cannot be read cannot be
        skipped, so the connection closes after the response instead.
        """
        length = self.headers.get("Content-Length") or "0"
        if not length.isdecimal() or "Transfer-Encoding" in self.headers:
            self.close_connection = True
            raise ValueError("request body length is unreadable")
        return self.rfile.read(int(length))

    @staticmethod
    def _json_object(raw: bytes) -> Dict:
        body = json.loads(raw.decode() or "{}")
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    def _route(self) -> Tuple[Tuple[str, ...], Dict[str, str]]:
        parsed = urlparse(self.path)
        parts = tuple(p for p in parsed.path.split("/") if p)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        return parts, query

    # -- verbs ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        """Dispatch read-only routes."""
        try:
            parts, query = self._route()
            if parts == ("healthz",):
                jobs = self.runner.jobs()
                return self._send_json(
                    200,
                    {
                        "status": "ok",
                        "jobs": len(jobs),
                        "running": sum(
                            1 for j in jobs if j.status == "running"
                        ),
                    },
                )
            if parts == ("workers",):
                return self._send_json(
                    200,
                    {
                        "pids": sorted(
                            p.pid
                            for p in multiprocessing.active_children()
                            if p.pid is not None
                        )
                    },
                )
            if parts == ("store",):
                return self._send_json(200, self.runner.store.stats)
            if parts == ("jobs",):
                return self._send_json(
                    200, {"jobs": [j.describe() for j in self.runner.jobs()]}
                )
            if len(parts) >= 2 and parts[0] == "jobs":
                job = self.runner.job(parts[1])
                if job is None:
                    return self._error(404, f"unknown job {parts[1]!r}")
                if len(parts) == 2:
                    job.wait_done(min(float(query.get("wait", 0.0)), 30.0))
                    return self._send_json(200, job.describe())
                if parts[2:] == ("events",):
                    since = int(query.get("since", 0))
                    wait = min(float(query.get("wait", 0.0)), 30.0)
                    events = job.events_since(since, wait=wait)
                    return self._send_json(
                        200,
                        {
                            "status": job.status,
                            "events": events,
                            "next": since + len(events),
                        },
                    )
                if parts[2:] == ("result",):
                    return self._result(job, query)
            return self._error(404, f"no route for {self.path!r}")
        except Exception as exc:
            return self._error(400, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        """Dispatch the submission route."""
        try:
            raw = self._read_body()
            parts, _ = self._route()
            if parts == ("jobs",):
                job = self.runner.submit(self._json_object(raw))
                return self._send_json(202, job.describe())
            return self._error(404, f"no route for {self.path!r}")
        except Exception as exc:
            return self._error(400, f"{type(exc).__name__}: {exc}")

    def _result(self, job, query: Dict[str, str]) -> None:
        if job.status == "failed":
            return self._send_json(
                500, {"status": job.status, "error": job.error}
            )
        if not job.done:
            return self._send_json(
                409,
                {
                    "status": job.status,
                    "error": "job is not finished; poll /jobs/<id>",
                },
            )
        if query.get("format") == "pickle":
            import pickle

            blob = None
            if job.key is not None:
                blob = self.runner.store.peek_bytes(job.key)
            if blob is None:
                blob = pickle.dumps(job.payload(), protocol=4)
            return self._send(200, blob, "application/octet-stream")
        return self._send_json(
            200, {"status": job.status, "result": job.payload()}
        )


class ServiceServer:
    """The bound HTTP server + its runner, with a test-friendly lifecycle.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`).  ``start`` starts the runner's job threads and a
    daemon thread for ``serve_forever``; ``stop`` shuts both down.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store: Optional[ResultStore] = None,
        concurrency: int = 2,
    ) -> None:
        self.runner = JobRunner(store=store, concurrency=concurrency)
        self._http = ThreadingHTTPServer((host, port), _Handler)
        self._http.daemon_threads = True
        self._http.runner = self.runner  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        """Bound host."""
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (resolved when constructed with ``port=0``)."""
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        """Boot the runner and the HTTP thread; returns self."""
        self.runner.start()
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down the HTTP server and the job runner."""
        self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None
        self.runner.shutdown()

    def serve_forever(self) -> None:
        """Blocking serve loop for the CLI entry point."""
        self.runner.start()
        try:
            self._http.serve_forever()
        finally:
            self._http.server_close()
            self.runner.shutdown()
