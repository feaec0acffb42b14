"""Keep-alive HTTP client for the service API (submit / wait / fetch).

Mirrors the endpoints of :mod:`repro.service.api` one method each; the
experiment CLI's ``--submit`` path and the test suite both drive the
server through it.  Each client keeps one persistent
:class:`http.client.HTTPConnection` per calling thread, so a job's
submit / wait / fetch round trips share one TCP connection instead of
opening one each; :meth:`ServiceClient.close` (or a ``with`` block)
closes them all.  JSON floats round-trip ``float.__repr__`` exactly,
so statistics fetched here compare bitwise against an in-process
``BatchRunner.run``.
"""

from __future__ import annotations

import http.client
import json
import pickle
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

__all__ = ["ServiceClient"]


class ServiceClient:
    """HTTP client bound to one service base URL.

    Use it as a context manager, or call :meth:`close`, to close its
    connections when done.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.netloc:
            raise ValueError(
                f"service URL must be http://HOST:PORT, got {base_url!r}"
            )
        self._netloc = parts.netloc
        self._prefix = parts.path
        # Each calling thread's connection, by thread id, so close()
        # reaches every one of them.
        self._lock = threading.Lock()
        self._connections: Dict[int, http.client.HTTPConnection] = {}

    def close(self) -> None:
        """Close every thread's connection; a later request opens anew."""
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for conn in connections:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing -------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection (not yet connected when fresh)."""
        key = threading.get_ident()
        with self._lock:
            conn = self._connections.get(key)
            if conn is None:
                conn = self._connections[key] = http.client.HTTPConnection(
                    self._netloc, timeout=self.timeout
                )
        return conn

    def _drop_connection(self) -> None:
        with self._lock:
            conn = self._connections.pop(threading.get_ident(), None)
        if conn is not None:
            conn.close()

    def _round_trip(
        self, method: str, path: str, data: Optional[bytes], headers: Dict
    ) -> Tuple[int, bytes]:
        """One request on this thread's connection: ``(status, body)``.

        A reused connection the server has closed since (its idle
        keep-alive timeout) is reopened and the request sent once more;
        a failure on a fresh connection is raised.
        """
        conn = self._connection()
        reused = conn.sock is not None
        try:
            conn.request(method, self._prefix + path, data, headers)
            rsp = conn.getresponse()
            return rsp.status, rsp.read()
        except (ConnectionResetError, BrokenPipeError):
            # ConnectionResetError covers http.client's RemoteDisconnected.
            self._drop_connection()
            if not reused:
                raise
        except BaseException:
            self._drop_connection()
            raise
        return self._round_trip(method, path, data, headers)

    def _request(
        self, path: str, body: Optional[Dict] = None, raw: bool = False
    ):
        method = "GET" if body is None else "POST"
        data = None if body is None else json.dumps(body).encode()
        headers = {} if data is None else {"Content-Type": "application/json"}
        status, blob = self._round_trip(method, path, data, headers)
        if not 200 <= status < 300:
            detail = blob.decode(errors="replace")
            raise RuntimeError(f"{method} {path} -> HTTP {status}: {detail}")
        return blob if raw else json.loads(blob.decode())

    # -- endpoints ------------------------------------------------------
    def health(self) -> Dict:
        """``GET /healthz``."""
        return self._request("/healthz")

    def workers(self) -> List[int]:
        """``GET /workers`` -> live worker-process PIDs."""
        return self._request("/workers")["pids"]

    def store_stats(self) -> Dict:
        """``GET /store`` -> dedup-store counters."""
        return self._request("/store")

    def submit(self, grid: Dict, num_pulses: int = 4) -> Dict:
        """``POST /jobs`` -> the accepted job's status view."""
        return self._request(
            "/jobs", body={"grid": grid, "num_pulses": num_pulses}
        )

    def jobs(self) -> List[Dict]:
        """``GET /jobs`` -> all job status views."""
        return self._request("/jobs")["jobs"]

    def job(self, job_id: str, wait: float = 0.0) -> Dict:
        """``GET /jobs/<id>`` (held until the job ends when ``wait > 0``)."""
        return self._request(f"/jobs/{job_id}?wait={float(wait)}")

    def events(self, job_id: str, since: int = 0, wait: float = 0.0) -> Dict:
        """``GET /jobs/<id>/events`` (long-polls when ``wait > 0``)."""
        return self._request(
            f"/jobs/{job_id}/events?since={int(since)}&wait={float(wait)}"
        )

    def wait(self, job_id: str, timeout: float = 120.0) -> Dict:
        """The job's terminal status view, one held request at a time.

        Each request is held for at most half the socket timeout, so
        the server answers before the connection gives up on it.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            view = self.job(job_id, wait=min(remaining, self.timeout / 2))
            if view["status"] in ("done", "failed"):
                return view
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {view['status']!r} after {timeout}s"
                )

    def result(self, job_id: str) -> Dict:
        """``GET /jobs/<id>/result`` -> the statistics payload (JSON)."""
        return self._request(f"/jobs/{job_id}/result")["result"]

    def result_pickle(self, job_id: str) -> Dict:
        """``GET /jobs/<id>/result?format=pickle`` -> unpickled payload."""
        blob = self._request(f"/jobs/{job_id}/result?format=pickle", raw=True)
        return pickle.loads(blob)
