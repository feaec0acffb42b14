"""Content-addressed result store with stack-key + seed deduplication.

The store maps a *grid key* -- a SHA-256 digest over every trial's
identity (algorithm, parameters, policy, layer count, and base-graph
adjacency, plus the seed and every per-trial override) and the pulse
budget -- to the pickled statistics payload of the finished batch.  Two
submissions with the same key are the same computation bit-for-bit
(results are bitwise identical for every shard count the batch runner's
executor rule picks, and every served job streams), so the second is
served from the store: a recorded cache hit.

Values round-trip through :mod:`pickle`: ``put`` stores the pickled
bytes (and optionally a ``<key>.pkl`` file when the store is given a
directory), ``get`` unpickles a fresh copy -- so no consumer can mutate
the cached arrays of another.  A ``<key>.pkl`` file holds the SHA-256
digest of the pickled payload followed by the payload; an entry whose
file fails the digest when the store reads it is not loaded, so a
corrupted file is recomputed instead of served.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.batch import CONFIG_RATES, BatchTrial

__all__ = ["CACHE_VERSION", "ResultStore", "grid_key", "trial_cell_key"]

#: Bumped whenever the key layout or payload schema changes, so stores
#: persisted to disk never serve a stale schema.  Version 2 dropped the
#: retired stacking, compaction and backend knobs from the key; version 3
#: dropped ``vectorize``; version 4 dropped ``sketch_rank`` and
#: ``potential_levels``; version 5 dropped the last runner knob,
#: ``store_times`` (every served job streams, and the payload is built
#: from the run's folds alone, so the knob never changed a stored value).
CACHE_VERSION = 5

#: Bytes of the payload digest at the head of a ``<key>.pkl`` file.
_DIGEST_SIZE = hashlib.sha256().digest_size


def trial_cell_key(trial: BatchTrial) -> Tuple:
    """One trial's identity tuple (everything that can change its result).

    The structural part covers algorithm, parameters, policy, layer
    count, and base-graph adjacency; the rest of the tuple adds the seed
    and every per-trial override (fault plan, layer-0 schedule, delay
    model, clock rates, campaign).  ``CONFIG_RATES`` and config-derived
    delays are functions of the seed, so the sentinel/seed pair pins
    them without materializing anything.
    """
    config = trial.config
    graph = config.graph
    return (
        (
            trial.algorithm,
            config.params,
            trial.policy,
            graph.num_layers,
            graph.base.adjacency,
        ),
        config.seed,
        config.diameter,
        trial.fault_plan,
        trial.layer0,
        None if trial.delay_model is None else trial.delay_model,
        (
            CONFIG_RATES
            if trial.clock_rates is CONFIG_RATES
            else trial.clock_rates
        ),
        trial.campaign,
    )


def grid_key(trials: Sequence[BatchTrial], num_pulses: int) -> Optional[str]:
    """SHA-256 digest addressing one grid's results, or ``None``.

    ``None`` means *uncacheable*: some component of the grid (a lambda
    delay classifier, an unpicklable rate provider) has no stable byte
    representation, so the job runs and serves but never enters the
    store.
    """
    identity = (
        CACHE_VERSION,
        int(num_pulses),
        tuple(trial_cell_key(trial) for trial in trials),
    )
    try:
        blob = pickle.dumps(identity, protocol=4)
    except Exception:
        return None
    return hashlib.sha256(blob).hexdigest()


class ResultStore:
    """In-memory (optionally directory-backed) pickle store with hit stats.

    Thread-safe: the HTTP handler threads and the job runner's executor
    threads share one instance.  ``get``/``put`` count hits and misses;
    :attr:`stats` serves them for the ``/store`` endpoint and the dedup
    tests.

    Example
    -------
    >>> from repro.service.store import ResultStore
    >>> store = ResultStore()
    >>> store.put("deadbeef", {"answer": 42})
    >>> store.get("deadbeef")
    {'answer': 42}
    >>> store.stats["hits"], store.stats["misses"]
    (1, 0)
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        self._blobs: Dict[str, bytes] = {}
        self._hits = 0
        self._misses = 0
        self._directory = Path(directory) if directory else None
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
            for path in sorted(self._directory.glob("*.pkl")):
                data = path.read_bytes()
                digest, blob = data[:_DIGEST_SIZE], data[_DIGEST_SIZE:]
                # A file that fails its digest is left out: its key
                # misses, and the recomputed payload's put rewrites it.
                if hashlib.sha256(blob).digest() == digest:
                    self._blobs[path.stem] = blob

    def __len__(self) -> int:
        with self._lock:
            return len(self._blobs)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._blobs

    def peek_bytes(self, key: str) -> Optional[bytes]:
        """The pickled payload for ``key``, or None; counts nothing.

        The result-fetch endpoints use this, so ``stats`` counts *dedup*
        decisions only -- one :meth:`get` per executed or deduplicated
        job -- not how often clients download a finished payload.
        """
        with self._lock:
            return self._blobs.get(key)

    def get(self, key: str):
        """Unpickle a fresh copy of the payload under ``key``, or None.

        Counts a hit or a miss.  An entry that does not unpickle, whatever
        the exception, is dropped and counted as a miss, so the caller
        recomputes it and :meth:`put` replaces it.  (A ``<key>.pkl`` whose
        bytes fail their digest never gets this far: the store does not
        load it.)
        """
        with self._lock:
            blob = self._blobs.get(key)
        payload, found = None, blob is not None
        if found:
            try:
                payload = pickle.loads(blob)
            except Exception:
                found = False
        with self._lock:
            if found:
                self._hits += 1
            else:
                self._misses += 1
                if blob is not None and self._blobs.get(key) is blob:
                    del self._blobs[key]
        return payload

    def put(self, key: str, payload) -> None:
        """Pickle ``payload`` under ``key`` (idempotent for equal keys)."""
        blob = pickle.dumps(payload, protocol=4)
        with self._lock:
            self._blobs[key] = blob
        if self._directory is not None:
            tmp = self._directory / f".{key}.tmp"
            with tmp.open("wb") as handle:
                handle.write(hashlib.sha256(blob).digest())
                handle.write(blob)
            tmp.replace(self._directory / f"{key}.pkl")

    @property
    def stats(self) -> Dict[str, int]:
        """``{"entries", "hits", "misses"}`` counters."""
        with self._lock:
            return {
                "entries": len(self._blobs),
                "hits": self._hits,
                "misses": self._misses,
            }
