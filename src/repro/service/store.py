"""Content-addressed result store with stack-key + seed deduplication.

The store maps a *grid key* -- a SHA-256 digest over every trial's
identity (algorithm, parameters, policy, layer count, and base-graph
adjacency, plus the seed and every per-trial override), the pulse budget,
and the keyed runner knobs -- to the pickled statistics payload of the
finished batch.  Two submissions with the same key are the same
computation bit-for-bit (every execution strategy of the batch runner is
bitwise-invariant), so the second is served from the store: a recorded
cache hit.

Deliberately *excluded* from the key: ``executor`` and ``shards``.  The
test suite pins that results are bitwise identical for every sharding,
so a grid first run serially and resubmitted with
``executor="process"`` is still a hit.  Keyed: ``store_times`` (the
pulse budget enters the key on its own).

Values round-trip through :mod:`pickle`: ``put`` stores the pickled
bytes (and optionally a ``<key>.pkl`` file when the store is given a
directory), ``get`` unpickles a fresh copy -- so no consumer can mutate
the cached arrays of another.
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
#: ``potential_levels``.
CACHE_VERSION = 4

#: The :class:`~repro.experiments.batch.BatchRunner` knobs that enter the
#: grid key, with their defaults.  ``executor``/``shards`` are absent by
#: design (see the module docstring).
KEYED_RUNNER_KNOBS: Dict[str, object] = {
    "store_times": True,
}


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


def grid_key(
    trials: Sequence[BatchTrial],
    num_pulses: int,
    runner_knobs: Optional[Dict[str, object]] = None,
) -> Optional[str]:
    """SHA-256 digest addressing one grid's results, or ``None``.

    ``None`` means *uncacheable*: some component of the grid (a lambda
    delay classifier, an unpicklable rate provider) has no stable byte
    representation, so the job runs and serves but never enters the
    store.  ``runner_knobs`` entries outside :data:`KEYED_RUNNER_KNOBS`
    (``executor``, ``shards``) are ignored; missing ones key on their
    defaults, so an explicit default and an omitted knob hash alike.
    """
    knobs = dict(KEYED_RUNNER_KNOBS)
    for name, value in (runner_knobs or {}).items():
        if name in knobs:
            knobs[name] = value
    identity = (
        CACHE_VERSION,
        int(num_pulses),
        tuple(sorted(knobs.items())),
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
                self._blobs[path.stem] = path.read_bytes()

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

        Counts a hit or a miss.  An entry that does not unpickle (a
        truncated or corrupt ``<key>.pkl`` of a directory-backed store)
        is dropped and counted as a miss, so the caller recomputes it
        and :meth:`put` replaces it.
        """
        with self._lock:
            blob = self._blobs.get(key)
        payload, found = None, blob is not None
        if found:
            try:
                payload = pickle.loads(blob)
            except (pickle.UnpicklingError, EOFError):
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
            tmp.write_bytes(blob)
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
