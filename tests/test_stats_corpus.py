"""Served statistics against the golden corpus ``data/stats.json``.

Every :class:`~repro.experiments.batch.BatchResult` statistic of the
grids in ``stats_grids.py`` -- Algorithms 1 and 3, fault-free, thm13 and
chaos-campaign faults, same-shape and padded mixed geometries, a
hub-skewed sparse grid -- streamed, materialized and on process shards,
bitwise against digests recorded once.  A change that moves any
statistic by one ulp fails here; re-record with ``python
tests/stats_grids.py --record`` only when the change is meant to, and
move ``CACHE_VERSION`` with it (``CORPUS_DIGESTS``).
"""

import hashlib
import json

import pytest

import stats_grids
from repro.service.store import CACHE_VERSION

CORPUS = json.loads(stats_grids.FIXTURE.read_text())
GRIDS = stats_grids.grids()

#: sha256 of the canonical JSON of each recorded corpus file under the
#: ``CACHE_VERSION`` it was recorded with.  A stored result is keyed by
#: that version, so a change that moves a sampled value (and re-records
#: the corpus) must move the version too, or stores would serve stale
#: statistics.
CORPUS_DIGESTS = {
    5: {
        "stats.json": "3f0adf5be570153951914a24e04e60c9a352066be3e87625fb0a34093b96b451",
        "fault_sends.json": "691709a03d9feaa05408b4579a5b477e64d962f6967d4f284f09764f0f30d213",
    },
}


def canonical_digest(path):
    """sha256 of ``path``'s JSON, re-serialized with sorted keys and no
    whitespace, so a reformat alone does not move it."""
    data = json.loads(path.read_text())
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_corpus_is_pinned_to_cache_version():
    data = stats_grids.FIXTURE.parent
    assert CACHE_VERSION in CORPUS_DIGESTS, (
        f"CACHE_VERSION {CACHE_VERSION} has no recorded corpus digests"
    )
    assert {
        name: canonical_digest(data / name) for name in CORPUS_DIGESTS[CACHE_VERSION]
    } == CORPUS_DIGESTS[CACHE_VERSION]


def test_corpus_covers_every_grid():
    assert set(CORPUS) == set(GRIDS) | {"thm13_process"}


@pytest.mark.parametrize("mode", stats_grids.MODES)
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_statistics_match_corpus(grid, mode):
    batch = GRIDS[grid](store_times=mode == "materialized")
    assert stats_grids.summarize(batch) == CORPUS[grid]


def test_process_shards_match_corpus():
    entry = stats_grids.summarize(stats_grids.process_batch())
    assert entry == CORPUS["thm13_process"]
    # The shards change only the per-stack pass and block counts, never
    # a statistic.
    serial = dict(
        CORPUS["thm13"],
        fallback_passes=entry["fallback_passes"],
        pulse_blocks=entry["pulse_blocks"],
    )
    assert entry == serial
