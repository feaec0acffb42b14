"""Served statistics against the golden corpus ``data/stats.json``.

Every :class:`~repro.experiments.batch.BatchResult` statistic of the
grids in ``stats_grids.py`` -- Algorithms 1 and 3, fault-free, thm13 and
chaos-campaign faults, same-shape and padded mixed geometries, a
hub-skewed sparse grid -- streamed, materialized and on process shards,
bitwise against digests recorded once.  A change that moves any
statistic by one ulp fails here; re-record with ``python
tests/stats_grids.py --record`` only when the change is meant to.
"""

import json

import pytest

import stats_grids

CORPUS = json.loads(stats_grids.FIXTURE.read_text())
GRIDS = stats_grids.grids()


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
