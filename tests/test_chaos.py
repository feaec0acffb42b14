"""Chaos tier: one shared :class:`TrialStack` run on two threads at once.

Each run of a stack keeps its state on its own, so two threads that run
one stack (and its simulations) together must each get exactly what a
serial run on fresh simulations gets -- ``times``, every
:class:`BatchResult` statistic and every ``fault_sends`` entry,
bitwise -- and must leave every simulation's ``graph`` and
``fault_plan`` objects as they found them.
The threads start from a barrier under a 1 us switch interval, so they
interleave inside the run's layer loop; the campaign stack enters
epochs while the other thread steps.  Two stacks share run inputs
that answer per pulse: the corpus's CSR grid (``VaryingDelayModel``
delays, a callable rate provider) and its varying-chain grid (a
``ChainLayer0`` over a ``VaryingDelayModel``), so both threads query
one model's walks at once.
"""

import sys
import threading

import pytest

import fault_sends_grids
import stats_grids
from repro.core.fast_batch import TrialStack
from repro.experiments.batch import BatchResult
from repro.experiments.thm13_random_faults import thm13_trials

pytestmark = pytest.mark.chaos

THREADS = 2
RUNS_PER_THREAD = 2
#: Seconds a thread may take; a serial run of either stack takes ~10 ms.
TIMEOUT = 60


def _thm13_sims():
    trials, _ = thm13_trials(
        fault_sends_grids.THM13_DIAMETER,
        fault_sends_grids.THM13_SEEDS,
        num_pulses=stats_grids.THM13_BLOCK_PULSES,
    )
    return [trial.simulation() for trial in trials]


STACKS = {
    "campaign": (
        fault_sends_grids.campaign_sims,
        fault_sends_grids.CAMPAIGN_PULSES,
    ),
    "thm13": (_thm13_sims, stats_grids.THM13_BLOCK_PULSES),
    "csr": (stats_grids._csr_sims, 4),
    "varying_chain": (
        lambda: stats_grids._layer0_sims(stats_grids._varying_chain),
        stats_grids.LAYER0_PULSES,
    ),
}


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond for the test's duration."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def _observe(sims, results):
    """Everything a run hands back: per-trial times and fault sends, and
    the digest of every statistic of the batch the results make."""
    batch = BatchResult(sims, results)
    stats = {
        name: stats_grids.digest(getattr(batch, name)())
        for name in stats_grids.ACCESSORS
    }
    for key, values in batch.correction_stats().items():
        stats[f"correction_stats.{key}"] = stats_grids.digest(values)
    return {
        "times": [
            None if r.times is None else stats_grids.digest(r.times) for r in results
        ],
        "fault_sends": [fault_sends_grids.encode(r.fault_sends) for r in results],
        "stats": stats,
    }


@pytest.mark.parametrize("store_times", [True, False], ids=["materialized", "streamed"])
@pytest.mark.parametrize("name", sorted(STACKS))
def test_two_threads_share_one_stack(name, store_times, fast_switching):
    make_sims, num_pulses = STACKS[name]
    # The serial reference runs on simulations of its own, so the
    # threads start on cold run inputs (delay walks, gathered delay
    # arrays) and fill them together.
    reference = make_sims()
    serial = _observe(reference, TrialStack(reference).run(num_pulses, store_times))
    sims = make_sims()
    states = [(sim.graph, sim.fault_plan) for sim in sims]
    stack = TrialStack(sims)

    barrier = threading.Barrier(THREADS, timeout=TIMEOUT)
    outcomes = [[] for _ in range(THREADS)]

    def worker(slot):
        barrier.wait()
        for _ in range(RUNS_PER_THREAD):
            try:
                results = stack.run(num_pulses, store_times)
                outcomes[slot].append(_observe(sims, results))
            except Exception as exc:  # reported below, with the thread's slot
                outcomes[slot].append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT)
        assert not thread.is_alive()

    for slot, runs in enumerate(outcomes):
        assert len(runs) == RUNS_PER_THREAD
        for run in runs:
            if isinstance(run, Exception):
                raise AssertionError(f"thread {slot} raised") from run
            assert run == serial, f"thread {slot} differs from the serial run"
    for sim, (graph, plan) in zip(sims, states):
        assert sim.graph is graph
        assert sim.fault_plan is plan
