"""The grids whose served statistics are pinned by ``data/stats.json``.

Every :class:`~repro.experiments.batch.BatchResult` statistic of a small
matrix of grids, one sha256 per (grid, statistic), plus the stacks'
fallback counters:

* an Algorithm 3 seed sweep, fault-free, and an Algorithm 1 one with
  an early node per trial and a crash;
* a thm13 grid (fault-free reference + sampled 1-local plans) and a
  crash/recover/leave/flap chaos campaign -- the stacks of
  ``fault_sends_grids.py``;
* the cycle-9 vs complete-9 pair (same ``(K, L, W)`` shape, different
  edges) and a padded mixed-depth/width batch with an Algorithm 1 trial
  in a second stack group;
* a hub-skewed sparse stack (the ``csr`` key: the grid the retired CSR
  neighbor backend ran; partly valid degree columns now), with varying
  delays and callable clock rates;
* two grids that run in several pulse blocks: a fault-free D=8 seed
  sweep over 64 pulses (six blocks, so a streamed run wraps its ring)
  and the thm13 grid over 8 pulses (two blocks, so dynamic fault
  offsets are computed per block);
* one grid per layer-0 schedule besides the perfect one -- jittered,
  alternating, an Algorithm 2 chain on static delays with drawn chain
  clocks and ramped grid rates, and a chain on pulse-varying delays --
  each a three-trial mixed-width stack over four pulse blocks.

Each grid runs streamed (``store_times=False``) and materialized; both
must match the one recorded entry.  The thm13 grid runs once more in two
shards (the executor rule's pick forced, as ``conftest.shards`` does) as
its own entry (its pass and block counts are per shard stack).

``python tests/stats_grids.py`` (with ``PYTHONPATH=src``) checks the
fixture and prints the entries that differ; ``--record`` rewrites it.
Re-record only for a change that is *meant* to change a statistic, and
say which in the change log.
"""

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np

import fault_sends_grids
import repro.experiments.batch as batch_mod
from repro.clocks import uniform_random_rates
from repro.core.fast import FastSimulation
from repro.core.fast_batch import TrialStack
from repro.core.layer0 import AlternatingLayer0, ChainLayer0, JitteredLayer0
from repro.delays import StaticDelayModel, VaryingDelayModel
from repro.experiments.batch import BatchResult, BatchRunner, BatchTrial
from repro.experiments.common import standard_config
from repro.experiments.thm13_random_faults import thm13_trials
from repro.faults import CrashFault, FaultPlan, FixedOffsetFault
from repro.params import Parameters
from repro.topology import (
    LayeredGraph,
    complete_graph,
    cycle_graph,
    replicated_line,
)
from repro.topology.sparse import sparse_layered

FIXTURE = Path(__file__).resolve().parent / "data" / "stats.json"

NUM_PULSES = 6
#: Horizons of the multi-block grids: six blocks of 10-11 pulses on the
#: fault-free D=8 sweep, two of 4 on the thm13 grid.
BLOCK_PULSES = 64
THM13_BLOCK_PULSES = 8
#: Horizon of the layer-0 grids: four blocks of 8 pulses on their
#: three-trial, 16-wide stacks.
LAYER0_PULSES = 32
PARAMS = Parameters(d=1.0, u=0.05, vartheta=1.01, Lambda=2.5)

#: The accessors whose arrays are pinned; ``correction_stats`` adds one
#: entry per key.
ACCESSORS = (
    "local_skews",
    "max_local_skews",
    "inter_layer_skews",
    "max_inter_layer_skews",
    "overall_skews",
    "global_skews",
)
COUNTERS = (
    "fallback_cells",
    "fallback_batches",
    "fallback_passes",
    "active_row_steps",
    "active_lane_steps",
    "pulse_blocks",
)
MODES = ("streamed", "materialized")


def _on_shards(count):
    """Force the executor rule's pick to ``count`` shards."""
    return mock.patch.object(batch_mod, "_pick_shards", return_value=count)


def _runner_grid(trials, num_pulses):
    """A grid run by one in-process ``BatchRunner`` (one shard, so the
    executor rule never moves a grid onto the pool)."""

    def run(store_times):
        with _on_shards(1):
            return BatchRunner(num_pulses=num_pulses, store_times=store_times).run(
                trials
            )

    return run


def _stack_grid(make_sims, num_pulses):
    """A grid of bare simulations (no ``ExperimentConfig`` fits them),
    run as one :class:`TrialStack` and wrapped like the runner does."""

    def run(store_times):
        sims = make_sims()
        stack = TrialStack(sims)
        results = stack.run(num_pulses, store_times=store_times)
        return BatchResult(
            sims,
            results,
            stack_groups=[list(range(len(sims)))],
            compaction_stats=[stack.compaction_stats],
        )

    return run


def _offset_plan(config):
    """One early node per trial, and a crash in the last seed's grid.

    Algorithm 1 and Algorithm 3 agree bitwise on fault-free grids, so
    the Algorithm 1 sweep carries faults to tell them apart.
    """
    v = config.seed % config.graph.width
    nodes = {(v, 2): FixedOffsetFault(-0.2 * (config.seed + 1))}
    if config.seed == 3:
        nodes[(1, 3)] = CrashFault()
    return FaultPlan.from_nodes(nodes)


def _seed_sweep(algorithm, fault_plan_factory=None):
    trials = BatchRunner.seed_sweep(
        6, range(4), num_pulses=NUM_PULSES, fault_plan_factory=fault_plan_factory
    )
    for trial in trials:
        trial.algorithm = algorithm
    return trials


def _same_shape_sims():
    return [
        FastSimulation(
            LayeredGraph(base, 4),
            PARAMS,
            delay_model=StaticDelayModel(PARAMS.d, PARAMS.u, seed=seed),
        )
        for seed, base in enumerate([cycle_graph(9), complete_graph(9)])
    ]


def _mixed_trials():
    return [
        BatchTrial(config=standard_config(4, seed=1)),
        BatchTrial(config=standard_config(6, seed=2, num_layers=3)),
        BatchTrial(config=standard_config(3, seed=3, num_layers=9)),
        BatchTrial(config=standard_config(5, seed=4)),
        BatchTrial(config=standard_config(4, seed=5), algorithm="simplified"),
    ]


def _ramp_rates(node, pulse):
    v, layer = node
    return 1.0 + 0.001 * ((7 * v + 3 * layer + pulse) % 10)


def _csr_sims():
    sims = []
    for seed in range(2):
        graph = sparse_layered(128, 3, num_hubs=1, hub_degree=40)
        sims.append(
            FastSimulation(
                graph,
                PARAMS,
                delay_model=VaryingDelayModel(
                    PARAMS.d, PARAMS.u, max_step=0.01, seed=seed
                ),
                clock_rates=_ramp_rates,
            )
        )
    return sims


def _layer0_sims(make_layer0, rates=None):
    """Three trials of one layer-0 schedule on bases of 16, 12 and 10
    vertices (so the stacked fill pads), each with its own delays."""
    sims = []
    for seed, base in enumerate(
        [cycle_graph(16), replicated_line(10), cycle_graph(10)]
    ):
        sims.append(
            FastSimulation(
                LayeredGraph(base, 4),
                PARAMS,
                delay_model=StaticDelayModel(PARAMS.d, PARAMS.u, seed=seed),
                clock_rates=rates,
                layer0=make_layer0(base, seed),
            )
        )
    return sims


def _jittered(base, seed):
    return JitteredLayer0(PARAMS.Lambda, base.num_nodes, 0.4, seed=seed)


def _alternating(base, seed):
    return AlternatingLayer0(PARAMS.Lambda, 0.1 * (seed + 1))


def _static_chain(base, seed):
    nodes = list(base.nodes())
    return ChainLayer0(
        PARAMS,
        nodes[::-1],
        delay_model=StaticDelayModel(PARAMS.d, PARAMS.u, seed=seed + 10),
        clocks=uniform_random_rates(nodes, PARAMS.vartheta, rng_or_seed=seed),
    )


def _varying_chain(base, seed):
    return ChainLayer0(
        PARAMS,
        list(base.nodes()),
        delay_model=VaryingDelayModel(
            PARAMS.d, PARAMS.u, max_step=0.01, seed=seed + 10
        ),
    )


def grids():
    """``{name: run(store_times) -> BatchResult}`` of the serial grids."""
    thm13, _ = thm13_trials(
        fault_sends_grids.THM13_DIAMETER,
        fault_sends_grids.THM13_SEEDS,
        num_pulses=fault_sends_grids.THM13_PULSES,
    )
    thm13_blocks, _ = thm13_trials(
        fault_sends_grids.THM13_DIAMETER,
        fault_sends_grids.THM13_SEEDS,
        num_pulses=THM13_BLOCK_PULSES,
    )
    return {
        "alg3": _runner_grid(_seed_sweep("full"), NUM_PULSES),
        "alg1": _runner_grid(
            _seed_sweep("simplified", _offset_plan), NUM_PULSES
        ),
        "thm13": _runner_grid(thm13, fault_sends_grids.THM13_PULSES),
        "campaign": _stack_grid(
            fault_sends_grids.campaign_sims, fault_sends_grids.CAMPAIGN_PULSES
        ),
        "same_shape": _stack_grid(_same_shape_sims, NUM_PULSES),
        "mixed": _runner_grid(_mixed_trials(), NUM_PULSES),
        "csr": _stack_grid(_csr_sims, 4),
        "alg3_blocks": _runner_grid(
            BatchRunner.seed_sweep(8, range(4), num_pulses=BLOCK_PULSES),
            BLOCK_PULSES,
        ),
        "thm13_blocks": _runner_grid(thm13_blocks, THM13_BLOCK_PULSES),
        "jittered": _stack_grid(
            lambda: _layer0_sims(_jittered), LAYER0_PULSES
        ),
        "alternating": _stack_grid(
            lambda: _layer0_sims(_alternating), LAYER0_PULSES
        ),
        "static_chain": _stack_grid(
            lambda: _layer0_sims(_static_chain, rates=_ramp_rates),
            LAYER0_PULSES,
        ),
        "varying_chain": _stack_grid(
            lambda: _layer0_sims(_varying_chain), LAYER0_PULSES
        ),
    }


def process_batch():
    """The thm13 grid, materialized, on two process shards."""
    trials, _ = thm13_trials(
        fault_sends_grids.THM13_DIAMETER,
        fault_sends_grids.THM13_SEEDS,
        num_pulses=fault_sends_grids.THM13_PULSES,
    )
    with _on_shards(2):
        return BatchRunner(num_pulses=fault_sends_grids.THM13_PULSES).run(trials)


def digest(values) -> str:
    """sha256 of an array's dtype, shape and bytes."""
    values = np.ascontiguousarray(values)
    h = hashlib.sha256()
    h.update(f"{values.dtype.str}{values.shape}".encode())
    h.update(values.tobytes())
    return h.hexdigest()


def summarize(batch) -> dict:
    """One grid's entry: a digest per statistic plus summed counters."""
    entry = {name: digest(getattr(batch, name)()) for name in ACCESSORS}
    for key, values in batch.correction_stats().items():
        entry[f"correction_stats.{key}"] = digest(values)
    for name in COUNTERS:
        entry[name] = int(sum(c[name] for c in batch.compaction_stats))
    return entry


def runs():
    """Yield ``(grid, mode, entry)`` for every pinned run."""
    for name, run in grids().items():
        for mode in MODES:
            yield name, mode, summarize(run(store_times=mode == "materialized"))
    yield "thm13_process", "process", summarize(process_batch())


def record() -> dict:
    """The fixture document; raises if two modes of a grid disagree."""
    doc = {}
    for name, mode, entry in runs():
        if doc.setdefault(name, entry) != entry:
            raise AssertionError(f"{name}: {mode} run differs from the first")
    return doc


if __name__ == "__main__":
    if "--record" in sys.argv[1:]:
        FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
        print(f"recorded {FIXTURE}")
    else:
        want = json.loads(FIXTURE.read_text())
        bad = [
            (name, mode)
            for name, mode, entry in runs()
            if want.get(name) != entry
        ]
        print("\n".join(f"differs: {n} ({m})" for n, m in bad) or "all equal")
        sys.exit(1 if bad else 0)
