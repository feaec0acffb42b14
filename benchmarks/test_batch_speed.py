"""Throughput trajectory of the fast simulator's batch kernels.

Four micro-benchmarks track the performance trajectory across PRs:

* ``test_vectorized_kernel_speedup`` (marked ``slow``): the scalar
  per-cell reference vs the whole-layer array kernel on the acceptance
  grid (fault-free, D = 64, 64 layers), timed on interleaved repeats,
  asserting the >= 10x floor.
* ``test_trial_stacked_speedup``: per-trial loop (each run a trial
  stack of one) vs the trial-stacked ``(S, W)`` kernel on a fault-free
  S = 64, D = 32 batch, asserting the >= 3x floor.
* ``test_simplified_stacked_speedup``: the trial-stacked simplified
  (Algorithm 1) kernel vs its scalar per-cell reference at D = 64,
  asserting the >= 5x floor and bit-identical times.
* ``test_heterogeneous_stacked_speedup``: a thm11-style mixed-width
  sweep (S = 16 over D in {16, 32, 64}) through the padded
  mixed-geometry stack vs the per-trial loop and the per-geometry
  grouping, asserting a single stack group, bit-identical times, and
  the >= 1.3x floor over the per-trial loop.
* ``test_depth_skewed_compaction_speedup``: the workload the padded
  stack used to *lose* -- S = 16 mixed widths with 1-vs-512 layer
  skew -- through the depth-compacted stack vs per-geometry grouping
  and the uncompacted padded stack, asserting bit-identical times and
  the >= 1.3x floor over per-geometry grouping (the previous best mode
  on this shape).
* ``test_campaign_stacked_speedup``: an S = 32, D = 32 batch where every
  trial carries its own random :class:`ChaosCampaign`, run through the
  trial-stacked kernel vs the per-trial loop (>= 1.5x floor, times
  within 1e-9), plus the quiet-campaign overhead probe: a no-event
  campaign must stay within 2x of the static kernel and reproduce its
  times bitwise.  Recorded under the ``"churn"`` section.
* ``test_width_skewed_lane_compaction_speedup``: one wide shallow trial
  stacked with a field of narrow deep ones -- the shape where depth
  compaction alone still drags every surviving row across the wide
  trial's padded lanes.  Lane (width) compaction vs the lane-padded
  stack, bit-identical times, >= 1.3x floor; recorded under the
  ``"sparse"`` section.
* ``test_csr_backend_memory_reduction``: a hub-skewed 10^5-node sparse
  layered graph through the one layer step (neighbor copies on the CSR
  entry axis), tracking peak memory with ``tracemalloc`` and asserting
  the peak stays <= 0.5x the dense padded kernel's, frozen from the
  release that still had one (:data:`PARENT_DENSE_PEAK`), and recording
  its ratio to that release's CSR kernel (:data:`PARENT_CSR_PEAK`); a
  small companion cell pins the column fold bitwise to the axis
  reduction.  Recorded under ``"sparse"``.
* ``test_cold_gather_speedup``: a fresh S = 8, D = 32 seed sweep with
  the per-edge static sampler (one ``SeedSequence`` + ``Generator`` per
  edge) vs the array-valued block gather, timing the delay gather alone
  and the whole cold sweep, asserting bitwise-equal arrays and
  statistics and the >= 5x gather floor; recorded under
  ``"cold_gather"``.
* ``test_cold_vs_warm``: a fresh S = 64, D = 32 streamed sweep's
  first run vs its warm rerun (every delay and rate cached), asserting
  the first run takes at most 3x as long, and that building the sweep's
  64 configs from an empty shared-structure cache runs one BFS; recorded
  under ``"cold_vs_warm"`` with the config time per trial.
* ``test_warm_transport``: the service's two per-job set-up costs.  A
  fresh S = 4, D = 16 grid (the ``service_mix`` miss) forced to two
  shards (the first in-process, the second on the warm pool) vs the
  same grid run serially, asserting <= 1.5x; and
  the median ``ServiceClient.health()`` round trip on one keep-alive
  connection, asserting <= 10 ms.  Recorded under ``"warm_transport"``.
* ``test_executor_rule``: the executor rule's pick against serial and
  picked-pool medians (first shard in-process, second on the pool)
  over gathered / cold x fault-free / thm13 x streamed / materialized
  grids of the ``stream_horizon`` and ``fault_horizon`` shapes plus
  fresh grids from 4,864 to ~1.1M cells, with the pool workers' peak RSS; asserts
  the pick is the faster executor wherever the gap exceeds the spread.
  Recorded under ``"executor_rule"`` with the rule's constants and
  weights.
* ``test_streaming_memory_reduction``: the streaming result pipeline
  (``store_times=False``) vs the materialized ``(S, K, L, W)`` block on
  an S = 64, 32-pulse cell, tracking peak memory with ``tracemalloc``
  and asserting the >= 4x reduction floor (and that the streamed peak
  stays under a single block -- CI fails if the block ever comes back).
  Each mode also records the wall time of the five statistic accessors
  on its finished batch (reported, not gated).
* ``test_pulse_block_speedup``: warm streamed runs of the
  ``stream_horizon`` shape (S = 16, D = 32, 64 pulses) with the default
  pulse blocks vs one pulse per block, asserting bitwise-equal
  statistics and the >= 1.5x floor; recorded under ``"pulse_blocks"``
  with the block size, the per-call kernel time with the neighbor
  min/max folded by columns and by the axis reduction, and both
  streamed peaks.
* ``test_short_horizon_block_speedup``: the same comparison on the
  ``fault_horizon`` shape (the 17-trial thm13 stack, D = 32, 8 streamed
  pulses), asserting the >= 1.5x floor and one ``send_offsets`` call
  per pulse block; recorded under ``"short_horizon_blocks"`` with the
  block size, fallback passes, streamed peaks and ``send_offsets``
  calls of both runs.
* ``test_block_curve``: the per-step cost curve the block rule is
  derived from.  Both shapes above run with the blocks patched to B
  pulses, B in {1, 2, 4, 8, 12, 16, 22, 32, 64}; recorded under
  ``"block_curve"`` with the wall time per block step and the streamed
  peak against the plane's ``S * B * W`` cells, the B the default rule
  picks for each shape's own horizon, and the host (CPU, cores, L2,
  libc).  Reported, not gated.
* ``test_kernel_step``: every kernel call of one warm streamed
  run of each of those two shapes, captured and replayed through the
  kernel and through the parent's expressions frozen in this module
  (:func:`parent_layer_step_kernel`) in interleaved rounds; asserts
  bitwise-equal outputs and the kernel no slower than that baseline on
  the ``stream_horizon`` shape.  Recorded under ``"kernel_step"`` with
  the median microseconds per step.
* ``test_fault_fallback_overhead``: warm runs of the 17-trial thm13
  stack (a fault-free reference plus 16 sampled fault plans, D = 32,
  8 pulses) against the same configs run fault-free, asserting the
  faulted stack takes at most 4x as long; recorded under
  ``"fault_fallback"`` together with the fault-send recording counts
  (messages, behaviour-class calls, seconds per run).

The batch benches record their modes into ``BENCH_batch.json`` next to
this file (merge-updating their own section, so running a subset keeps
the others' numbers) with machine-readable throughput, so the perf
trajectory is tracked across PRs; CI's bench-smoke job uploads it as an
artifact.  The slow single-simulation bench only prints its table.

The baselines of the retired speed-only knobs are rebuilt from calls
that still exist: a per-trial ``FastSimulation.run`` loop
(:func:`per_trial_loop`), one stack per geometry group
(:func:`geometry_grouped_batch`), the identity row/lane selection
(:func:`uncompacted`, :func:`lanes_uncompacted`), one pulse per block
(:func:`one_pulse_blocks`; it also sets the short-horizon baseline of
:func:`test_short_horizon_block_speedup`), the axis-reduced neighbor min/max
(:func:`axis_reduce_folds`) and the dense layer step of an earlier
release (:func:`parent_layer_step_kernel`, frozen here, fed the padded
tables :func:`padded_neighbor_tables` rebuilds from the neighbor plan).

Select just these with ``pytest benchmarks/test_batch_speed.py -m bench``;
``-m 'bench and not slow'`` is the CI smoke selection.
"""

import collections
import contextlib
import itertools
import json
import multiprocessing
import os
import platform
import statistics
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro.core.fast as fast_mod
import repro.core.fast_batch as fast_batch_mod
import repro.experiments.batch as batch_mod
import repro.faults.model as fault_model
import repro.topology.base_graph as base_graph_mod
from repro.analysis.report import format_table
from repro.analysis.skew import (
    global_skew_layers,
    inter_layer_skew_layers,
    local_skew_layers,
    masked_max,
    overall_skew_layers,
)
from repro.analysis.streaming import StreamedStats, fold_correction_planes
from repro.clocks import uniform_random_rates
from repro.core.fast import FastSimulation
from repro.core.fast_batch import TrialStack
from repro.delays import StaticDelayModel, UniformDelayModel
from repro.delays.models import _edge_rng
from repro.experiments.batch import BatchResult, BatchRunner, BatchTrial
from repro.experiments.thm13_random_faults import thm13_trials
from repro.faults import ChaosCampaign
from repro.params import Parameters
from repro.service import ServiceClient, ServiceServer
from repro.topology import LayeredGraph, replicated_line, sparse_layered
from tests.conftest import shards

pytestmark = pytest.mark.bench

PARAMS = Parameters(d=1.0, u=0.01, vartheta=1.001, Lambda=2.0)
DIAMETER = 64
NUM_LAYERS = 64
NUM_PULSES = 4

#: The trial-stacked acceptance cell: fault-free S = 64 trials at D = 32.
BATCH_DIAMETER = 32
BATCH_TRIALS = 64
#: Scalar replay is ~2 orders slower; measure a subset and report rates.
SCALAR_TRIALS = 4

#: The simplified-path acceptance cell: Algorithm 1 trials at D = 64.
SIMPLIFIED_DIAMETER = 64
SIMPLIFIED_TRIALS = 16
SIMPLIFIED_SCALAR_TRIALS = 2

#: The churn acceptance cell: every trial carries its own random campaign.
CHURN_DIAMETER = 32
CHURN_TRIALS = 32
CHURN_PULSES = 6

BENCH_JSON = Path(__file__).resolve().parent / "BENCH_batch.json"


def _merge_bench_json(update):
    """Merge ``update`` into BENCH_batch.json, keeping other benches' keys."""
    report = {}
    if BENCH_JSON.exists():
        try:
            report = json.loads(BENCH_JSON.read_text())
        except json.JSONDecodeError:
            report = {}
    report.update(update)
    BENCH_JSON.write_text(json.dumps(report, indent=2) + "\n")


def _merge_sparse_section(subkey, value):
    """Merge one sub-entry into the ``"sparse"`` section of the report.

    The sparse benches each own a sub-entry (``width_skew``,
    ``csr_memory``); a plain top-level update would clobber the sibling
    when only one bench runs.
    """
    existing = {}
    if BENCH_JSON.exists():
        try:
            existing = json.loads(BENCH_JSON.read_text()).get("sparse", {})
        except json.JSONDecodeError:
            existing = {}
    existing[subkey] = value
    _merge_bench_json({"sparse": existing})


@pytest.fixture
def in_process(monkeypatch):
    """Pin every run of a bench to one shard in this process: the pool's
    workers are out of reach of its timers, tracers and patched seams."""
    shards(monkeypatch, 1)


def on_shards(count, runner):
    """``runner.run`` with the executor rule's pick forced to ``count``
    shards, for benches that time both sides of the rule."""

    def run(trials):
        with pytest.MonkeyPatch.context() as patch:
            shards(patch, count)
            return runner.run(trials)

    return run


def per_trial_loop(trials, num_pulses):
    """Baseline of the retired ``stack=False``: one run per trial.

    Each run is a trial stack of one (``FastSimulation.run``).
    """
    return BatchResult(
        trials, [trial.simulation().run(num_pulses) for trial in trials]
    )


def scalar_reference():
    """The scalar reference: every cell through the per-cell scalar rule.

    The kernel accepts no cell, so the stack-wide fallback resolves every
    active cell, and it does so with ``repro.core.fast._scalar_replay``
    instead of the batched replay.
    """
    return mock.patch.multiple(
        fast_batch_mod,
        _kernel_cells=np.zeros_like,
        _fallback_replay=fast_mod._scalar_replay,
    )


def scalar_loop(trials, num_pulses):
    """The scalar reference of every trial, one run per trial."""
    with scalar_reference():
        return per_trial_loop(trials, num_pulses)


def geometry_grouped_batch(trials, num_pulses):
    """Baseline of the retired ``stack_mixed_geometry=False``.

    One trial stack per structurally identical group (same algorithm,
    parameters, policy, depth and adjacency), reassembled in trial order.
    """
    groups = {}
    for i, trial in enumerate(trials):
        graph = trial.config.graph
        key = (
            trial.algorithm,
            trial.config.params,
            trial.policy,
            graph.num_layers,
            graph.base.adjacency,
        )
        groups.setdefault(key, []).append(i)
    results = [None] * len(trials)
    for indices in groups.values():
        stacked = TrialStack(
            [trials[i].simulation() for i in indices]
        ).run(num_pulses)
        for i, result in zip(indices, stacked):
            results[i] = result
    return BatchResult(trials, results, stack_groups=list(groups.values()))


def uncompacted():
    """Baseline of the retired ``compact_depth=False``: the full plane.

    Patches the stack's row/lane selection to the identity, so every
    layer step runs on the whole padded ``(S, W_max)`` plane.
    """
    return mock.patch.object(
        fast_batch_mod,
        "_select_cells",
        lambda *args: (slice(None), slice(None)),
    )


def lanes_uncompacted():
    """Baseline of the retired ``compact_width=False``: rows only."""
    select = fast_batch_mod._select_cells
    return mock.patch.object(
        fast_batch_mod,
        "_select_cells",
        lambda layer, depths, dead, prev, lane_needed: select(
            layer, depths, dead, prev, None
        ),
    )


def acceptance_grid():
    """The PR-1 acceptance cell: fault-free D=64, 64-layer grid."""
    graph = LayeredGraph(replicated_line(DIAMETER + 1), NUM_LAYERS)
    delays = StaticDelayModel(PARAMS.d, PARAMS.u, seed=0)
    rates = {
        node: clock.rate
        for node, clock in uniform_random_rates(
            graph.nodes(), PARAMS.vartheta, rng_or_seed=1
        ).items()
    }
    return graph, delays, rates


def timed(fn, repeats=3):
    """Best-of-``repeats`` wall-clock seconds (plus the last result)."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def interleaved(first, second, pairs):
    """Best-of wall-clock seconds of two callables timed in alternation.

    Each pair times ``first`` then ``second`` back to back, so both see
    the same stretch of host noise; returns both best-ofs and the last
    results.
    """
    best = [float("inf"), float("inf")]
    results = [None, None]
    for _ in range(pairs):
        for i, fn in enumerate((first, second)):
            start = time.perf_counter()
            results[i] = fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best, results


@pytest.mark.slow
def test_vectorized_kernel_speedup():
    graph, delays, rates = acceptance_grid()
    sim = FastSimulation(graph, PARAMS, delay_model=delays, clock_rates=rates)
    # Warm the per-layer delay-array caches so the measured ratio
    # reflects the per-cell rules, not one-time RNG setup.
    sim.run(1)

    def scalar():
        with scalar_reference():
            return sim.run(NUM_PULSES)

    # The scalar reference seam and the kernel are timed on interleaved
    # repeats (best of each side), so a noisy stretch of the host hits
    # both; escalate once before failing the floor.
    for pairs in (3, 6):
        (scalar_time, vector_time), (scalar_result, vector_result) = (
            interleaved(scalar, lambda: sim.run(NUM_PULSES), pairs)
        )
        if scalar_time / vector_time >= 10.0:
            break

    np.testing.assert_allclose(
        vector_result.times,
        scalar_result.times,
        rtol=0.0,
        atol=1e-9,
        equal_nan=True,
    )
    node_pulses = graph.num_nodes * NUM_PULSES
    speedup = scalar_time / vector_time
    print()
    print(
        format_table(
            ["path", "seconds", "node-pulses/s"],
            [
                ("scalar", scalar_time, node_pulses / scalar_time),
                ("vectorized", vector_time, node_pulses / vector_time),
                ("speedup", speedup, ""),
            ],
            title=f"Layer-sweep kernel, D={DIAMETER}, {NUM_LAYERS} layers, "
            f"{NUM_PULSES} pulses",
        )
    )
    assert speedup >= 10.0, (
        f"vectorized kernel only {speedup:.1f}x faster than scalar "
        f"({vector_time:.4f}s vs {scalar_time:.4f}s)"
    )


def _mode_record(trials_measured, seconds, node_pulses_per_trial, **extra):
    """One mode's JSON entry, normalized to rates so modes compare."""
    record = {
        "trials_measured": trials_measured,
        "seconds": seconds,
        "trials_per_s": trials_measured / seconds,
        "node_pulses_per_s": trials_measured * node_pulses_per_trial / seconds,
    }
    record.update(extra)
    return record


@pytest.mark.usefixtures("in_process")
def test_trial_stacked_speedup():
    """Trial-stacked kernel >= 3x over the per-trial vectorized loop.

    Also times the scalar reference (on a subset) and a run forced to two
    shards (the first in this process, the second on the pool), and
    records all four modes in ``BENCH_batch.json``.
    """
    trials = BatchRunner.seed_sweep(
        BATCH_DIAMETER, range(BATCH_TRIALS), num_pulses=NUM_PULSES
    )
    graph = trials[0].config.graph
    node_pulses = graph.num_nodes * NUM_PULSES

    stacked_runner = BatchRunner(num_pulses=NUM_PULSES)
    sharded_run = on_shards(2, BatchRunner(num_pulses=NUM_PULSES))

    # Warm the per-edge and per-layer delay caches once; every timed mode
    # then measures its kernel, not one-time RNG setup.
    stacked_runner.run(trials)
    for repeats in (3, 5):
        stacked_time, stacked_batch = timed(
            lambda: stacked_runner.run(trials), repeats=repeats
        )
        per_trial_time, per_trial_batch = timed(
            lambda: per_trial_loop(trials, NUM_PULSES), repeats=repeats
        )
        if per_trial_time / stacked_time >= 3.0:
            break
    scalar_time, _ = timed(
        lambda: scalar_loop(trials[:SCALAR_TRIALS], NUM_PULSES), repeats=1
    )
    sharded_time, sharded_batch = timed(lambda: sharded_run(trials), repeats=1)

    np.testing.assert_allclose(
        stacked_batch.times,
        per_trial_batch.times,
        rtol=0.0,
        atol=1e-9,
        equal_nan=True,
    )
    np.testing.assert_array_equal(stacked_batch.times, sharded_batch.times)

    speedup = per_trial_time / stacked_time
    report = {
        "benchmark": "batch_speed",
        "grid": {
            "diameter": BATCH_DIAMETER,
            "num_layers": graph.num_layers,
            "width": graph.width,
            "num_pulses": NUM_PULSES,
            "trials": BATCH_TRIALS,
            "faults": 0,
        },
        "modes": {
            "scalar": _mode_record(SCALAR_TRIALS, scalar_time, node_pulses),
            "per_trial_vectorized": _mode_record(
                BATCH_TRIALS, per_trial_time, node_pulses
            ),
            "trial_stacked": _mode_record(
                BATCH_TRIALS, stacked_time, node_pulses
            ),
            "process_sharded": {
                **_mode_record(BATCH_TRIALS, sharded_time, node_pulses),
                "shards": 2,
            },
        },
        "speedups": {
            "stacked_vs_per_trial": speedup,
            "stacked_vs_scalar": (
                (scalar_time / SCALAR_TRIALS) / (stacked_time / BATCH_TRIALS)
            ),
        },
    }
    _merge_bench_json(report)

    print()
    print(
        format_table(
            ["mode", "trials", "seconds", "node-pulses/s"],
            [
                (name, mode["trials_measured"], mode["seconds"],
                 mode["node_pulses_per_s"])
                for name, mode in report["modes"].items()
            ],
            title=f"Batch kernels, S={BATCH_TRIALS}, D={BATCH_DIAMETER}, "
            f"{NUM_PULSES} pulses (stacked {speedup:.1f}x vs per-trial)",
        )
    )
    assert speedup >= 3.0, (
        f"trial-stacked kernel only {speedup:.1f}x faster than the "
        f"per-trial loop ({stacked_time:.4f}s vs {per_trial_time:.4f}s)"
    )


@pytest.mark.usefixtures("in_process")
def test_simplified_stacked_speedup():
    """Stacked Algorithm 1 >= 5x over its scalar per-cell reference at D=64.

    The simplified path used to be replayed scalar-only; this bench pins
    the trial-stacked kernel's throughput on the ``fig5_jump``/
    ``ablations``-scale cell and records it under the ``"simplified"``
    section of ``BENCH_batch.json``.
    """
    trials = BatchRunner.seed_sweep(
        SIMPLIFIED_DIAMETER, range(SIMPLIFIED_TRIALS), num_pulses=NUM_PULSES
    )
    for trial in trials:
        trial.algorithm = "simplified"
    graph = trials[0].config.graph
    node_pulses = graph.num_nodes * NUM_PULSES

    stacked_runner = BatchRunner(num_pulses=NUM_PULSES)

    stacked_runner.run(trials)  # warm the delay/rate caches
    stacked_time, stacked_batch = timed(lambda: stacked_runner.run(trials))
    scalar_time, scalar_batch = timed(
        lambda: scalar_loop(trials[:SIMPLIFIED_SCALAR_TRIALS], NUM_PULSES),
        repeats=1,
    )

    # Acceptance: the stacked kernel is bit-identical to the scalar reference.
    np.testing.assert_array_equal(
        stacked_batch.times[:SIMPLIFIED_SCALAR_TRIALS], scalar_batch.times
    )

    speedup = (scalar_time / SIMPLIFIED_SCALAR_TRIALS) / (
        stacked_time / SIMPLIFIED_TRIALS
    )
    _merge_bench_json(
        {
            "simplified": {
                "grid": {
                    "diameter": SIMPLIFIED_DIAMETER,
                    "num_layers": graph.num_layers,
                    "width": graph.width,
                    "num_pulses": NUM_PULSES,
                    "trials": SIMPLIFIED_TRIALS,
                    "faults": 0,
                    "algorithm": "simplified",
                },
                "modes": {
                    "scalar": _mode_record(
                        SIMPLIFIED_SCALAR_TRIALS, scalar_time, node_pulses
                    ),
                    "trial_stacked": _mode_record(
                        SIMPLIFIED_TRIALS, stacked_time, node_pulses
                    ),
                },
                "speedups": {"stacked_vs_scalar": speedup},
            }
        }
    )

    print()
    print(
        format_table(
            ["mode", "trials", "seconds", "node-pulses/s"],
            [
                (
                    "scalar",
                    SIMPLIFIED_SCALAR_TRIALS,
                    scalar_time,
                    SIMPLIFIED_SCALAR_TRIALS * node_pulses / scalar_time,
                ),
                (
                    "trial_stacked",
                    SIMPLIFIED_TRIALS,
                    stacked_time,
                    SIMPLIFIED_TRIALS * node_pulses / stacked_time,
                ),
            ],
            title=f"Simplified (Alg. 1) kernel, S={SIMPLIFIED_TRIALS}, "
            f"D={SIMPLIFIED_DIAMETER}, {NUM_PULSES} pulses "
            f"(stacked {speedup:.1f}x vs scalar)",
        )
    )
    assert speedup >= 5.0, (
        f"stacked simplified kernel only {speedup:.1f}x faster than the "
        f"scalar reference ({stacked_time:.4f}s vs {scalar_time:.4f}s)"
    )


#: The heterogeneous acceptance cell: S = 16 trials over mixed widths
#: (thm11's D in {16, 32, 64}), which before padding ran as width-1
#: stacks or separate per-geometry batches.
HETERO_DIAMETERS = (16, 32, 64)
HETERO_TRIALS = 16


def hetero_trials():
    """S = 16 fault-free trials cycling through the mixed diameters."""
    trials = []
    for i in range(HETERO_TRIALS):
        diameter = HETERO_DIAMETERS[i % len(HETERO_DIAMETERS)]
        trials.extend(
            BatchRunner.seed_sweep(diameter, [i], num_pulses=NUM_PULSES)
        )
    return trials


@pytest.mark.usefixtures("in_process")
def test_heterogeneous_stacked_speedup():
    """Padded mixed-geometry stack >= 1.3x over the per-trial loop.

    The sweep the paper's headline experiments run (mixed widths/depths)
    used to bypass the trial stack entirely; this bench pins the padded
    kernel's throughput against the per-trial vectorized loop and the
    per-geometry grouping (one stack per geometry), and records all
    three modes under the ``"heterogeneous"`` section of
    ``BENCH_batch.json``.
    """
    trials = hetero_trials()
    node_pulses = sum(
        t.config.graph.num_nodes * NUM_PULSES for t in trials
    ) / len(trials)

    stacked_runner = BatchRunner(num_pulses=NUM_PULSES)

    # Warm the per-edge and per-layer delay caches once.
    warm = stacked_runner.run(trials)
    assert warm.stack_groups == [list(range(len(trials)))], (
        "mixed-width sweep must run as a single padded stack"
    )
    for repeats in (3, 5):
        stacked_time, stacked_batch = timed(
            lambda: stacked_runner.run(trials), repeats=repeats
        )
        per_trial_time, per_trial_batch = timed(
            lambda: per_trial_loop(trials, NUM_PULSES), repeats=repeats
        )
        if per_trial_time / stacked_time >= 1.3:
            break
    grouped_time, grouped_batch = timed(
        lambda: geometry_grouped_batch(trials, NUM_PULSES), repeats=1
    )

    # Acceptance: the padded stack is bit-identical to the per-trial runs.
    np.testing.assert_array_equal(stacked_batch.times, per_trial_batch.times)
    np.testing.assert_array_equal(stacked_batch.times, grouped_batch.times)

    speedup = per_trial_time / stacked_time
    _merge_bench_json(
        {
            "heterogeneous": {
                "grid": {
                    "diameters": list(HETERO_DIAMETERS),
                    "num_pulses": NUM_PULSES,
                    "trials": len(trials),
                    "faults": 0,
                },
                "modes": {
                    "per_trial_vectorized": _mode_record(
                        len(trials), per_trial_time, node_pulses
                    ),
                    "geometry_grouped": _mode_record(
                        len(trials), grouped_time, node_pulses,
                        groups=len(grouped_batch.stack_groups),
                    ),
                    "hetero_stacked": _mode_record(
                        len(trials), stacked_time, node_pulses, groups=1
                    ),
                },
                "speedups": {
                    "stacked_vs_per_trial": speedup,
                    "stacked_vs_grouped": grouped_time / stacked_time,
                },
            }
        }
    )

    print()
    print(
        format_table(
            ["mode", "trials", "seconds", "node-pulses/s"],
            [
                ("per_trial_vectorized", len(trials), per_trial_time,
                 len(trials) * node_pulses / per_trial_time),
                ("geometry_grouped", len(trials), grouped_time,
                 len(trials) * node_pulses / grouped_time),
                ("hetero_stacked", len(trials), stacked_time,
                 len(trials) * node_pulses / stacked_time),
            ],
            title=f"Heterogeneous stack, S={len(trials)}, "
            f"D in {HETERO_DIAMETERS}, {NUM_PULSES} pulses "
            f"(stacked {speedup:.1f}x vs per-trial)",
        )
    )
    assert speedup >= 1.3, (
        f"padded mixed-geometry stack only {speedup:.1f}x faster than the "
        f"per-trial loop ({stacked_time:.4f}s vs {per_trial_time:.4f}s)"
    )


#: The depth-skew acceptance cell: S = 16 mixed-width trials where a few
#: deep outliers (up to 512 layers, each a distinct geometry) tower over
#: a field of depth-1 trials.  Before compaction this was the shape where
#: per-geometry grouping beat the padded stack (ROADMAP PR-4 note): the
#: padded loop dragged 15 inert rows through ~500 layers.
DEPTH_SKEW_DIAMETERS = (16, 32, 64)
DEPTH_SKEW_DEEP = {0: 512, 3: 448, 6: 384, 9: 320, 12: 256, 15: 512}
DEPTH_SKEW_TRIALS = 16


def depth_skew_trials():
    """Mixed widths, depths 1 vs {256..512}: maximally skewed stacking."""
    trials = []
    for i in range(DEPTH_SKEW_TRIALS):
        diameter = DEPTH_SKEW_DIAMETERS[i % len(DEPTH_SKEW_DIAMETERS)]
        trials.extend(
            BatchRunner.seed_sweep(
                diameter,
                [i],
                num_pulses=NUM_PULSES,
                num_layers=DEPTH_SKEW_DEEP.get(i, 1),
            )
        )
    return trials


@pytest.mark.usefixtures("in_process")
def test_depth_skewed_compaction_speedup():
    """Depth-compacted stack >= 1.3x over per-geometry grouping.

    Grouping was the best pre-compaction mode on this shape (each deep
    outlier runs alone, no padding waste) but fragments the batch into
    one stack per distinct geometry; the compacted stack keeps the
    single padded stack and simply retires finished rows, so it pays the
    same layer steps as grouping with the Python/launch overhead of one
    stack.  Records all three modes (plus the uncompacted padded stack,
    which still loses to grouping here -- the regression this feature
    closes) under the ``"depth_skewed"`` section of
    ``BENCH_batch.json``.
    """
    trials = depth_skew_trials()
    node_pulses = sum(
        t.config.graph.num_nodes * NUM_PULSES for t in trials
    ) / len(trials)

    compacted_runner = BatchRunner(num_pulses=NUM_PULSES)

    # Warm the per-edge and per-layer delay caches once; also pin the
    # single-stack + compaction bookkeeping while we are at it.
    warm = compacted_runner.run(trials)
    assert warm.stack_groups == [list(range(len(trials)))], (
        "depth-skewed sweep must still run as a single padded stack"
    )
    (stats,) = warm.compaction_stats
    assert stats["dropped_fraction"] > 0.5, (
        "compaction should reclaim most of the depth padding here"
    )
    for repeats in (3, 5):
        compacted_time, compacted_batch = timed(
            lambda: compacted_runner.run(trials), repeats=repeats
        )
        grouped_time, grouped_batch = timed(
            lambda: geometry_grouped_batch(trials, NUM_PULSES),
            repeats=repeats,
        )
        if grouped_time / compacted_time >= 1.3:
            break
    with uncompacted():
        padded_time, padded_batch = timed(
            lambda: compacted_runner.run(trials), repeats=1
        )

    # Acceptance: compaction changes the work done, never the results.
    np.testing.assert_array_equal(compacted_batch.times, grouped_batch.times)
    np.testing.assert_array_equal(compacted_batch.times, padded_batch.times)

    speedup = grouped_time / compacted_time
    _merge_bench_json(
        {
            "depth_skewed": {
                "grid": {
                    "diameters": list(DEPTH_SKEW_DIAMETERS),
                    "deep_layers": sorted(
                        set(DEPTH_SKEW_DEEP.values()), reverse=True
                    ),
                    "shallow_layers": 1,
                    "num_pulses": NUM_PULSES,
                    "trials": len(trials),
                    "faults": 0,
                },
                "compaction": {
                    "dropped_fraction": stats["dropped_fraction"],
                    "padded_row_steps": stats["padded_row_steps"],
                    "active_row_steps": stats["active_row_steps"],
                },
                "modes": {
                    "geometry_grouped": _mode_record(
                        len(trials), grouped_time, node_pulses,
                        groups=len(grouped_batch.stack_groups),
                    ),
                    "padded_uncompacted": _mode_record(
                        len(trials), padded_time, node_pulses, groups=1
                    ),
                    "depth_compacted": _mode_record(
                        len(trials), compacted_time, node_pulses, groups=1
                    ),
                },
                "speedups": {
                    "compacted_vs_grouped": speedup,
                    "compacted_vs_padded": padded_time / compacted_time,
                    "grouped_vs_padded": padded_time / grouped_time,
                },
            }
        }
    )

    print()
    print(
        format_table(
            ["mode", "trials", "seconds", "node-pulses/s"],
            [
                ("geometry_grouped", len(trials), grouped_time,
                 len(trials) * node_pulses / grouped_time),
                ("padded_uncompacted", len(trials), padded_time,
                 len(trials) * node_pulses / padded_time),
                ("depth_compacted", len(trials), compacted_time,
                 len(trials) * node_pulses / compacted_time),
            ],
            title=f"Depth-skewed stack, S={len(trials)}, 1-vs-512 layers, "
            f"{NUM_PULSES} pulses (compacted {speedup:.1f}x vs grouped)",
        )
    )
    assert speedup >= 1.3, (
        f"depth-compacted stack only {speedup:.1f}x faster than per-geometry "
        f"grouping ({compacted_time:.4f}s vs {grouped_time:.4f}s)"
    )


#: The streaming acceptance cell: S = 64 trials, 32 pulses -- deep enough
#: in the pulse axis that the (S, K, L, W) block dominates the footprint.
STREAM_TRIALS = 64
STREAM_PULSES = 32
STREAM_DIAMETER = 32
#: Floor on materialized-peak / streaming-peak; the block is ~5 matrices
#: deep, so anything under this means streaming materialized the block.
STREAM_MEMORY_FLOOR = 4.0
#: The same cell when the fold ran once per (pulse, layer) plane: its
#: ``StreamedStats.update`` calls per run, streamed / materialized wall
#: time (middle of three runs) and streamed peak, on a 2-core x86-64
#: box.  Written into the section next to the live numbers.
PER_PLANE_FOLD = {
    "update_calls": 1024,
    "streamed_over_materialized": 1.34,
    "streamed_peak_bytes": 7394672,
}
#: The same cell when the fold ran once per pulse over a rolling
#: ``(S, B, L, W)`` window of 2-pulse blocks, on the same box.
PER_PULSE_FOLD = {
    "update_calls": 32,
    "streamed_over_materialized": 0.97,
    "streamed_peak_bytes": 12275504,
}
#: The statistic accessors a served sweep reads.
STAT_ACCESSORS = (
    "local_skews",
    "inter_layer_skews",
    "overall_skews",
    "global_skews",
    "correction_stats",
)


def accessor_seconds(batch):
    """Wall time of the :data:`STAT_ACCESSORS` on a finished batch."""
    start = time.perf_counter()
    for name in STAT_ACCESSORS:
        getattr(batch, name)()
    return time.perf_counter() - start


@pytest.mark.usefixtures("in_process")
def test_streaming_memory_reduction():
    """Streaming folds >= 4x less peak memory than the materialized block.

    ``store_times=False`` promises the ``(S, K, L, W)`` pulse-time block
    is never allocated; this bench pins that with :mod:`tracemalloc` on
    the S = 64, K = 32 cell, asserts the >= 4x peak-memory floor (CI
    fails if the streaming path ever allocates the full block again),
    checks the streamed statistics still match the array reducers on
    the materialized block bitwise and that the fold runs once per
    (pulse block, layer) step, and records both modes (with the time of
    the statistic accessors on each finished batch), the fold's calls
    and the streamed / materialized wall ratio (reported, not gated)
    under the ``"streaming"`` section of ``BENCH_batch.json``.
    """
    trials = BatchRunner.seed_sweep(
        STREAM_DIAMETER, range(STREAM_TRIALS), num_pulses=STREAM_PULSES
    )
    graph = trials[0].config.graph
    node_pulses = graph.num_nodes * STREAM_PULSES
    block_bytes = (
        STREAM_TRIALS * STREAM_PULSES * graph.num_layers * graph.width * 8
    )

    streaming_runner = BatchRunner(num_pulses=STREAM_PULSES, store_times=False)
    materialized_runner = BatchRunner(num_pulses=STREAM_PULSES)

    # Warm the per-edge delay/rate caches (they live on the shared trial
    # configs and scale with S*L*W, not K) so the traced peaks compare
    # the result pipelines, not one-time RNG setup.  The warm-up also
    # counts the fold's calls: one per (block, layer) step of the run's
    # one stack.
    with mock.patch.object(
        StreamedStats, "update", autospec=True,
        side_effect=StreamedStats.update,
    ) as update:
        warm = streaming_runner.run(trials)
    (warm_stats,) = warm.compaction_stats
    assert update.call_count == (
        warm_stats["pulse_blocks"] * warm_stats["num_layers"]
    )

    tracemalloc.start()
    tracemalloc.reset_peak()
    stream_start = time.perf_counter()
    streamed = streaming_runner.run(trials)
    stream_time = time.perf_counter() - stream_start
    _, stream_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    tracemalloc.reset_peak()
    full_start = time.perf_counter()
    materialized = materialized_runner.run(trials)
    full_time = time.perf_counter() - full_start
    _, full_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    stream_accessor_time = accessor_seconds(streamed)
    full_accessor_time = accessor_seconds(materialized)

    # Acceptance: streamed statistics equal the array reducers on the
    # materialized block (one base graph, so one sweep each).
    times = materialized.times
    np.testing.assert_array_equal(
        streamed.local_skews(), local_skew_layers(times, graph)
    )
    np.testing.assert_array_equal(
        streamed.inter_layer_skews(), inter_layer_skew_layers(times, graph)
    )
    np.testing.assert_array_equal(
        streamed.overall_skews(), overall_skew_layers(times, graph)
    )
    np.testing.assert_array_equal(
        streamed.global_skews(),
        masked_max(global_skew_layers(times, empty=np.nan), axis=-1),
    )
    want = fold_correction_planes(materialized.corrections)
    got = streamed.correction_stats()
    for key in want:
        np.testing.assert_array_equal(want[key], got[key], err_msg=key)

    reduction = full_peak / stream_peak
    wall_ratio = stream_time / full_time
    _merge_bench_json(
        {
            "streaming": {
                "grid": {
                    "diameter": STREAM_DIAMETER,
                    "num_layers": graph.num_layers,
                    "width": graph.width,
                    "num_pulses": STREAM_PULSES,
                    "trials": STREAM_TRIALS,
                    "faults": 0,
                },
                "block_bytes": block_bytes,
                "modes": {
                    "materialized": dict(
                        _mode_record(STREAM_TRIALS, full_time, node_pulses),
                        peak_bytes=full_peak,
                        accessor_s=full_accessor_time,
                    ),
                    "streamed": dict(
                        _mode_record(STREAM_TRIALS, stream_time, node_pulses),
                        peak_bytes=stream_peak,
                        accessor_s=stream_accessor_time,
                    ),
                },
                "memory_reduction": reduction,
                # Reported, not gated: tracemalloc inflates both sides.
                "fold": {
                    "per_plane": PER_PLANE_FOLD,
                    "per_pulse": PER_PULSE_FOLD,
                    "per_block_step": {
                        "block_pulses": warm_stats["block_pulses"],
                        "update_calls": update.call_count,
                        "streamed_over_materialized": wall_ratio,
                        "streamed_peak_bytes": stream_peak,
                    },
                },
            }
        }
    )

    print()
    print(
        format_table(
            ["mode", "seconds", "peak MiB", "node-pulses/s", "accessor s"],
            [
                ("materialized", full_time, full_peak / 2**20,
                 STREAM_TRIALS * node_pulses / full_time, full_accessor_time),
                ("streamed", stream_time, stream_peak / 2**20,
                 STREAM_TRIALS * node_pulses / stream_time,
                 stream_accessor_time),
            ],
            title=f"Streaming reducers, S={STREAM_TRIALS}, "
            f"D={STREAM_DIAMETER}, {STREAM_PULSES} pulses "
            f"({reduction:.1f}x less peak memory, {wall_ratio:.2f}x "
            f"the materialized wall time)",
        )
    )
    assert stream_peak < block_bytes, (
        f"streaming peak {stream_peak} bytes exceeds one (S, K, L, W) "
        f"block ({block_bytes} bytes) -- the block leaked back in"
    )
    assert reduction >= STREAM_MEMORY_FLOOR, (
        f"streaming only reduced peak memory {reduction:.1f}x "
        f"({stream_peak} vs {full_peak} bytes); floor is "
        f"{STREAM_MEMORY_FLOOR}x"
    )


#: The pulse-block cell: the ``stream_horizon`` shape -- a fault-free
#: S = 16, D = 32 grid over 64 streamed pulses.
BLOCK_TRIALS = 16
BLOCK_DIAMETER = 32
BLOCK_PULSES = 64
#: Floor on the one-pulse-block / default-block warm wall-time ratio.
PULSE_BLOCK_FLOOR = 1.5


def fixed_blocks(size):
    """Blocks of ``size`` pulses, the last one possibly shorter."""
    return mock.patch.object(
        fast_batch_mod,
        "_pulse_blocks",
        lambda num_pulses, num_layers, plane_cells, starts=(): [
            (k, min(k + size, num_pulses)) for k in range(0, num_pulses, size)
        ],
    )


def one_pulse_blocks():
    """Baseline of the per-pulse layer step: one pulse per block."""
    return fixed_blocks(1)


def padded_neighbor_tables(nb_delay, columns, width):
    """The dense padded layout of earlier releases, from the neighbor plan.

    Returns ``(nb_delay, nb_idx, nb_valid)``: the ``(..., E)`` entry-axis
    delays padded out to ``(..., W, max_deg)`` by plan column, and the
    ``(W, max_deg)`` gather index and validity tables (``(S, 1, W,
    max_deg)`` for a per-row plan).  Slot ``j`` of a lane is its
    ``j``-th column; lanes past their degree are invalid.
    """
    lead = ()
    for _, source, _, _ in columns:
        lead = source.shape[:-1] + (1,) * (source.ndim - 1)
    shape = (width, max(len(columns), 1))
    nb_idx = np.zeros(lead + shape, dtype=np.int64)
    nb_valid = np.zeros(lead + shape, dtype=bool)
    padded = np.zeros(nb_delay.shape[:-1] + shape)
    for j, (entries, source, lanes, mask) in enumerate(columns):
        at = slice(None) if lanes is None else lanes
        per_row = (slice(None), None) if source.ndim > 1 else ()
        nb_idx[..., at, j] = source[per_row]
        nb_valid[..., at, j] = True if mask is None else mask[per_row]
        padded[..., at, j] = nb_delay[..., entries]
    return padded, nb_idx, nb_valid


#: Padded tables of the axis-reduced baseline, by (plan, delays): both
#: are cached for the whole run, so the baseline pays the layout once.
_PADDED = {}


def _axis_reduced_bounds(prev, nb_delay, rate, columns):
    """The kernel's H_min / H_max as the degree-axis reduction of the
    whole masked ``(..., W, max_deg)`` neighbor tensor."""
    key = (id(columns), id(nb_delay))
    if key not in _PADDED:
        _PADDED[key] = (columns, nb_delay) + padded_neighbor_tables(
            nb_delay, columns, prev.shape[-1]
        )
    nb_delay, nb_idx, nb_valid = _PADDED[key][2:]
    if nb_idx.ndim > 2:
        gathered = np.take_along_axis(
            prev, nb_idx.reshape(nb_idx.shape[:-2] + (-1,)), axis=-1
        ).reshape(prev.shape[:-1] + nb_idx.shape[-2:])
    else:
        gathered = prev.take(nb_idx, axis=-1)
    h_nb = rate[..., None] * (gathered + nb_delay)
    return (
        np.minimum.reduce(np.where(nb_valid, h_nb, np.inf), axis=-1),
        np.maximum.reduce(np.where(nb_valid, h_nb, -np.inf), axis=-1),
    )


@contextlib.contextmanager
def axis_reduce_folds():
    """Baseline of the kernel's H_min / H_max: the degree-axis reduction."""
    try:
        with mock.patch.object(fast_mod, "_neighbor_bounds", _axis_reduced_bounds):
            yield
    finally:
        _PADDED.clear()


def kernel_step_us(runner, trials):
    """Median microseconds of one kernel call over a warm run."""
    kernel = fast_batch_mod._layer_step_kernel
    spent = []

    def timed_kernel(*args):
        start = time.perf_counter()
        out = kernel(*args)
        spent.append(time.perf_counter() - start)
        return out

    with mock.patch.object(fast_batch_mod, "_layer_step_kernel", timed_kernel):
        runner.run(trials)
    return 1e6 * statistics.median(spent)


def streamed_peak(runner, trials):
    """``tracemalloc`` peak bytes of one warm streamed run."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    runner.run(trials)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


@pytest.mark.usefixtures("in_process")
def test_pulse_block_speedup():
    """Default pulse blocks >= 1.5x one pulse per block, warm and streamed.

    Each layer step advances a block of pulses on an ``(S, B, W)``
    plane; the baseline patches the block rule to one pulse per block.
    Both runs must fold bitwise-equal statistics.  The section records
    both wall times, the block size the rule picked, the median kernel
    call with the neighbor min/max folded by columns and by the axis
    reduction (one-pulse and default blocks), and both streamed peaks.
    """
    trials = BatchRunner.seed_sweep(
        BLOCK_DIAMETER, range(BLOCK_TRIALS), num_pulses=BLOCK_PULSES
    )
    runner = BatchRunner(num_pulses=BLOCK_PULSES, store_times=False)
    runner.run(trials)  # cold fill: every delay and rate cached

    def per_pulse():
        with one_pulse_blocks():
            return runner.run(trials)

    (one_time, block_time), (one_batch, batch) = interleaved(
        per_pulse, lambda: runner.run(trials), pairs=5
    )
    for name in ("local_skews", "overall_skews", "global_skews"):
        np.testing.assert_array_equal(
            getattr(batch, name)(), getattr(one_batch, name)(), err_msg=name
        )
    want, got = one_batch.correction_stats(), batch.correction_stats()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    stats, one_stats = batch.compaction_stats[0], one_batch.compaction_stats[0]
    for key in ("active_row_steps", "active_lane_steps", "fallback_cells"):
        assert stats[key] == one_stats[key], key

    kernel_us = {}
    for label, blocks in (("one_pulse", one_pulse_blocks), ("blocked", None)):
        kernel_us[label] = {}
        for fold, patch in (("axis_reduce", axis_reduce_folds), ("column_fold", None)):
            with blocks() if blocks else contextlib.nullcontext():
                with patch() if patch else contextlib.nullcontext():
                    kernel_us[label][fold] = kernel_step_us(runner, trials)
    with one_pulse_blocks():
        one_peak = streamed_peak(runner, trials)
    block_peak = streamed_peak(runner, trials)

    node_pulses = trials[0].config.num_grid_nodes * BLOCK_PULSES
    speedup = one_time / block_time
    _merge_bench_json(
        {
            "pulse_blocks": {
                "grid": {
                    "diameter": BLOCK_DIAMETER,
                    "num_pulses": BLOCK_PULSES,
                    "trials": BLOCK_TRIALS,
                    "faults": 0,
                },
                "block_pulses": stats["block_pulses"],
                "pulse_blocks": stats["pulse_blocks"],
                "modes": {
                    "one_pulse_blocks": dict(
                        _mode_record(BLOCK_TRIALS, one_time, node_pulses),
                        peak_bytes=one_peak,
                    ),
                    "pulse_blocks": dict(
                        _mode_record(BLOCK_TRIALS, block_time, node_pulses),
                        peak_bytes=block_peak,
                    ),
                },
                "kernel_us_per_step": kernel_us,
                "speedup": speedup,
            }
        }
    )
    print()
    print(
        format_table(
            ["blocks", "seconds", "kernel us (reduce)", "kernel us (columns)",
             "peak MiB"],
            [
                ("one pulse", one_time, kernel_us["one_pulse"]["axis_reduce"],
                 kernel_us["one_pulse"]["column_fold"], one_peak / 2**20),
                (f"B = {stats['block_pulses']}", block_time,
                 kernel_us["blocked"]["axis_reduce"],
                 kernel_us["blocked"]["column_fold"], block_peak / 2**20),
            ],
            title=f"Pulse blocks, S={BLOCK_TRIALS}, D={BLOCK_DIAMETER}, "
            f"{BLOCK_PULSES} streamed pulses ({speedup:.2f}x one pulse "
            f"per block)",
        )
    )
    assert stats["block_pulses"] > 1, stats
    assert speedup >= PULSE_BLOCK_FLOOR, (
        f"pulse blocks only {speedup:.2f}x one pulse per block; floor is "
        f"{PULSE_BLOCK_FLOOR}x"
    )


#: The short-horizon cell: the ``fault_horizon`` shape -- a thm13 grid
#: (the fault-free reference plus 16 sampled fault plans) at D = 32,
#: streamed over 8 pulses, where a one-pulse cap on the blocks would
#: leave every pulse its own layer steps and fallback passes.
SHORT_DIAMETER = 32
SHORT_SEEDS = list(range(1, 17))
SHORT_PULSES = 8
#: Floor on the one-pulse-block / default-block warm wall-time ratio.
SHORT_HORIZON_FLOOR = 1.5


def send_offsets_calls(runner, trials):
    """The stack's ``send_offsets`` calls in one warm run."""
    calls = [0]

    def counting(faults, sends):
        calls[0] += 1
        return fault_model.send_offsets(faults, sends)

    with mock.patch.object(fast_batch_mod, "send_offsets", counting):
        runner.run(trials)
    return calls[0]


@pytest.mark.usefixtures("in_process")
def test_short_horizon_block_speedup():
    """Default pulse blocks >= 1.5x one pulse per block on 8 faulted pulses.

    A streamed run keeps a two-layer ring of ``(S, B, W)`` planes and
    folds each (block, layer) step, so short horizons block as well: the
    thm13 grid advances 4-pulse blocks, with one fallback pass and one
    ``send_offsets`` call per block instead of per pulse.  Both runs
    must fold bitwise-equal statistics and count the same (trial, pulse)
    work.  The section records both wall times, the block size the rule
    picked, the fallback passes, the streamed peaks and the
    ``send_offsets`` calls.
    """
    trials, _ = thm13_trials(SHORT_DIAMETER, SHORT_SEEDS, num_pulses=SHORT_PULSES)
    runner = BatchRunner(num_pulses=SHORT_PULSES, store_times=False)
    runner.run(trials)  # cold fill: every delay and rate cached

    def per_pulse():
        with one_pulse_blocks():
            return runner.run(trials)

    (one_time, block_time), (one_batch, batch) = interleaved(
        per_pulse, lambda: runner.run(trials), pairs=5
    )
    for name in ("local_skews", "overall_skews", "global_skews"):
        np.testing.assert_array_equal(
            getattr(batch, name)(), getattr(one_batch, name)(), err_msg=name
        )
    want, got = one_batch.correction_stats(), batch.correction_stats()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    (stats,), (one_stats,) = batch.compaction_stats, one_batch.compaction_stats
    for key in (
        "active_row_steps",
        "active_lane_steps",
        "fallback_cells",
        "fallback_batches",
    ):
        assert stats[key] == one_stats[key], key

    with one_pulse_blocks():
        one_peak = streamed_peak(runner, trials)
        one_offsets = send_offsets_calls(runner, trials)
    block_peak = streamed_peak(runner, trials)
    block_offsets = send_offsets_calls(runner, trials)
    # The grid mixes static (crash, early, late) and Byzantine faults:
    # one call for the static offsets, then one per block.
    assert block_offsets == 1 + stats["pulse_blocks"], block_offsets
    assert one_offsets == 1 + SHORT_PULSES, one_offsets

    node_pulses = trials[0].config.num_grid_nodes * SHORT_PULSES
    speedup = one_time / block_time
    modes = {}
    for label, seconds, run_stats, peak, offsets in (
        ("one_pulse_blocks", one_time, one_stats, one_peak, one_offsets),
        ("pulse_blocks", block_time, stats, block_peak, block_offsets),
    ):
        modes[label] = _mode_record(
            len(trials),
            seconds,
            node_pulses,
            block_pulses=run_stats["block_pulses"],
            fallback_passes=run_stats["fallback_passes"],
            peak_bytes=peak,
            send_offsets_calls=offsets,
        )
    _merge_bench_json(
        {
            "short_horizon_blocks": {
                "grid": {
                    "diameter": SHORT_DIAMETER,
                    "num_pulses": SHORT_PULSES,
                    "trials": len(trials),
                    "faults": int(sum(t.num_faults for t in trials)),
                },
                "block_pulses": stats["block_pulses"],
                "pulse_blocks": stats["pulse_blocks"],
                "modes": modes,
                "speedup": speedup,
            }
        }
    )
    print()
    print(
        format_table(
            ["blocks", "seconds", "fallback passes", "send_offsets calls",
             "peak MiB"],
            [
                ("one pulse", one_time, one_stats["fallback_passes"],
                 one_offsets, one_peak / 2**20),
                (f"B = {stats['block_pulses']}", block_time,
                 stats["fallback_passes"], block_offsets, block_peak / 2**20),
            ],
            title=f"Short-horizon blocks, thm13 S={len(trials)}, "
            f"D={SHORT_DIAMETER}, {SHORT_PULSES} streamed pulses "
            f"({speedup:.2f}x one pulse per block)",
        )
    )
    assert stats["block_pulses"] > 1, stats
    assert speedup >= SHORT_HORIZON_FLOOR, (
        f"short-horizon blocks only {speedup:.2f}x one pulse per block; "
        f"floor is {SHORT_HORIZON_FLOOR}x"
    )


#: Block sizes of the cost curve.  A curve run holds B pulses in one
#: block, and at least :data:`CURVE_MIN_PULSES` pulses (in blocks of B).
CURVE_BLOCKS = (1, 2, 4, 8, 12, 16, 22, 32, 64)
CURVE_MIN_PULSES = 8
#: Interleaved timing rounds per curve point (the median is recorded).
CURVE_ROUNDS = 3


def host_info():
    """The CPU, core count, L2 size (where readable) and libc."""
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    l2 = None
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "level").read_text().strip() == "2":
                l2 = (index / "size").read_text().strip()
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "l2": l2,
        "libc": " ".join(platform.libc_ver()).strip() or None,
    }


@pytest.mark.usefixtures("in_process")
def test_block_curve():
    """Per-step wall time and streamed peak against the plane's cells.

    Two warm streamed stacks -- shaped like ``stream_horizon`` (S = 16,
    D = 32) and like ``fault_horizon`` (the 17-trial thm13 grid, D =
    32) -- run with the blocks patched to each B of
    :data:`CURVE_BLOCKS`, over ``max(B, CURVE_MIN_PULSES)`` pulses; the
    rounds interleave the block sizes.  A point's step time is the run's
    wall time over its (block, layer) steps.  The section also records
    the B the default rule picks for each shape's own horizon and the
    host, since the curve (cache sizes, the allocator's thresholds) is
    the host's -- and the process's: glibc raises its thresholds after
    large frees, so where the curve turns up depends on what the
    process allocated before.  Reported, not gated.
    """
    stacks = {
        "stream_horizon": (
            BatchRunner.seed_sweep(
                BLOCK_DIAMETER, range(BLOCK_TRIALS), num_pulses=BLOCK_PULSES
            ),
            BLOCK_DIAMETER,
            BLOCK_PULSES,
        ),
        "fault_horizon": (
            thm13_trials(SHORT_DIAMETER, SHORT_SEEDS, num_pulses=SHORT_PULSES)[0],
            SHORT_DIAMETER,
            SHORT_PULSES,
        ),
    }
    runners = {
        size: BatchRunner(
            num_pulses=max(size, CURVE_MIN_PULSES), store_times=False
        )
        for size in CURVE_BLOCKS
    }
    section = {"host": host_info(), "plane_cells_cap": fast_batch_mod._PLANE_CELLS}
    rows = []
    for name, (trials, diameter, horizon) in stacks.items():
        graph = trials[0].config.graph
        plane_cells = len(trials) * graph.width
        BatchRunner(num_pulses=horizon, store_times=False).run(trials)  # cold fill
        steps = {size: [] for size in CURVE_BLOCKS}
        for _ in range(CURVE_ROUNDS):
            for size in CURVE_BLOCKS:
                with fixed_blocks(size):
                    start = time.perf_counter()
                    batch = runners[size].run(trials)
                    seconds = time.perf_counter() - start
                stats = batch.compaction_stats[0]
                steps[size].append(
                    seconds / (stats["pulse_blocks"] * stats["num_layers"])
                )
        points = []
        for size in CURVE_BLOCKS:
            with fixed_blocks(size):
                peak = streamed_peak(runners[size], trials)
            step_us = 1e6 * statistics.median(steps[size])
            points.append(
                {
                    "block_pulses": size,
                    "plane_cells": size * plane_cells,
                    "step_us": step_us,
                    "step_us_per_pulse": step_us / size,
                    "peak_bytes": peak,
                }
            )
            rows.append(
                (name, size, size * plane_cells, step_us, step_us / size,
                 peak / 2**20)
            )
        blocks = fast_batch_mod._pulse_blocks(
            horizon, graph.num_layers, plane_cells
        )
        section[name] = {
            "trials": len(trials),
            "diameter": diameter,
            "num_layers": graph.num_layers,
            "plane_cells_per_pulse": plane_cells,
            "num_pulses": horizon,
            "default_block_pulses": max(k1 - k0 for k0, k1 in blocks),
            "default_pulse_blocks": len(blocks),
            "points": points,
        }
    _merge_bench_json({"block_curve": section})
    print()
    print(
        format_table(
            ["stack", "B", "S*B*W cells", "us / step", "us / pulse", "peak MiB"],
            rows,
            title="Per-step cost curve of pulse blocks (streamed, warm; "
            f"default B: stream_horizon {section['stream_horizon']['default_block_pulses']}, "
            f"fault_horizon {section['fault_horizon']['default_block_pulses']})",
        )
    )


# ----------------------------------------------------------------------
# The parent's layer step, frozen: the kernel_step baseline
# ----------------------------------------------------------------------
def _parent_correction_step(h_own, h_min, h_max, params, policy):
    """The correction rule as one expression per temporary (frozen)."""
    kappa = params.kappa
    vartheta = params.vartheta
    kappa_stacked = np.ndim(kappa) > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        a = h_own - h_max
        b = h_own - h_min
        if policy.discretize:
            if not kappa_stacked and kappa == 0.0:
                delta = b
            else:
                s_star = (h_max - h_min) / (8.0 * kappa)
                s_floor = np.floor(s_star)
                s_ceil = np.ceil(s_star)
                delta = (
                    np.minimum(
                        np.maximum(
                            a + 4.0 * s_floor * kappa,
                            b - 4.0 * s_floor * kappa,
                        ),
                        np.maximum(
                            a + 4.0 * s_ceil * kappa,
                            b - 4.0 * s_ceil * kappa,
                        ),
                    )
                    - kappa / 2.0
                )
                if kappa_stacked:
                    delta = np.where(kappa == 0.0, b, delta)
        else:
            delta = h_own - (h_max + h_min) / 2.0 - kappa / 2.0
        delta = np.where(np.isinf(h_max), -np.inf, delta)
        upper = vartheta * kappa
        damp = policy.jump_slack * kappa
        low = delta < 0.0
        high = delta > upper
        if policy.stick_to_median:
            corr_low = np.minimum(h_own - h_min + kappa / 2.0 + damp, 0.0)
            corr_high = np.maximum(h_own - h_max - kappa / 2.0 - damp, upper)
        else:
            corr_low = np.zeros_like(delta)
            corr_high = np.broadcast_to(
                np.asarray(upper, dtype=float), delta.shape
            )
        correction = np.where(low, corr_low, np.where(high, corr_high, delta))
        branches = np.where(
            low,
            fast_mod.BRANCH_CODES["low"],
            np.where(
                high, fast_mod.BRANCH_CODES["high"], fast_mod.BRANCH_CODES["mid"]
            ),
        ).astype(np.int8)
    return correction, branches


def _parent_fold_columns(ufunc, values, identity):
    """Min / max over the masked degree axis, one column at a time."""
    if values.shape[-1] == 0:
        return np.full(values.shape[:-1], identity)
    folded = values[..., 0]
    for column in range(1, values.shape[-1]):
        folded = ufunc(folded, values[..., column])
    return folded


def parent_layer_step_kernel(
    prev, own_delay, nb_delay, rate, nb_idx, nb_valid, static_eligible,
    params, policy, simplified, *_,
):
    """The dense layer step as an earlier release evaluated it: padded
    ``(W, max_deg)`` neighbor tables, one temporary per expression, both
    neighbor masks over the whole ``(..., W, max_deg)`` tensor, every
    output plane on every run.  Frozen here as the ``kernel_step``
    baseline; bitwise equal to :func:`repro.core.fast._layer_step_kernel`
    on the same step (:func:`parent_arguments`)."""
    kappa = params.kappa
    vartheta = params.vartheta
    h_own = rate * (prev + own_delay)
    if nb_idx.ndim > 2:
        gathered = np.take_along_axis(
            prev, nb_idx.reshape(nb_idx.shape[:-2] + (-1,)), axis=-1
        ).reshape(prev.shape[:-1] + nb_idx.shape[-2:])
    else:
        gathered = prev.take(nb_idx, axis=-1)
    h_nb = rate[..., None] * (gathered + nb_delay)
    h_min = _parent_fold_columns(
        np.minimum, np.where(nb_valid, h_nb, np.inf), np.inf
    )
    h_max = _parent_fold_columns(
        np.maximum, np.where(nb_valid, h_nb, -np.inf), -np.inf
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        eligible = static_eligible & np.isfinite(h_own + h_min + h_max)
        if not simplified:
            eligible = (
                eligible
                & (h_own <= h_max + kappa / 2.0 + vartheta * kappa)
                & (h_max <= 2.0 * h_own - h_min + 2.0 * kappa)
            )
        correction, branches = _parent_correction_step(
            h_own, h_min, h_max, params, policy
        )
        exit_tau = np.maximum(h_own, h_max)
        target = h_own + params.Lambda - params.d - correction
        pulse_local = np.maximum(target, exit_tau)
        pulse_time = pulse_local / rate
        effective = h_own + params.Lambda - params.d - rate * pulse_time
    return eligible, correction, branches, pulse_time, effective


#: Interleaved timing rounds of the kernel_step bench (medians recorded).
KERNEL_ROUNDS = 5


def captured_steps(trials, num_pulses):
    """The arguments of every kernel call of one warm streamed run (each
    ``prev`` copied at its step: the ring moves on)."""
    runner = BatchRunner(num_pulses=num_pulses, store_times=False)
    runner.run(trials)  # cold fill: every delay and rate cached
    calls = []
    kernel = fast_batch_mod._layer_step_kernel

    def capture(prev, *rest):
        calls.append((prev.copy(),) + rest)
        return kernel(prev, *rest)

    with mock.patch.object(fast_batch_mod, "_layer_step_kernel", capture):
        runner.run(trials)
    return calls


def parent_arguments(args):
    """A captured kernel call's arguments in the frozen baseline's dense
    layout (:func:`padded_neighbor_tables`)."""
    prev, own_delay, nb_delay, rate, columns = args[:5]
    padded, nb_idx, nb_valid = padded_neighbor_tables(
        nb_delay, columns, prev.shape[-1]
    )
    return (prev, own_delay, padded, rate, nb_idx, nb_valid) + args[5:]


def assert_kernel_matches_parent(calls, parent_calls):
    """Every captured step: the kernel's outputs bitwise the parent's, with
    the planes and without them (as a streamed run calls it)."""
    for args, parent_args in zip(calls, parent_calls):
        want = parent_layer_step_kernel(*parent_args)
        with_planes = fast_mod._layer_step_kernel(*args[:9], True)
        streamed = fast_mod._layer_step_kernel(*args)
        for got in (with_planes, streamed):
            for index, (a, b) in enumerate(zip(got, want)):
                if a is None:
                    assert got is streamed and index in (2, 4)
                    continue
                np.testing.assert_array_equal(
                    a.view(np.uint8), b.view(np.uint8), err_msg=str(index)
                )


def kernel_step_rounds(calls, parent_calls, rounds=KERNEL_ROUNDS):
    """Median microseconds per step of the parent baseline (on its own
    layout) and the kernel over the captured steps, the two alternating
    first across rounds."""
    kernels = {
        "parent": (parent_layer_step_kernel, parent_calls),
        "kernel": (fast_mod._layer_step_kernel, calls),
    }
    spent = {name: [] for name in kernels}
    for round_ in range(rounds):
        names = list(kernels)[:: 1 if round_ % 2 == 0 else -1]
        for name in names:
            kernel, arguments = kernels[name]
            start = time.perf_counter()
            for args in arguments:
                kernel(*args)
            spent[name].append((time.perf_counter() - start) / len(calls))
    return {name: 1e6 * statistics.median(times) for name, times in spent.items()}


@pytest.mark.usefixtures("in_process")
def test_kernel_step():
    """The lean layer step against the parent's expressions, per step.

    Captures every kernel call of one warm streamed run of the
    ``stream_horizon`` shape (S = 16, D = 32, 64 pulses) and of the
    ``fault_horizon`` shape (the 17-trial thm13 grid, D = 32, 8 pulses),
    checks that the kernel's outputs are bitwise the frozen baseline's
    (:func:`parent_layer_step_kernel`, on the padded layout it read),
    then times both over the captured steps in interleaved rounds.  Recorded under
    ``"kernel_step"``; gated: the kernel is not slower than the baseline
    on the ``stream_horizon`` shape.
    """
    shapes = {
        "stream_horizon": (
            BatchRunner.seed_sweep(
                BLOCK_DIAMETER, range(BLOCK_TRIALS), num_pulses=BLOCK_PULSES
            ),
            BLOCK_PULSES,
        ),
        "fault_horizon": (
            thm13_trials(SHORT_DIAMETER, SHORT_SEEDS, num_pulses=SHORT_PULSES)[0],
            SHORT_PULSES,
        ),
    }
    section = {"rounds": KERNEL_ROUNDS, "host": host_info()}
    rows = []
    for name, (trials, num_pulses) in shapes.items():
        calls = captured_steps(trials, num_pulses)
        parent_calls = [parent_arguments(args) for args in calls]
        assert_kernel_matches_parent(calls, parent_calls)
        step_us = kernel_step_rounds(calls, parent_calls)
        planes = collections.Counter(args[0].shape for args in calls)
        section[name] = {
            "trials": len(trials),
            "num_pulses": num_pulses,
            "steps": len(calls),
            "plane": list(planes.most_common(1)[0][0]),
            "max_deg": len(calls[0][4]),
            "parent_us_per_step": step_us["parent"],
            "kernel_us_per_step": step_us["kernel"],
            "speedup": step_us["parent"] / step_us["kernel"],
        }
        rows.append(
            (name, len(calls), step_us["parent"], step_us["kernel"],
             step_us["parent"] / step_us["kernel"])
        )
    _merge_bench_json({"kernel_step": section})
    print()
    print(
        format_table(
            ["shape", "steps", "parent us / step", "kernel us / step", "speedup"],
            rows,
            title="Layer step, streamed, warm: the frozen dense expressions "
            f"vs the kernel ({KERNEL_ROUNDS} interleaved rounds)",
        )
    )
    stream = section["stream_horizon"]
    assert stream["kernel_us_per_step"] <= stream["parent_us_per_step"], stream


@pytest.mark.usefixtures("in_process")
def test_campaign_stacked_speedup():
    """Stacked campaign trials >= 1.5x per-trial; quiet campaigns near-free.

    Every trial carries its own random :class:`ChaosCampaign`, so the
    stacked kernel has to re-gather neighbor tensors at each trial's
    epoch boundaries; the floor pins that the epoch machinery still
    amortizes across the stack.  The quiet-campaign probe (a campaign
    with no events) bounds the pure bookkeeping overhead against the
    static kernel and requires bitwise-identical times.  Records the
    ``"churn"`` section of ``BENCH_batch.json``.
    """
    trials = BatchRunner.seed_sweep(
        CHURN_DIAMETER, range(CHURN_TRIALS), num_pulses=CHURN_PULSES
    )
    graph = trials[0].config.graph
    node_pulses = graph.num_nodes * CHURN_PULSES
    for i, trial in enumerate(trials):
        trial.campaign = ChaosCampaign.random(
            trial.config.graph.base,
            trial.config.graph.num_layers,
            churn_pulses=CHURN_PULSES - 1,
            rng_or_seed=i,
            event_rate=0.5,
        )
        trial.label = f"churn-seed={i}"

    static_trials = BatchRunner.seed_sweep(
        CHURN_DIAMETER, range(CHURN_TRIALS), num_pulses=CHURN_PULSES
    )
    quiet_trials = BatchRunner.seed_sweep(
        CHURN_DIAMETER, range(CHURN_TRIALS), num_pulses=CHURN_PULSES
    )
    for trial in quiet_trials:
        trial.campaign = ChaosCampaign(
            trial.config.graph.base, trial.config.graph.num_layers, events=()
        )

    stacked_runner = BatchRunner(num_pulses=CHURN_PULSES)

    # Warm the per-edge delay and rate caches so every timed mode
    # measures its kernel, not one-time RNG setup.
    stacked_runner.run(trials)
    for repeats in (3, 5):
        stacked_time, stacked_batch = timed(
            lambda: stacked_runner.run(trials), repeats=repeats
        )
        per_trial_time, per_trial_batch = timed(
            lambda: per_trial_loop(trials, CHURN_PULSES), repeats=repeats
        )
        if per_trial_time / stacked_time >= 1.5:
            break
    static_time, static_batch = timed(lambda: stacked_runner.run(static_trials))
    quiet_time, quiet_batch = timed(lambda: stacked_runner.run(quiet_trials))

    # Correctness riding along with the timing: the stacked epoch
    # machinery must agree with the per-trial loop, and a no-event
    # campaign must be indistinguishable from the static kernel.
    np.testing.assert_allclose(
        stacked_batch.times,
        per_trial_batch.times,
        rtol=0.0,
        atol=1e-9,
        equal_nan=True,
    )
    np.testing.assert_array_equal(quiet_batch.times, static_batch.times)
    assert any(
        stats.get("actions", 0) > 0
        for stats in stacked_batch.campaign_stats.values()
    )

    speedup = per_trial_time / stacked_time
    quiet_overhead = quiet_time / static_time
    _merge_bench_json(
        {
            "churn": {
                "grid": {
                    "diameter": CHURN_DIAMETER,
                    "num_layers": graph.num_layers,
                    "width": graph.width,
                    "num_pulses": CHURN_PULSES,
                    "trials": CHURN_TRIALS,
                    "event_rate": 0.5,
                },
                "modes": {
                    "per_trial_campaign": _mode_record(
                        CHURN_TRIALS, per_trial_time, node_pulses
                    ),
                    "trial_stacked_campaign": _mode_record(
                        CHURN_TRIALS, stacked_time, node_pulses
                    ),
                    "quiet_campaign_stacked": _mode_record(
                        CHURN_TRIALS, quiet_time, node_pulses
                    ),
                    "static_stacked": _mode_record(
                        CHURN_TRIALS, static_time, node_pulses
                    ),
                },
                "speedups": {
                    "stacked_vs_per_trial": speedup,
                    "quiet_vs_static_overhead": quiet_overhead,
                },
            }
        }
    )

    print()
    print(
        format_table(
            ["mode", "trials", "seconds", "node-pulses/s"],
            [
                ("per-trial campaign", CHURN_TRIALS, per_trial_time,
                 CHURN_TRIALS * node_pulses / per_trial_time),
                ("stacked campaign", CHURN_TRIALS, stacked_time,
                 CHURN_TRIALS * node_pulses / stacked_time),
                ("quiet campaign (stacked)", CHURN_TRIALS, quiet_time,
                 CHURN_TRIALS * node_pulses / quiet_time),
                ("static (stacked)", CHURN_TRIALS, static_time,
                 CHURN_TRIALS * node_pulses / static_time),
            ],
            title=f"Churn kernels, S={CHURN_TRIALS}, D={CHURN_DIAMETER}, "
            f"{CHURN_PULSES} pulses (stacked {speedup:.1f}x vs per-trial, "
            f"quiet overhead {quiet_overhead:.2f}x)",
        )
    )
    assert speedup >= 1.5, (
        f"stacked campaign kernel only {speedup:.2f}x faster than the "
        f"per-trial loop ({stacked_time:.4f}s vs {per_trial_time:.4f}s)"
    )
    assert quiet_overhead <= 2.0, (
        f"quiet campaign costs {quiet_overhead:.2f}x the static kernel "
        f"({quiet_time:.4f}s vs {static_time:.4f}s)"
    )


#: The width-skew acceptance cell: one wide shallow trial (W ~ 1537,
#: 2 layers) stacked with 15 narrow deep ones (W ~ 65, 8 layers).  Depth
#: compaction retires the wide row after its two layers, but without lane
#: compaction the surviving narrow rows still sweep all ~1537 padded
#: lanes for every remaining layer step.
WIDTH_SKEW_WIDE_DIAMETER = 1536
WIDTH_SKEW_NARROW_DIAMETER = 64
WIDTH_SKEW_NARROW_TRIALS = 15
WIDTH_SKEW_DEEP_LAYERS = 8

#: The hub acceptance cell: a hub-skewed sparse layered graph with 10^5
#: simulated nodes.  One degree-256 hub would pad every row of a dense
#: table to 256 entries while the ring median stays at 4 -- the retired
#: dense kernel's footprint was ~60x the edge list's.
CSR_WIDTH = 25_000
CSR_LAYERS = 4
CSR_HUB_DEGREE = 256
CSR_PULSES = 3
#: Ceiling on the cell's peak over the dense kernel's (frozen below).
CSR_MEMORY_CEILING = 0.5
#: ``tracemalloc`` peaks of one cell run (:func:`_csr_cell_run`) with the
#: dense padded kernel and with the CSR segment-reduce kernel, the two
#: neighbor layouts before the entry axis replaced both, each after a
#: run of the same cell in the process; measured on a 2-core x86-64 box,
#: three alternating runs each (every run after the first gave these
#: bytes within 1 KiB; a process's first run of the cell peaked at 382
#: MiB dense, 36.4 MiB CSR).
PARENT_DENSE_PEAK = 340_333_117
PARENT_CSR_PEAK = 35_391_933


def width_skew_trials():
    """One wide shallow trial towering over a field of narrow deep ones."""
    trials = BatchRunner.seed_sweep(
        WIDTH_SKEW_WIDE_DIAMETER, [0], num_pulses=NUM_PULSES, num_layers=2
    )
    for i in range(WIDTH_SKEW_NARROW_TRIALS):
        trials.extend(
            BatchRunner.seed_sweep(
                WIDTH_SKEW_NARROW_DIAMETER,
                [i + 1],
                num_pulses=NUM_PULSES,
                num_layers=WIDTH_SKEW_DEEP_LAYERS,
            )
        )
    return trials


@pytest.mark.usefixtures("in_process")
def test_width_skewed_lane_compaction_speedup():
    """Lane-compacted stack >= 1.3x over the lane-padded stack.

    The complement of the depth-skew bench: there the waste was inert
    *rows*, here it is inert *columns*.  Once the wide trial's rows
    retire, lane compaction gathers the surviving narrow rows down to
    their own union width instead of sweeping the wide trial's padded
    lanes, and the result must stay bit-identical.  Records the lane
    modes under the ``"sparse"`` section of ``BENCH_batch.json``.
    """
    trials = width_skew_trials()
    node_pulses = sum(
        t.config.graph.num_nodes * NUM_PULSES for t in trials
    ) / len(trials)

    lane_runner = BatchRunner(num_pulses=NUM_PULSES)

    # Warm the per-edge delay and rate caches; pin the stacking shape
    # and the width-axis accounting while we are at it.
    warm = lane_runner.run(trials)
    assert warm.stack_groups == [list(range(len(trials)))], (
        "width-skewed sweep must run as a single padded stack"
    )
    (stats,) = warm.compaction_stats
    assert stats["lane_dropped_fraction"] > 0.5, (
        "lane compaction should reclaim most of the width padding here"
    )
    for repeats in (3, 5):
        lane_time, lane_batch = timed(
            lambda: lane_runner.run(trials), repeats=repeats
        )
        with lanes_uncompacted():
            padded_time, padded_batch = timed(
                lambda: lane_runner.run(trials), repeats=repeats
            )
        if padded_time / lane_time >= 1.3:
            break

    # Acceptance: lane compaction changes the work, never the results.
    np.testing.assert_array_equal(lane_batch.times, padded_batch.times)

    speedup = padded_time / lane_time
    _merge_sparse_section(
        "width_skew",
        {
            "grid": {
                "wide_diameter": WIDTH_SKEW_WIDE_DIAMETER,
                "narrow_diameter": WIDTH_SKEW_NARROW_DIAMETER,
                "deep_layers": WIDTH_SKEW_DEEP_LAYERS,
                "num_pulses": NUM_PULSES,
                "trials": len(trials),
                "faults": 0,
            },
            "compaction": {
                "lane_dropped_fraction": stats["lane_dropped_fraction"],
                "padded_lane_steps": stats["padded_lane_steps"],
                "active_lane_steps": stats["active_lane_steps"],
            },
            "modes": {
                "lane_padded": _mode_record(
                    len(trials), padded_time, node_pulses
                ),
                "lane_compacted": _mode_record(
                    len(trials), lane_time, node_pulses
                ),
            },
            "speedups": {"lane_vs_padded": speedup},
        },
    )

    print()
    print(
        format_table(
            ["mode", "trials", "seconds", "node-pulses/s"],
            [
                ("lane_padded", len(trials), padded_time,
                 len(trials) * node_pulses / padded_time),
                ("lane_compacted", len(trials), lane_time,
                 len(trials) * node_pulses / lane_time),
            ],
            title=f"Width-skewed stack, S={len(trials)}, "
            f"W {WIDTH_SKEW_WIDE_DIAMETER + 1} vs "
            f"{WIDTH_SKEW_NARROW_DIAMETER + 1}, {NUM_PULSES} pulses "
            f"(lane-compacted {speedup:.1f}x vs padded)",
        )
    )
    assert speedup >= 1.3, (
        f"lane-compacted stack only {speedup:.1f}x faster than the "
        f"lane-padded stack ({lane_time:.4f}s vs {padded_time:.4f}s)"
    )


def _csr_cell_run(width=CSR_WIDTH):
    """Build and sweep one hub-skewed sparse cell.

    Construction stays inside the traced region on purpose: a padded
    layout's cost was dominated by the ``(L, W, max_deg)`` delay tensors
    it built up front, which is exactly the footprint the entry axis
    avoids.
    """
    graph = sparse_layered(
        width, CSR_LAYERS, num_hubs=1, hub_degree=CSR_HUB_DEGREE
    )
    # UniformDelayModel bulk-fills its delay arrays; the static per-edge
    # model would spend the traced region in per-edge bookkeeping and
    # distort the peak comparison (and slow it ~25x under tracemalloc).
    sim = FastSimulation(
        graph,
        PARAMS,
        delay_model=UniformDelayModel(PARAMS.d, PARAMS.u),
    )
    return sim.run(CSR_PULSES)


def test_csr_backend_memory_reduction():
    """Peak memory <= 0.5x the dense kernel's on a hub-skewed 10^5-node graph.

    A small companion cell first pins the column fold against the axis
    reduction of the padded neighbor tensor bitwise; the cell then runs
    twice under ``tracemalloc``, and the second run's end-to-end peak
    (graph + kernel + delay arrays; the graph's shared structure is
    built by then) is held against the peaks of the dense and the CSR
    kernel, frozen from the release that had both under the same
    condition (:data:`PARENT_DENSE_PEAK`, :data:`PARENT_CSR_PEAK`).
    Recorded under the ``"sparse"`` section of ``BENCH_batch.json``,
    with the first run's peak.
    """
    small = _csr_cell_run(width=512)
    with axis_reduce_folds():
        reduced = _csr_cell_run(width=512)
    np.testing.assert_array_equal(small.times, reduced.times)
    np.testing.assert_array_equal(small.corrections, reduced.corrections)

    peaks = []
    for _ in range(2):
        tracemalloc.start()
        tracemalloc.reset_peak()
        start = time.perf_counter()
        _csr_cell_run()
        seconds = time.perf_counter() - start
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    first_peak, peak = peaks

    node_pulses = CSR_WIDTH * CSR_LAYERS * CSR_PULSES
    ratio = peak / PARENT_DENSE_PEAK
    csr_ratio = peak / PARENT_CSR_PEAK
    _merge_sparse_section(
        "csr_memory",
        {
            "grid": {
                "width": CSR_WIDTH,
                "num_layers": CSR_LAYERS,
                "hub_degree": CSR_HUB_DEGREE,
                "num_pulses": CSR_PULSES,
                "simulated_nodes": CSR_WIDTH * CSR_LAYERS,
            },
            "modes": {
                "entry_axis": dict(
                    _mode_record(1, seconds, node_pulses),
                    peak_bytes=peak,
                    first_run_peak_bytes=first_peak,
                ),
            },
            "frozen_peak_bytes": {
                "dense": PARENT_DENSE_PEAK,
                "csr": PARENT_CSR_PEAK,
            },
            "memory_ratio_vs_dense": ratio,
            "memory_ratio_vs_csr": csr_ratio,
        },
    )

    print()
    print(
        format_table(
            ["layout", "seconds", "peak MiB", "node-pulses/s"],
            [
                ("entry axis", seconds, peak / 2**20, node_pulses / seconds),
                ("dense (frozen)", "", PARENT_DENSE_PEAK / 2**20, ""),
                ("csr (frozen)", "", PARENT_CSR_PEAK / 2**20, ""),
            ],
            title=f"Hub cell, W={CSR_WIDTH}, {CSR_LAYERS} layers, "
            f"hub degree {CSR_HUB_DEGREE} "
            f"(peak {ratio:.2f}x dense, {csr_ratio:.2f}x csr)",
        )
    )
    assert ratio <= CSR_MEMORY_CEILING, (
        f"peak memory is {ratio:.2f}x the dense kernel's "
        f"({peak} vs {PARENT_DENSE_PEAK} bytes); ceiling is "
        f"{CSR_MEMORY_CEILING}x"
    )


@pytest.mark.usefixtures("in_process")
def test_batch_runner_throughput():
    seeds = range(8)
    trials = BatchRunner.seed_sweep(16, seeds, num_pulses=NUM_PULSES)
    runner = BatchRunner(num_pulses=NUM_PULSES)
    runner.run(trials)  # warm delay/rate caches
    elapsed, batch = timed(lambda: runner.run(trials))
    per_trial = elapsed / len(trials)
    print()
    print(
        format_table(
            ["quantity", "value"],
            [
                ("trials", len(trials)),
                ("total seconds", elapsed),
                ("seconds/trial", per_trial),
                ("max local skew", float(batch.max_local_skews().max())),
            ],
            title="BatchRunner sweep, D=16, 8 seeds",
        )
    )
    assert len(batch) == len(trials)
    assert per_trial < 1.0  # sanity floor, not a tight bound


#: The cold-gather cell: a fresh fault-free seed sweep, as a new study
#: pays it (every delay sampled for the first time).
COLD_DIAMETER = 32
COLD_SEEDS = range(1000, 1008)
#: Floor on the per-edge / block delay-gather time ratio.
COLD_GATHER_FLOOR = 5.0


class PerEdgeStaticDelays(StaticDelayModel):
    """The per-edge static sampler the block gather replaced.

    One ``SeedSequence`` + ``Generator`` per edge (memoized), and no
    array-valued endpoints, so sweeps gather it one edge at a time.
    """

    array_endpoints = False

    def delay(self, edge, pulse=0):
        cached = self._cache.get(edge)
        if cached is None:
            rng = _edge_rng(self.seed, edge)
            cached = float(rng.uniform(self.d - self.u, self.d))
            self._cache[edge] = cached
        return cached


def _gather_all_layers(sims):
    """Every layer's (own, neighbor) delay arrays of every simulation."""
    gathered = []
    for sim in sims:
        sweep = fast_mod._VectorSweep(sim, sim.graph, sim.fault_plan)
        gathered.extend(
            sweep.delay_arrays(layer, 0)
            for layer in range(1, sim.graph.num_layers)
        )
    return gathered


@pytest.mark.usefixtures("in_process")
def test_cold_gather_speedup():
    """Block delay gather vs the per-edge loop on a fresh seed sweep.

    Times the delay gather alone and the whole cold sweep (config
    construction, gather, run and reduction) with the per-edge sampler
    (:class:`PerEdgeStaticDelays`) and with the array-valued
    :class:`StaticDelayModel`, asserts the gathered arrays and the
    reduced statistics are bitwise equal, and records both under the
    ``"cold_gather"`` section of ``BENCH_batch.json``.
    """

    def fresh_trials(per_edge):
        trials = BatchRunner.seed_sweep(
            COLD_DIAMETER, COLD_SEEDS, num_pulses=NUM_PULSES
        )
        if per_edge:
            for trial in trials:
                model = trial.config.delay_model
                trial.delay_model = PerEdgeStaticDelays(
                    model.d, model.u, seed=model.seed
                )
        return trials

    def gather(per_edge):
        sims = [trial.simulation() for trial in fresh_trials(per_edge)]
        start = time.perf_counter()
        arrays = _gather_all_layers(sims)
        return time.perf_counter() - start, arrays

    def sweep(per_edge):
        runner = BatchRunner(num_pulses=NUM_PULSES, store_times=False)
        start = time.perf_counter()
        batch = runner.run(fresh_trials(per_edge))
        skews = batch.local_skews()
        return time.perf_counter() - start, batch, skews

    before_gather, loop_arrays = gather(per_edge=True)
    after_gather, block_arrays = gather(per_edge=False)
    for (own_a, nb_a), (own_b, nb_b) in zip(loop_arrays, block_arrays):
        assert own_a.tobytes() == own_b.tobytes()
        assert nb_a.tobytes() == nb_b.tobytes()
    before_sweep, before_batch, before_skews = sweep(per_edge=True)
    after_sweep, after_batch, after_skews = sweep(per_edge=False)
    np.testing.assert_array_equal(before_skews, after_skews)
    np.testing.assert_array_equal(
        before_batch.global_skews(), after_batch.global_skews()
    )

    config = before_batch.trials[0].config
    node_pulses = config.num_grid_nodes * NUM_PULSES
    gather_speedup = before_gather / after_gather
    _merge_bench_json(
        {
            "cold_gather": {
                "grid": {
                    "diameter": COLD_DIAMETER,
                    "num_layers": config.num_layers,
                    "width": config.graph.width,
                    "num_pulses": NUM_PULSES,
                    "trials": len(COLD_SEEDS),
                    "faults": 0,
                },
                "gather_s": {"per_edge": before_gather, "block": after_gather},
                "cold_sweep": {
                    "per_edge": _mode_record(
                        len(COLD_SEEDS), before_sweep, node_pulses
                    ),
                    "block": _mode_record(
                        len(COLD_SEEDS), after_sweep, node_pulses
                    ),
                },
                "gather_speedup": gather_speedup,
                "cold_sweep_speedup": before_sweep / after_sweep,
            }
        }
    )
    print()
    print(
        format_table(
            ["mode", "gather s", "cold sweep s"],
            [
                ("per-edge", before_gather, before_sweep),
                ("block", after_gather, after_sweep),
            ],
            title=f"Cold delay gather, S={len(COLD_SEEDS)}, "
            f"D={COLD_DIAMETER} ({gather_speedup:.0f}x faster gather)",
        )
    )
    assert gather_speedup >= COLD_GATHER_FLOOR, (
        f"block gather only {gather_speedup:.1f}x faster than the per-edge "
        f"loop; floor is {COLD_GATHER_FLOOR}x"
    )


#: The cold-vs-warm cell: 64 fresh fault-free D = 32 trials over 4
#: pulses, streamed -- the sweep a new study starts with.
COLD_WARM_TRIALS = 64
#: Ceiling on the first-run / warm-rerun time ratio.
COLD_WARM_CEILING = 3.0
#: The same cell and protocol with one delay replay per trial and layer
#: (and per-layer rate lists), best of 3 on a 2-core x86-64 box.
#: Written into the section next to the live numbers.
PER_LAYER_REPLAY = {
    "config_s": 0.116,
    "first_run_s": 0.786,
    "warm_rerun_s": 0.108,
    "first_over_warm": 7.31,
}


#: Config construction per trial of the same cell when every config ran
#: its own base-graph BFS and built one clock object and one dict entry
#: per node, best of 3 on a 2-core x86-64 box.  Written into the section
#: next to the live ``config_s_per_trial``.
PER_CONFIG_STRUCTURE = {"config_s_per_trial": 0.00066}


def fresh_sweep_bfs_runs():
    """BFS runs while building one fresh 64-trial sweep's configs.

    The shared base-graph structure cache starts empty, so the count is
    what a new process pays: one BFS for the one base-graph shape.
    """
    with mock.patch.object(
        base_graph_mod, "_structures", type(base_graph_mod._structures)()
    ), mock.patch.object(
        base_graph_mod, "_bfs", wraps=base_graph_mod._bfs
    ) as bfs:
        BatchRunner.seed_sweep(
            BATCH_DIAMETER, range(COLD_WARM_TRIALS), num_pulses=NUM_PULSES
        )
    return bfs.call_count


def cold_vs_warm_timings(rounds=3):
    """Best-of first-run and warm-rerun seconds of fresh 64-trial sweeps.

    Each round builds a fresh grid (new configs, so new delay models with
    empty caches), times its construction and its first streamed run,
    then re-runs it warm.  Returns the record and the last warm batch.
    """
    runner = BatchRunner(num_pulses=NUM_PULSES, store_times=False)
    config_s = first_s = warm_s = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        trials = BatchRunner.seed_sweep(
            BATCH_DIAMETER, range(COLD_WARM_TRIALS), num_pulses=NUM_PULSES
        )
        config_s = min(config_s, time.perf_counter() - start)
        start = time.perf_counter()
        runner.run(trials)
        first_s = min(first_s, time.perf_counter() - start)
        seconds, batch = timed(lambda: runner.run(trials))
        warm_s = min(warm_s, seconds)
    record = {
        "config_s": config_s,
        "config_s_per_trial": config_s / COLD_WARM_TRIALS,
        "first_run_s": first_s,
        "warm_rerun_s": warm_s,
        "first_over_warm": first_s / warm_s,
    }
    return record, batch


@pytest.mark.usefixtures("in_process")
def test_cold_vs_warm():
    """A fresh sweep's first run costs at most 3x its warm rerun.

    The first run gathers every delay (one array-valued replay per
    trial) and rate plane; the rerun finds them cached.  With one replay
    per trial and layer the first run took ~6-8x the rerun; the section
    records those timings (:data:`PER_LAYER_REPLAY`) next to the live
    ``per_trial_replay`` ones.  Fresh configs of one shape share their
    base graph's BFS: building the 64 configs from an empty cache runs
    exactly one (:data:`PER_CONFIG_STRUCTURE` keeps the config time from
    when each ran its own).
    """
    record, batch = cold_vs_warm_timings()
    record["bfs_runs"] = fresh_sweep_bfs_runs()
    config = batch.trials[0].config
    _merge_bench_json(
        {
            "cold_vs_warm": {
                "grid": {
                    "diameter": BATCH_DIAMETER,
                    "num_layers": config.num_layers,
                    "width": config.graph.width,
                    "num_pulses": NUM_PULSES,
                    "trials": COLD_WARM_TRIALS,
                    "faults": 0,
                    "streamed": True,
                },
                "per_layer_replay": PER_LAYER_REPLAY,
                "per_config_structure": PER_CONFIG_STRUCTURE,
                "per_trial_replay": record,
            }
        }
    )
    ratio = record["first_over_warm"]
    print()
    print(
        format_table(
            ["stage", "seconds"],
            [
                ("config construction", record["config_s"]),
                ("  per trial", record["config_s_per_trial"]),
                (
                    "  per trial, per-config structure",
                    PER_CONFIG_STRUCTURE["config_s_per_trial"],
                ),
                ("first run", record["first_run_s"]),
                ("warm rerun", record["warm_rerun_s"]),
            ],
            title=f"Cold vs warm, S={COLD_WARM_TRIALS}, D={BATCH_DIAMETER} "
            f"({ratio:.1f}x warm)",
        )
    )
    assert ratio <= COLD_WARM_CEILING, (
        f"first run {ratio:.1f}x the warm rerun; ceiling is "
        f"{COLD_WARM_CEILING}x"
    )
    assert record["bfs_runs"] == 1, (
        f"a fresh {COLD_WARM_TRIALS}-trial sweep ran {record['bfs_runs']} "
        "BFS; configs of one shape must share one"
    )


#: The fault-fallback cell: the thm13 grid the ``fault_horizon``
#: benchmark re-runs -- a fault-free reference plus 16 sampled fault
#: plans at D = 32 over 8 pulses (seeds fixed here).
FALLBACK_DIAMETER = 32
FALLBACK_SEEDS = list(range(1, 17))
FALLBACK_PULSES = 8
#: Ceiling on the warm faulted / fault-free time ratio.
FALLBACK_CEILING = 4.0
#: The same cell and protocol before the stack-wide pass (one resolver
#: call per trial row and layer, gathering events edge by edge in
#: Python), best of 5 on a 2-core x86-64 box.  Written into the section
#: next to the live numbers.
PER_TRIAL_RESOLVER = {
    "faulted_s": 1.094,
    "fault_free_s": 0.133,
    "faulted_over_fault_free": 8.2,
    "fallback_cells": 8894,
    "fallback_batches": 2634,
}


#: Fault-send recording of the same cell before the sends were recorded
#: as arrays: one ``FaultBehavior.send_time`` call per message, per warm
#: run (seconds: the middle of three 5-run means on a 2-core x86-64 box,
#: timed around the stack's recording method).  Written into the
#: section next to the live numbers.
PER_MESSAGE_RECORDING = {
    "messages": 5672,
    "behavior_class_calls": 5672,
    "record_s": 0.0510,
}


def _behavior_classes():
    """Every concrete fault behaviour class."""
    pending, found = [fault_model.FaultBehavior], []
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            found.append(cls)
    return found


def fault_send_recording(runner, trials, runs=5):
    """Per warm run: messages recorded, behaviour-class calls, seconds.

    The seconds cover the stack's fault table (its static offsets) and
    every ``record_fault_sends`` call (dynamic offsets, send times,
    overlay scatter); they are timed on runs of their own, without the
    class-call counters.
    """
    seconds = [0.0]

    def timed(method):
        def wrapper(stack, *args):
            start = time.perf_counter()
            try:
                return method(stack, *args)
            finally:
                seconds[0] += time.perf_counter() - start

        return wrapper

    run = fast_batch_mod._StackRun
    with mock.patch.object(
        run, "fault_table", timed(run.fault_table)
    ), mock.patch.object(
        run, "record_fault_sends", timed(run.record_fault_sends)
    ):
        for _ in range(runs):
            batch = runner.run(trials)

    calls = [0]
    patches = []
    for cls in _behavior_classes():
        original = cls.send_offsets.__func__

        def counting(cls, faults, sends, original=original):
            calls[0] += 1
            return original(cls, faults, sends)

        patches.append(
            mock.patch.object(cls, "send_offsets", classmethod(counting))
        )
    for patch in patches:
        patch.start()
    try:
        runner.run(trials)
    finally:
        for patch in patches:
            patch.stop()
    return {
        "messages": sum(
            len(pulses)
            for result in batch.results
            for pulses in result.fault_sends.values()
        ),
        "behavior_class_calls": calls[0],
        "record_s": seconds[0] / runs,
    }


def fault_fallback_timings(repeats=3):
    """Best-of warm seconds of the faulted grid and of its fault-free twin.

    Both grids are cold-filled first, so every delay array is cached and
    the timings hold the kernel, the fallback and the reducers only.
    Returns ``(record, faulted_batch)``; the record holds both timings,
    their ratio and the faulted stack's fallback counters.
    """
    trials, _ = thm13_trials(
        FALLBACK_DIAMETER, FALLBACK_SEEDS, num_pulses=FALLBACK_PULSES
    )
    fault_free = [BatchTrial(config=trial.config) for trial in trials]
    runner = BatchRunner(num_pulses=FALLBACK_PULSES, store_times=False)
    for grid in (trials, fault_free):
        runner.run(grid)
    faulted_time, faulted = timed(lambda: runner.run(trials), repeats)
    free_time, _ = timed(lambda: runner.run(fault_free), repeats)
    node_pulses = trials[0].config.num_grid_nodes * FALLBACK_PULSES
    counters = {
        key: sum(stats.get(key, 0) for stats in faulted.compaction_stats)
        for key in ("fallback_cells", "fallback_batches", "fallback_passes")
    }
    record = {
        "faulted": _mode_record(
            len(trials), faulted_time, node_pulses, **counters
        ),
        "fault_free": _mode_record(len(trials), free_time, node_pulses),
        "faulted_over_fault_free": faulted_time / free_time,
    }
    return record, faulted


@pytest.mark.usefixtures("in_process")
def test_fault_fallback_overhead():
    """Warm faulted thm13 stack <= 4x the same configs run fault-free.

    Before the fallback resolved each layer step in one stack-wide pass
    gathered from arrays, the faulted stack took ~8x as long; the
    section records those timings (:data:`PER_TRIAL_RESOLVER`) next to
    the live ``stack_wide`` ones.  Its ``fault_sends`` entry records the
    fault-send recording per warm run -- messages, behaviour-class
    calls, seconds -- as arrays and, from before, per message
    (:data:`PER_MESSAGE_RECORDING`).
    """
    for repeats in (3, 5):
        record, faulted = fault_fallback_timings(repeats)
        if record["faulted_over_fault_free"] <= FALLBACK_CEILING:
            break
    ratio = record["faulted_over_fault_free"]
    counters = record["faulted"]
    assert 0 < counters["fallback_passes"] <= counters["fallback_batches"]
    sends = fault_send_recording(
        BatchRunner(num_pulses=FALLBACK_PULSES, store_times=False),
        faulted.trials,
    )
    assert sends["messages"] == PER_MESSAGE_RECORDING["messages"]
    # One call per behaviour class per table and per pulse block,
    # however many messages: far fewer calls than messages.
    assert sends["behavior_class_calls"] < sends["messages"] / 20
    _merge_bench_json(
        {
            "fault_fallback": {
                "grid": {
                    "diameter": FALLBACK_DIAMETER,
                    "num_pulses": FALLBACK_PULSES,
                    "trials": len(faulted.trials),
                    "faults": int(sum(t.num_faults for t in faulted.trials)),
                },
                "per_trial_resolver": PER_TRIAL_RESOLVER,
                "stack_wide": record,
                "fault_sends": {
                    "per_message": PER_MESSAGE_RECORDING,
                    "arrays": sends,
                },
            }
        }
    )
    print()
    print(
        format_table(
            ["grid", "seconds", "fallback passes"],
            [
                ("faulted", counters["seconds"], counters["fallback_passes"]),
                ("fault-free", record["fault_free"]["seconds"], 0),
                ("recording sends", sends["record_s"], ""),
            ],
            title=f"Warm thm13 stack, D={FALLBACK_DIAMETER}, "
            f"{FALLBACK_PULSES} pulses ({ratio:.1f}x fault-free)",
        )
    )
    assert ratio <= FALLBACK_CEILING, (
        f"faulted stack {ratio:.1f}x the fault-free one; ceiling is "
        f"{FALLBACK_CEILING}x"
    )


#: The warm-transport cell: the ``service_mix`` miss -- a fresh grid of
#: 4 seeds at D = 16 over 4 pulses, streamed.
TRANSPORT_DIAMETER = 16
TRANSPORT_TRIALS = 4
#: Ceiling on a warm process run over the serial run of the same fresh
#: grid.
WARM_POOL_CEILING = 1.5
#: Ceiling on the median keep-alive ``health()`` round trip, seconds.
#: Nagle's algorithm against delayed ACKs would make it >= 40 ms.
ROUND_TRIP_CEILING = 0.010
#: Fresh grids timed through each executor.
TRANSPORT_ROUNDS = 15
#: Health round trips timed after one warm-up call.
ROUND_TRIPS = 50
#: The same protocol with a process pool built anew per run and one
#: urllib connection per request, on a 2-core x86-64 box (the middle of
#: three runs).  Written into the section next to the live numbers.
PER_CALL_TRANSPORT = {
    "process_s": 0.0576,
    "serial_s": 0.0276,
    "process_over_serial": 2.15,
    "round_trip_s": 0.00135,
}


def warm_transport_timings(
    rounds=TRANSPORT_ROUNDS,
    diameter=TRANSPORT_DIAMETER,
    trials=TRANSPORT_TRIALS,
    num_pulses=NUM_PULSES,
    seeds=None,
):
    """Median pooled and serial runs of fresh grids, and their ratio.

    Each round builds a fresh grid of ``trials`` seeds at ``diameter``
    (seeds never reused, so every run gathers its inputs cold), runs it
    in two shards -- the first in this process, the second on the pool,
    as the executor rule's pool runs -- then serially.  The pooled run
    ships the second shard's trials pickled, so the serial run finds
    those still cold in the parent.  The ratio is the median of the per-round ratios: run
    times differ between grids, and a best-of per side would pair one
    grid's luck with another's.  One process run before the rounds
    forks the pool (or finds it warm).
    """
    seeds = itertools.count(10_000) if seeds is None else seeds
    runner = BatchRunner(num_pulses=num_pulses, store_times=False)
    serial, process = on_shards(1, runner), on_shards(2, runner)

    def fresh():
        return BatchRunner.seed_sweep(
            diameter,
            [next(seeds) for _ in range(trials)],
            num_pulses=num_pulses,
        )

    process(fresh())
    process_s, serial_s = [], []
    for _ in range(rounds):
        grid = fresh()
        start = time.perf_counter()
        by_process = process(grid)
        process_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        by_serial = serial(grid)
        serial_s.append(time.perf_counter() - start)
        np.testing.assert_array_equal(
            by_process.local_skews(), by_serial.local_skews()
        )
    return {
        "process_s": statistics.median(process_s),
        "serial_s": statistics.median(serial_s),
        "process_over_serial": statistics.median(
            p / s for p, s in zip(process_s, serial_s)
        ),
    }


def health_round_trip():
    """Median ``health()`` round trip of one client, seconds."""
    server = ServiceServer(port=0).start()
    try:
        with ServiceClient(server.url) as client:
            client.health()
            trips = []
            for _ in range(ROUND_TRIPS):
                start = time.perf_counter()
                client.health()
                trips.append(time.perf_counter() - start)
    finally:
        server.stop()
    return statistics.median(trips)


def test_warm_transport():
    """Warm pool <= 1.5x serial on a fresh grid; round trip <= 10 ms.

    The executor rule runs a grid this size serially (see
    :func:`test_executor_rule`); the pooled leg bounds what a run of it
    in two shards would cost.  A served job is three HTTP requests.  With a pool forked per run and a TCP
    connection per request, a fresh service-sized grid took ~2x its
    serial run; the section records those numbers
    (:data:`PER_CALL_TRANSPORT`) next to the live ``warm`` ones.
    """
    # The process run needs the second core free; re-measure once on a
    # noisy host before failing the ceiling.
    for _ in range(2):
        record = warm_transport_timings()
        if record["process_over_serial"] <= WARM_POOL_CEILING:
            break
    record["round_trip_s"] = health_round_trip()
    _merge_bench_json(
        {
            "warm_transport": {
                "grid": {
                    "diameter": TRANSPORT_DIAMETER,
                    "num_pulses": NUM_PULSES,
                    "trials": TRANSPORT_TRIALS,
                    "faults": 0,
                    "streamed": True,
                },
                "per_call": PER_CALL_TRANSPORT,
                "warm": record,
            }
        }
    )
    ratio = record["process_over_serial"]
    print()
    print(
        format_table(
            ["step", "seconds"],
            [
                ("process run (warm pool)", record["process_s"]),
                ("serial run", record["serial_s"]),
                ("health() round trip", record["round_trip_s"]),
            ],
            title=f"Warm transport, S={TRANSPORT_TRIALS}, "
            f"D={TRANSPORT_DIAMETER} ({ratio:.2f}x serial)",
        )
    )
    assert ratio <= WARM_POOL_CEILING, (
        f"warm process run {ratio:.2f}x the serial one; ceiling is "
        f"{WARM_POOL_CEILING}x"
    )
    assert record["round_trip_s"] <= ROUND_TRIP_CEILING, (
        f"health() round trip {record['round_trip_s'] * 1e3:.1f} ms; "
        f"ceiling is {ROUND_TRIP_CEILING * 1e3:.0f} ms"
    )


#: Fresh streamed grids of the executor rule's curve, from the
#: ``service_mix`` miss (4,864 cells) to ~1.1M cells, as
#: ``(diameter, trials, pulses)``; cells = pulses x trials x layers x
#: width, with D layers of D + 3 nodes.
EXECUTOR_GRIDS = (
    (16, 4, 4),
    (16, 6, 4),
    (16, 8, 4),
    (16, 10, 4),
    (16, 12, 4),
    (16, 16, 4),
    (32, 8, 4),
    (32, 8, 8),
    (32, 16, 8),
    (64, 16, 4),
    (64, 16, 8),
    (64, 16, 16),
)
def rule_pick(trials, num_pulses, store_times=False):
    """The executor rule's pick for ``trials``: "serial" or "process"."""
    shards = batch_mod._pick_shards(trials, num_pulses, store_times)
    return "process" if shards > 1 else "serial"


#: The ``executor_rule`` matrix: (grid kind, diameter, trials or fault
#: plans, pulses) shapes run gathered and cold, streamed and
#: materialized.  The fault-free one is ``stream_horizon``'s shape, the
#: thm13 one (a fault-free reference plus 16 sampled plans)
#: ``fault_horizon``'s.
RULE_SHAPES = (("fault-free", 32, 16, 64), ("thm13", 32, 16, 8))
#: perfbench workload of a point, by (kind, D, trials, pulses,
#: gathered, streamed); ``service_mix`` and ``cold_sweep`` are the
#: first and seventh ``EXECUTOR_GRIDS`` points.
RULE_WORKLOADS = {
    ("fault-free", 32, 16, 64, True, True): "stream_horizon",
    ("thm13", 32, 16, 8, True, True): "fault_horizon",
    ("fault-free", 16, 4, 4, False, True): "service_mix",
    ("fault-free", 32, 8, 4, False, True): "cold_sweep",
}
#: Rounds per ``executor_rule`` point (even, so each executor goes
#: first equally often).
RULE_ROUNDS = 8


def worker_peak_rss_mb():
    """The largest ``VmHWM`` (peak resident set) among the pool's live
    workers, MiB, read from ``/proc/<pid>/status``; None off Linux."""
    peaks = []
    for child in multiprocessing.active_children():
        with contextlib.suppress(OSError):
            for line in Path(f"/proc/{child.pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peaks.append(int(line.split()[1]) / 1024.0)
    return max(peaks, default=None)


def rule_grid_builder(kind, diameter, trials, pulses, seeds):
    """A function building fresh grids of one ``executor_rule`` shape."""

    def fault_free():
        return BatchRunner.seed_sweep(
            diameter, [next(seeds) for _ in range(trials)], num_pulses=pulses
        )

    def thm13():
        while True:
            try:
                return thm13_trials(
                    diameter,
                    [next(seeds) for _ in range(trials)],
                    num_pulses=pulses,
                )[0]
            except RuntimeError:  # a plan its locality statistic rejects
                continue

    return fault_free if kind == "fault-free" else thm13


def executor_rule_points(cases, seeds, rounds):
    """Per-round serial and picked-pool times of each case, the rule's
    weight and pick, and the pool workers' peak RSS.

    The pool leg runs the way a picked pool does -- the first shard in
    this process, the second on the pool -- whatever the rule picks.
    The pool is forked before the rounds, so the pick is the one for a
    process that has its pool (``_FORK_CELLS`` does not count).  Rounds
    are interleaved across the cases, so each case's rounds spread over
    the whole run and its spread shows how far the host drifts while
    the test runs; within a round both executors run back to back,
    alternating which goes first.  A gathered case gathers one grid
    serially, then re-runs it.  A cold case gives each executor a fresh
    grid of its own every round, so either order finds its grid cold.
    The pick is the rule's for a grid in the state it is timed in.
    """
    points = []
    for kind, diameter, trials, pulses, gathered, streamed in cases:
        build = rule_grid_builder(kind, diameter, trials, pulses, seeds)
        runner = BatchRunner(num_pulses=pulses, store_times=not streamed)
        serial, pooled = on_shards(1, runner), on_shards(2, runner)
        pooled(build())  # fork the pool, or find it warm
        grid = build()
        if gathered:
            serial(grid)
        larger = grid[: batch_mod._shard_bounds(len(grid), 2)[1]]
        points.append(
            {
                "legs": ((pooled, []), (serial, [])),
                "grid": grid if gathered else None,
                "build": build,
                "trials": len(grid),
                "rule_weight": batch_mod._cells(larger, pulses) * streamed
                + batch_mod._EDGE_CELLS * batch_mod._cold_edges(larger),
                "pick": rule_pick(grid, pulses, not streamed),
            }
        )
    for r in range(rounds):
        for point in points:
            order = point["legs"][::-1] if r % 2 else point["legs"]
            for run, times in order:
                trials = point["grid"] or point["build"]()
                start = time.perf_counter()
                run(trials)
                times.append(time.perf_counter() - start)
    records = []
    for point in points:
        (_, process_s), (_, serial_s) = point["legs"]
        ratios = sorted(p / s for p, s in zip(process_s, serial_s))
        quartiles = statistics.quantiles(ratios, n=4)
        records.append(
            {
                "trials": point["trials"],
                "serial_s": statistics.median(serial_s),
                "process_s": statistics.median(process_s),
                "process_over_serial": statistics.median(ratios),
                "ratio_quartiles": [quartiles[0], quartiles[2]],
                "ratio_range": [ratios[0], ratios[-1]],
                "rule_weight": point["rule_weight"],
                "pick": point["pick"],
            }
        )
    peak = worker_peak_rss_mb()
    for record in records:
        record["worker_peak_rss_mb"] = peak
    return records


def test_executor_rule():
    """The executor rule's pick against serial and picked-pool medians.

    Points: the two ``RULE_SHAPES`` gathered and cold, streamed and
    materialized, then the :data:`EXECUTOR_GRIDS` curve's streamed
    fault-free grids cold, and gathered from D = 32 up -- so every
    perfbench workload's shape is a point (``workload`` names it).
    Gate: wherever every round's pool / serial ratio lies on one side
    of 1 and the median's distance from 1 exceeds the ratios'
    interquartile spread, the rule must have picked the faster side.  Recorded under ``executor_rule`` with the rule's
    constants; ``worker_peak_rss_mb`` is the largest pool worker's
    ``VmHWM`` after the run, the memory a sharded run adds outside the
    parent process.
    """
    seeds = itertools.count(40_000)
    cases = [
        (kind, diameter, trials, pulses, gathered, streamed)
        for kind, diameter, trials, pulses in RULE_SHAPES
        for gathered in (True, False)
        for streamed in (True, False)
    ] + [
        ("fault-free", diameter, trials, pulses, gathered, True)
        for diameter, trials, pulses in EXECUTOR_GRIDS
        for gathered in ((False, True) if diameter >= 32 else (False,))
    ]
    records = executor_rule_points(cases, seeds, RULE_ROUNDS)
    points, rows, wrong = [], [], []
    for case, record in zip(cases, records):
        kind, diameter, trials, pulses, gathered, streamed = case
        ratio = record["process_over_serial"]
        low, high = record["ratio_quartiles"]
        first, last = record["ratio_range"]
        faster = None
        if abs(ratio - 1.0) > high - low and not first <= 1.0 <= last:
            faster = "process" if ratio < 1.0 else "serial"
        point = {
            "grid": kind,
            "diameter": diameter,
            "num_pulses": pulses,
            "gathered": gathered,
            "streamed": streamed,
            "workload": RULE_WORKLOADS.get(case),
            **record,
            "faster": faster,
        }
        points.append(point)
        if faster not in (None, record["pick"]):
            wrong.append(point)
        rows.append(
            (kind, diameter, record["trials"], pulses, gathered, streamed,
             record["serial_s"], record["process_s"], ratio, high - low,
             record["rule_weight"], record["pick"], faster or "-")
        )
    _merge_bench_json(
        {
            "executor_rule": {
                "host": host_info(),
                "usable_cpus": batch_mod._usable_cpus(),
                "rounds": RULE_ROUNDS,
                "constants": {
                    name: getattr(batch_mod, name)
                    for name in ("_SHARD_CELLS", "_EDGE_CELLS", "_FORK_CELLS")
                },
                "points": points,
            }
        }
    )
    print()
    print(
        format_table(
            ["grid", "D", "S", "K", "gathered", "streamed", "serial s",
             "pool s", "pool / serial", "IQR", "weight", "rule", "faster"],
            rows,
            title="Executor rule: its pick against serial and picked pool",
        )
    )
    assert not wrong, (
        "the executor rule picked the slower side where the gap exceeds "
        f"the spread: {wrong}"
    )
