"""Throughput trajectory of the fast simulator's batch kernels.

Four micro-benchmarks track the performance trajectory across PRs:

* ``test_vectorized_kernel_speedup`` (marked ``slow``): the scalar
  per-cell reference vs the whole-layer array kernel on the acceptance
  grid (fault-free, D = 64, 64 layers), asserting the >= 10x floor.
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
  layered graph through the CSR segment-reduce kernel vs the dense
  padded kernel, tracking peak memory with ``tracemalloc`` and asserting
  the CSR peak stays <= 0.5x dense (it is ~10x smaller in practice) with
  bit-identical times on a small companion cell; also recorded under
  ``"sparse"``.
* ``test_dense_backend_no_regression``: the density heuristic must pick
  the dense kernel on the regular trial-stacked cell, bitwise equal to
  a run with the heuristic forced to dense.
* ``test_cold_gather_speedup``: a fresh S = 8, D = 32 seed sweep with
  the per-edge static sampler (one ``SeedSequence`` + ``Generator`` per
  edge) vs the array-valued block gather, timing the delay gather alone
  and the whole cold sweep, asserting bitwise-equal arrays and
  statistics and the >= 5x gather floor; recorded under
  ``"cold_gather"``.
* ``test_cold_vs_warm``: a fresh S = 64, D = 32 streamed sweep's
  first run vs its warm rerun (every delay and rate cached), asserting
  the first run takes at most 3x as long; recorded under
  ``"cold_vs_warm"``.
* ``test_warm_transport``: the service's two per-job set-up costs.  A
  fresh S = 4, D = 16 grid (the ``service_mix`` miss) through a warm
  process pool vs the same grid run serially, asserting <= 1.5x; and
  the median ``ServiceClient.health()`` round trip on one keep-alive
  connection, asserting <= 10 ms.  Recorded under ``"warm_transport"``.
* ``test_streaming_memory_reduction``: the streaming result pipeline
  (``store_times=False``) vs the materialized ``(S, K, L, W)`` block on
  an S = 64, 32-pulse cell, tracking peak memory with ``tracemalloc``
  and asserting the >= 4x reduction floor (and that the streamed peak
  stays under a single block -- CI fails if the block ever comes back).
* ``test_fault_fallback_overhead``: warm runs of the 17-trial thm13
  stack (a fault-free reference plus 16 sampled fault plans, D = 32,
  8 pulses) against the same configs run fault-free, asserting the
  faulted stack takes at most 4x as long; recorded under
  ``"fault_fallback"``.

The batch benches record their modes into ``BENCH_batch.json`` next to
this file (merge-updating their own section, so running a subset keeps
the others' numbers) with machine-readable throughput, so the perf
trajectory is tracked across PRs; CI's bench-smoke job uploads it as an
artifact.  The slow single-simulation bench only prints its table.

The baselines of the retired speed-only knobs are rebuilt from calls
that still exist: a per-trial ``FastSimulation.run`` loop
(:func:`per_trial_loop`), one stack per geometry group
(:func:`geometry_grouped_batch`), the identity row/lane selection
(:func:`uncompacted`, :func:`lanes_uncompacted`) and a forced density
verdict (:func:`prefer_csr`).

Select just these with ``pytest benchmarks/test_batch_speed.py -m bench``;
``-m 'bench and not slow'`` is the CI smoke selection.
"""

import itertools
import json
import statistics
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro.core.fast as fast_mod
import repro.core.fast_batch as fast_batch_mod
from repro.analysis.report import format_table
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


def prefer_csr(prefer):
    """Force the density heuristic's verdict (explicit dense or CSR)."""
    return mock.patch.object(fast_mod, "_prefer_csr", lambda base: prefer)


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


@pytest.mark.slow
def test_vectorized_kernel_speedup():
    graph, delays, rates = acceptance_grid()
    sim = FastSimulation(graph, PARAMS, delay_model=delays, clock_rates=rates)
    # Warm the per-layer delay-array caches so the measured ratio
    # reflects the per-cell rules, not one-time RNG setup.
    sim.run(1)
    # Both paths get the same best-of-N treatment (an asymmetric protocol
    # would bias the recorded trajectory); escalate once on a noisy host
    # before failing the floor.
    for repeats in (3, 5):
        with scalar_reference():
            scalar_time, scalar_result = timed(
                lambda: sim.run(NUM_PULSES), repeats=repeats
            )
        vector_time, vector_result = timed(
            lambda: sim.run(NUM_PULSES), repeats=repeats
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


def test_trial_stacked_speedup():
    """Trial-stacked kernel >= 3x over the per-trial vectorized loop.

    Also times the scalar reference (on a subset) and the process-sharded
    executor, and records all four modes in ``BENCH_batch.json``.
    """
    trials = BatchRunner.seed_sweep(
        BATCH_DIAMETER, range(BATCH_TRIALS), num_pulses=NUM_PULSES
    )
    graph = trials[0].config.graph
    node_pulses = graph.num_nodes * NUM_PULSES

    stacked_runner = BatchRunner(num_pulses=NUM_PULSES)
    sharded_runner = BatchRunner(
        num_pulses=NUM_PULSES, executor="process", shards=2
    )

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
    sharded_time, sharded_batch = timed(
        lambda: sharded_runner.run(trials), repeats=1
    )

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
            "process_sharded": _mode_record(
                BATCH_TRIALS, sharded_time, node_pulses, shards=2
            ),
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


def test_streaming_memory_reduction():
    """Streaming folds >= 4x less peak memory than the materialized block.

    ``store_times=False`` promises the ``(S, K, L, W)`` pulse-time block
    is never allocated; this bench pins that with :mod:`tracemalloc` on
    the S = 64, K = 32 cell, asserts the >= 4x peak-memory floor (CI
    fails if the streaming path ever allocates the full block again),
    checks the streamed statistics still match the materialized reducers
    bitwise, and records both modes under the ``"streaming"`` section of
    ``BENCH_batch.json``.
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
    # the result pipelines, not one-time RNG setup.
    streaming_runner.run(trials)

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

    # Acceptance: streamed statistics equal the materialized reducers.
    np.testing.assert_array_equal(
        streamed.local_skews(), materialized.local_skews()
    )
    np.testing.assert_array_equal(
        streamed.overall_skews(), materialized.overall_skews()
    )
    np.testing.assert_array_equal(
        streamed.global_skews(), materialized.global_skews()
    )
    want, got = materialized.correction_stats(), streamed.correction_stats()
    for key in want:
        np.testing.assert_array_equal(want[key], got[key], err_msg=key)

    reduction = full_peak / stream_peak
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
                    ),
                    "streamed": dict(
                        _mode_record(STREAM_TRIALS, stream_time, node_pulses),
                        peak_bytes=stream_peak,
                    ),
                },
                "memory_reduction": reduction,
            }
        }
    )

    print()
    print(
        format_table(
            ["mode", "seconds", "peak MiB", "node-pulses/s"],
            [
                ("materialized", full_time, full_peak / 2**20,
                 STREAM_TRIALS * node_pulses / full_time),
                ("streamed", stream_time, stream_peak / 2**20,
                 STREAM_TRIALS * node_pulses / stream_time),
            ],
            title=f"Streaming reducers, S={STREAM_TRIALS}, "
            f"D={STREAM_DIAMETER}, {STREAM_PULSES} pulses "
            f"({reduction:.1f}x less peak memory)",
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

#: The CSR acceptance cell: a hub-skewed sparse layered graph with 10^5
#: simulated nodes.  One degree-256 hub pads every dense row to 256
#: entries while the ring median stays at 4 -- the dense kernel's
#: footprint is ~60x the edge list's.
CSR_WIDTH = 25_000
CSR_LAYERS = 4
CSR_HUB_DEGREE = 256
CSR_PULSES = 3
#: Ceiling on csr_peak / dense_peak; in practice CSR is ~10x smaller.
CSR_MEMORY_CEILING = 0.5


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


def _csr_cell_run(backend, width=CSR_WIDTH):
    """Build and sweep one hub-skewed sparse cell on ``backend``.

    Construction stays inside the traced region on purpose: the dense
    kernel's cost is dominated by the ``(L, W, max_deg)`` delay tensors
    it builds up front, which is exactly the footprint the CSR backend
    exists to avoid.
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
    with prefer_csr(backend == "csr"):
        return sim.run(CSR_PULSES)


def test_csr_backend_memory_reduction():
    """CSR peak memory <= 0.5x dense on a hub-skewed 10^5-node graph.

    A small companion cell first pins CSR against dense bitwise; the
    traced cell then compares end-to-end peaks (graph + kernel + delay
    tensors) with ``tracemalloc``.  Records both backends under the
    ``"sparse"`` section of ``BENCH_batch.json``.
    """
    small_dense = _csr_cell_run("dense", width=512)
    small_csr = _csr_cell_run("csr", width=512)
    np.testing.assert_array_equal(small_csr.times, small_dense.times)
    np.testing.assert_array_equal(
        small_csr.corrections, small_dense.corrections
    )

    peaks, times = {}, {}
    for backend in ("dense", "csr"):
        tracemalloc.start()
        tracemalloc.reset_peak()
        start = time.perf_counter()
        _csr_cell_run(backend)
        times[backend] = time.perf_counter() - start
        _, peaks[backend] = tracemalloc.get_traced_memory()
        tracemalloc.stop()

    node_pulses = CSR_WIDTH * CSR_LAYERS * CSR_PULSES
    ratio = peaks["csr"] / peaks["dense"]
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
                backend: dict(
                    _mode_record(1, times[backend], node_pulses),
                    peak_bytes=peaks[backend],
                )
                for backend in ("dense", "csr")
            },
            "memory_ratio_csr_vs_dense": ratio,
        },
    )

    print()
    print(
        format_table(
            ["backend", "seconds", "peak MiB", "node-pulses/s"],
            [
                (backend, times[backend], peaks[backend] / 2**20,
                 node_pulses / times[backend])
                for backend in ("dense", "csr")
            ],
            title=f"CSR backend, W={CSR_WIDTH}, {CSR_LAYERS} layers, "
            f"hub degree {CSR_HUB_DEGREE} "
            f"(CSR peak {ratio:.2f}x of dense)",
        )
    )
    assert ratio <= CSR_MEMORY_CEILING, (
        f"CSR peak memory is {ratio:.2f}x the dense kernel's "
        f"({peaks['csr']} vs {peaks['dense']} bytes); ceiling is "
        f"{CSR_MEMORY_CEILING}x"
    )


def test_dense_backend_no_regression():
    """The density heuristic picks dense on regular graphs, bitwise.

    On the standard trial-stacked cell (replicated lines, padding ratio
    1.0) the heuristic must resolve to the dense kernel and produce the
    same times as a run with the verdict forced to dense.
    """
    trials = BatchRunner.seed_sweep(
        BATCH_DIAMETER, range(16), num_pulses=NUM_PULSES
    )
    runner = BatchRunner(num_pulses=NUM_PULSES)
    batch = runner.run(trials)
    (stats,) = batch.compaction_stats
    assert stats["neighbor_backend"] == "dense", (
        f"the heuristic picked {stats['neighbor_backend']!r} on a regular "
        "graph"
    )
    with prefer_csr(False):
        dense_batch = runner.run(trials)
    np.testing.assert_array_equal(batch.times, dense_batch.times)


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
        sweep = fast_mod._VectorSweep(
            sim, fast_mod._neighbor_backend(sim.graph.base)
        )
        gathered.extend(
            sweep.delay_arrays(layer, 0)
            for layer in range(1, sim.graph.num_layers)
        )
    return gathered


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
        "first_run_s": first_s,
        "warm_rerun_s": warm_s,
        "first_over_warm": first_s / warm_s,
    }
    return record, batch


def test_cold_vs_warm():
    """A fresh sweep's first run costs at most 3x its warm rerun.

    The first run gathers every delay (one array-valued replay per
    trial) and rate plane; the rerun finds them cached.  With one replay
    per trial and layer the first run took ~6-8x the rerun; the section
    records those timings (:data:`PER_LAYER_REPLAY`) next to the live
    ``per_trial_replay`` ones.
    """
    record, batch = cold_vs_warm_timings()
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


def test_fault_fallback_overhead():
    """Warm faulted thm13 stack <= 4x the same configs run fault-free.

    Before the fallback resolved each layer step in one stack-wide pass
    gathered from arrays, the faulted stack took ~8x as long; the
    section records those timings (:data:`PER_TRIAL_RESOLVER`) next to
    the live ``stack_wide`` ones.
    """
    for repeats in (3, 5):
        record, faulted = fault_fallback_timings(repeats)
        if record["faulted_over_fault_free"] <= FALLBACK_CEILING:
            break
    ratio = record["faulted_over_fault_free"]
    counters = record["faulted"]
    assert 0 < counters["fallback_passes"] <= counters["fallback_batches"]
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


def warm_transport_timings(rounds=TRANSPORT_ROUNDS):
    """Median process and serial runs of fresh grids, and their ratio.

    Each round builds a fresh grid (seeds never reused, so every run
    gathers its inputs cold), runs it through the process executor,
    then serially -- the process run ships pickled copies, so the
    serial run finds the parent's trials still cold.  The ratio is the
    median of the per-round ratios: run times differ between grids, and
    a best-of per side would pair one grid's luck with another's.  One
    process run before the rounds forks the pool.
    """
    seeds = itertools.count(10_000)
    serial = BatchRunner(num_pulses=NUM_PULSES, store_times=False)
    process = BatchRunner(
        num_pulses=NUM_PULSES, executor="process", store_times=False
    )

    def fresh():
        return BatchRunner.seed_sweep(
            TRANSPORT_DIAMETER,
            [next(seeds) for _ in range(TRANSPORT_TRIALS)],
            num_pulses=NUM_PULSES,
        )

    process.run(fresh())
    process_s, serial_s = [], []
    for _ in range(rounds):
        trials = fresh()
        start = time.perf_counter()
        by_process = process.run(trials)
        process_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        by_serial = serial.run(trials)
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
        client = ServiceClient(server.url)
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

    The service runs every miss through the process executor and makes
    four HTTP requests per job.  With a pool forked per run and a TCP
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
