"""Throughput trajectory of the fast simulator's batch kernels.

Four micro-benchmarks track the performance trajectory across PRs:

* ``test_vectorized_kernel_speedup`` (marked ``slow``): scalar per-node
  replay vs the whole-layer array kernel on the PR-1 acceptance grid
  (fault-free, D = 64, 64 layers), asserting the >= 10x floor.
* ``test_trial_stacked_speedup``: per-trial vectorized loop vs the
  trial-stacked ``(S, W)`` kernel on a fault-free S = 64, D = 32 batch,
  asserting the >= 3x floor.
* ``test_simplified_stacked_speedup``: the vectorized + trial-stacked
  simplified (Algorithm 1) path vs its scalar replay at D = 64,
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
* ``test_streaming_memory_reduction``: the streaming result pipeline
  (``store_times=False``) vs the materialized ``(S, K, L, W)`` block on
  an S = 64, 32-pulse cell, tracking peak memory with ``tracemalloc``
  and asserting the >= 4x reduction floor (and that the streamed peak
  stays under a single block -- CI fails if the block ever comes back).

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

import json
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
from repro.experiments.batch import BatchResult, BatchRunner
from repro.faults import ChaosCampaign
from repro.params import Parameters
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
    """Baseline of the retired ``stack=False``: one run per trial."""
    return BatchResult(
        trials, [trial.simulation().run(num_pulses) for trial in trials]
    )


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
    vectorized = FastSimulation(
        graph, PARAMS, delay_model=delays, clock_rates=rates, vectorize=True
    )
    scalar = FastSimulation(
        graph, PARAMS, delay_model=delays, clock_rates=rates, vectorize=False
    )
    # Warm the shared per-edge delay cache and the per-layer array caches
    # so the measured ratio reflects the kernels, not one-time RNG setup.
    vectorized.run(1)
    # Both paths get the same best-of-N treatment (an asymmetric protocol
    # would bias the recorded trajectory); escalate once on a noisy host
    # before failing the floor.
    for repeats in (3, 5):
        scalar_time, scalar_result = timed(
            lambda: scalar.run(NUM_PULSES), repeats=repeats
        )
        vector_time, vector_result = timed(
            lambda: vectorized.run(NUM_PULSES), repeats=repeats
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
    scalar_runner = BatchRunner(num_pulses=NUM_PULSES, vectorize=False)
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
        lambda: scalar_runner.run(trials[:SCALAR_TRIALS]), repeats=1
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
    """Vectorized + stacked Algorithm 1 >= 5x over its scalar replay at D=64.

    The simplified path used to be replayed scalar-only; this bench pins
    the vectorized/trial-stacked kernel's throughput on the ``fig5_jump``/
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
    scalar_runner = BatchRunner(num_pulses=NUM_PULSES, vectorize=False)

    stacked_runner.run(trials)  # warm the delay/rate caches
    stacked_time, stacked_batch = timed(lambda: stacked_runner.run(trials))
    scalar_time, scalar_batch = timed(
        lambda: scalar_runner.run(trials[:SIMPLIFIED_SCALAR_TRIALS]), repeats=1
    )

    # Acceptance: the stacked kernel is bit-identical to the scalar replay.
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
        f"scalar replay ({stacked_time:.4f}s vs {scalar_time:.4f}s)"
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
