"""Measurement loop, metric assembly and reporting of one workload run.

An untraced run (``--trace 0``) reports the end-to-end metrics of
:data:`END_TO_END`; a traced run (``--trace 1``) repeats the workload
untraced for half its time, then with the :mod:`perfbench.tracing`
wrappers installed for the other half, and reports :data:`PER_LAYER`.
The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the same numbers for
a human, with sample counts.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.calibrate import normalized, probe
from perfbench.stats import median, summarize
from perfbench.tracing import Tracer, delta, install
from perfbench.workloads import (
    WORKLOADS,
    OpResult,
    ServiceMix,
    Workload,
    child_peak_rss_mb,
    peak_rss_mb,
)

#: Fresh processes per untraced run that each time imports plus one
#: set-up; ``setup_s`` is their median.  The run's own process is one of
#: them, the others are started for that sample alone: at least
#: ``SETUP_PROCESSES`` in all, and more, up to ``MAX_SETUP_PROCESSES``,
#: until they have run for ``SETUP_SECONDS`` (at full scale).  Cheap
#: set-ups thus get more samples; a sub-second one spreads the most.
SETUP_PROCESSES = 5
MAX_SETUP_PROCESSES = 15
SETUP_SECONDS = 8.0
#: ``peak_rss_mb`` is read after this many operations (or at the end of
#: a run with fewer).  The service keeps every job it served, so a later
#: read would grow with the number of operations a run fits in, and a
#: faster program would read as a larger one.
RSS_OPS = 50
#: Set-ups of a traced run's traced phase (the ``setup.*`` metrics).
TRACED_SETUPS = 2
#: Every phase times at least this many operations, whatever its time.
MIN_OPS = 3
#: Longest wait, in seconds, for one set-up process.
SETUP_TIMEOUT = 120
RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"

#: ``(name, unit, better)`` of the untraced run's metrics.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("node_pulses_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
]

_CONFIG_SPAN = "experiments.common.standard_config"
#: ``(metric, unit, better)`` of the traced run; see README.md for the
#: end-to-end metric and workload each one should move.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("experiments.common.standard_config.self_s", "s", "lower"),
    ("experiments.common.standard_config.calls", "count", "lower"),
    ("topology.base_graph.distances_from.self_s", "s", "lower"),
    ("topology.base_graph.distances_from.calls", "count", "lower"),
    ("clocks.drift.uniform_random_rates.self_s", "s", "lower"),
    ("delays.models.delay.self_s", "s", "lower"),
    ("delays.models.delay.calls", "count", "lower"),
    ("core.layer0.pulse_times.self_s", "s", "lower"),
    ("core.fast_batch.TrialStack.run.self_s", "s", "lower"),
    ("core.fast_batch.TrialStack.run.calls", "count", "lower"),
    ("core.fast.FastSimulation.run.calls", "count", "lower"),
    ("analysis.streaming.StreamedStats.update.self_s", "s", "lower"),
    ("analysis.streaming.StreamedStats.update.calls", "count", "lower"),
    ("experiments.batch.BatchResult.reduce_s", "s", "lower"),
    ("experiments.batch.BatchRunner.run.self_s", "s", "lower"),
    ("experiments.batch.shards_s", "s", "lower"),
    ("service.jobs.batch_payload.self_s", "s", "lower"),
    ("setup.experiments.common.standard_config.self_s", "s", "lower"),
    ("setup.faults.injection.FaultPlan.random.self_s", "s", "lower"),
    ("setup.delays.models.delay.self_s", "s", "lower"),
    ("setup.delays.models.delay.calls", "count", "lower"),
    ("core.fast_batch.cells", "count", "lower"),
    ("core.fast_batch.row_steps", "count", "lower"),
    ("core.fast_batch.fallback_cells", "count", "lower"),
    ("core.fast_batch.fallback_batches", "count", "lower"),
    ("core.fast_batch.kernel_cell_ratio", "ratio", "higher"),
    ("service.store.grid_key.self_s", "s", "lower"),
    ("service.store.get.self_s", "s", "lower"),
    ("service.store.put.self_s", "s", "lower"),
    ("service.store.payload_bytes", "bytes", "lower"),
    ("service.store.hit_ratio", "ratio", "higher"),
    ("service.jobs.queue_wait_s.hit", "s", "lower"),
    ("service.jobs.queue_wait_s.miss", "s", "lower"),
    ("service.jobs.exec_s.hit", "s", "lower"),
    ("service.jobs.exec_s.miss", "s", "lower"),
    ("service.api.overhead_s.hit", "s", "lower"),
    ("service.api.overhead_s.miss", "s", "lower"),
    ("service.client.hit_latency_p50_s", "s", "lower"),
    ("service.client.miss_latency_p50_s", "s", "lower"),
    ("service.jobs.table_size", "count", "lower"),
    ("service.store.entries", "count", "lower"),
    ("service.executor.child_peak_rss_mb", "MiB", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: Span metrics of one operation: metric -> (span name, field).  Field 0
#: is self time, 2 the call count (see :meth:`Tracer.snapshot`).
OP_SPANS: Dict[str, Tuple[str, int]] = {
    f"{_CONFIG_SPAN}.self_s": (_CONFIG_SPAN, 0),
    f"{_CONFIG_SPAN}.calls": (_CONFIG_SPAN, 2),
    "topology.base_graph.distances_from.self_s": (
        "topology.base_graph.distances_from", 0),
    "topology.base_graph.distances_from.calls": (
        "topology.base_graph.distances_from", 2),
    "clocks.drift.uniform_random_rates.self_s": (
        "clocks.drift.uniform_random_rates", 0),
    "delays.models.delay.self_s": ("delays.models.delay", 0),
    "delays.models.delay.calls": ("delays.models.delay", 2),
    "core.layer0.pulse_times.self_s": ("core.layer0.pulse_times", 0),
    "core.fast_batch.TrialStack.run.self_s": ("core.fast_batch.TrialStack.run", 0),
    "core.fast_batch.TrialStack.run.calls": ("core.fast_batch.TrialStack.run", 2),
    "core.fast.FastSimulation.run.calls": ("core.fast.FastSimulation.run", 2),
    "analysis.streaming.StreamedStats.update.self_s": (
        "analysis.streaming.StreamedStats.update", 0),
    "analysis.streaming.StreamedStats.update.calls": (
        "analysis.streaming.StreamedStats.update", 2),
    "experiments.batch.BatchResult.reduce_s": (
        "experiments.batch.BatchResult.reduce", 0),
    "experiments.batch.BatchRunner.run.self_s": ("experiments.batch.BatchRunner.run", 0),
    "service.jobs.batch_payload.self_s": ("service.jobs.batch_payload", 0),
    "service.store.grid_key.self_s": ("service.store.grid_key", 0),
    "service.store.get.self_s": ("service.store.get", 0),
    "service.store.put.self_s": ("service.store.put", 0),
}
#: Span metrics of one set-up, reported under a ``setup.`` prefix.
SETUP_SPANS: Dict[str, Tuple[str, int]] = {
    f"setup.{_CONFIG_SPAN}.self_s": (_CONFIG_SPAN, 0),
    "setup.faults.injection.FaultPlan.random.self_s": (
        "faults.injection.FaultPlan.random", 0),
    "setup.delays.models.delay.self_s": ("delays.models.delay", 0),
    "setup.delays.models.delay.calls": ("delays.models.delay", 2),
}

#: Spans that must fire in a traced run: (where, span names).
EXPECTED_SPANS: Dict[str, Dict[str, List[str]]] = {
    "cold_sweep": {
        "ops": [
            _CONFIG_SPAN,
            "topology.base_graph.distances_from",
            "clocks.drift.uniform_random_rates",
            "delays.models.delay",
            "core.layer0.pulse_times",
            "core.fast_batch.TrialStack.run",
            "analysis.streaming.StreamedStats.update",
            "experiments.batch.BatchRunner.run",
            "experiments.batch.BatchResult.reduce",
        ],
    },
    "stream_horizon": {
        "setup": [_CONFIG_SPAN, "delays.models.delay"],
        "ops": [
            "core.layer0.pulse_times",
            "core.fast_batch.TrialStack.run",
            "analysis.streaming.StreamedStats.update",
            "experiments.batch.BatchRunner.run",
            "experiments.batch.BatchResult.reduce",
        ],
    },
    "fault_horizon": {
        "setup": [_CONFIG_SPAN, "delays.models.delay", "faults.injection.FaultPlan.random"],
        "ops": [
            "core.layer0.pulse_times",
            "core.fast_batch.TrialStack.run",
            "analysis.streaming.StreamedStats.update",
            "experiments.batch.BatchRunner.run",
            "experiments.batch.BatchResult.reduce",
        ],
    },
    "service_mix": {
        "ops": [
            _CONFIG_SPAN,
            "service.store.grid_key",
            "service.store.get",
            "service.store.put",
            "experiments.batch.BatchRunner.run",
            "service.jobs.batch_payload",
            "experiments.batch.BatchResult.reduce",
        ],
    },
}


@dataclass
class Phase:
    """Set-ups and timed operations of one measurement phase."""

    setups: List[float] = field(default_factory=list)
    normalized_setups: List[float] = field(default_factory=list)
    rss_mb: float = 0.0
    setup_probes: List[float] = field(default_factory=list)
    setup_spans: List[Dict] = field(default_factory=list)
    ops: List[OpResult] = field(default_factory=list)
    op_spans: List[Dict] = field(default_factory=list)

    @property
    def failed_ops(self) -> int:
        return sum(1 for op in self.ops if op.failures)

    @property
    def normalized_setup(self) -> float:
        """Median set-up time, normalized by the machine-speed probe."""
        return median(self.normalized_setups)


def run_phase(
    workload: Workload,
    seconds: float,
    tracer: Optional[Tracer] = None,
    setups: int = 1,
    min_ops: int = MIN_OPS,
) -> Phase:
    """``setups`` set-ups, then at least ``min_ops`` operations and
    operations for ``seconds``.

    The machine-speed probe runs between every two units; each unit
    records the mean probe time on either side of it.  A set-up is timed
    step by step (:meth:`Workload.setup_steps`), so that a set-up of
    several seconds is normalized by the probes of seconds close to each
    of its parts.
    """
    phase = Phase()
    last_probe = probe()

    def timed(call: Callable):
        nonlocal last_probe
        gc.collect()
        start = time.perf_counter()
        out = call()
        elapsed = time.perf_counter() - start
        next_probe = probe()
        around, last_probe = (last_probe + next_probe) / 2.0, next_probe
        return elapsed, around, out

    def snapshot() -> Optional[Dict]:
        return tracer.snapshot() if tracer else None

    for _ in range(setups):
        workload.reset()
        before, host, norm = snapshot(), 0.0, 0.0
        for step in workload.setup_steps():
            elapsed, around, _ = timed(step)
            host += elapsed
            norm += normalized(elapsed, around)
            phase.setup_probes.append(around)
        if tracer:
            phase.setup_spans.append(delta(before, snapshot()))
        phase.setups.append(host)
        phase.normalized_setups.append(norm)
    start = time.perf_counter()
    while len(phase.ops) < min_ops or time.perf_counter() - start < seconds:
        before = snapshot()
        _, around, op = timed(workload.operation)
        if tracer:
            phase.op_spans.append(delta(before, snapshot()))
        op.probe = around
        phase.ops.append(op)
        if len(phase.ops) == RSS_OPS:
            phase.rss_mb = peak_rss_mb()
    phase.rss_mb = phase.rss_mb or peak_rss_mb()
    return phase


def setup_sample(
    name: str,
    seed: int,
    import_s: float,
    scale: str = "full",
    grid_seeds: Optional[List[int]] = None,
) -> int:
    """Set-up process mode: time this fresh process's imports plus one
    set-up and print them as one JSON line; returns the exit code.

    ``setup_s`` is normalized like every benchmark time.  ``digest`` is
    the warm workloads' statistics digest of the cold fill, so the
    parent can check that every fresh process built the same grid.
    """
    probe()
    import_norm = normalized(import_s, probe())
    workload = WORKLOADS[name](seed, scale, grid_seeds)
    try:
        phase = run_phase(workload, 0.0, min_ops=0)
    finally:
        workload.close()
    print(json.dumps({
        "setup_s": import_norm + phase.normalized_setup,
        "host_s": import_s + phase.setups[0],
        "digest": getattr(workload, "first_digest", None),
    }))
    return 0


def fresh_setups(
    workload: Workload, scale: str, count: int, seconds: float, most: int
) -> Tuple[List[Dict], List[str]]:
    """Set-up processes of ``workload``, one after another: ``count``,
    and more until they have run for ``seconds``, at most ``most``.
    Returns their samples and a failure message for each process that
    gave none."""
    samples: List[Dict] = []
    failures: List[str] = []
    command = [sys.executable, str(RUN_SCRIPT), "--workload", workload.name,
               "--seed", str(workload.seed), "--scale", scale, "--setup-sample"]
    grid_seeds = getattr(workload, "grid_seeds", None)
    if grid_seeds:
        command += ["--grid-seeds", ",".join(str(s) for s in grid_seeds)]
    start = time.perf_counter()
    started = 0
    while started < count or (started < most and time.perf_counter() - start < seconds):
        started += 1
        gc.collect()
        try:
            out = subprocess.run(command, capture_output=True, text=True,
                                 timeout=SETUP_TIMEOUT, check=False)
        except subprocess.TimeoutExpired:
            failures.append(f"set-up process ran over {SETUP_TIMEOUT} s")
            continue
        lines = out.stdout.strip().splitlines()
        if out.returncode or not lines:
            failures.append(f"set-up process exited {out.returncode}: "
                            f"{out.stderr.strip()[-400:]}")
            continue
        samples.append(json.loads(lines[-1]))
    return samples, failures


def _span_values(
    spans: List[Dict], table: Dict[str, Tuple[str, int]]
) -> Dict[str, float]:
    """Median over units (operations or set-ups) of each span metric."""
    return {
        metric: median([float(s.get(span, (0.0, 0.0, 0))[index]) for s in spans])
        for metric, (span, index) in table.items()
    }


def _mix_seconds(workload: Workload, ops: List[OpResult]) -> float:
    """One 'typical' operation: the median, or for the service the
    hit/miss medians weighted by the planned mix."""
    return workload.node_pulses_per_op / workload.throughput(ops)


def layer_metrics(
    workload: Workload, traced: Phase, untraced: Phase
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of a traced run (0 where unused)."""
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    is_service = isinstance(workload, ServiceMix)
    ops, spans = traced.ops, traced.op_spans
    if is_service:
        # Pipeline layers only work on misses; hits show in the job split.
        pairs = [(op, s) for op, s in zip(ops, spans) if op.kind == "miss"]
        values.update(_span_values([s for _, s in pairs], OP_SPANS))
    else:
        values.update(_span_values(spans, OP_SPANS))
    values.update(_span_values(traced.setup_spans, SETUP_SPANS))
    counted = [op.counters for op in ops if "core.fast_batch.cells" in op.counters]
    for name in (
        "core.fast_batch.cells",
        "core.fast_batch.row_steps",
        "core.fast_batch.fallback_cells",
        "core.fast_batch.fallback_batches",
        "core.fast_batch.kernel_cell_ratio",
    ):
        if counted:
            values[name] = median([c[name] for c in counted])
    if is_service:
        for kind in ("hit", "miss"):
            done = [op for op in ops if op.kind == kind and op.counters]
            for name in (
                "service.jobs.queue_wait_s",
                "service.jobs.exec_s",
                "service.api.overhead_s",
            ):
                if done:
                    values[f"{name}.{kind}"] = median([op.counters[name] for op in done])
            if done:
                values[f"service.client.{kind}_latency_p50_s"] = median(
                    [op.seconds for op in done]
                )
        misses = [op for op in ops if op.kind == "miss" and op.counters]
        if misses:
            values["experiments.batch.shards_s"] = median(
                [workload.shard_span(op.job_id) for op in misses]
            )
            values["service.store.payload_bytes"] = median(
                [workload.payload_bytes(op.job_id) for op in misses]
            )
        store = workload.store_delta()
        lookups = store["hits"] + store["misses"]
        values["service.store.hit_ratio"] = store["hits"] / lookups if lookups else 0.0
        values["service.jobs.table_size"] = len(workload.server.runner.jobs())
        values["service.store.entries"] = workload.server.runner.store.stats["entries"]
        values["service.executor.child_peak_rss_mb"] = child_peak_rss_mb()
    values["trace.overhead_ratio"] = _mix_seconds(workload, traced.ops) / _mix_seconds(
        workload, untraced.ops
    )
    return values


def trace_failures(workload: Workload, traced: Phase) -> List[str]:
    """Every wrapper fired where it should; warm workloads gathered nothing."""
    failures = []
    expected = EXPECTED_SPANS[workload.name]
    for where, spans in (("setup", traced.setup_spans), ("ops", traced.op_spans)):
        for name in expected.get(where, []):
            if not any(s.get(name, (0, 0, 0))[2] for s in spans):
                failures.append(f"trace: span {name} never fired in {where}")
    delay_calls = [s.get("delays.models.delay", (0, 0, 0))[2] for s in traced.op_spans]
    if workload.name == "cold_sweep" and not all(delay_calls):
        failures.append("trace: a cold operation made no delay() calls")
    if workload.name in ("stream_horizon", "fault_horizon"):
        # The kernel reads cached delay arrays; only the replay of
        # fallback cells looks delays up one message at a time.  Warm,
        # that is the same lookups every operation, far fewer than the
        # cold fill's gather made.
        cold = min(s.get("delays.models.delay", (0, 0, 0))[2] for s in traced.setup_spans)
        if len(set(delay_calls)) > 1 or max(delay_calls) * 2 > cold:
            failures.append(
                f"trace: warm operations made {sorted(set(delay_calls))} delay() calls "
                f"against {cold} in the cold fill; the workload is not warm"
            )
    return failures


def _print_summary(
    workload: Workload,
    phase: Phase,
    import_s: float,
    setup_samples: List[float],
    children_rss: float,
    metrics: Dict[str, float],
) -> None:
    """Human-readable metric lines with units and sample counts.

    Figures marked "normalized" are host times rescaled by the
    machine-speed probe (:mod:`perfbench.calibrate`); "host" figures are
    the raw host times.
    """
    out = print
    probes = [op.probe for op in phase.ops] + phase.setup_probes
    out(f"  setup_s            {metrics['setup_s']:.4f} s (normalized)  "
        f"median of {len(setup_samples)} fresh processes, each imports + one set-up "
        f"({', '.join(f'{s:.3f}' for s in setup_samples)} s normalized); "
        f"this process: imports {import_s:.3f} s + set-up {phase.setups[0]:.3f} s host")
    out(f"  node_pulses_per_s  {metrics['node_pulses_per_s']:.1f} 1/s (normalized)  "
        f"{workload.node_pulses_per_op} node-pulses per operation, "
        f"n={len(phase.ops)} operations")
    out(f"  peak_rss_mb        {metrics['peak_rss_mb']:.1f} MiB  after set-up and "
        f"{min(RSS_OPS, len(phase.ops))} of {len(phase.ops)} operations")
    out(f"  probe seconds      median {median(probes):.5f} host "
        f"(reference {normalized(1.0, 1.0):.5f}), n={len(probes)}")
    if isinstance(workload, ServiceMix):
        # node_pulses_per_s blends these two medians at the assumed mix;
        # each one is printed so no reading rests on the weights alone.
        for kind in ("miss", "hit"):
            s = summarize([op.normalized for op in phase.ops if op.kind == kind])
            p90 = (f"{s['p90']:.4f} s" if s["p90"] is not None
                   else "not reported (< 100 samples)")
            out(f"  {kind}_latency_p50_s {s['p50']:.4f} s (normalized)  n={s['n']}; "
                f"{kind}_latency_p90_s {p90}")
        out(f"  hit share          {workload.size['hit_fraction']:.2f} planned "
            "(an assumed mix, weighting the two medians above)")
        total = sum(op.seconds for op in phase.ops)
        out(f"  jobs_per_s         {len(phase.ops) / total:.2f} 1/s   "
            f"n={len(phase.ops)} operations over {total:.2f} s of client time")
        out(f"  child peak_rss_mb  {children_rss:.1f} MiB (largest worker)")
    else:
        seconds = [op.seconds for op in phase.ops]
        out(f"  operation seconds  median {median(seconds):.4f} host, "
            f"min {min(seconds):.4f}, max {max(seconds):.4f}; median "
            f"{median([op.normalized for op in phase.ops]):.4f} normalized")


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float,
    scale: str = "full",
) -> int:
    """Run one workload and print its report; returns the exit code."""
    probe()  # first call warms the probe's own code paths
    import_norm = normalized(import_s, probe())
    workload = WORKLOADS[name](seed, scale)
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"scale={scale}: closed loop, 1 client")
    failures: List[str] = []
    try:
        if not trace:
            phase = run_phase(workload, seconds)
            phases = [phase]
        else:
            untraced = run_phase(workload, seconds / 2.0)
            tracer = Tracer()
            restore = install(tracer)
            try:
                traced = run_phase(workload, seconds / 2.0, tracer, setups=TRACED_SETUPS)
            finally:
                restore()
            metrics = layer_metrics(workload, traced, untraced)
            failures += trace_failures(workload, traced)
            phases = [untraced, traced]
        failures += workload.final_checks()
    finally:
        workload.close()
    digest = getattr(workload, "first_digest", None)
    if not trace:
        # This process gave the first set-up sample.  The other set-up
        # processes start only now that its workers have stopped, so the
        # largest child read here is one of the service's workers.
        children_rss = child_peak_rss_mb()
        samples, setup_failures = fresh_setups(
            workload, scale, SETUP_PROCESSES - 1,
            SETUP_SECONDS if scale == "full" else 0.0, MAX_SETUP_PROCESSES - 1,
        )
        failures += setup_failures
        failures += [
            f"a fresh set-up process built other statistics (digest {s['digest']})"
            for s in samples if s["digest"] != digest
        ]
        setup_samples = [import_norm + phase.normalized_setup] + [
            s["setup_s"] for s in samples
        ]
        metrics = {
            "setup_s": median(setup_samples),
            "node_pulses_per_s": workload.throughput(phase.ops),
            "peak_rss_mb": phase.rss_mb,
        }
        _print_summary(workload, phase, import_s, setup_samples, children_rss, metrics)
        table = END_TO_END
    else:
        for metric, unit, _ in PER_LAYER:
            print(f"  {metric:50s} {metrics[metric]:.6g} {unit}")
        table = PER_LAYER
    if digest:
        print(f"  statistics digest  sha256:{digest}")
    op_failures = [f for p in phases for op in p.ops for f in op.failures]
    attempted = sum(len(p.ops) for p in phases) + 1  # + the once-per-run checks
    failed = sum(p.failed_ops for p in phases) + (1 if failures else 0)
    for message in (op_failures + failures)[:20]:
        print(f"  FAILED: {message}")
    print(f"  operations attempted={attempted} failed={failed}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit, _ in table
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1
