"""Tests of the benchmark itself: statistics, tracing, seeding, smoke runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import bench, stats, tracing, workloads  # noqa: E402
from repro.service.store import grid_key  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentiles and the sample-count rule ---------------------------------
def test_p90_needs_one_hundred_samples():
    """A p90 is reported only from 100 samples of a kind on."""
    assert stats.p90([1.0] * 99) is None
    values = [float(i) for i in range(1, 101)]
    assert stats.p90(values) == pytest.approx(90.1)
    summary = stats.summarize(values[:99])
    assert summary["n"] == 99 and summary["p50"] == 50.0 and summary["p90"] is None


def test_median_and_relative_iqr():
    """Median and quartile spread match their definitions."""
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        stats.median([])
    assert stats.relative_iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


# -- self time from nested spans -------------------------------------------
class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans():
    """A span's self time excludes the spans nested in it."""
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 3.0
        wrapped_inner()

    wrapped_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    snap = tracer.snapshot()
    assert snap["outer"] == (4.0, 8.0, 1)  # 8 s total, 4 s inside inner
    assert snap["inner"] == (4.0, 4.0, 2)
    assert tracing.delta({"inner": (1.0, 1.0, 1)}, snap)["inner"] == (3.0, 3.0, 1)


def test_recursive_spans_of_one_name_add_up():
    """Recursive spans of one name count each level once in self time."""
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def layer(depth):
        clock.now += 1.0
        if depth:
            traced(depth - 1)

    traced = tracer.wrap("layer", layer)
    traced(2)
    self_s, total_s, calls = tracer.snapshot()["layer"]
    assert (self_s, calls) == (3.0, 3)  # self times sum to the outer duration
    assert total_s == 3.0 + 2.0 + 1.0


def test_install_patches_callers_and_restores():
    """Wrappers are bound where callers look names up, then removed."""
    import repro.experiments.batch as batch_module
    import repro.experiments.common as common
    from repro.delays.models import StaticDelayModel

    originals = (common.standard_config, batch_module.standard_config,
                 StaticDelayModel.__dict__["delay"])
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert batch_module.standard_config is not originals[1]
        batch_module.BatchRunner.seed_sweep(4, [1])
        snap = tracer.snapshot()
        assert snap["experiments.common.standard_config"][2] == 1
        assert snap["topology.base_graph.distances_from"][2] > 0
    finally:
        restore()
    assert (common.standard_config, batch_module.standard_config,
            StaticDelayModel.__dict__["delay"]) == originals


# -- seeding ----------------------------------------------------------------
def test_same_seed_gives_same_input_grids():
    """One seed gives one set of inputs; another seed changes the drawn ones."""
    def grids(seed):
        cold = workloads.ColdSweep(seed, "smoke")
        stream = workloads.StreamHorizon(seed, "smoke")
        fault = workloads.FaultHorizon(seed, "smoke")
        service = workloads.ServiceMix(seed, "smoke")
        return (
            cold.fresh_seeds(4),
            grid_key(stream._build(), 4),
            grid_key(fault._build(), 3),
            service.plan[:50],
            service.warmup_seeds,
            cold.held_out_seed,
        )

    assert grids(7) == grids(7)
    first, second = grids(7), grids(8)
    assert first[1:3] == second[1:3]  # the warm workloads' grids are fixed
    assert [a != b for a, b in zip(first, second)] == [True, False, False, True, True, True]


def test_service_plan_mix_and_first_miss():
    """The service plan starts with a miss and keeps the planned share."""
    plan = workloads.ServiceMix(3, "smoke").plan
    assert plan[0] == "miss"
    for start in range(10, 200, 10):  # every later block holds the planned share
        assert plan[start:start + 10].count("hit") == 5


def test_fresh_seeds_are_never_reused():
    """Trial seeds handed out in one run are all distinct."""
    workload = workloads.ColdSweep(1, "smoke")
    seen = [workload.held_out_seed] + workload.fresh_seeds(500)
    assert len(set(seen)) == len(seen)


# -- BENCHMARK.json and the command ------------------------------------------
def test_benchmark_json_matches_the_metric_tables():
    """BENCHMARK.json lists the metrics and workloads the code reports."""
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _, _ in bench.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(entry) for entry in bench.PER_LAYER
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def _run(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "0.3", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    """A smoke-size run passes its checks and prints every metric."""
    out = _run(workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    for metric in table:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload, warm", [("cold_sweep", False), ("stream_horizon", True)])
def test_setup_sample_times_one_fresh_setup(workload, warm):
    """The set-up process mode prints one positive sample, with the
    statistics digest only for a warm workload."""
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "5",
         "--scale", "smoke", "--setup-sample"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    sample = json.loads(out.stdout.strip().splitlines()[-1])
    assert sample["setup_s"] > 0 and sample["host_s"] > 0
    assert (sample["digest"] is not None) == warm


def test_fails_without_the_program(tmp_path):
    """Without src/ the command exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("cold_sweep", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
