"""Timing wrappers installed around the program's public functions.

The benchmark measures the program only from outside: for a traced run,
:func:`install` rebinds each public function named in :data:`SPANS` to a
wrapper that records a span (name, duration, time covered by nested
spans) and restores the originals afterwards.  Nothing under ``src/``
changes.

A name is patched *where its callers look it up*: a module-level
function is rebound in every loaded ``repro`` module that holds it (for
example ``standard_config`` is bound into ``repro.experiments.batch``
and ``repro.experiments.thm13_random_faults`` as well as its home
module), and a method is patched on every class that defines it (all
``DelayModel`` subclasses' ``delay``, all ``Layer0Schedule`` subclasses'
``pulse_times_array``).

Self time is a span's duration minus the durations of the spans nested
directly inside it, on the same thread.  Spans on different threads (the
service's HTTP handler and job executor threads) keep separate stacks.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

#: ``(module, qualified attribute, span name)`` of every traced function.
#: Several attributes may share one span name (one layer, many entry
#: points); a ``*`` class means "this class and every subclass that
#: defines the method".
SPANS: List[Tuple[str, str, str]] = [
    ("repro.experiments.common", "standard_config",
     "experiments.common.standard_config"),
    ("repro.topology.base_graph", "BaseGraph.distances_from",
     "topology.base_graph.distances_from"),
    ("repro.clocks.drift", "uniform_random_rates",
     "clocks.drift.uniform_random_rates"),
    ("repro.faults.injection", "FaultPlan.random",
     "faults.injection.FaultPlan.random"),
    ("repro.delays.models", "*DelayModel.delay", "delays.models.delay"),
    ("repro.core.layer0", "*Layer0Schedule.pulse_times_array",
     "core.layer0.pulse_times"),
    ("repro.core.layer0", "stacked_pulse_times", "core.layer0.pulse_times"),
    ("repro.core.layer0", "stacked_pulse_row", "core.layer0.pulse_times"),
    ("repro.core.fast_batch", "TrialStack.run", "core.fast_batch.TrialStack.run"),
    ("repro.core.fast", "FastSimulation.run", "core.fast.FastSimulation.run"),
    ("repro.analysis.streaming", "StreamedStats.update",
     "analysis.streaming.StreamedStats.update"),
    ("repro.experiments.batch", "BatchRunner.run",
     "experiments.batch.BatchRunner.run"),
    ("repro.service.jobs", "batch_payload", "service.jobs.batch_payload"),
    ("repro.service.store", "grid_key", "service.store.grid_key"),
    ("repro.service.store", "ResultStore.get", "service.store.get"),
    ("repro.service.store", "ResultStore.put", "service.store.put"),
] + [
    # The accessor calls a caller makes after a run: one span name.
    ("repro.experiments.batch", f"BatchResult.{accessor}",
     "experiments.batch.BatchResult.reduce")
    for accessor in (
        "local_skews",
        "max_local_skews",
        "inter_layer_skews",
        "max_inter_layer_skews",
        "overall_skews",
        "global_skews",
        "correction_stats",
        "num_faults",
    )
]


class Tracer:
    """Accumulates per-name self time, total time and call counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._totals: Dict[str, List[float]] = {}

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one ``name`` span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)  # time covered by nested spans
            start = self._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self._clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += duration
                with self._lock:
                    record = self._totals.setdefault(name, [0.0, 0.0, 0])
                    record[0] += duration - nested
                    record[1] += duration
                    record[2] += 1

        return traced

    def snapshot(self) -> Dict[str, Tuple[float, float, int]]:
        """``{name: (self_s, total_s, calls)}`` accumulated so far."""
        with self._lock:
            return {name: tuple(rec) for name, rec in self._totals.items()}


def delta(
    before: Dict[str, Tuple[float, float, int]],
    after: Dict[str, Tuple[float, float, int]],
) -> Dict[str, Tuple[float, float, int]]:
    """Per-name difference of two :meth:`Tracer.snapshot` results."""
    out = {}
    for name, (self_s, total_s, calls) in after.items():
        b_self, b_total, b_calls = before.get(name, (0.0, 0.0, 0))
        out[name] = (self_s - b_self, total_s - b_total, calls - b_calls)
    return out


def _classes_defining(root: type, method: str) -> List[type]:
    """``root`` and every subclass whose own namespace defines ``method``."""
    found, todo, seen = [], [root], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if method in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every :data:`SPANS` entry; returns the restore function."""
    patched: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str) -> None:
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(tracer.wrap(name, raw.__func__))
        else:
            new = tracer.wrap(name, raw)
        patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    for module_name, qualified, name in SPANS:
        module = importlib.import_module(module_name)
        if "." in qualified:
            class_name, method = qualified.split(".")
            if class_name.startswith("*"):
                classes = _classes_defining(getattr(module, class_name[1:]), method)
            else:
                classes = [getattr(module, class_name)]
            for cls in classes:
                patch(cls, method, name)
            continue
        original = getattr(module, qualified)
        # Rebind the function in every repro module that imported it.
        for other in list(sys.modules.values()):
            if (
                getattr(other, "__name__", "").startswith("repro")
                and getattr(other, qualified, None) is original
            ):
                patch(other, qualified, name)

    def restore() -> None:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)
        patched.clear()

    return restore
