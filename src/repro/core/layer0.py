"""Layer-0 pulse generation (Appendix A).

Layer 0 must provide well-synchronized input pulses: local skew
``L_0 <= kappa`` suffices for the grid analysis (the chain scheme achieves
``kappa / 2``, Lemma A.1).  Three schedules are provided:

* :class:`PerfectLayer0` -- ideal source, pulse ``k`` at ``k * Lambda``
  everywhere (control runs);
* :class:`JitteredLayer0` -- per-node static jitter within a budget
  (models an imperfect but bounded source);
* :class:`ChainLayer0` -- Algorithm 2: the clock source feeds a simple
  path through layer 0; each node forwards ``Lambda - d`` local time after
  reception.  Pipelining shifts pulse indices along the chain (node at
  chain position ``i`` emits its ``k``-th chain pulse around
  ``(k + i - 1) * Lambda``), so grid pulse ``k`` of position ``i`` is chain
  pulse ``k + P - i`` (``P`` = chain length); this makes all grid-``k``
  pulses land around ``(k + P - 1) * Lambda`` with adjacent skew
  ``<= kappa/2`` per hop, exactly Lemma A.1's guarantee.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.clocks.hardware import HardwareClock
from repro.delays.models import DelayModel, UniformDelayModel
from repro.params import Parameters
from repro.topology.base_graph import BaseGraph

__all__ = [
    "Layer0Schedule",
    "PerfectLayer0",
    "JitteredLayer0",
    "AlternatingLayer0",
    "ChainLayer0",
    "stacked_pulse_times",
    "stacked_pulse_row",
]


def stacked_pulse_times(
    schedules: Sequence["Layer0Schedule"],
    bases: Sequence[BaseGraph],
    pulses: int,
) -> np.ndarray:
    """All trials' layer-0 schedules as one ``(S, pulses, W_max)`` block.

    The stacked-trial kernel's layer-0 fill: trial ``s``'s schedule over
    its base graph occupies ``out[s, :, :W_s]``; cells past a trial's
    width are NaN (inert padding -- the same marker the simulator uses
    for "never pulsed", so padded cells are masked out everywhere NaN
    is).  Schedules are grouped by concrete class and delegated to
    ``_stack_pulse_times``, which Perfect/Jittered/Alternating override
    with one whole-group array fill; the generic fallback loops
    :meth:`Layer0Schedule.pulse_times_array` per trial.
    :class:`ChainLayer0` fills are inherently per-chain (each trial has
    its own edge delays), but each chain's fill is itself vectorized
    over the pulse axis for pulse-invariant delay models -- one array op
    per chain hop instead of a per-entry Python loop, which on
    5000-node chains is the difference between milliseconds and
    seconds.  Every entry is bit-identical to the per-trial array -- the
    vectorized fills evaluate the same elementwise expressions in the
    same association.
    """
    if len(schedules) != len(bases):
        raise ValueError(
            f"{len(schedules)} schedules for {len(bases)} base graphs"
        )
    if pulses < 0:
        raise ValueError(f"pulses must be >= 0, got {pulses}")
    if not schedules:
        return np.empty((0, pulses, 0))
    width = max(base.num_nodes for base in bases)
    out = np.full((len(schedules), pulses, width), np.nan)
    groups: Dict[type, List[int]] = {}
    for s, schedule in enumerate(schedules):
        groups.setdefault(type(schedule), []).append(s)
    for cls, rows in groups.items():
        cls._stack_pulse_times(
            [schedules[s] for s in rows], [bases[s] for s in rows], pulses,
            out, rows,
        )
    return out


def stacked_pulse_row(
    schedules: Sequence["Layer0Schedule"],
    bases: Sequence[BaseGraph],
    pulse: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One grid pulse of every trial's schedule as an ``(S, W_max)`` row.

    The streaming (``store_times=False``) counterpart of
    :func:`stacked_pulse_times`: instead of materializing the whole
    ``(S, pulses, W_max)`` layer-0 block up front, the stacked kernel
    asks for one pulse's row at a time and reuses the same ``out``
    buffer, keeping layer-0 memory at O(S, W).  Entries are bit-identical
    to the corresponding ``stacked_pulse_times`` plane -- the per-class
    overrides evaluate the same expressions in the same association, and
    :class:`ChainLayer0` gathers from the same front-to-back cache --
    so streamed and materialized runs see the same floats.
    """
    if len(schedules) != len(bases):
        raise ValueError(
            f"{len(schedules)} schedules for {len(bases)} base graphs"
        )
    if pulse < 0:
        raise ValueError(f"pulse must be >= 0, got {pulse}")
    if out is None:
        width = max((base.num_nodes for base in bases), default=0)
        out = np.full((len(schedules), width), np.nan)
    else:
        if out.shape[0] != len(schedules):
            raise ValueError(
                f"row buffer has {out.shape[0]} rows for "
                f"{len(schedules)} schedules"
            )
        out[:] = np.nan
    groups: Dict[type, List[int]] = {}
    for s, schedule in enumerate(schedules):
        groups.setdefault(type(schedule), []).append(s)
    for cls, rows in groups.items():
        cls._stack_pulse_row(
            [schedules[s] for s in rows], [bases[s] for s in rows], pulse,
            out, rows,
        )
    return out


def _width_mask(bases: Sequence[BaseGraph], width: int) -> np.ndarray:
    """Boolean ``(len(bases), width)``: True on each trial's real vertices."""
    counts = np.array([base.num_nodes for base in bases], dtype=np.int64)
    return np.arange(width)[None, :] < counts[:, None]


class Layer0Schedule(ABC):
    """Pulse times of layer-0 nodes, indexed by grid pulse number ``k >= 0``."""

    @abstractmethod
    def pulse_time(self, base_vertex: int, pulse: int) -> float:
        """Real time of grid pulse ``pulse`` at ``(base_vertex, 0)``."""

    def pulse_times_array(self, base: BaseGraph, pulses: int) -> np.ndarray:
        """All pulse times as a ``(pulses, W)`` array; ``W = |V(H)|``.

        The array entry point the fast-simulator kernels consume: one
        gather per run instead of a per-node/per-pulse ``pulse_time``
        loop.  Entries are bit-identical to :meth:`pulse_time` -- the
        vectorized overrides replicate its arithmetic association
        elementwise, and this generic fallback simply loops it -- so
        per-node queries and the stacked simulator see the same floats.
        """
        if pulses < 0:
            raise ValueError(f"pulses must be >= 0, got {pulses}")
        times = np.empty((pulses, base.num_nodes))
        for k in range(pulses):
            for v in base.nodes():
                times[k, v] = self.pulse_time(v, k)
        return times

    @classmethod
    def _stack_pulse_times(
        cls,
        schedules: Sequence["Layer0Schedule"],
        bases: Sequence[BaseGraph],
        pulses: int,
        out: np.ndarray,
        rows: Sequence[int],
    ) -> None:
        """Fill ``out[rows]`` of a :func:`stacked_pulse_times` block.

        The generic fallback gathers one trial at a time; subclasses
        whose schedule is a closed-form function of ``(pulse, vertex)``
        override it with a single vectorized fill of the whole group.
        """
        for row, schedule, base in zip(rows, schedules, bases):
            out[row, :, : base.num_nodes] = schedule.pulse_times_array(
                base, pulses
            )

    @classmethod
    def _stack_pulse_row(
        cls,
        schedules: Sequence["Layer0Schedule"],
        bases: Sequence[BaseGraph],
        pulse: int,
        out: np.ndarray,
        rows: Sequence[int],
    ) -> None:
        """Fill ``out[rows]`` of a :func:`stacked_pulse_row` buffer.

        Generic fallback: per-node :meth:`pulse_time` queries (exact by
        definition).  Closed-form schedules override with one vectorized
        group fill mirroring their ``_stack_pulse_times`` association.
        """
        for row, schedule, base in zip(rows, schedules, bases):
            for v in base.nodes():
                out[row, v] = schedule.pulse_time(v, pulse)

    def layer_times(self, base: BaseGraph, pulse: int) -> List[float]:
        """Pulse times across the whole layer."""
        return [self.pulse_time(v, pulse) for v in base.nodes()]

    def local_skew(self, base: BaseGraph, pulses: int) -> float:
        """Measured ``L_0``: max adjacent same-pulse offset over ``pulses``.

        One array sweep over :meth:`pulse_times_array` (the old
        O(pulses x edges) Python double loop regressed badly on wide
        layer-0 audits); equivalent to ``max(|t_v - t_w|)`` over every
        pulse and base edge, ``0.0`` when there is nothing to compare.
        """
        if pulses <= 0 or not base.edges:
            return 0.0
        times = self.pulse_times_array(base, pulses)  # (P, W)
        left, right = base.edge_index_arrays()
        return float(np.abs(times[:, left] - times[:, right]).max(initial=0.0))


class PerfectLayer0(Layer0Schedule):
    """Ideal layer 0: pulse ``k`` at ``k * Lambda`` at every node."""

    def __init__(self, Lambda: float) -> None:
        if Lambda <= 0:
            raise ValueError(f"Lambda must be positive, got {Lambda}")
        self.Lambda = Lambda

    def pulse_time(self, base_vertex: int, pulse: int) -> float:
        if pulse < 0:
            raise ValueError(f"pulse must be >= 0, got {pulse}")
        return pulse * self.Lambda

    def pulse_times_array(self, base: BaseGraph, pulses: int) -> np.ndarray:
        if pulses < 0:
            raise ValueError(f"pulses must be >= 0, got {pulses}")
        column = np.arange(pulses, dtype=float) * self.Lambda
        return np.tile(column[:, None], (1, base.num_nodes))

    @classmethod
    def _stack_pulse_times(cls, schedules, bases, pulses, out, rows):
        # k * Lambda per trial, broadcast over each trial's real vertices.
        lambdas = np.array([s.Lambda for s in schedules])[:, None]
        columns = np.arange(pulses, dtype=float)[None, :] * lambdas  # (n, P)
        mask = _width_mask(bases, out.shape[-1])
        out[rows] = np.where(mask[:, None, :], columns[:, :, None], np.nan)

    @classmethod
    def _stack_pulse_row(cls, schedules, bases, pulse, out, rows):
        # k * Lambda per trial, broadcast over each trial's real vertices.
        lambdas = np.array([s.Lambda for s in schedules])[:, None]
        mask = _width_mask(bases, out.shape[-1])
        out[rows] = np.where(mask, float(pulse) * lambdas, np.nan)


class JitteredLayer0(Layer0Schedule):
    """Per-node static jitter: pulse ``k`` at ``k * Lambda + jitter_v``.

    Jitter is drawn uniformly from ``[-jitter_bound, jitter_bound]`` once per
    node and reused for every pulse, so the schedule's frequency is exact and
    only phases differ (the paper's model for imperfect input, with the
    frequency error folded into ``vartheta``).
    """

    def __init__(
        self,
        Lambda: float,
        num_vertices: int,
        jitter_bound: float,
        seed: int = 0,
    ) -> None:
        if Lambda <= 0:
            raise ValueError(f"Lambda must be positive, got {Lambda}")
        if jitter_bound < 0:
            raise ValueError(f"jitter_bound must be >= 0, got {jitter_bound}")
        self.Lambda = Lambda
        rng = np.random.default_rng(seed)
        self._jitter = rng.uniform(-jitter_bound, jitter_bound, size=num_vertices)
        # Keep every pulse time nonnegative.
        self._base_offset = jitter_bound

    def pulse_time(self, base_vertex: int, pulse: int) -> float:
        if pulse < 0:
            raise ValueError(f"pulse must be >= 0, got {pulse}")
        return (
            pulse * self.Lambda
            + self._base_offset
            + float(self._jitter[base_vertex])
        )

    def pulse_times_array(self, base: BaseGraph, pulses: int) -> np.ndarray:
        if pulses < 0:
            raise ValueError(f"pulses must be >= 0, got {pulses}")
        # Same association as the scalar path: (k * Lambda + offset) + jitter.
        column = np.arange(pulses, dtype=float) * self.Lambda + self._base_offset
        jitter = self._jitter[np.asarray(base.nodes(), dtype=np.int64)]
        return column[:, None] + jitter[None, :]

    @classmethod
    def _stack_pulse_times(cls, schedules, bases, pulses, out, rows):
        # (k * Lambda + offset) per trial, plus NaN-padded jitter rows --
        # the padding NaN propagates through the add, masking dead cells.
        lambdas = np.array([s.Lambda for s in schedules])[:, None]
        offsets = np.array([s._base_offset for s in schedules])[:, None]
        columns = np.arange(pulses, dtype=float)[None, :] * lambdas + offsets
        jitter = np.full((len(schedules), out.shape[-1]), np.nan)
        for i, (schedule, base) in enumerate(zip(schedules, bases)):
            jitter[i, : base.num_nodes] = schedule._jitter[: base.num_nodes]
        out[rows] = columns[:, :, None] + jitter[:, None, :]

    @classmethod
    def _stack_pulse_row(cls, schedules, bases, pulse, out, rows):
        # (k * Lambda + offset) + jitter, NaN-padded past each trial.
        lambdas = np.array([s.Lambda for s in schedules])[:, None]
        offsets = np.array([s._base_offset for s in schedules])[:, None]
        columns = float(pulse) * lambdas + offsets  # (n, 1)
        jitter = np.full((len(schedules), out.shape[-1]), np.nan)
        for i, (schedule, base) in enumerate(zip(schedules, bases)):
            jitter[i, : base.num_nodes] = schedule._jitter[: base.num_nodes]
        out[rows] = columns + jitter


class AlternatingLayer0(Layer0Schedule):
    """Zigzag input: pulse ``k`` at ``k * Lambda + (-1)**v * amplitude``.

    The worst-case input for oscillation experiments (Figure 5): adjacent
    layer-0 nodes are maximally and oppositely offset, so downstream nodes
    are pushed to jump in opposite directions every layer.
    """

    def __init__(self, Lambda: float, amplitude: float) -> None:
        if Lambda <= 0:
            raise ValueError(f"Lambda must be positive, got {Lambda}")
        if amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {amplitude}")
        self.Lambda = Lambda
        self.amplitude = amplitude

    def pulse_time(self, base_vertex: int, pulse: int) -> float:
        if pulse < 0:
            raise ValueError(f"pulse must be >= 0, got {pulse}")
        sign = 1.0 if base_vertex % 2 == 0 else -1.0
        return pulse * self.Lambda + self.amplitude + sign * self.amplitude

    def pulse_times_array(self, base: BaseGraph, pulses: int) -> np.ndarray:
        if pulses < 0:
            raise ValueError(f"pulses must be >= 0, got {pulses}")
        # Same association as the scalar path:
        # (k * Lambda + amplitude) + sign * amplitude.
        column = np.arange(pulses, dtype=float) * self.Lambda + self.amplitude
        signs = np.where(np.arange(base.num_nodes) % 2 == 0, 1.0, -1.0)
        return column[:, None] + (signs * self.amplitude)[None, :]

    @classmethod
    def _stack_pulse_times(cls, schedules, bases, pulses, out, rows):
        # (k * Lambda + amplitude) + sign * amplitude, per trial at once.
        lambdas = np.array([s.Lambda for s in schedules])[:, None]
        amplitudes = np.array([s.amplitude for s in schedules])[:, None]
        columns = np.arange(pulses, dtype=float)[None, :] * lambdas + amplitudes
        signs = np.where(np.arange(out.shape[-1]) % 2 == 0, 1.0, -1.0)
        offsets = signs[None, :] * amplitudes  # (n, W_max)
        mask = _width_mask(bases, out.shape[-1])
        block = columns[:, :, None] + offsets[:, None, :]
        out[rows] = np.where(mask[:, None, :], block, np.nan)

    @classmethod
    def _stack_pulse_row(cls, schedules, bases, pulse, out, rows):
        # (k * Lambda + amplitude) + sign * amplitude, per trial at once.
        lambdas = np.array([s.Lambda for s in schedules])[:, None]
        amplitudes = np.array([s.amplitude for s in schedules])[:, None]
        columns = float(pulse) * lambdas + amplitudes  # (n, 1)
        signs = np.where(np.arange(out.shape[-1]) % 2 == 0, 1.0, -1.0)
        mask = _width_mask(bases, out.shape[-1])
        out[rows] = np.where(
            mask, columns + signs[None, :] * amplitudes, np.nan
        )


class ChainLayer0(Layer0Schedule):
    """Algorithm 2: source-fed chain forwarding through layer 0.

    Parameters
    ----------
    params:
        Timing parameters (``Lambda``, ``d``).
    chain_order:
        The base vertices in chain order; position 0 is fed directly by the
        clock source.
    delay_model:
        Delays of chain edges ``((prev, 0), (next, 0))``; defaults to the
        uniform midpoint.
    clocks:
        Optional per-base-vertex hardware clocks (only rates matter here);
        defaults to rate-1 clocks.
    source_period:
        Period of the clock source; defaults to ``params.Lambda`` (the paper
        matches the input frequency to the nominal layer latency).
    """

    def __init__(
        self,
        params: Parameters,
        chain_order: Sequence[int],
        delay_model: Optional[DelayModel] = None,
        clocks: Optional[Dict[int, HardwareClock]] = None,
        source_period: Optional[float] = None,
    ) -> None:
        if not chain_order:
            raise ValueError("chain_order must be non-empty")
        if len(set(chain_order)) != len(chain_order):
            raise ValueError("chain_order must not repeat vertices")
        self.params = params
        self.chain_order = list(chain_order)
        self.delay_model = delay_model or UniformDelayModel(params.d, params.u)
        self.clocks = clocks or {}
        self.source_period = source_period or params.Lambda
        self._position = {v: i for i, v in enumerate(self.chain_order)}
        # _chain_times[i][j] = time of *chain* pulse j at chain position i.
        self._chain_times: List[List[float]] = [[] for _ in self.chain_order]

    def _rate(self, vertex: int) -> float:
        clock = self.clocks.get(vertex)
        if clock is None:
            return 1.0
        low, high = clock.rate_bounds()
        if low != high:
            raise ValueError(
                "ChainLayer0 requires constant-rate clocks; "
                f"vertex {vertex} has rates in [{low}, {high}]"
            )
        return low

    def _extend_position(self, pos: int, chain_pulse: int) -> None:
        """Extend one position's cached times through ``chain_pulse``.

        Requires position ``pos - 1`` to already be filled at least that
        deep (callers sweep front to back).
        """
        times = self._chain_times[pos]
        if len(times) > chain_pulse:
            return
        vertex = self.chain_order[pos]
        # Wait Lambda - d of *local* time after reception (Algorithm 2).
        wait = (self.params.Lambda - self.params.d) / self._rate(vertex)
        if pos == 0:
            while len(times) <= chain_pulse:
                j = len(times)
                received = j * self.source_period + self.delay_model.delay(
                    (("source", -1), (vertex, 0)), j
                )
                times.append(received + wait)
        else:
            prev_times = self._chain_times[pos - 1]
            prev_vertex = self.chain_order[pos - 1]
            while len(times) <= chain_pulse:
                j = len(times)
                received = prev_times[j] + self.delay_model.delay(
                    ((prev_vertex, 0), (vertex, 0)), j
                )
                times.append(received + wait)

    def _fill_chain(self, position: int, chain_pulse: int) -> None:
        """Fill the cached chain times front-to-back up to ``chain_pulse``.

        Iterative on purpose: the old implementation recursed through
        ``position - 1``, so one cold query at the far end of a long chain
        (P >~ 1000 -- production-scale grids) blew the interpreter's
        recursion limit.  Each position only needs its predecessor's
        already-extended list, so a front-to-back sweep computes the exact
        same floats without growing the Python stack.
        """
        for pos in range(position + 1):
            self._extend_position(pos, chain_pulse)

    def chain_pulse_time(self, position: int, chain_pulse: int) -> float:
        """Time of *chain* pulse ``chain_pulse`` (0-based) at chain position.

        Position 0 receives source pulse ``j`` at ``j * source_period`` and
        runs the same forwarding rule as everyone else.
        """
        if not 0 <= position < len(self.chain_order):
            raise ValueError(f"position {position} out of range")
        if chain_pulse < 0:
            raise ValueError(f"chain_pulse must be >= 0, got {chain_pulse}")
        self._fill_chain(position, chain_pulse)
        return self._chain_times[position][chain_pulse]

    def pulse_time(self, base_vertex: int, pulse: int) -> float:
        """Grid pulse ``pulse``: chain pulse ``pulse + P - 1 - position``.

        The re-indexing aligns pulses across the chain (see module
        docstring); grid pulse ``k`` lands near ``(k + P) * Lambda``.
        """
        position = self._position.get(base_vertex)
        if position is None:
            raise ValueError(f"vertex {base_vertex} not on the chain")
        if pulse < 0:
            raise ValueError(f"pulse must be >= 0, got {pulse}")
        chain_pulse = pulse + (len(self.chain_order) - 1 - position)
        return self.chain_pulse_time(position, chain_pulse)

    def pulse_times_array(self, base: BaseGraph, pulses: int) -> np.ndarray:
        """Grid pulse times ``(pulses, W)`` from one front-to-back fill.

        Pulse-invariant delay models (the common static/uniform case) go
        through :meth:`_pulse_rows_invariant`: every chain hop advances
        the *whole* pulse axis as one array op, so a cold 5000-node
        chain fills in milliseconds where the per-entry Python loop took
        seconds (the regression the fast kernels hit on every cold
        ``ChainLayer0`` run).  Pulse-varying models keep the cached
        per-entry fill (:meth:`_pulse_rows_cached`).  Both paths slice
        out the pipelined re-indexing ``chain_pulse = k + P - 1 -
        position`` and produce bit-identical entries to per-node
        :meth:`pulse_time` queries -- the vectorized sweep evaluates the
        same expressions in the same association.
        """
        if pulses < 0:
            raise ValueError(f"pulses must be >= 0, got {pulses}")
        positions = []
        for v in base.nodes():
            position = self._position.get(v)
            if position is None:
                raise ValueError(f"vertex {v} not on the chain")
            positions.append(position)
        if pulses == 0:
            return np.empty((0, base.num_nodes))
        if getattr(self.delay_model, "pulse_invariant", False):
            rows = self._pulse_rows_invariant(positions, pulses)
        else:
            rows = self._pulse_rows_cached(positions, pulses)
        return np.ascontiguousarray(rows.T)

    def _pulse_rows_cached(
        self, positions: Sequence[int], pulses: int
    ) -> np.ndarray:
        """Per-entry reference fill: grid rows ``(W, pulses)``.

        Extends the cached chain times with a *triangular* front-to-back
        fill -- position ``pos`` only needs chain pulses through
        ``pulses - 1 + (P - 1 - pos)``, and the required depth shrinks
        by one per hop, so each position is exactly deep enough for its
        successor (O(P * pulses + P^2) entries, no rectangular
        ``(P, P + pulses)`` intermediate).
        """
        length = len(self.chain_order)
        for pos in range(length):
            self._extend_position(pos, pulses - 1 + (length - 1 - pos))
        return np.array(
            [
                self._chain_times[pos][
                    length - 1 - pos: length - 1 - pos + pulses
                ]
                for pos in positions
            ]
        )

    def _pulse_rows_invariant(
        self, positions: Sequence[int], pulses: int
    ) -> np.ndarray:
        """Pulse-axis-vectorized fill: grid rows ``(W, pulses)``.

        Valid only for pulse-invariant delay models (one ``delay`` query
        per chain edge stands in for all pulses).  The sweep carries one
        chain-pulse row forward hop by hop, evaluating exactly the
        per-entry fill's expressions -- ``(prev + delay) + wait``
        elementwise, in that association -- so entries are bit-identical
        to :meth:`_pulse_rows_cached`; the row shrinks by one pulse per
        hop, mirroring the triangular depth requirement.
        """
        length = len(self.chain_order)
        params = self.params
        vertex = self.chain_order[0]
        wait = (params.Lambda - params.d) / self._rate(vertex)
        delay = self.delay_model.delay((("source", -1), (vertex, 0)), 0)
        row = (
            np.arange(pulses + length - 1, dtype=float) * self.source_period
            + delay
        ) + wait
        start = length - 1
        windows = {}
        needed = set(positions)
        if 0 in needed:
            windows[0] = row[start:]
        for pos in range(1, max(needed) + 1):
            prev_vertex = self.chain_order[pos - 1]
            vertex = self.chain_order[pos]
            delay = self.delay_model.delay(
                ((prev_vertex, 0), (vertex, 0)), 0
            )
            wait = (params.Lambda - params.d) / self._rate(vertex)
            row = (row[:-1] + delay) + wait
            start -= 1
            if pos in needed:
                windows[pos] = row[start:]
        return np.array([windows[pos] for pos in positions])

    @classmethod
    def _stack_pulse_row(cls, schedules, bases, pulse, out, rows):
        # One triangular cache extension per chain (position ``pos`` only
        # needs chain pulse ``pulse + P - 1 - pos``), then a gather from
        # the same front-to-back cache the per-entry fills use -- so the
        # streamed row is bit-identical to the materialized block plane
        # without the O(P^2) re-walk per-vertex ``pulse_time`` would do.
        for row, schedule, base in zip(rows, schedules, bases):
            length = len(schedule.chain_order)
            for pos in range(length):
                schedule._extend_position(pos, pulse + (length - 1 - pos))
            for v in base.nodes():
                position = schedule._position.get(v)
                if position is None:
                    raise ValueError(f"vertex {v} not on the chain")
                out[row, v] = schedule._chain_times[position][
                    pulse + (length - 1 - position)
                ]

    def lemma_a1_envelope(self, position: int, chain_pulse: int) -> tuple:
        """Lemma A.1's envelope for chain pulse times.

        Returns ``(lower, upper)`` where the lemma asserts
        ``t in [(k + i - 1) * Lambda - i * kappa / 2, (k + i - 1) * Lambda]``
        for 1-based pulse ``k`` and chain index ``i``.  Our indices are
        0-based in both, so ``k + i - 1 = chain_pulse + position + 1``;
        the source-to-position-0 hop adds one ``Lambda``-ish hop, hence the
        ``position + 1`` hop count in the drift budget.
        """
        hops = position + 1
        nominal = (chain_pulse + hops) * self.params.Lambda
        return (nominal - hops * self.params.kappa / 2.0, nominal)
