"""Layer-0 pulse generation (Appendix A).

Layer 0 must provide well-synchronized input pulses: local skew
``L_0 <= kappa`` suffices for the grid analysis (the chain scheme achieves
``kappa / 2``, Lemma A.1).  Four schedules are provided:

* :class:`PerfectLayer0` -- ideal source, pulse ``k`` at ``k * Lambda``
  everywhere (control runs);
* :class:`JitteredLayer0` -- per-node static jitter within a budget
  (models an imperfect but bounded source);
* :class:`AlternatingLayer0` -- adjacent nodes oppositely offset (the
  worst-case zigzag input of the oscillation experiments);
* :class:`ChainLayer0` -- Algorithm 2: the clock source feeds a simple
  path through layer 0; each node forwards ``Lambda - d`` local time after
  reception.  Pipelining shifts pulse indices along the chain (node at
  chain position ``i`` emits its ``k``-th chain pulse around
  ``(k + i - 1) * Lambda``), so grid pulse ``k`` of position ``i`` is chain
  pulse ``k + P - i`` (``P`` = chain length); this makes all grid-``k``
  pulses land around ``(k + P - 1) * Lambda`` with adjacent skew
  ``<= kappa/2`` per hop, exactly Lemma A.1's guarantee.

Each schedule is evaluated two ways: the scalar ``pulse_time`` (the
event engine's reference) and one array fill per class, ``_fill``, which
:func:`stacked_pulse_times` calls once per class of a trial stack for
any range of grid pulses -- a stack's whole horizon, or one pulse block
of a run at a time.  Both give the same floats.
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
    pulses: range,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Grid pulses ``pulses`` of every trial's schedule, ``(S, B, W_max)``.

    The one layer-0 fill: trial ``s``'s schedule over its base graph
    occupies ``out[s, :, :W_s]``, plane ``j`` holding grid pulse
    ``pulses[j]``; cells past a trial's width are NaN (inert padding --
    the simulator's own marker for "never pulsed", masked out everywhere
    NaN is).  Trials are grouped by class, and each group is filled by
    one call of its class's ``_fill``.  A fill of ``range(k0, k1)``
    equals planes ``k0:k1`` of the ``range(0, K)`` fill bit for bit,
    and every entry equals :meth:`Layer0Schedule.pulse_time` -- the
    fills evaluate its expressions elementwise in the same association.
    ``out`` (for example a block's layer-0 rows of a stack's result
    matrix) receives every cell; a new array is returned without it.
    """
    if len(schedules) != len(bases):
        raise ValueError(
            f"{len(schedules)} schedules for {len(bases)} base graphs"
        )
    if not isinstance(pulses, range) or pulses.step != 1 or pulses.start < 0:
        raise ValueError(
            f"pulses must be a range of pulses >= 0 in steps of 1, got {pulses!r}"
        )
    width = max((base.num_nodes for base in bases), default=0)
    shape = (len(schedules), len(pulses), width)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, need {shape}")
    groups: Dict[type, List[int]] = {}
    for s, schedule in enumerate(schedules):
        groups.setdefault(type(schedule), []).append(s)
    for cls, rows in groups.items():
        cls._fill(
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
    """One grid pulse of every trial's schedule as an ``(S, W_max)`` row:
    :func:`stacked_pulse_times` of ``range(pulse, pulse + 1)``.  Nothing
    in the package calls it; perfbench's tracer still looks it up."""
    return stacked_pulse_times(
        schedules, bases, range(pulse, pulse + 1),
        None if out is None else out[:, None],
    )[:, 0]


def _width_mask(bases: Sequence[BaseGraph], width: int) -> np.ndarray:
    """Boolean ``(len(bases), width)``: True on each trial's real vertices."""
    counts = np.array([base.num_nodes for base in bases], dtype=np.int64)
    return np.arange(width)[None, :] < counts[:, None]


def _grid_pulses(pulses: range) -> np.ndarray:
    """The grid pulse numbers of a fill as a float row."""
    return np.arange(pulses.start, pulses.stop, dtype=float)


class Layer0Schedule(ABC):
    """Pulse times of layer-0 nodes, indexed by grid pulse number ``k >= 0``.

    A schedule class gives two evaluators of one schedule: the scalar
    :meth:`pulse_time` (the event engine's reference) and the classmethod
    ``_fill(schedules, bases, pulses, out, rows)``, which writes grid
    pulses ``pulses`` of a same-class group into ``out[rows]`` -- NaN
    past each trial's width -- for :func:`stacked_pulse_times`.
    """

    @abstractmethod
    def pulse_time(self, base_vertex: int, pulse: int) -> float:
        """Real time of grid pulse ``pulse`` at ``(base_vertex, 0)``."""

    @classmethod
    @abstractmethod
    def _fill(
        cls,
        schedules: Sequence["Layer0Schedule"],
        bases: Sequence[BaseGraph],
        pulses: range,
        out: np.ndarray,
        rows: List[int],
    ) -> None:
        """Write the group's grid pulses ``pulses`` into ``out[rows]``."""

    def pulse_times_array(self, base: BaseGraph, pulses: int) -> np.ndarray:
        """All pulse times as a ``(pulses, W)`` array; ``W = |V(H)|``.

        The stacked fill of this one schedule: entries are bit-identical
        to :meth:`pulse_time`.
        """
        if pulses < 0:
            raise ValueError(f"pulses must be >= 0, got {pulses}")
        return stacked_pulse_times([self], [base], range(pulses))[0]

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

    @classmethod
    def _fill(cls, schedules, bases, pulses, out, rows):
        # k * Lambda per trial, broadcast over each trial's real vertices.
        lambdas = np.array([s.Lambda for s in schedules])[:, None]
        columns = _grid_pulses(pulses)[None, :] * lambdas  # (n, B)
        mask = _width_mask(bases, out.shape[-1])
        out[rows] = np.where(mask[:, None, :], columns[:, :, None], np.nan)


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

    @classmethod
    def _fill(cls, schedules, bases, pulses, out, rows):
        # (k * Lambda + offset) + jitter, as the scalar path associates
        # it; the NaN padding of the jitter rows propagates through the
        # add, masking dead cells.
        lambdas = np.array([s.Lambda for s in schedules])[:, None]
        offsets = np.array([s._base_offset for s in schedules])[:, None]
        columns = _grid_pulses(pulses)[None, :] * lambdas + offsets
        jitter = np.full((len(schedules), out.shape[-1]), np.nan)
        for i, (schedule, base) in enumerate(zip(schedules, bases)):
            if len(schedule._jitter) < base.num_nodes:
                raise ValueError(
                    f"JitteredLayer0 has {len(schedule._jitter)} jitter "
                    f"values for a base graph of {base.num_nodes} vertices"
                )
            jitter[i, : base.num_nodes] = schedule._jitter[: base.num_nodes]
        out[rows] = columns[:, :, None] + jitter[:, None, :]


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

    @classmethod
    def _fill(cls, schedules, bases, pulses, out, rows):
        # (k * Lambda + amplitude) + sign * amplitude, per trial at once.
        lambdas = np.array([s.Lambda for s in schedules])[:, None]
        amplitudes = np.array([s.amplitude for s in schedules])[:, None]
        columns = _grid_pulses(pulses)[None, :] * lambdas + amplitudes
        signs = np.where(np.arange(out.shape[-1]) % 2 == 0, 1.0, -1.0)
        offsets = signs[None, :] * amplitudes  # (n, W_max)
        mask = _width_mask(bases, out.shape[-1])
        block = columns[:, :, None] + offsets[:, None, :]
        out[rows] = np.where(mask[:, None, :], block, np.nan)


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
        Period of the clock source (positive); defaults to
        ``params.Lambda`` (the paper matches the input frequency to the
        nominal layer latency).
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
        if source_period is None:
            source_period = params.Lambda
        elif source_period <= 0:
            raise ValueError(
                f"source_period must be positive, got {source_period}"
            )
        self.params = params
        self.chain_order = list(chain_order)
        self.delay_model = delay_model or UniformDelayModel(params.d, params.u)
        self.clocks = clocks or {}
        self.source_period = source_period
        self._position = {v: i for i, v in enumerate(self.chain_order)}
        # _chain_times[i][j] = time of *chain* pulse j at chain position i;
        # filled by scalar queries only (the array fill carries its own).
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

    def _hop(self, pos: int):
        """Chain position ``pos``'s in-edge and its forwarding wait."""
        vertex = self.chain_order[pos]
        prev = ("source", -1) if pos == 0 else (self.chain_order[pos - 1], 0)
        # Wait Lambda - d of *local* time after reception (Algorithm 2).
        wait = (self.params.Lambda - self.params.d) / self._rate(vertex)
        return (prev, (vertex, 0)), wait

    def chain_pulse_time(self, position: int, chain_pulse: int) -> float:
        """Time of *chain* pulse ``chain_pulse`` (0-based) at chain position.

        Position 0 receives source pulse ``j`` at ``j * source_period`` and
        runs the same forwarding rule as everyone else.  The cache fills
        front to back, iteratively, so one cold query at the far end of a
        long chain does not recurse through every position.
        """
        if not 0 <= position < len(self.chain_order):
            raise ValueError(f"position {position} out of range")
        if chain_pulse < 0:
            raise ValueError(f"chain_pulse must be >= 0, got {chain_pulse}")
        for pos in range(position + 1):
            times = self._chain_times[pos]
            first = len(times)
            if first > chain_pulse:
                continue
            edge, wait = self._hop(pos)
            if pos == 0:
                sent = [j * self.source_period for j in range(first, chain_pulse + 1)]
            else:
                sent = self._chain_times[pos - 1][first: chain_pulse + 1]
            times.extend(
                (t + self.delay_model.delay(edge, j)) + wait
                for j, t in enumerate(sent, first)
            )
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

    @classmethod
    def _fill(cls, schedules, bases, pulses, out, rows):
        # Grid pulse k at chain position pos is chain pulse
        # k + P - 1 - pos, so the block needs chain pulses k0 .. k1 + P - 2
        # at position 0 and one fewer per hop.  The sweep carries that row
        # hop by hop, one array op per hop (entries (prev + delay) + wait,
        # elementwise, so any start pulse gives the same floats) of the
        # hop's delays (one ``DelayModel.pulse_delays`` block query: a
        # single row, broadcast, on a pulse-invariant model); the schedule
        # is never written.
        k0, count = pulses.start, len(pulses)
        for row, schedule, base in zip(rows, schedules, bases):
            positions = []
            for v in base.nodes():
                position = schedule._position.get(v)
                if position is None:
                    raise ValueError(f"vertex {v} not on the chain")
                positions.append(position)
            length = len(schedule.chain_order)
            grid = np.empty((max(positions) + 1, count))  # (position, pulse)
            chain_pulses = range(k0, k0 + count + length - 1)
            chain = schedule.source_period * _grid_pulses(chain_pulses)
            for pos in range(len(grid)):
                edge, wait = schedule._hop(pos)
                hop = chain_pulses[: len(chain_pulses) - pos]
                delays = schedule.delay_model.pulse_delays(edge, hop)
                chain = (chain[: len(hop)] + delays) + wait
                grid[pos] = chain[length - 1 - pos:]
            out[row, :, : base.num_nodes] = grid[positions].T
            out[row, :, base.num_nodes:] = np.nan

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
