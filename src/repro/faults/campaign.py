"""Declarative chaos campaigns: timed churn compiled to per-epoch state.

Every fault mechanism so far was *pre-committed*: a static
:class:`~repro.faults.injection.FaultPlan` fixed before the run, over a
static topology.  A :class:`ChaosCampaign` opens the dynamic regime of
the Skype-style membership-churn analyses: a schedule of timed events --
node crash/recover, node join/leave, edge flap, correlated regional
outage -- declared against a seed :class:`~repro.topology.base_graph.
BaseGraph` and *compiled* into a :class:`CampaignSchedule` of epochs,
each epoch a maximal run of pulses over which the instantaneous
adjacency and fault state are constant.  The simulators consume the
epochs (re-gathering their neighbor tensors only at epoch boundaries),
so a pulse-long edge flap and a hundred quiet pulses cost the same
per-pulse work as a static run.

Semantics (what each event means)
---------------------------------
Events are keyed by the **pulse index** at which they take effect; all
layers of pulse ``k`` run under epoch(``k``)'s state.  This is exact,
not an approximation: by Lemma B.1 the recurrence couples layers only
*within* a pulse, so a dynamic run equals, pulse for pulse, a static run
on that pulse's instantaneous graph.  Sub-pulse timing (an edge down
for half a pulse window) is compiled conservatively: an edge down for
any part of pulse ``k``'s window is down for pulse ``k``.

* **Crash / recover** (:class:`NodeCrash` / :class:`NodeRecover`): the
  grid node keeps its edges but stops sending -- neighbors still *wait*
  for it (and time out, or take the exact batched fallback).  A fault in
  the paper's sense, realized by merging a
  :class:`~repro.faults.model.FaultBehavior` into the epoch's plan.
* **Leave / join** (:class:`NodeLeave` / :class:`NodeJoin`): membership.
  A vertex that leaves drops *all* of its base-graph edges -- former
  neighbors stop expecting its messages entirely (this is the
  time-varying-adjacency case, not a fault-masking case) -- and its own
  grid column is silenced on every layer.  The vertex keeps its array
  slot, so result shapes are constant across epochs.
* **Edge down / up / flap** (:class:`EdgeDown` / :class:`EdgeUp` /
  :class:`EdgeFlap`): a single seed edge disappears and reappears;
  both endpoints simply lose one predecessor while it is down.
* **Regional outage** (:class:`RegionalOutage`): every vertex within
  ``radius`` hops of ``center`` (in the *seed* graph) crashes or leaves
  at once and recovers ``duration`` pulses later -- the correlated
  failure mode independent per-node fault plans cannot express.

Example
-------
>>> from repro.faults.campaign import ChaosCampaign, EdgeFlap, NodeLeave, NodeJoin
>>> from repro.topology.base_graph import cycle_graph
>>> campaign = ChaosCampaign(
...     cycle_graph(6), num_layers=3,
...     events=[NodeLeave(pulse=1, vertex=2), NodeJoin(pulse=3, vertex=2),
...             EdgeFlap(pulse=2, edge=(4, 5))],
... )
>>> schedule = campaign.compile(num_pulses=5)
>>> [(e.start, e.end) for e in schedule.epochs]
[(0, 1), (1, 2), (2, 3), (3, 5)]
>>> schedule.epoch_at(4).graph.base.has_edge(4, 5)  # flap is over
True

The compiled epochs are consumed by
:class:`~repro.core.fast.FastSimulation` (``campaign=``),
:class:`~repro.core.fast_batch.TrialStack`, and
:class:`~repro.experiments.batch.BatchRunner` (``BatchTrial.campaign``);
see ``docs/chaos_campaigns.md`` for the guide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.faults.injection import FaultPlan
from repro.faults.model import CrashFault, FaultBehavior
from repro.topology.base_graph import BaseGraph
from repro.topology.layered import LayeredGraph, NodeId

__all__ = [
    "CampaignEvent",
    "NodeCrash",
    "NodeRecover",
    "NodeLeave",
    "NodeJoin",
    "EdgeDown",
    "EdgeUp",
    "EdgeFlap",
    "RegionalOutage",
    "CampaignEpoch",
    "CampaignSchedule",
    "ChaosCampaign",
]


def _edge_key(edge: Tuple[int, int]) -> Tuple[int, int]:
    v, w = edge
    return (v, w) if v <= w else (w, v)


@dataclass(frozen=True)
class CampaignEvent:
    """Base class for campaign events; ``pulse`` is when it takes effect."""

    pulse: int

    def __post_init__(self) -> None:
        if self.pulse < 0:
            raise ValueError(f"event pulse must be >= 0, got {self.pulse}")


@dataclass(frozen=True)
class NodeCrash(CampaignEvent):
    """Grid node ``node`` becomes faulty (default behaviour: crash).

    The node keeps its edges; successors still wait on it.  ``behavior``
    may be any :class:`~repro.faults.model.FaultBehavior` (a "crash" in
    the campaign sense is "starts misbehaving", not necessarily silence).
    """

    node: NodeId = (0, 1)
    behavior: FaultBehavior = field(default_factory=CrashFault)


@dataclass(frozen=True)
class NodeRecover(CampaignEvent):
    """Grid node ``node`` stops misbehaving (undoes a :class:`NodeCrash`)."""

    node: NodeId = (0, 1)


@dataclass(frozen=True)
class NodeLeave(CampaignEvent):
    """Base vertex ``vertex`` leaves: all its edges drop, its column silences."""

    vertex: int = 0


@dataclass(frozen=True)
class NodeJoin(CampaignEvent):
    """Base vertex ``vertex`` rejoins with its seed edges (undoes a leave).

    Edges to vertices that are themselves still absent (or held down by
    an :class:`EdgeDown`) stay down until their other cause clears.
    """

    vertex: int = 0


@dataclass(frozen=True)
class EdgeDown(CampaignEvent):
    """Seed edge ``edge`` goes down (both directions at once)."""

    edge: Tuple[int, int] = (0, 1)


@dataclass(frozen=True)
class EdgeUp(CampaignEvent):
    """Seed edge ``edge`` comes back (undoes an :class:`EdgeDown`)."""

    edge: Tuple[int, int] = (0, 1)


@dataclass(frozen=True)
class EdgeFlap(CampaignEvent):
    """Edge down at ``pulse``, back up ``down_pulses`` pulses later."""

    edge: Tuple[int, int] = (0, 1)
    down_pulses: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.down_pulses < 1:
            raise ValueError(
                f"down_pulses must be >= 1, got {self.down_pulses}"
            )


@dataclass(frozen=True)
class RegionalOutage(CampaignEvent):
    """Correlated outage: the whole ball around ``center`` fails at once.

    Every vertex within ``radius`` hops of ``center`` in the *seed*
    graph is hit at ``pulse`` and restored at ``pulse + duration``.
    ``kind="crash"`` crashes every grid node of the region on layers
    ``>= 1`` (layer 0 is the clock source; the paper treats its faults
    separately); ``kind="leave"`` removes the region's vertices from the
    topology entirely.
    """

    center: int = 0
    radius: int = 1
    duration: int = 1
    kind: str = "crash"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.duration < 1:
            raise ValueError(f"duration must be >= 1, got {self.duration}")
        if self.kind not in ("crash", "leave"):
            raise ValueError(f"kind must be 'crash' or 'leave', got {self.kind!r}")


# Primitive state-transition actions events expand into at compile time:
# ("crash", node, behavior) / ("recover", node) / ("leave", v) /
# ("join", v) / ("down", edge) / ("up", edge).
_Action = Tuple


@dataclass(frozen=True)
class CampaignEpoch:
    """A maximal pulse range with constant adjacency and fault state.

    Attributes
    ----------
    start, end:
        Pulse range ``[start, end)`` the epoch covers.
    graph:
        The epoch's :class:`~repro.topology.layered.LayeredGraph` -- same
        width and layer count as the seed, with down/absent edges removed.
    fault_plan:
        The epoch's merged plan: the trial's static plan, plus campaign
        crashes, plus all-layer crash masks for absent vertices.
    state_key:
        Hashable snapshot of the epoch's state, equal across epochs with
        identical state -- simulators key their rebuilt sweep structures
        on it, so a topology that *returns* to an earlier state (an edge
        flapping back up) reuses the earlier epoch's tensors.
    absent:
        The vertices that have left, for accounting and reporting.
    down_edges:
        Seed edges explicitly held down (not counting absent-vertex edges).
    """

    start: int
    end: int
    graph: LayeredGraph
    fault_plan: FaultPlan
    state_key: Tuple
    absent: frozenset
    down_edges: frozenset


class CampaignSchedule:
    """The compiled form of a campaign: consecutive :class:`CampaignEpoch`.

    Built by :meth:`ChaosCampaign.compile`; epochs tile ``[0,
    num_pulses)`` exactly, and consecutive pulses with identical state are
    merged into one epoch, so iterating boundaries visits each distinct
    state change once.
    """

    def __init__(
        self, epochs: Sequence[CampaignEpoch], num_actions: int,
        last_event_pulse: Optional[int],
    ) -> None:
        if not epochs:
            raise ValueError("a schedule needs at least one epoch")
        self.epochs: List[CampaignEpoch] = list(epochs)
        self.num_pulses = self.epochs[-1].end
        #: Number of primitive state transitions applied within the horizon.
        self.num_actions = num_actions
        #: The last pulse at which any state transition fired (None when
        #: the campaign was quiet within the horizon).
        self.last_event_pulse = last_event_pulse
        self._starts = [epoch.start for epoch in self.epochs]

    def __len__(self) -> int:
        return len(self.epochs)

    def epoch_index(self, pulse: int) -> int:
        """Index of the epoch covering ``pulse``."""
        if not 0 <= pulse < self.num_pulses:
            raise IndexError(
                f"pulse {pulse} outside the compiled horizon "
                f"[0, {self.num_pulses})"
            )
        # Epochs are few; linear bisect-from-the-right is plenty.
        lo = 0
        for i, start in enumerate(self._starts):
            if start <= pulse:
                lo = i
            else:
                break
        return lo

    def epoch_at(self, pulse: int) -> CampaignEpoch:
        """The epoch covering ``pulse``."""
        return self.epochs[self.epoch_index(pulse)]

    def summary(self) -> Dict[str, object]:
        """Accounting dict: epoch count, boundaries, actions, last event.

        This is what rides along as ``churn_stats`` on campaign results
        (and into :attr:`~repro.experiments.batch.BatchResult.
        campaign_stats`, parallel to ``fallback_reasons``).
        """
        return {
            "epochs": len(self.epochs),
            "boundaries": [e.start for e in self.epochs[1:]],
            "actions": self.num_actions,
            "last_event_pulse": self.last_event_pulse,
            "max_absent": max(len(e.absent) for e in self.epochs),
            "max_down_edges": max(len(e.down_edges) for e in self.epochs),
        }


class ChaosCampaign:
    """A declarative schedule of churn events over a seed topology.

    Parameters
    ----------
    base:
        The seed :class:`~repro.topology.base_graph.BaseGraph`.  Epoch
        graphs keep its vertex set (array shapes stay fixed); events may
        only remove/restore seed edges and vertices, never invent new
        ones.
    num_layers:
        Layer count of the grids the campaign will run on (epoch graphs
        are :class:`~repro.topology.layered.LayeredGraph` of this depth).
    events:
        The :class:`CampaignEvent` list, in any order.

    The campaign itself is immutable and picklable (events are frozen
    dataclasses), so it rides inside
    :class:`~repro.experiments.batch.BatchTrial` specs across process
    shards.

    Example
    -------
    >>> from repro.topology.base_graph import cycle_graph
    >>> campaign = ChaosCampaign.random(
    ...     cycle_graph(8), num_layers=4, churn_pulses=6, rng_or_seed=3,
    ... )
    >>> schedule = campaign.compile(num_pulses=10)
    >>> schedule.epochs[-1].state_key == campaign.seed_state_key
    True
    """

    def __init__(
        self,
        base: BaseGraph,
        num_layers: int,
        events: Iterable[CampaignEvent] = (),
    ) -> None:
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        self.base = base
        self.num_layers = int(num_layers)
        self.events: Tuple[CampaignEvent, ...] = tuple(events)
        self._validate_events()

    # ------------------------------------------------------------------
    # Validation / expansion
    # ------------------------------------------------------------------
    def _validate_events(self) -> None:
        width = self.base.num_nodes
        for event in self.events:
            if isinstance(event, (NodeLeave, NodeJoin)):
                if not 0 <= event.vertex < width:
                    raise ValueError(
                        f"{type(event).__name__} vertex {event.vertex} out of "
                        f"range for width {width}"
                    )
            elif isinstance(event, (EdgeDown, EdgeUp, EdgeFlap)):
                v, w = _edge_key(event.edge)
                if not self.base.has_edge(v, w):
                    raise ValueError(
                        f"{type(event).__name__} edge {event.edge} is not a "
                        "seed edge"
                    )
            elif isinstance(event, (NodeCrash, NodeRecover)):
                v, layer = event.node
                if not (0 <= v < width and 0 <= layer < self.num_layers):
                    raise ValueError(
                        f"{type(event).__name__} node {event.node} outside "
                        f"the ({width} x {self.num_layers}) grid"
                    )
            elif isinstance(event, RegionalOutage):
                if not 0 <= event.center < width:
                    raise ValueError(
                        f"RegionalOutage center {event.center} out of range "
                        f"for width {width}"
                    )
            elif isinstance(event, CampaignEvent):  # pragma: no cover
                raise ValueError(f"unknown event type {type(event).__name__}")

    def _actions_by_pulse(self) -> Dict[int, List[_Action]]:
        """Expand compound events into primitive per-pulse transitions."""
        actions: Dict[int, List[_Action]] = {}

        def add(pulse: int, action: _Action) -> None:
            actions.setdefault(pulse, []).append(action)

        for event in self.events:
            if isinstance(event, NodeCrash):
                add(event.pulse, ("crash", event.node, event.behavior))
            elif isinstance(event, NodeRecover):
                add(event.pulse, ("recover", event.node))
            elif isinstance(event, NodeLeave):
                add(event.pulse, ("leave", event.vertex))
            elif isinstance(event, NodeJoin):
                add(event.pulse, ("join", event.vertex))
            elif isinstance(event, EdgeFlap):
                key = _edge_key(event.edge)
                add(event.pulse, ("down", key))
                add(event.pulse + event.down_pulses, ("up", key))
            elif isinstance(event, EdgeDown):
                add(event.pulse, ("down", _edge_key(event.edge)))
            elif isinstance(event, EdgeUp):
                add(event.pulse, ("up", _edge_key(event.edge)))
            elif isinstance(event, RegionalOutage):
                region = self.base.ball(event.center, event.radius)
                for v in region:
                    if event.kind == "leave":
                        add(event.pulse, ("leave", v))
                        add(event.pulse + event.duration, ("join", v))
                    else:
                        for layer in range(1, self.num_layers):
                            node = (v, layer)
                            add(event.pulse, ("crash", node, CrashFault()))
                            add(event.pulse + event.duration, ("recover", node))
        return actions

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @property
    def seed_state_key(self) -> Tuple:
        """The quiet state's key (no crashes, no absentees, no down edges)."""
        return ((), (), ())

    def compile(
        self,
        num_pulses: int,
        base_plan: Optional[FaultPlan] = None,
    ) -> CampaignSchedule:
        """Compile the event list into a :class:`CampaignSchedule`.

        ``base_plan`` is the trial's static fault plan; every epoch's
        plan merges it with the campaign's instantaneous crashes and the
        all-layer silencing of absent vertices (campaign entries shadow
        static ones for the same node).  Identical consecutive states
        merge into one epoch; distinct epochs with identical state share
        one graph object and one ``state_key``, so simulators revisiting
        a state reuse their cached gather tensors.
        """
        if num_pulses < 1:
            raise ValueError(f"num_pulses must be >= 1, got {num_pulses}")
        base_plan = base_plan or FaultPlan.none()
        actions = self._actions_by_pulse()

        crashed: Dict[NodeId, FaultBehavior] = {}
        absent: Set[int] = set()
        down: Set[Tuple[int, int]] = set()
        graph_cache: Dict[Tuple, LayeredGraph] = {}
        plan_cache: Dict[Tuple, FaultPlan] = {}

        epochs: List[CampaignEpoch] = []
        num_actions = 0
        last_event_pulse: Optional[int] = None

        def state_key() -> Tuple:
            return (
                tuple(sorted(absent)),
                tuple(sorted(down)),
                tuple(
                    (node, id(behavior))
                    for node, behavior in sorted(
                        crashed.items(), key=lambda kv: (kv[0][1], kv[0][0])
                    )
                ),
            )

        def build_graph(key: Tuple) -> LayeredGraph:
            structural = key[:2]
            cached = graph_cache.get(structural)
            if cached is None:
                if not absent and not down:
                    cached = LayeredGraph(self.base, self.num_layers)
                else:
                    edges = [
                        e
                        for e in self.base.edges
                        if e not in down
                        and e[0] not in absent
                        and e[1] not in absent
                    ]
                    epoch_base = BaseGraph(
                        self.base.num_nodes,
                        edges,
                        require_min_degree_2=False,
                        require_connected=False,
                        name=f"{self.base.name}[churn]",
                    )
                    cached = LayeredGraph(epoch_base, self.num_layers)
                graph_cache[structural] = cached
            return cached

        def build_plan(key: Tuple) -> FaultPlan:
            cached = plan_cache.get(key)
            if cached is None:
                merged: Dict[NodeId, FaultBehavior] = {
                    node: base_plan.behavior(node) for node in base_plan
                }
                merged.update(crashed)
                for v in absent:
                    for layer in range(self.num_layers):
                        merged[(v, layer)] = CrashFault()
                cached = FaultPlan.from_nodes(merged)
                plan_cache[key] = cached
            return cached

        for pulse in range(num_pulses):
            for action in actions.get(pulse, ()):
                kind = action[0]
                if kind == "crash":
                    crashed[action[1]] = action[2]
                elif kind == "recover":
                    crashed.pop(action[1], None)
                elif kind == "leave":
                    absent.add(action[1])
                elif kind == "join":
                    absent.discard(action[1])
                elif kind == "down":
                    down.add(action[1])
                elif kind == "up":
                    down.discard(action[1])
                num_actions += 1
                last_event_pulse = pulse
            key = state_key()
            if epochs and epochs[-1].state_key == key:
                # Nothing fired, or the actions cancelled out: extend the
                # running epoch instead of opening a new one.
                last = epochs[-1]
                epochs[-1] = CampaignEpoch(
                    last.start, pulse + 1, last.graph, last.fault_plan,
                    last.state_key, last.absent, last.down_edges,
                )
                continue
            epochs.append(
                CampaignEpoch(
                    start=pulse,
                    end=pulse + 1,
                    graph=build_graph(key),
                    fault_plan=build_plan(key),
                    state_key=key,
                    absent=frozenset(absent),
                    down_edges=frozenset(down),
                )
            )
        return CampaignSchedule(epochs, num_actions, last_event_pulse)

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        base: BaseGraph,
        num_layers: int,
        churn_pulses: int,
        rng_or_seed=0,
        event_rate: float = 0.5,
        max_concurrent: int = 2,
        kinds: Sequence[str] = ("crash", "leave", "edge", "outage"),
        restore: bool = True,
    ) -> "ChaosCampaign":
        """Sample a sustained-churn campaign (the thm16 workload).

        Walks pulses ``1 .. churn_pulses - 1``; at each, with probability
        ``event_rate``, fires one event of a random kind from ``kinds``
        (``"crash"``: a random layer ``>= 1`` grid node crashes for 1-2
        pulses; ``"leave"``: a random vertex leaves for 1-2 pulses;
        ``"edge"``: a random seed edge flaps for one pulse; ``"outage"``:
        a radius-1 region crashes for one pulse).  At most
        ``max_concurrent`` disruptions are in flight at once, and a
        vertex never leaves if that would strand a remaining neighbor
        with no neighbors at all (the simulators handle degree-0
        vertices, but a campaign that isolates survivors measures
        nothing interesting).

        With ``restore`` (the default) every disruption is scheduled to
        revert by pulse ``churn_pulses``, so the final epoch of any
        ``compile(num_pulses > churn_pulses)`` is exactly the seed
        topology -- the shape the self-stabilization measurement of
        ``run_thm16`` needs (churn window, then a clean tail).
        """
        if churn_pulses < 1:
            raise ValueError(f"churn_pulses must be >= 1, got {churn_pulses}")
        rng = (
            rng_or_seed
            if isinstance(rng_or_seed, np.random.Generator)
            else np.random.default_rng(rng_or_seed)
        )
        events: List[CampaignEvent] = []
        # (end_pulse, kind, payload) for in-flight disruptions.
        in_flight: List[Tuple[int, str, object]] = []
        absent: Set[int] = set()
        down: Set[Tuple[int, int]] = set()

        def degree_ok_without(vertex: int) -> bool:
            """Leaving ``vertex`` must not isolate any remaining vertex."""
            for w in base.neighbors(vertex):
                if w in absent:
                    continue
                live = [
                    x
                    for x in base.neighbors(w)
                    if x != vertex
                    and x not in absent
                    and _edge_key((w, x)) not in down
                ]
                if not live:
                    return False
            return True

        for pulse in range(1, churn_pulses):
            in_flight = [f for f in in_flight if f[0] > pulse]
            if len(in_flight) >= max_concurrent or rng.random() >= event_rate:
                continue
            kind = str(rng.choice(list(kinds)))
            duration = int(rng.integers(1, 3))
            end = min(pulse + duration, churn_pulses) if restore else pulse + duration
            if end <= pulse:
                continue
            if kind == "crash":
                if num_layers < 2:
                    continue
                node = (
                    int(rng.integers(base.num_nodes)),
                    int(rng.integers(1, num_layers)),
                )
                events.append(NodeCrash(pulse=pulse, node=node))
                events.append(NodeRecover(pulse=end, node=node))
                in_flight.append((end, kind, node))
            elif kind == "leave":
                candidates = [
                    v
                    for v in base.nodes()
                    if v not in absent and degree_ok_without(v)
                ]
                if not candidates:
                    continue
                vertex = int(candidates[int(rng.integers(len(candidates)))])
                events.append(NodeLeave(pulse=pulse, vertex=vertex))
                events.append(NodeJoin(pulse=end, vertex=vertex))
                absent.add(vertex)
                in_flight.append((end, kind, vertex))
            elif kind == "edge":
                free = [e for e in base.edges if e not in down]
                if not free:
                    continue
                edge = free[int(rng.integers(len(free)))]
                events.append(EdgeFlap(pulse=pulse, edge=edge, down_pulses=end - pulse))
                down.add(edge)
                in_flight.append((end, kind, edge))
            else:  # outage
                if num_layers < 2:
                    continue
                center = int(rng.integers(base.num_nodes))
                events.append(
                    RegionalOutage(
                        pulse=pulse, center=center, radius=1,
                        duration=end - pulse, kind="crash",
                    )
                )
                in_flight.append((end, kind, center))
            # Absent/down bookkeeping must also *release* at end pulses;
            # conservative approximation: treat everything as released
            # when its window passes (handled by the in_flight filter) --
            # absent/down only grow within max_concurrent windows, so
            # clear them as windows expire.
            absent = {
                v for e, k, v in in_flight if k == "leave"  # type: ignore[misc]
            }
            down = {
                e_ for e, k, e_ in in_flight if k == "edge"  # type: ignore[misc]
            }
        return cls(base, num_layers, events)
