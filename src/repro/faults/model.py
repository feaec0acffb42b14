"""Fault behaviour implementations.

A :class:`FaultBehavior` decides, per pulse and per successor edge, when (or
whether) a faulty node's pulse message is sent.  The reference point is the
time at which the node *would* have pulsed had it been correct -- the same
reference point Lemma 4.30 uses when it compares the faulty execution to
the corresponding correct one.

The behaviour contract
----------------------
Every behaviour sends at ``correct_time + offset(node, successor, pulse)``,
and an offset of ``+inf`` means "no message" (a crash/omission on that
edge for that pulse).  The offset is the one primitive:
:meth:`FaultBehavior.send_offsets` is array-valued and called once per
behaviour *class* over a list of instances and a :class:`SendBatch` of
messages, never once per message.  The module-level :func:`send_offsets`
splits a batch of mixed behaviours into those per-class calls.  The
scalar :meth:`FaultBehavior.send_time` (a :class:`FaultContext` and one
successor in, the send time or ``None`` out) is derived from it in the
base class, so each behaviour has a single body.

The closed forms are exact rewrites of the per-message arithmetic:
``correct_time - lead * kappa`` is ``correct_time + (-(lead * kappa))``
in IEEE arithmetic, and :class:`ByzantineRandomFault` replays its
per-message ``SeedSequence`` / PCG64 uniform draw in uint64 arrays
(:func:`repro.delays.models._first_uniform`), bit for bit.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.delays.models import _M32, _first_uniform
from repro.topology.layered import NodeId

__all__ = [
    "FaultContext",
    "SendBatch",
    "send_offsets",
    "FaultBehavior",
    "CrashFault",
    "SilentFromFault",
    "FixedOffsetFault",
    "PerSuccessorOffsetFault",
    "ByzantineRandomFault",
    "AdversarialEarlyFault",
    "AdversarialLateFault",
    "MutableFault",
]


@dataclass(frozen=True)
class FaultContext:
    """Inputs available to a fault behaviour when it picks a send time.

    Attributes
    ----------
    node:
        The faulty node ``(v, l)``.
    pulse:
        Pulse index ``k`` (0-based).
    correct_time:
        The time at which this node broadcasts pulse ``k`` in the execution
        where it follows the protocol on its actual inputs.
    kappa:
        The discretization unit, handy for scaling adversarial offsets.
    """

    node: NodeId
    pulse: int
    correct_time: float
    kappa: float


@dataclass(frozen=True)
class SendBatch:
    """Messages of faulty nodes, one entry per message in every array.

    Attributes
    ----------
    owner:
        Index of each message's behaviour in the list the batch is
        passed with.
    node:
        ``(v, layer)`` int64 arrays of the sending node.
    successor:
        ``(v, layer)`` int64 arrays of the receiving node.
    pulse:
        Pulse index of each message.
    kappa:
        The sending trial's discretization unit, per message.
    """

    owner: np.ndarray
    node: Tuple[np.ndarray, np.ndarray]
    successor: Tuple[np.ndarray, np.ndarray]
    pulse: np.ndarray
    kappa: np.ndarray

    @classmethod
    def single(cls, context: FaultContext, successor: NodeId) -> "SendBatch":
        """The one message of ``context``'s node toward ``successor``."""

        def one(value) -> np.ndarray:
            return np.array([value], dtype=np.int64)

        (v, layer), (sv, sl) = context.node, successor
        return cls(
            owner=one(0),
            node=(one(v), one(layer)),
            successor=(one(sv), one(sl)),
            pulse=one(context.pulse),
            kappa=np.array([context.kappa], dtype=float),
        )

    def take(
        self, index: np.ndarray, owner: Optional[np.ndarray] = None
    ) -> "SendBatch":
        """The messages at ``index``; ``owner`` renumbers their owners."""
        taken = self.owner[index]
        return SendBatch(
            owner=taken if owner is None else owner[taken],
            node=(self.node[0][index], self.node[1][index]),
            successor=(self.successor[0][index], self.successor[1][index]),
            pulse=self.pulse[index],
            kappa=self.kappa[index],
        )


def send_offsets(
    faults: Sequence["FaultBehavior"], sends: SendBatch
) -> np.ndarray:
    """Offsets of a batch of messages of any behaviours; ``+inf`` = silent.

    Groups ``faults`` by class and makes one
    :meth:`FaultBehavior.send_offsets` call per class, over that class's
    instances and messages.
    """
    classes: Dict[type, List[int]] = {}
    for i, fault in enumerate(faults):
        classes.setdefault(type(fault), []).append(i)
    if len(classes) == 1:
        (cls,) = classes
        return cls.send_offsets(faults, sends)
    kind = np.empty(len(faults), dtype=np.int64)
    local = np.empty(len(faults), dtype=np.int64)
    for c, members in enumerate(classes.values()):
        kind[members] = c
        local[members] = np.arange(len(members))
    out = np.empty(sends.owner.shape)
    message_kind = kind[sends.owner]
    for c, (cls, members) in enumerate(classes.items()):
        index = np.flatnonzero(message_kind == c)
        if index.size:
            out[index] = cls.send_offsets(
                [faults[i] for i in members], sends.take(index, local)
            )
    return out


def _column(faults: Sequence["FaultBehavior"], attr: str, sends: SendBatch):
    """Per-message values of an attribute of each message's behaviour."""
    return np.array([getattr(f, attr) for f in faults], dtype=float)[sends.owner]


class FaultBehavior(ABC):
    """Per-(pulse, successor) send-time policy of a faulty node."""

    @classmethod
    @abstractmethod
    def send_offsets(
        cls, faults: Sequence["FaultBehavior"], sends: SendBatch
    ) -> np.ndarray:
        """Offset from the correct time of every message; ``+inf`` = silent.

        ``faults`` are instances of ``cls``; message ``i`` of ``sends``
        is sent by ``faults[sends.owner[i]]``.
        """

    def send_time(
        self, context: FaultContext, successor: NodeId
    ) -> Optional[float]:
        """Time the pulse message leaves toward ``successor``; None = silent."""
        offset = float(
            type(self).send_offsets([self], SendBatch.single(context, successor))[0]
        )
        if offset == math.inf:
            return None
        return context.correct_time + offset

    def is_static(self) -> bool:
        """Whether the timing profile is identical across pulses.

        Static behaviours (Theorem 1.4's model: static faults and delay
        faults with a static timing profile) shift every pulse by the same
        per-successor offset relative to the correct schedule.
        """
        return False


class CrashFault(FaultBehavior):
    """Never sends anything."""

    @classmethod
    def send_offsets(cls, faults, sends):
        return np.full(sends.owner.shape, np.inf)

    def is_static(self) -> bool:
        return True


class SilentFromFault(FaultBehavior):
    """Behaves correctly before pulse ``start_pulse``, then crashes.

    Models the common "worked correctly, then a benign fault occurred"
    scenario discussed below Theorem 1.4.
    """

    def __init__(self, start_pulse: int) -> None:
        if start_pulse < 0:
            raise ValueError(f"start_pulse must be >= 0, got {start_pulse}")
        self.start_pulse = start_pulse

    @classmethod
    def send_offsets(cls, faults, sends):
        start = _column(faults, "start_pulse", sends)
        # -0.0, not 0.0: ``t + -0.0`` is ``t`` bit for bit, even for t = -0.0.
        return np.where(sends.pulse >= start, np.inf, -0.0)


class FixedOffsetFault(FaultBehavior):
    """Sends every pulse ``offset`` time away from the correct schedule.

    This is the "delay fault with a static timing profile" of Section 1:
    successors see a uniformly early (``offset < 0``) or late
    (``offset > 0``) pulse, with no change between pulses.
    """

    def __init__(self, offset: float) -> None:
        self.offset = offset

    @classmethod
    def send_offsets(cls, faults, sends):
        return _column(faults, "offset", sends)

    def is_static(self) -> bool:
        return True


class PerSuccessorOffsetFault(FaultBehavior):
    """Static but successor-dependent offsets (models faulty *edges*).

    The paper maps edge faults to node faults; a node whose outgoing edges
    have distinct static delay errors looks exactly like this behaviour.
    Successors not listed get the correct time (offset 0); ``None`` as an
    offset silences that edge.
    """

    def __init__(self, offsets: Dict[NodeId, Optional[float]]) -> None:
        self.offsets = dict(offsets)

    @classmethod
    def send_offsets(cls, faults, sends):
        sv, sl = sends.successor
        offsets = [
            faults[owner].offsets.get((v, layer), 0.0)
            for owner, v, layer in zip(
                sends.owner.tolist(), sv.tolist(), sl.tolist()
            )
        ]
        return np.array(
            [np.inf if offset is None else offset for offset in offsets],
            dtype=float,
        )

    def is_static(self) -> bool:
        return True


class ByzantineRandomFault(FaultBehavior):
    """Fresh random offset per pulse and per successor.

    The strongest behaviour inside the model when used sparingly: timing
    changes every pulse, so only a constant number of such nodes may be
    active per pulse (Corollary 1.5(i)).  The offset of the message from
    ``(v, l)`` to ``(sv, sl)`` in pulse ``k`` is the first
    ``uniform(-span, span)`` draw of
    ``default_rng(SeedSequence([seed & 0xFFFFFFFF, v, l, sv, sl, k]))``.
    """

    def __init__(self, span: float, seed: int = 0) -> None:
        if span < 0:
            raise ValueError(f"span must be >= 0, got {span}")
        self.span = span
        self.seed = seed

    @classmethod
    def send_offsets(cls, faults, sends):
        seeds = np.array([f.seed & _M32 for f in faults], dtype=np.uint64)
        span = _column(faults, "span", sends)
        words = [
            part.astype(np.uint64) & _M32
            for part in (*sends.node, *sends.successor, sends.pulse)
        ]
        return _first_uniform([seeds[sends.owner], *words], -span, span)


class AdversarialEarlyFault(FaultBehavior):
    """Sends ``lead * kappa`` before the correct schedule, every pulse."""

    def __init__(self, lead_kappas: float) -> None:
        if lead_kappas < 0:
            raise ValueError(f"lead_kappas must be >= 0, got {lead_kappas}")
        self.lead_kappas = lead_kappas

    @classmethod
    def send_offsets(cls, faults, sends):
        return -(_column(faults, "lead_kappas", sends) * sends.kappa)

    def is_static(self) -> bool:
        return True


class AdversarialLateFault(FaultBehavior):
    """Sends ``lag * kappa`` after the correct schedule, every pulse."""

    def __init__(self, lag_kappas: float) -> None:
        if lag_kappas < 0:
            raise ValueError(f"lag_kappas must be >= 0, got {lag_kappas}")
        self.lag_kappas = lag_kappas

    @classmethod
    def send_offsets(cls, faults, sends):
        return _column(faults, "lag_kappas", sends) * sends.kappa

    def is_static(self) -> bool:
        return True


class MutableFault(FaultBehavior):
    """Switches between behaviours on a pulse schedule.

    ``phases`` is a sequence of ``(start_pulse, behavior)`` with strictly
    increasing start pulses beginning at 0.  Used to exercise the
    "faulty nodes change their behaviour" budget of Corollary 1.5(i).
    """

    def __init__(self, phases: Sequence[Tuple[int, FaultBehavior]]) -> None:
        if not phases:
            raise ValueError("phases must be non-empty")
        starts = [start for start, _ in phases]
        if starts[0] != 0:
            raise ValueError("first phase must start at pulse 0")
        if any(s2 <= s1 for s1, s2 in zip(starts, starts[1:])):
            raise ValueError("phase start pulses must be strictly increasing")
        self.phases = list(phases)

    @classmethod
    def send_offsets(cls, faults, sends):
        # Every phase of every instance in one list; each message is
        # answered by its instance's last phase starting at or before
        # its pulse.
        phases = [behavior for f in faults for _, behavior in f.phases]
        counts = [len(f.phases) for f in faults]
        first = np.cumsum([0] + counts[:-1])
        starts = np.full((len(faults), max(counts)), np.iinfo(np.int64).max)
        for i, f in enumerate(faults):
            starts[i, : counts[i]] = [start for start, _ in f.phases]
        started = (starts[sends.owner] <= sends.pulse[:, None]).sum(axis=1)
        return send_offsets(
            phases, replace(sends, owner=first[sends.owner] + started - 1)
        )

    def changes_at(self, pulse: int) -> bool:
        """Whether this fault switches behaviour exactly at ``pulse``."""
        return any(start == pulse for start, _ in self.phases[1:])
