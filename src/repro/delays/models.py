"""Delay model implementations.

A delay model answers "what is the delay of edge ``e`` for pulse ``k``?".
Edges are pairs of :data:`~repro.topology.layered.NodeId`.  All models are
deterministic functions of their seed and the edge identity -- the sampled
delay never depends on query order, so the event-driven and fast simulators
see identical executions.

Models whose ``array_endpoints`` flag is set also take a whole block of
edges in one call: ``delay(((v1, l1), (v2, l2)), k)`` with ndarray parts
(broadcast together; scalar parts, strings included, stand for every
edge) returns the array of the per-edge delays.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.clocks.drift import replayed_walk
from repro.topology.layered import NodeId

__all__ = [
    "DelayModel",
    "UniformDelayModel",
    "StaticDelayModel",
    "AdversarialSplitDelays",
    "VaryingDelayModel",
]

Edge = Tuple[NodeId, NodeId]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
# PCG64's default 128-bit LCG multiplier as (high, low) 64-bit words.
_PCG_MULT_HI = 0x2360ED051FC65DA4
_PCG_MULT_LO = 0x4385DF649FCCF645


def _hash_consts(init: int, mult: int, count: int) -> List[Tuple[int, int]]:
    """``(xor, multiplier)`` of each successive SeedSequence hash step.

    The hash constant evolves independently of the data, so the whole
    sequence is fixed up front.
    """
    out = []
    const = init
    for _ in range(count):
        nxt = (const * mult) & _M32
        out.append((const, nxt))
        const = nxt
    return out


@lru_cache(maxsize=None)
def _mix_consts(num_words: int) -> Tuple[Tuple[int, int], ...]:
    """Mixing-hash constants of ``num_words`` entropy words: 4 pool
    fills, 12 cross-mixes, and 4 mixes of every word past the fourth."""
    count = 4 + 12 + 4 * max(0, num_words - _POOL_SIZE)
    return tuple(_hash_consts(_INIT_A, _MULT_A, count))


_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


def _entropy_word(value) -> int:
    """Stable non-negative 32-bit word from an int or string node part."""
    if isinstance(value, int):
        return value & 0xFFFFFFFF
    return zlib.crc32(repr(value).encode())


def _entropy_words(part):
    """:func:`_entropy_word` of a node part, elementwise for an ndarray.

    Array parts must hold integers.  They come back at least 1-d: NumPy
    operations on 0-d arrays return scalars, whose wrapping arithmetic
    warns.
    """
    if not isinstance(part, np.ndarray):
        return _entropy_word(part)
    if part.dtype.kind not in "biu":
        raise TypeError(f"array node parts must be integers, got {part.dtype}")
    return np.atleast_1d(part).astype(np.uint64) & _M32


def _hashmix(value, consts):
    xor, mult = consts
    value = ((value ^ xor) * mult) & _M32
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return result ^ (result >> 16)


def _mul_hi64(a, b_lo: int, b_hi: int):
    """High 64 bits of ``a * b`` for 64-bit ``a`` and ``b = b_hi:b_lo``
    (32-bit halves), exact in uint64 arithmetic."""
    a_lo = a & _M32
    a_hi = a >> 32
    p00 = a_lo * b_lo
    p01 = a_lo * b_hi
    p10 = a_hi * b_lo
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a_hi * b_hi + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step ``state * MULT + inc`` mod 2**128 on word pairs."""
    new_hi = (
        _mul_hi64(lo, _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32)
        + lo * _PCG_MULT_HI
        + hi * _PCG_MULT_LO
    ) & _M64
    new_lo = (lo * _PCG_MULT_LO) & _M64
    out_lo = (new_lo + inc_lo) & _M64
    carry = out_lo < new_lo
    return (new_hi + inc_hi + carry) & _M64, out_lo


def _first_uniform(entropy, low, high):
    """``default_rng(SeedSequence(entropy)).uniform(low, high)``, bitwise.

    Replays numpy's pipeline on any number of 32-bit entropy words:
    SeedSequence hashmix/mix into a 4-word pool (hashing zeros past the
    last word when there are fewer than four), ``generate_state(4,
    uint64)``, PCG64 seeding, one XSL-RR ``next64`` and the 53-bit
    double.  Every word is either a Python int (one draw) or a uint64
    ndarray (a block of draws): the operations are the same and masked
    to the word width, so the block and the single draw agree bit for
    bit.  ``low``/``high`` may be floats or arrays broadcasting with the
    block.
    """
    mix_consts = iter(_mix_consts(len(entropy)))
    pool = [
        _hashmix(entropy[i] if i < len(entropy) else 0, next(mix_consts))
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(mix_consts)))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, next(mix_consts)))
    # generate_state(4, uint64): 8 words cycling the pool, paired
    # little-endian into 64-bit words.
    state32 = [
        _hashmix(pool[i % _POOL_SIZE], consts)
        for i, consts in enumerate(_STATE_CONSTS)
    ]
    seed = [state32[2 * i] | (state32[2 * i + 1] << 32) for i in range(4)]
    # PCG64 seeding: state = seed[0]:seed[1], inc = (seed[2]:seed[3]) << 1 | 1.
    inc_hi = ((seed[2] << 1) & _M64) | (seed[3] >> 63)
    inc_lo = ((seed[3] << 1) & _M64) | 1
    hi, lo = inc_hi, inc_lo  # first step from the zero state
    lo_sum = (lo + seed[1]) & _M64
    hi = (hi + seed[0] + (lo_sum < lo)) & _M64
    hi, lo = _pcg_step(hi, lo_sum, inc_hi, inc_lo)
    # next64: step, then the XSL-RR output rotr(hi ^ lo, hi >> 58).
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    x = hi ^ lo
    rot = hi >> 58
    x = (x >> rot) | ((x << ((64 - rot) & 63)) & _M64)
    if isinstance(x, np.ndarray):
        x = (x >> 11).astype(np.float64)
    else:
        x = x >> 11
    return low + (high - low) * (x * (1.0 / 9007199254740992.0))


def _edge_shape(edge) -> Optional[Tuple[int, ...]]:
    """Broadcast shape of an edge's ndarray node parts; None for a single
    edge (of any form: the engine's tests use plain labels)."""
    parts = [
        part.shape
        for end in edge
        if isinstance(end, tuple)
        for part in end
        if isinstance(part, np.ndarray)
    ]
    return np.broadcast_shapes(*parts) if parts else None


def _edge_rng(seed: int, edge: Edge) -> np.random.Generator:
    """A fresh generator seeded by ``seed`` and the edge identity."""
    (v1, l1), (v2, l2) = edge
    entropy = [seed & 0xFFFFFFFF] + [
        _entropy_word(part) for part in (v1, l1, v2, l2)
    ]
    return np.random.default_rng(np.random.SeedSequence(entropy))


class DelayModel(ABC):
    """Maps ``(edge, pulse_index)`` to an end-to-end delay.

    ``pulse_invariant`` declares that ``delay(edge, k)`` does not depend on
    ``k``; the vectorized fast-simulator sweep then caches per-layer delay
    arrays across pulses.  It defaults to False so custom subclasses stay
    correct without opting in.

    ``array_endpoints`` declares that :meth:`delay` also accepts
    array-valued endpoints ``((v1, l1), (v2, l2))`` with ndarray parts and
    returns the per-edge delays of the whole block, each bitwise equal to
    the single-edge query.  The vectorized sweep then gathers the edges of
    many layers (a small trial's every layer, layer parts as int64
    arrays) in one call instead of one Python call per edge.  It defaults
    to False; such models are gathered edge by edge.

    A model is read-only once built: a function of its constructor
    arguments, the edge identity and (unless ``pulse_invariant``) the
    pulse, holding no ``Generator``.  Queries only fill two memos with
    whole values never mutated: ``_cache`` (per edge: an answer or a walk
    prefix) and ``_edge_array_cache`` (the per-layer delay *arrays* the
    stacked layer step gathers, keyed by the querying graph's edge
    structure, so reruns over one model gather nothing).  So concurrent
    runs may share a model, and it pickles without its memos, to bytes
    that depend only on its constructor arguments.  Replace a model
    rather than mutating its state to get different delays.
    """

    pulse_invariant = False
    array_endpoints = False

    def __init__(self, d: float, u: float) -> None:
        if d <= 0:
            raise ValueError(f"d must be positive, got {d}")
        if not 0 <= u <= d:
            raise ValueError(f"u must lie in [0, d], got {u}")
        self.d = d
        self.u = u
        self._edge_array_cache: Dict[object, Dict] = {}
        self._cache: Dict[Edge, object] = {}

    def __getstate__(self) -> dict:
        """Pickle without memos: a copy gathers (or, in a pool worker,
        looks up) its own arrays."""
        return {**self.__dict__, "_edge_array_cache": {}, "_cache": {}}

    @abstractmethod
    def delay(self, edge: Edge, pulse: int = 0) -> float:
        """Delay applied to pulse ``pulse`` on ``edge``; in ``[d - u, d]``."""

    def pulse_delays(self, edge: Edge, pulses: range):
        """:meth:`delay` of ``edge`` for every pulse of ``pulses``: one
        delay standing for all on a pulse-invariant model, else an array."""
        if self.pulse_invariant:
            return self.delay(edge)
        return np.array([self.delay(edge, k) for k in pulses], dtype=float)


class UniformDelayModel(DelayModel):
    """Every edge has the same fixed delay (default: the midpoint)."""

    pulse_invariant = True
    array_endpoints = True

    def __init__(self, d: float, u: float, value: float | None = None) -> None:
        super().__init__(d, u)
        if value is None:
            value = d - u / 2.0
        if not d - u <= value <= d:
            raise ValueError(f"value {value} outside [d-u, d]=[{d - u}, {d}]")
        self.value = value

    def delay(self, edge: Edge, pulse: int = 0):
        shape = _edge_shape(edge)
        if shape is None:
            return self.value
        return np.full(shape, float(self.value))


class StaticDelayModel(DelayModel):
    """Independent per-edge delays, uniform in ``[d - u, d]``, fixed forever.

    This is the paper's baseline communication model: "each edge has an
    unknown, but fixed associated delay".  Edge ``e``'s delay is the first
    draw of ``default_rng(SeedSequence([seed, v1, l1, v2, l2]))`` (node
    parts as 32-bit words, see :func:`_edge_rng`); a block of edges --
    the vectorized sweep passes a whole trial's layers at once -- is
    sampled in one vectorized replay of that pipeline
    (:func:`_first_uniform`), bitwise equal to the per-edge draws.
    """

    pulse_invariant = True
    array_endpoints = True

    def __init__(self, d: float, u: float, seed: int = 0) -> None:
        super().__init__(d, u)
        self.seed = seed

    def _sample(self, edge):
        (v1, l1), (v2, l2) = edge
        entropy = [self.seed & _M32] + [
            _entropy_words(part) for part in (v1, l1, v2, l2)
        ]
        return _first_uniform(entropy, float(self.d - self.u), float(self.d))

    def delay(self, edge: Edge, pulse: int = 0):
        shape = _edge_shape(edge)
        if shape is not None:
            return self._sample(edge).reshape(shape)
        if edge not in self._cache:
            self._cache[edge] = self._sample(edge)
        return self._cache[edge]


class AdversarialSplitDelays(DelayModel):
    """Delays chosen by a classifier: ``d`` on "slow" edges, ``d - u`` else.

    Reproduces the worst-case assignment of Figure 1 (left), where one flank
    of the grid runs at maximum delay and the other at minimum, piling up
    ``Theta(u * D)`` of skew under naive TRIX forwarding.
    """

    pulse_invariant = True

    def __init__(
        self,
        d: float,
        u: float,
        slow_edge: Callable[[Edge], bool],
    ) -> None:
        super().__init__(d, u)
        self._slow_edge = slow_edge

    def delay(self, edge: Edge, pulse: int = 0) -> float:
        return self.d if self._slow_edge(edge) else self.d - self.u


class VaryingDelayModel(DelayModel):
    """Static base delays plus a bounded per-pulse random walk.

    Models Corollary 1.5(ii): link delays varying by up to
    ``max_step`` between consecutive pulses, always clipped to
    ``[d - u, d]``.  An edge's walk starts at ``uniform(d - u, d)``, all
    its draws from :func:`_edge_rng` (:func:`~repro.clocks.drift.replayed_walk`).
    """

    def __init__(
        self, d: float, u: float, max_step: float, seed: int = 0
    ) -> None:
        super().__init__(d, u)
        if max_step < 0:
            raise ValueError(f"max_step must be >= 0, got {max_step}")
        self.max_step = max_step
        self.seed = seed

    def delay(self, edge: Edge, pulse: int = 0) -> float:
        if pulse < 0:
            raise ValueError(f"pulse must be >= 0, got {pulse}")
        return float(self.pulse_delays(edge, range(pulse, pulse + 1))[0])

    def pulse_delays(self, edge: Edge, pulses: range) -> np.ndarray:
        return replayed_walk(
            self._cache, edge, pulses.stop - 1, lambda: _edge_rng(self.seed, edge),
            self.d - self.u, self.d, self.max_step,
        )[pulses.start: pulses.stop]
