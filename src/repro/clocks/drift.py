"""Samplers for per-node hardware clock rates and offsets.

All samplers are deterministic given a :class:`numpy.random.Generator` (or a
seed), which keeps every experiment reproducible.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional

import numpy as np

from repro.clocks.hardware import AffineClock, PiecewiseRateClock

__all__ = [
    "DrawnClocks",
    "constant_rates",
    "uniform_random_rates",
    "slowly_varying_clock",
    "bounded_walk",
    "replayed_walk",
]


def bounded_walk(first: float, steps: np.ndarray, low: float, high: float) -> np.ndarray:
    """``first``, then each entry ``min(max(previous + step, low), high)``:
    bitwise that scalar loop in Python floats, returned read-only."""
    walk = [first]
    for step in steps.tolist():
        first += step  # clipped as min(max(...)) would, without the calls
        if first < low:
            first = low
        elif first > high:
            first = high
        walk.append(first)
    out = np.array(walk, dtype=float)
    out.setflags(write=False)
    return out


def replayed_walk(memo: dict, key: Hashable, index: int, rng_of: Callable[[], np.random.Generator],
                  low: float, high: float, max_step: float) -> np.ndarray:
    """A read-only prefix, past ``index``, of the walk ``uniform(low, high)``
    then ``uniform(-max_step, max_step)`` steps drawn from ``rng_of()``, a
    fresh generator seeded by the walk's identity ``key``.  ``memo[key]``
    keeps one prefix; a query past its end replays the walk (its steps in
    one draw, bitwise the scalar draws) into one at least twice as long.
    """
    walk = memo.get(key)
    if walk is None or len(walk) <= index:
        # A replay costs mostly its generator's setup: the first covers a short run.
        length = max(index + 1, 16 if walk is None else 2 * len(walk))
        rng = rng_of()
        first = float(rng.uniform(low, high))
        steps = rng.uniform(-max_step, max_step, length - 1)
        walk = memo[key] = bounded_walk(first, steps, low, high)
    return walk


class DrawnClocks(Mapping[Hashable, AffineClock]):
    """Read-only ``node -> AffineClock`` mapping over drawn arrays.

    ``rates`` and ``offsets`` are read-only float arrays in the order of
    ``nodes``; each :class:`~repro.clocks.hardware.AffineClock` is built
    only when looked up, so bulk consumers (experiment configs) read the
    arrays and never build one object per node.
    """

    __slots__ = ("nodes", "rates", "offsets", "_index")

    def __init__(
        self, nodes: tuple, rates: np.ndarray, offsets: np.ndarray
    ) -> None:
        for arr in (rates, offsets):
            arr.setflags(write=False)
        self.nodes = nodes
        self.rates = rates
        self.offsets = offsets
        self._index: Optional[Dict[Hashable, int]] = None

    def __getitem__(self, node: Hashable) -> AffineClock:
        if self._index is None:
            self._index = {n: i for i, n in enumerate(self.nodes)}
        i = self._index[node]
        return AffineClock(
            rate=float(self.rates[i]), offset=float(self.offsets[i])
        )

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


def constant_rates(
    nodes: Iterable[Hashable], rate: float = 1.0
) -> Dict[Hashable, AffineClock]:
    """Identical drift-free clocks (useful as an idealized control)."""
    return {node: AffineClock(rate=rate) for node in nodes}


def uniform_random_rates(
    nodes: Iterable[Hashable],
    vartheta: float,
    rng_or_seed=0,
    offset_span: float = 0.0,
) -> DrawnClocks:
    """Independent rates uniform in ``[1, vartheta]``; optional random offsets.

    The paper assumes no known phase relation between hardware clocks, so
    ``offset_span > 0`` draws offsets uniformly from ``[0, offset_span]``.

    Draws are taken in bulk but in the order of one ``uniform`` call per
    rate (then per offset) node by node, so the values are bitwise those
    of the sequential scalar draws.  The result is a read-only
    :class:`DrawnClocks` mapping: its ``rates`` / ``offsets`` arrays hold
    the draws in node order, and a node's clock is built on lookup.
    """
    if vartheta < 1:
        raise ValueError(f"vartheta must be >= 1, got {vartheta}")
    rng = np.random.default_rng(rng_or_seed)  # a Generator as-is
    nodes = tuple(nodes)
    n = len(nodes)
    if offset_span > 0:
        # Rate and offset draws interleave: even doubles are rates, odd
        # ones offsets, each scaled exactly as ``uniform`` scales it.
        draws = rng.random(2 * n)
        rates = 1.0 + (float(vartheta) - 1.0) * draws[0::2]
        offsets = 0.0 + float(offset_span) * draws[1::2]
    else:
        rates = rng.uniform(1.0, vartheta, size=n)
        offsets = np.zeros(n)
    return DrawnClocks(nodes, rates, offsets)


def slowly_varying_clock(
    vartheta: float,
    horizon: float,
    segment_duration: float,
    max_step_fraction: float,
    rng_or_seed=0,
) -> PiecewiseRateClock:
    """A clock whose rate performs a bounded random walk in ``[1, vartheta]``.

    Per segment of ``segment_duration`` real time, the rate moves by at most
    ``max_step_fraction * (vartheta - 1)``.  This models Corollary 1.5(iii):
    hardware clock speeds varying by ``n^{-1/2} (vartheta - 1) log D`` per
    pulse.
    """
    if vartheta < 1:
        raise ValueError(f"vartheta must be >= 1, got {vartheta}")
    if horizon <= 0 or segment_duration <= 0:
        raise ValueError("horizon and segment_duration must be positive")
    rng = np.random.default_rng(rng_or_seed)  # a Generator as-is
    spread = vartheta - 1.0
    num_segments = max(1, int(np.ceil(horizon / segment_duration)))
    breakpoints: List[float] = [i * segment_duration for i in range(num_segments)]
    first = float(rng.uniform(1.0, vartheta))
    steps = rng.uniform(-1.0, 1.0, size=num_segments - 1) * max_step_fraction * spread
    return PiecewiseRateClock(breakpoints, bounded_walk(first, steps, 1.0, vartheta).tolist())
