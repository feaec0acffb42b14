"""Samplers for per-node hardware clock rates and offsets.

All samplers are deterministic given a :class:`numpy.random.Generator` (or a
seed), which keeps every experiment reproducible.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional

import numpy as np

from repro.clocks.hardware import AffineClock, PiecewiseRateClock

__all__ = [
    "DrawnClocks",
    "constant_rates",
    "uniform_random_rates",
    "slowly_varying_clock",
]


def _as_rng(rng_or_seed) -> np.random.Generator:
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return np.random.default_rng(rng_or_seed)


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
    rng = _as_rng(rng_or_seed)
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
    rng = _as_rng(rng_or_seed)
    spread = vartheta - 1.0
    num_segments = max(1, int(np.ceil(horizon / segment_duration)))
    breakpoints: List[float] = [i * segment_duration for i in range(num_segments)]
    rate = float(rng.uniform(1.0, vartheta))
    rates: List[float] = [rate]
    for _ in range(num_segments - 1):
        step = float(rng.uniform(-1.0, 1.0)) * max_step_fraction * spread
        rate = min(max(rate + step, 1.0), vartheta)
        rates.append(rate)
    return PiecewiseRateClock(breakpoints, rates)
