"""Shared experiment scaffolding: configurations and factory helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from repro.clocks.drift import uniform_random_rates
from repro.core.fast import FastSimulation, RatePlane
from repro.core.layer0 import Layer0Schedule
from repro.delays.models import DelayModel, StaticDelayModel
from repro.faults.injection import FaultPlan
from repro.params import Parameters
from repro.topology.base_graph import replicated_line
from repro.topology.layered import LayeredGraph, NodeId

__all__ = ["ExperimentConfig", "standard_config"]

#: Salts separating the config-derived RNG streams.  Both streams hang off
#: ``SeedSequence([seed, salt])`` (like :meth:`ExperimentConfig.rng`), so
#: configs with adjacent seeds never share a delay or clock stream -- the
#: old ``seed``/``seed + 1`` derivation made seed ``s``'s clock stream
#: collide with seed ``s + 1``'s delay stream.
_DELAY_SALT = 101
_CLOCK_SALT = 202


@dataclass
class ExperimentConfig:
    """A fully specified simulation setup for one experimental cell.

    The default geometry follows the paper: the base graph is the
    replicated line of Figure 2 sized to diameter ``D`` and the grid has
    on the order of ``D`` layers (a square chip).

    ``clock_rates`` is a read-only :class:`~repro.core.fast.RatePlane`
    over the :func:`~repro.clocks.drift.uniform_random_rates` draws
    reshaped to ``(L, W)`` (the graph's node order is layer-major), so
    the stacked kernel reads it without a per-node loop.  Fresh configs
    of one diameter share their base graph's BFS and index arrays
    (:mod:`repro.topology.base_graph`).
    """

    diameter: int
    params: Parameters
    num_layers: int
    seed: int = 0
    num_pulses: int = 4

    graph: LayeredGraph = field(init=False)
    delay_model: DelayModel = field(init=False)
    clock_rates: Mapping[NodeId, float] = field(init=False)

    def __post_init__(self) -> None:
        base = replicated_line(self.diameter + 1)
        if base.diameter != self.diameter:
            raise AssertionError(
                f"replicated_line sizing is off: got D={base.diameter}, "
                f"wanted {self.diameter}"
            )
        self.graph = LayeredGraph(base, self.num_layers)
        delay_seed = int(
            np.random.SeedSequence([self.seed, _DELAY_SALT]).generate_state(1)[0]
        )
        self.delay_model = StaticDelayModel(
            self.params.d, self.params.u, seed=delay_seed
        )
        clocks = uniform_random_rates(
            self.graph.nodes(),
            self.params.vartheta,
            rng_or_seed=np.random.default_rng(
                np.random.SeedSequence([self.seed, _CLOCK_SALT])
            ),
        )
        self.clock_rates = RatePlane(
            clocks.rates.reshape(self.num_layers, base.num_nodes)
        )

    @property
    def num_grid_nodes(self) -> int:
        """Total node count ``n`` of the simulated grid."""
        return self.graph.num_nodes

    def simulation(
        self,
        fault_plan: Optional[FaultPlan] = None,
        layer0: Optional[Layer0Schedule] = None,
        **kwargs,
    ) -> FastSimulation:
        """A :class:`FastSimulation` over this configuration."""
        return FastSimulation(
            self.graph,
            self.params,
            delay_model=self.delay_model,
            clock_rates=self.clock_rates,
            fault_plan=fault_plan,
            layer0=layer0,
            **kwargs,
        )

    def rng(self, salt: int = 0) -> np.random.Generator:
        """Deterministic generator derived from the config seed."""
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, salt])
        )


def standard_config(
    diameter: int,
    seed: int = 0,
    num_layers: Optional[int] = None,
    num_pulses: int = 4,
    params: Optional[Parameters] = None,
) -> ExperimentConfig:
    """The default experimental cell: VLSI-flavored parameters, square-ish
    grid (``num_layers = diameter`` unless overridden)."""
    if params is None:
        params = Parameters(d=1.0, u=0.01, vartheta=1.001, Lambda=2.0)
    if num_layers is None:
        num_layers = max(diameter, 2)
    return ExperimentConfig(
        diameter=diameter,
        params=params,
        num_layers=num_layers,
        seed=seed,
        num_pulses=num_pulses,
    )
