"""The two stacks whose ``fault_sends`` are pinned by ``data/fault_sends.json``.

``python tests/fault_sends_grids.py`` (with ``PYTHONPATH=src``) prints the
JSON of both stacks' ``fault_sends``; the fixture is that output recorded
from the per-message implementation (one ``FaultBehavior.send_time``
call per message), which the array-valued recording must reproduce
bitwise.  Floats are stored as ``float.hex`` strings, silent sends as
``null``.
"""

import json

from repro.core.fast import FastSimulation
from repro.core.fast_batch import TrialStack
from repro.delays import StaticDelayModel
from repro.experiments.thm13_random_faults import thm13_trials
from repro.faults import (
    AdversarialEarlyFault,
    AdversarialLateFault,
    ByzantineRandomFault,
    ChaosCampaign,
    CrashFault,
    EdgeFlap,
    FaultPlan,
    FixedOffsetFault,
    MutableFault,
    NodeCrash,
    NodeJoin,
    NodeLeave,
    NodeRecover,
    PerSuccessorOffsetFault,
    SilentFromFault,
)
from repro.params import Parameters
from repro.topology import LayeredGraph, cycle_graph

THM13_DIAMETER = 8
THM13_SEEDS = [1, 2, 3, 4, 5, 6]
THM13_PULSES = 4

CAMPAIGN_PARAMS = Parameters(d=1.0, u=0.05, vartheta=1.01, Lambda=2.0)
CAMPAIGN_WIDTH = 6
CAMPAIGN_LAYERS = 5
CAMPAIGN_PULSES = 6


def thm13_results():
    """One materialized stack of a small thm13 grid (reference + plans)."""
    trials, _ = thm13_trials(THM13_DIAMETER, THM13_SEEDS, num_pulses=THM13_PULSES)
    return TrialStack([trial.simulation() for trial in trials]).run(THM13_PULSES)


def campaign_results():
    """One materialized stack of :func:`campaign_sims`."""
    return TrialStack(campaign_sims()).run(CAMPAIGN_PULSES)


def campaign_sims():
    """Crash/recover campaign trials over every behaviour class.

    Each trial's static plan mixes all shipped behaviours (Byzantine and
    a mutable fault switching into Byzantine and then silence among
    them), and its campaign crashes and recovers nodes -- with a
    Byzantine behaviour for one of them --, flaps an edge and lets a
    vertex leave and rejoin, so the successors of the faulty nodes
    change between epochs.
    """
    base = cycle_graph(CAMPAIGN_WIDTH)
    graph = LayeredGraph(base, CAMPAIGN_LAYERS)
    sims = []
    for seed in range(3):
        plan = FaultPlan.from_nodes(
            {
                (0, 0): ByzantineRandomFault(span=0.3, seed=seed),
                (3, 1): MutableFault(
                    [
                        (0, AdversarialEarlyFault(2.0 + seed)),
                        (2, ByzantineRandomFault(span=0.2, seed=7 + seed)),
                        (4, SilentFromFault(4)),
                    ]
                ),
                (1, 2): PerSuccessorOffsetFault({(2, 3): 0.25, (1, 3): None}),
                (4, 2): SilentFromFault(2 + seed),
                (2, 3): AdversarialLateFault(3.0),
                (5, 3): FixedOffsetFault(-0.1 * (seed + 1)),
                (0, 4): CrashFault(),
            }
        )
        campaign = ChaosCampaign(
            base,
            CAMPAIGN_LAYERS,
            events=[
                NodeCrash(pulse=1, node=(5, 1)),
                NodeRecover(pulse=3, node=(5, 1)),
                NodeCrash(
                    pulse=2,
                    node=(2, 1),
                    behavior=ByzantineRandomFault(span=0.5, seed=11 + seed),
                ),
                NodeRecover(pulse=4, node=(2, 1)),
                EdgeFlap(pulse=2, edge=(0, 1), down_pulses=2),
                NodeLeave(pulse=1, vertex=4),
                NodeJoin(pulse=3, vertex=4),
            ],
        )
        sims.append(
            FastSimulation(
                graph,
                CAMPAIGN_PARAMS,
                delay_model=StaticDelayModel(
                    CAMPAIGN_PARAMS.d, CAMPAIGN_PARAMS.u, seed=seed
                ),
                fault_plan=plan,
                campaign=campaign,
            )
        )
    return sims


def encode(fault_sends):
    """``fault_sends`` as sorted JSON rows ``[v, l, sv, sl, k, hex|null]``."""
    rows = []
    for ((v, layer), (sv, sl)), pulses in fault_sends.items():
        for k, send in pulses.items():
            rows.append(
                [v, layer, sv, sl, k, None if send is None else float(send).hex()]
            )
    return sorted(rows, key=lambda row: row[:5])


def record():
    """The fixture document: both stacks' encoded ``fault_sends``."""
    return {
        "thm13": [encode(result.fault_sends) for result in thm13_results()],
        "campaign": [encode(result.fault_sends) for result in campaign_results()],
    }


if __name__ == "__main__":
    print(json.dumps(record(), separators=(",", ":")))
