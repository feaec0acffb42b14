"""Differential harness: every execution path against every other.

The fast family has grown many layers -- per-trial runs (stacks of one),
homogeneous trial stack, padded heterogeneous stack, and the
depth-compacted stack -- each promising bit-identical output to the
previous one, with the per-cell scalar reference and the slow
event-driven ``engine/`` simulator as independent checks underneath all
of them.  This module pins the
whole tower with one shared helper: a hypothesis-drawn scenario
(topology, depth, delays, clock rates, layer-0 schedule, fault plan) is
run through every path, asserting

* **bitwise agreement within the vectorized fast family** (per-trial ==
  homogeneous stack == padded heterogeneous stack == compacted stack --
  they evaluate the same NumPy expressions, so any drift is a bug),
* **1e-9 agreement with the scalar reference** (every cell resolved by
  the per-cell scalar rule behind the fallback seam,
  :func:`~tests.test_fast_sim.scalar_reference`: same arithmetic,
  different association), and
* **1e-9 agreement with the event-driven engine** (independent
  event-queue execution; Lemma B.1 guarantees the pulse alignment), and
* **bitwise agreement of the streaming reducers** (``store_times=False``
  runs that never materialize the pulse-time block): every scenario also
  replays through the streamed per-trial, scalar, padded, and compacted
  paths, and the online skew and correction folds must equal the
  array reducers applied to the materialized reference exactly, and
* **bitwise agreement on skewed degrees and compacted lanes**:
  hub-skewed sparse scenarios replay stacked and through the all-cell
  fallback against their own per-trial run, and the width-axis lane
  compaction against the lane-padded stack -- both must reproduce the
  reference exactly, and
* **bitwise agreement across pulse blocks**: the stack advances several
  pulses per layer step; one pulse per block, the default blocks and
  the whole horizon in one block (split only at campaign epoch entries)
  must agree exactly, with equal row, lane and fallback counters, and
* **dynamic adjacency** (:class:`~repro.faults.campaign.ChaosCampaign`):
  every scenario is additionally run under a hypothesis-drawn churn
  campaign -- leaves, joins, edge flaps, crashes, regional outages --
  with the whole vectorized family again pinned bitwise and the engine
  pinned at 1e-9 through *per-epoch stitching*: by Lemma B.1 pulse ``k``
  depends only on pulse ``k`` of the layer below, so a dynamic run
  equals, pulse for pulse, a static engine run on that pulse's
  instantaneous graph; we replay the engine once per campaign epoch and
  take each epoch's own rows as the ground-truth reference.

The stacking decoys deliberately disagree with the scenario in width
*and* depth, so the padding and compaction machinery is engaged on every
example, never just the degenerate all-uniform case.
"""

from types import SimpleNamespace
import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.core.fast_batch as fast_batch_mod
from repro.analysis.skew import (
    global_skew_layers,
    inter_layer_skew_layers,
    local_skew_layers,
    times_from_trace,
)
from repro.analysis.streaming import fold_correction_planes
from repro.clocks import uniform_random_rates
from repro.core.correction import PAPER_POLICY, CorrectionPolicy
from repro.core.fast import (
    BRANCH_CODES,
    FastSimulation,
    _fallback_replay,
    _scalar_replay,
)
from repro.core.fast_batch import (
    TrialStack,
    _StackedParams,
    _StackedPolicy,
    stack_compatibility,
)
from repro.core.layer0 import (
    AlternatingLayer0,
    ChainLayer0,
    JitteredLayer0,
    PerfectLayer0,
)
from repro.core.network_sim import GridSimulation
from repro.delays.models import (
    StaticDelayModel,
    UniformDelayModel,
    VaryingDelayModel,
)
from repro.faults.campaign import (
    ChaosCampaign,
    EdgeDown,
    EdgeFlap,
    NodeCrash,
    NodeJoin,
    NodeLeave,
    NodeRecover,
    RegionalOutage,
)
from repro.faults.injection import FaultPlan
from repro.faults.model import (
    AdversarialLateFault,
    CrashFault,
    FixedOffsetFault,
    SilentFromFault,
)
from repro.params import Parameters
from repro.topology.base_graph import (
    complete_graph,
    cycle_graph,
    replicated_line,
)
from repro.topology.layered import LayeredGraph
from repro.topology.sparse import sparse_base_graph
from tests.test_fast_sim import scalar_reference

NUM_PULSES = 3

PARAMS_CHOICES = (
    Parameters(d=1.0, u=0.01, vartheta=1.001, Lambda=2.0),
    Parameters(d=1.0, u=0.05, vartheta=1.01, Lambda=2.5),
)

FAMILY_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# The engine replays every message through the event queue; keep its leg
# of the harness on fewer, smaller examples.
ENGINE_SETTINGS = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def layered_graphs(draw):
    """A small layered grid: a line, cycle or complete graph, 2-4 layers."""
    kind = draw(st.sampled_from(["line", "cycle", "complete"]))
    if kind == "line":
        base = replicated_line(draw(st.integers(2, 5)))
    elif kind == "cycle":
        base = cycle_graph(draw(st.integers(3, 7)))
    else:
        base = complete_graph(draw(st.integers(3, 5)))
    return LayeredGraph(base, draw(st.integers(2, 4)))


def random_fault(rng, params):
    """A crash, late or fixed-offset fault behaviour drawn from ``rng``."""
    roll = rng.random()
    if roll < 0.4:
        return CrashFault()
    if roll < 0.7:
        return AdversarialLateFault(float(rng.uniform(0.5, 0.9 * params.Lambda)))
    return FixedOffsetFault(float(rng.uniform(0.05, 0.4)))


@st.composite
def scenarios(draw):
    """One engine-compatible cell: geometry, delays, rates, layer 0, faults.

    Engine-compatible means constant-rate clocks and pulse-invariant
    delays (the event/fast coupling requires both); every fast-family
    path accepts strictly more, so one strategy serves the whole harness.
    Late-fault magnitudes stay below one pulse period ``Lambda``: the
    engine comparison leans on Lemma B.1's pulse alignment, and a
    message several periods late shifts the receiver's firing count so
    ``times_from_trace`` pairs engine pulses against the wrong ``k``
    (observed empirically from ~3.5 Lambda).  The vectorized fast family
    stays bitwise-pinned against itself for arbitrary magnitudes.
    """
    graph = draw(layered_graphs())
    base, num_layers = graph.base, graph.num_layers
    params = draw(st.sampled_from(PARAMS_CHOICES))
    seed = draw(st.integers(0, 2**16))

    if draw(st.booleans()):
        delay_model = StaticDelayModel(params.d, params.u, seed=seed)
    else:
        delay_model = UniformDelayModel(params.d, params.u)

    layer0_kind = draw(
        st.sampled_from(["perfect", "jittered", "alternating", "chain"])
    )
    if layer0_kind == "perfect":
        layer0 = PerfectLayer0(params.Lambda)
    elif layer0_kind == "jittered":
        layer0 = JitteredLayer0(
            params.Lambda, base.num_nodes, params.kappa / 2.0, seed=seed
        )
    elif layer0_kind == "alternating":
        layer0 = AlternatingLayer0(params.Lambda, params.kappa)
    else:
        layer0 = ChainLayer0(
            params,
            list(base.nodes()),
            delay_model=StaticDelayModel(params.d, params.u, seed=seed + 7),
        )

    clocks = uniform_random_rates(
        list(graph.nodes()), params.vartheta, rng_or_seed=seed + 1
    )
    rates = {node: clock.rate for node, clock in clocks.items()}

    fault_plan = None
    num_faults = draw(st.integers(0, 2))
    if num_faults:
        rng = np.random.default_rng(seed + 2)
        behaviors = {}
        for _ in range(num_faults):
            node = (
                int(rng.integers(base.num_nodes)),
                int(rng.integers(num_layers)),
            )
            behaviors[node] = random_fault(rng, params)
        fault_plan = FaultPlan.from_nodes(behaviors)

    return {
        "graph": graph,
        "params": params,
        "delay_model": delay_model,
        "layer0": layer0,
        "clocks": clocks,
        "rates": rates,
        "fault_plan": fault_plan,
    }


#: Horizon of the dynamic-adjacency legs: room for churn plus recovery.
CAMPAIGN_PULSES = 5


@st.composite
def campaigns(draw, base, num_layers):
    """A churn campaign over ``base`` with at least one in-horizon event.

    Half the examples come from the seeded sustained-churn sampler the
    thm16 experiment uses (:meth:`ChaosCampaign.random`); the rest are
    directly drawn event lists covering the corners the sampler avoids
    on purpose -- layer-0 crashes, leaves that never rejoin, edges that
    stay down, overlapping regional outages.  Isolating a survivor is
    fine: both simulators silence a degree-0 cell's layers identically.
    """
    if draw(st.booleans()):
        campaign = ChaosCampaign.random(
            base,
            num_layers,
            churn_pulses=CAMPAIGN_PULSES - 1,
            rng_or_seed=draw(st.integers(0, 2**16)),
            event_rate=1.0,
        )
        if campaign.events:
            return campaign
    edges = sorted(base.edges)
    events = []
    for _ in range(draw(st.integers(1, 3))):
        pulse = draw(st.integers(1, CAMPAIGN_PULSES - 1))
        kind = draw(
            st.sampled_from(["crash", "leave", "flap", "down", "outage"])
        )
        if kind == "crash":
            node = (
                draw(st.integers(0, base.num_nodes - 1)),
                draw(st.integers(0, num_layers - 1)),
            )
            events.append(NodeCrash(pulse=pulse, node=node))
            if draw(st.booleans()):
                events.append(
                    NodeRecover(
                        pulse=pulse + draw(st.integers(1, 2)), node=node
                    )
                )
        elif kind == "leave":
            vertex = draw(st.integers(0, base.num_nodes - 1))
            events.append(NodeLeave(pulse=pulse, vertex=vertex))
            if draw(st.booleans()):
                events.append(
                    NodeJoin(
                        pulse=pulse + draw(st.integers(1, 2)), vertex=vertex
                    )
                )
        elif kind == "flap":
            events.append(
                EdgeFlap(
                    pulse=pulse,
                    edge=draw(st.sampled_from(edges)),
                    down_pulses=draw(st.integers(1, 2)),
                )
            )
        elif kind == "down":
            events.append(
                EdgeDown(pulse=pulse, edge=draw(st.sampled_from(edges)))
            )
        else:
            events.append(
                RegionalOutage(
                    pulse=pulse,
                    center=draw(st.integers(0, base.num_nodes - 1)),
                    radius=1,
                    duration=draw(st.integers(1, 2)),
                    kind=draw(st.sampled_from(["crash", "leave"])),
                )
            )
    return ChaosCampaign(base, num_layers, events)


def fast_simulation(scenario, algorithm="full"):
    """A fresh FastSimulation realizing ``scenario`` (rebuild per path)."""
    return FastSimulation(
        scenario["graph"],
        scenario["params"],
        delay_model=scenario["delay_model"],
        clock_rates=scenario["rates"],
        fault_plan=scenario["fault_plan"],
        layer0=scenario["layer0"],
        algorithm=algorithm,
    )


def uncompacted():
    """Patch the stack's row/lane selection to the full plane.

    The stack always compacts; the identity selection is the test seam
    that recovers the padded, uncompacted plane for a differential leg.
    """
    return mock.patch.object(
        fast_batch_mod,
        "_select_cells",
        lambda *args: (slice(None), slice(None)),
    )


def lanes_uncompacted():
    """Patch the selection to compact rows only, never lanes."""
    select = fast_batch_mod._select_cells
    return mock.patch.object(
        fast_batch_mod,
        "_select_cells",
        lambda layer, depths, dead, prev, lane_needed: select(
            layer, depths, dead, prev, None
        ),
    )


def all_fallback():
    """Patch the kernel's accepted cells to none.

    Every active cell of every layer step then goes through the
    stack-wide fallback's batched replay.
    """
    return mock.patch.object(fast_batch_mod, "_kernel_cells", np.zeros_like)


def one_pulse_blocks():
    """Patch the pulse-block rule to one pulse per block.

    The stack picks its pulse blocks with one private rule; one pulse
    per block is the test seam that recovers the per-pulse layer step
    for a differential leg.
    """
    return mock.patch.object(
        fast_batch_mod,
        "_pulse_blocks",
        lambda num_pulses, num_layers, plane_cells, starts=(): [
            (k, k + 1) for k in range(num_pulses)
        ],
    )


def whole_horizon_blocks():
    """Patch the pulse-block rule to one block per campaign epoch span.

    Static runs then advance the whole horizon in one block; campaign
    runs still split their blocks where some trial enters an epoch.
    """

    def blocks(num_pulses, num_layers, plane_cells, starts=()):
        cuts = sorted({0, num_pulses, *(k for k in starts if 0 < k < num_pulses)})
        return list(zip(cuts, cuts[1:]))

    return mock.patch.object(fast_batch_mod, "_pulse_blocks", blocks)


def _decoy(scenario, num_layers, algorithm):
    """A stack mate with different width *and* depth than the scenario.

    Forces the padded gather tensors (mixed width) and, in the compacted
    stack, a non-trivial active-row schedule (mixed depth) on every
    example.
    """
    width = scenario["graph"].width
    base = cycle_graph(width + 2 if width >= 3 else 5)
    params = scenario["params"]
    return FastSimulation(
        LayeredGraph(base, num_layers),
        params,
        delay_model=StaticDelayModel(params.d, params.u, seed=1234),
        layer0=PerfectLayer0(params.Lambda),
        algorithm=algorithm,
    )


def run_fast_family(scenario, algorithm="full"):
    """The scenario's result on every fast path, plus the scalar reference.

    Returns ``{path_name: FastResult}``; each stack rebuilds its own
    simulations, so no state leaks between paths.
    """
    family = {"per_trial": fast_simulation(scenario, algorithm).run(NUM_PULSES)}

    twins = [fast_simulation(scenario, algorithm) for _ in range(2)]
    assert stack_compatibility(twins) is None
    family["homogeneous_stack"] = TrialStack(twins).run(NUM_PULSES)[0]

    depth = scenario["graph"].num_layers
    padded = [fast_simulation(scenario, algorithm), _decoy(scenario, depth + 2, algorithm)]
    with uncompacted():
        family["padded_stack"] = TrialStack(padded).run(NUM_PULSES)[0]

    # Compaction must engage from both sides: the scenario outlived by a
    # deeper decoy, and the scenario outliving a shallower one.
    deep = TrialStack(
        [fast_simulation(scenario, algorithm), _decoy(scenario, depth + 3, algorithm)],
    )
    family["compacted_stack_deep_mate"] = deep.run(NUM_PULSES)[0]
    assert (
        deep.compaction_stats["active_row_steps"]
        < deep.compaction_stats["padded_row_steps"]
    )
    shallow = TrialStack(
        [fast_simulation(scenario, algorithm), _decoy(scenario, 1, algorithm)],
    )
    family["compacted_stack_shallow_mate"] = shallow.run(NUM_PULSES)[0]
    # The depth-1 decoy is also the *wider* mate, so once it retires the
    # scenario's surviving rows drop the decoy's extra lanes: the width
    # axis must actually engage here, never silently no-op.  Pin the
    # lane-compacted leg above against the same stack with only rows
    # compacted.
    stats = shallow.compaction_stats
    assert stats["active_lane_steps"] < stats["padded_lane_steps"], stats
    with lanes_uncompacted():
        family["lane_padded_shallow_mate"] = TrialStack(
            [fast_simulation(scenario, algorithm), _decoy(scenario, 1, algorithm)],
        ).run(NUM_PULSES)[0]

    # Pulse blocks: one pulse per block and the whole horizon in one
    # block, alone and next to a shallower, wider mate (rows and lanes
    # compacted across the block's pulses).
    with one_pulse_blocks():
        family["one_pulse_blocks"] = fast_simulation(scenario, algorithm).run(
            NUM_PULSES
        )
    with whole_horizon_blocks():
        family["whole_horizon_block"] = fast_simulation(
            scenario, algorithm
        ).run(NUM_PULSES)
        family["whole_horizon_shallow_mate"] = TrialStack(
            [fast_simulation(scenario, algorithm), _decoy(scenario, 1, algorithm)],
        ).run(NUM_PULSES)[0]

    with scalar_reference():
        family["scalar"] = fast_simulation(scenario, algorithm).run(NUM_PULSES)
    return family


def run_streaming_family(scenario, algorithm="full"):
    """Streamed (``store_times=False``) twins of every fast path.

    Same construction as :func:`run_fast_family` -- per-trial, padded
    stack, compacted stack from both depth sides, scalar -- but with the
    pulse-time block never materialized; statistics come back only
    through the streamed accumulators.
    """
    kwargs = dict(store_times=False)
    family = {
        "per_trial": fast_simulation(scenario, algorithm).run(
            NUM_PULSES, **kwargs
        )
    }
    depth = scenario["graph"].num_layers
    with uncompacted():
        family["padded_stack"] = TrialStack(
            [fast_simulation(scenario, algorithm), _decoy(scenario, depth + 2, algorithm)],
        ).run(NUM_PULSES, **kwargs)[0]
    family["compacted_stack_deep_mate"] = TrialStack(
        [fast_simulation(scenario, algorithm), _decoy(scenario, depth + 3, algorithm)],
    ).run(NUM_PULSES, **kwargs)[0]
    family["compacted_stack_shallow_mate"] = TrialStack(
        [fast_simulation(scenario, algorithm), _decoy(scenario, 1, algorithm)],
    ).run(NUM_PULSES, **kwargs)[0]
    with one_pulse_blocks():
        family["one_pulse_blocks"] = fast_simulation(
            scenario, algorithm
        ).run(NUM_PULSES, **kwargs)
    with whole_horizon_blocks():
        family["whole_horizon_block"] = fast_simulation(
            scenario, algorithm
        ).run(NUM_PULSES, **kwargs)
    with scalar_reference():
        family["scalar"] = fast_simulation(scenario, algorithm).run(
            NUM_PULSES, **kwargs
        )
    return family


def campaign_simulation(scenario, campaign):
    """A fresh FastSimulation of ``scenario`` running ``campaign``."""
    return FastSimulation(
        scenario["graph"],
        scenario["params"],
        delay_model=scenario["delay_model"],
        clock_rates=scenario["rates"],
        fault_plan=scenario["fault_plan"],
        layer0=scenario["layer0"],
        campaign=campaign,
    )


def run_campaign_family(scenario, campaign):
    """The campaign's result on every fast path (see run_fast_family).

    The stacked legs mix the campaign trial with static decoys of
    different width and depth, so the per-trial epoch machinery must
    rewrite exactly one trial's rows of the padded tensors while its
    mates keep running untouched.
    """
    family = {
        "per_trial": campaign_simulation(scenario, campaign).run(
            CAMPAIGN_PULSES
        )
    }
    twins = [campaign_simulation(scenario, campaign) for _ in range(2)]
    family["homogeneous_stack"] = TrialStack(twins).run(CAMPAIGN_PULSES)[0]
    depth = scenario["graph"].num_layers
    with uncompacted():
        family["padded_stack"] = TrialStack(
            [
                campaign_simulation(scenario, campaign),
                _decoy(scenario, depth + 2, "full"),
            ],
        ).run(CAMPAIGN_PULSES)[0]
    family["compacted_stack_deep_mate"] = TrialStack(
        [
            campaign_simulation(scenario, campaign),
            _decoy(scenario, depth + 3, "full"),
        ],
    ).run(CAMPAIGN_PULSES)[0]
    family["compacted_stack_shallow_mate"] = TrialStack(
        [
            campaign_simulation(scenario, campaign),
            _decoy(scenario, 1, "full"),
        ],
    ).run(CAMPAIGN_PULSES)[0]
    # One block per epoch span: the campaign's mid-horizon epoch entries
    # split the blocks, and each block runs on one epoch's tensors.
    with whole_horizon_blocks():
        stack = TrialStack(
            [
                campaign_simulation(scenario, campaign),
                _decoy(scenario, depth + 3, "full"),
            ],
        )
        family["epoch_blocks_deep_mate"] = stack.run(CAMPAIGN_PULSES)[0]
    boundaries = family["per_trial"].churn_stats["boundaries"]
    assert stack.compaction_stats["pulse_blocks"] == len(boundaries) + 1
    with scalar_reference():
        family["scalar"] = campaign_simulation(scenario, campaign).run(
            CAMPAIGN_PULSES
        )
    return family


def assert_streamed_matches_materialized(streamed, reference, scenario, label=""):
    """Streamed folds == array reducers on the materialized twin, bitwise."""
    graph = scenario["graph"]
    assert streamed.times is None, f"{label}: streamed run kept the block"
    row = streamed.streamed_row
    stats = streamed.streamed
    np.testing.assert_array_equal(
        stats.trial_values("local", row),
        local_skew_layers(reference.times, graph),
        err_msg=f"{label}: local skew",
    )
    np.testing.assert_array_equal(
        stats.trial_values("inter_layer", row),
        inter_layer_skew_layers(reference.times, graph),
        err_msg=f"{label}: inter-layer skew",
    )
    np.testing.assert_array_equal(
        stats.trial_values("global", row, empty=np.nan),
        global_skew_layers(reference.times, empty=np.nan),
        err_msg=f"{label}: global skew",
    )
    want = fold_correction_planes(reference.corrections[None])
    got = stats.trial_stats(row)
    for key, values in want.items():
        np.testing.assert_array_equal(
            got[key], values[0], err_msg=f"{label}: corrections {key}"
        )


def assert_results_equal(got, want, exact=True, label=""):
    for attr in (
        "times",
        "protocol_times",
        "corrections",
        "effective_corrections",
    ):
        got_arr, want_arr = getattr(got, attr), getattr(want, attr)
        if exact:
            np.testing.assert_array_equal(
                got_arr, want_arr, err_msg=f"{label}: {attr}"
            )
        else:
            np.testing.assert_allclose(
                got_arr, want_arr, rtol=0.0, atol=1e-9,
                equal_nan=True, err_msg=f"{label}: {attr}",
            )
    if exact:
        np.testing.assert_array_equal(
            got.branches, want.branches, err_msg=f"{label}: branches"
        )
        assert got.fault_sends == want.fault_sends, label


class TestFastFamilyDifferential:
    """All fast paths bitwise equal; the scalar reference within 1e-9."""

    @FAMILY_SETTINGS
    @given(data=st.data())
    def test_all_paths_agree(self, data):
        algorithm = data.draw(st.sampled_from(["full", "simplified"]))
        scenario = data.draw(scenarios())
        family = run_fast_family(scenario, algorithm)
        reference = family.pop("per_trial")
        scalar = family.pop("scalar")
        for label, result in family.items():
            assert_results_equal(result, reference, exact=True, label=label)
        assert_results_equal(scalar, reference, exact=False, label="scalar")

        # The same scenario with the pulse-time block never materialized:
        # every streamed leg's online folds must equal the array reducers
        # on its materialized twin bitwise (the scalar leg folds the
        # scalar reference's own values, which may differ from the
        # kernel's only in association).
        streaming = run_streaming_family(scenario, algorithm)
        stream_scalar = streaming.pop("scalar")
        for label, result in streaming.items():
            assert_streamed_matches_materialized(
                result, reference, scenario, label=f"streamed {label}"
            )
        assert_streamed_matches_materialized(
            stream_scalar, scalar, scenario, label="streamed scalar"
        )


@st.composite
def sparse_scenarios(draw):
    """A small skewed-degree sparse cell for the sparse differential.

    Hub-skewed circulants give the neighbor plan its partial degree
    columns (one high-degree vertex alone past the ring's degree);
    keeping them small keeps the harness fast while still exercising
    ragged edge segments.
    """
    num_hubs = draw(st.integers(0, 1))
    kwargs = {"num_hubs": num_hubs}
    if num_hubs:
        kwargs["hub_degree"] = draw(st.integers(4, 7))
    base = sparse_base_graph(draw(st.integers(8, 16)), **kwargs)
    num_layers = draw(st.integers(2, 3))
    graph = LayeredGraph(base, num_layers)
    params = draw(st.sampled_from(PARAMS_CHOICES))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        delay_model = StaticDelayModel(params.d, params.u, seed=seed)
    else:
        delay_model = UniformDelayModel(params.d, params.u)
    if draw(st.booleans()):
        layer0 = JitteredLayer0(
            params.Lambda, base.num_nodes, params.kappa / 2.0, seed=seed
        )
    else:
        layer0 = PerfectLayer0(params.Lambda)
    clocks = uniform_random_rates(
        list(graph.nodes()), params.vartheta, rng_or_seed=seed + 1
    )
    fault_plan = None
    if draw(st.booleans()):
        rng = np.random.default_rng(seed + 2)
        node = (
            int(rng.integers(base.num_nodes)),
            int(rng.integers(num_layers)),
        )
        if rng.random() < 0.5:
            behavior = CrashFault()
        else:
            behavior = FixedOffsetFault(float(rng.uniform(0.05, 0.4)))
        fault_plan = FaultPlan.from_nodes({node: behavior})
    return {
        "graph": graph,
        "params": params,
        "delay_model": delay_model,
        "layer0": layer0,
        "clocks": clocks,
        "rates": {node: clock.rate for node, clock in clocks.items()},
        "fault_plan": fault_plan,
    }


class TestSparseDifferential:
    """Hub-skewed sparse graphs: per trial, stacked, and all-fallback.

    A hub's degree column holds one lane, and its copies fill the tail
    of the entry axis, so these cells exercise the column plan's partial
    columns and the fallback's ragged entry windows.  A stack of two and
    a run whose every cell goes through the fallback must equal the
    trial's own run bitwise.
    """

    @FAMILY_SETTINGS
    @given(data=st.data())
    def test_stack_and_fallback_match_per_trial(self, data):
        algorithm = data.draw(st.sampled_from(["full", "simplified"]))
        scenario = data.draw(sparse_scenarios())

        def sim():
            return FastSimulation(
                scenario["graph"],
                scenario["params"],
                delay_model=scenario["delay_model"],
                clock_rates=scenario["rates"],
                fault_plan=scenario["fault_plan"],
                layer0=scenario["layer0"],
                algorithm=algorithm,
            )

        want = sim().run(NUM_PULSES)
        got = TrialStack([sim(), sim()]).run(NUM_PULSES)
        with all_fallback():
            replayed = sim().run(NUM_PULSES)
        for index, got_one in enumerate(got):
            assert_results_equal(
                got_one, want, exact=True, label=f"stacked[{index}]"
            )
        assert_results_equal(replayed, want, exact=True, label="all-fallback")


class TestBatchedFallbackDifferential:
    """The batched fault-adjacent replay against the scalar reference.

    Every scenario here carries at least one fault, so the vectorized
    path must route cells through the stack-wide fallback pass -- and
    the accounting proves it did (no silently-eligible examples).
    """

    @FAMILY_SETTINGS
    @given(data=st.data())
    def test_batched_fallback_matches_scalar(self, data):
        algorithm = data.draw(st.sampled_from(["full", "simplified"]))
        scenario = data.draw(scenarios())
        graph = scenario["graph"]
        # A fault on a non-terminal layer guarantees fault-adjacent
        # successors (a last-layer fault has none to contaminate).
        vertex = data.draw(st.integers(0, graph.base.num_nodes - 1))
        layer = data.draw(st.integers(0, graph.num_layers - 2))
        behavior = data.draw(
            st.sampled_from([FixedOffsetFault(0.2), CrashFault()])
        )
        scenario = dict(scenario)
        scenario["fault_plan"] = FaultPlan.from_nodes(
            {(vertex, layer): behavior}
        )
        vectorized = fast_simulation(scenario, algorithm).run(NUM_PULSES)
        with scalar_reference():
            stack = TrialStack([fast_simulation(scenario, algorithm)])
            scalar = stack.run(NUM_PULSES)[0]
        assert vectorized.fallback_cells > 0
        assert vectorized.fallback_batches > 0
        # The scalar reference resolves every active cell itself.
        stats = stack.compaction_stats
        assert scalar.fallback_cells == stats["active_lane_steps"], stats
        assert_results_equal(
            vectorized, scalar, exact=False, label="batched fallback"
        )


@st.composite
def faulted_trials(draw, graph, params, algorithm, campaign=False):
    """A builder of fresh simulations of one faulted stack mate.

    Delays, clock rates, layer 0 and the numeric policy knob are drawn
    per trial.  The fault plan always holds a layer-0 fault, so layer
    1's cells reach the fallback through the sends layer 0 records, plus
    up to two more faults anywhere.  With ``campaign`` the trial also
    runs a drawn churn campaign that crosses at least one epoch
    boundary.
    """
    base = graph.base
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        delay_model = StaticDelayModel(params.d, params.u, seed=seed)
    else:
        delay_model = UniformDelayModel(params.d, params.u)
    if draw(st.booleans()):
        layer0 = JitteredLayer0(
            params.Lambda, base.num_nodes, params.kappa / 2.0, seed=seed
        )
    else:
        layer0 = PerfectLayer0(params.Lambda)
    clocks = uniform_random_rates(
        list(graph.nodes()), params.vartheta, rng_or_seed=seed + 1
    )
    rates = {node: clock.rate for node, clock in clocks.items()}
    rng = np.random.default_rng(seed + 2)
    behaviors = {}
    layers = [0] + [
        int(rng.integers(graph.num_layers))
        for _ in range(draw(st.integers(0, 2)))
    ]
    for layer in layers:
        node = (int(rng.integers(base.num_nodes)), layer)
        behaviors[node] = random_fault(rng, params)
    fault_plan = FaultPlan.from_nodes(behaviors)
    policy = CorrectionPolicy(jump_slack=draw(st.sampled_from([1.0, 0.0])))
    churn = None
    if campaign:
        churn = draw(campaigns(base, graph.num_layers))
        schedule = churn.compile(CAMPAIGN_PULSES, base_plan=fault_plan)
        assume(len(schedule.epochs) >= 2)

    def build():
        return FastSimulation(
            graph,
            params,
            delay_model=delay_model,
            clock_rates=rates,
            fault_plan=fault_plan,
            layer0=layer0,
            policy=policy,
            algorithm=algorithm,
            campaign=churn,
        )

    return build


class TestStackWideFallbackDifferential:
    """One fallback pass per layer step for a stack == each trial alone.

    Every stack mate carries faults, including one on layer 0, so each
    layer step resolves the rejected cells of several trials in one
    pass.  Mates alternate between the two parameter sets (per-trial
    parameter columns) and draw their own policy knob.  Padded stacks mix
    widths and depths and run their first trial under a churn campaign
    (a union entry axis); uniform stacks share one graph (its own CSR
    axis).  Every
    materialized matrix and ``fault_sends`` must equal the trial's own
    stack of one bitwise, and so must the streamed folds of a
    ``store_times=False`` run of the same stack.
    """

    @FAMILY_SETTINGS
    @given(data=st.data())
    def test_stack_matches_stacks_of_one(self, data):
        algorithm = data.draw(st.sampled_from(["full", "simplified"]))
        uniform = data.draw(st.booleans())
        count = data.draw(st.integers(2, 3))
        if uniform:
            graphs = [data.draw(layered_graphs())] * count
        else:
            graphs = [data.draw(layered_graphs()) for _ in range(count)]
        params = [PARAMS_CHOICES[i % 2] for i in range(count)]
        builders = [
            data.draw(
                faulted_trials(
                    graphs[i],
                    params[i],
                    algorithm,
                    campaign=not uniform and i == 0,
                )
            )
            for i in range(count)
        ]
        step = fast_batch_mod._StackRun.layer_step
        with mock.patch.object(
            fast_batch_mod._StackRun, "layer_step", autospec=True, side_effect=step
        ) as steps:
            stack = TrialStack([build() for build in builders])
            stacked = stack.run(CAMPAIGN_PULSES)
            streamed = TrialStack([build() for build in builders]).run(
                CAMPAIGN_PULSES, store_times=False
            )
            alone = [build().run(CAMPAIGN_PULSES) for build in builders]

        stats = stack.compaction_stats
        # The first layer step is the stacked run's.
        run = steps.call_args_list[0].args[0]
        assert isinstance(run.params, fast_batch_mod._StackedParams)
        assert (run.valid is None) == uniform
        assert 0 < stats["fallback_passes"] <= stats["fallback_batches"]
        if not uniform:
            assert stacked[0].churn_stats["epochs"] >= 2
        for i, (got, want) in enumerate(zip(stacked, alone)):
            assert_results_equal(got, want, exact=True, label=f"trial {i}")
            assert streamed[i].fault_sends == want.fault_sends
            assert_streamed_matches_materialized(
                streamed[i],
                want,
                {"graph": graphs[i], "params": params[i]},
                label=f"streamed trial {i}",
            )


class TestEngineDifferential:
    """The fast family against the event-driven ground truth."""

    def _engine_times(self, scenario):
        grid = GridSimulation(
            scenario["graph"],
            scenario["params"],
            delay_model=scenario["delay_model"],
            clocks=dict(scenario["clocks"]),
            fault_plan=scenario["fault_plan"],
            layer0=scenario["layer0"],
        )
        trace = grid.run(NUM_PULSES)
        return times_from_trace(trace, scenario["graph"], NUM_PULSES)

    @ENGINE_SETTINGS
    @given(scenario=scenarios())
    def test_engine_matches_fast_within_tolerance(self, scenario):
        fast = fast_simulation(scenario).run(NUM_PULSES)
        event = self._engine_times(scenario)
        np.testing.assert_array_equal(
            np.isnan(event), np.isnan(fast.times),
            err_msg="engine/fast disagree on which nodes pulsed",
        )
        np.testing.assert_allclose(
            event, fast.times, rtol=0.0, atol=1e-9, equal_nan=True
        )

    @ENGINE_SETTINGS
    @given(scenario=scenarios())
    def test_engine_matches_compacted_stack_within_tolerance(self, scenario):
        """Transitivity made explicit: engine vs the newest fast path."""
        depth = scenario["graph"].num_layers
        stack = TrialStack(
            [fast_simulation(scenario), _decoy(scenario, depth + 3, "full")],
        )
        stacked = stack.run(NUM_PULSES)[0]
        event = self._engine_times(scenario)
        np.testing.assert_array_equal(np.isnan(event), np.isnan(stacked.times))
        np.testing.assert_allclose(
            event, stacked.times, rtol=0.0, atol=1e-9, equal_nan=True
        )

    @ENGINE_SETTINGS
    @given(scenario=scenarios())
    def test_engine_matches_streamed_folds_within_tolerance(self, scenario):
        """Online folds vs array reducers on the engine's pulse times.

        The streamed run never sees a pulse-time block at all, so this
        closes the loop: accumulator output against statistics computed
        from the independent event-queue execution.
        """
        streamed = fast_simulation(scenario).run(
            NUM_PULSES, store_times=False
        )
        event = self._engine_times(scenario)
        graph = scenario["graph"]
        row = streamed.streamed_row
        stats = streamed.streamed
        np.testing.assert_allclose(
            stats.trial_values("local", row),
            local_skew_layers(event, graph),
            rtol=0.0, atol=1e-9, equal_nan=True,
            err_msg="engine vs streamed local skew",
        )
        np.testing.assert_allclose(
            stats.trial_values("global", row, empty=np.nan),
            global_skew_layers(event, empty=np.nan),
            rtol=0.0, atol=1e-9, equal_nan=True,
            err_msg="engine vs streamed global skew",
        )


class TestAllFallbackSeam:
    """Every cell through the stack-wide fallback, against the engine.

    With :func:`all_fallback` the kernel decides nothing: the fallback
    replays every active cell of every layer step, and the accounting
    proves it.  The replay is pinned to the event engine at 1e-9 and to
    the normal run bitwise -- on a cell the kernel accepts, the replay
    exits at the last arrival with the kernel's own registers.
    """

    def _replay(self, scenario, algorithm):
        step = fast_batch_mod._StackRun.layer_step
        with all_fallback(), mock.patch.object(
            fast_batch_mod._StackRun, "layer_step", autospec=True, side_effect=step
        ) as steps:
            stack = TrialStack([fast_simulation(scenario, algorithm)])
            replayed = stack.run(NUM_PULSES)[0]
        stats = stack.compaction_stats
        # Every cell of every live (pulse, layer) row is replayed, in one
        # pass per executed (block, layer) step.
        assert stats["fallback_cells"] == stats["active_lane_steps"], stats
        assert stats["fallback_batches"] == stats["active_row_steps"], stats
        assert stats["fallback_passes"] == steps.call_count, stats
        normal = fast_simulation(scenario, algorithm).run(NUM_PULSES)
        assert_results_equal(replayed, normal, exact=True, label="all-fallback")
        event = TestEngineDifferential()._engine_times(scenario)
        np.testing.assert_array_equal(np.isnan(event), np.isnan(replayed.times))
        np.testing.assert_allclose(
            event, replayed.times, rtol=0.0, atol=1e-9, equal_nan=True
        )

    @ENGINE_SETTINGS
    @given(data=st.data())
    def test_full_algorithm_matches_engine(self, data):
        scenario = data.draw(scenarios())
        graph = scenario["graph"]
        # One more fault below the last layer, so faulty sends always
        # reach the replay.
        plan = scenario["fault_plan"]
        behaviors = {} if plan is None else {n: plan.behavior(n) for n in plan}
        node = (
            data.draw(st.integers(0, graph.base.num_nodes - 1)),
            data.draw(st.integers(0, graph.num_layers - 2)),
        )
        behaviors[node] = data.draw(
            st.sampled_from([FixedOffsetFault(0.2), CrashFault()])
        )
        self._replay(
            dict(scenario, fault_plan=FaultPlan.from_nodes(behaviors)), "full"
        )

    @ENGINE_SETTINGS
    @given(scenario=scenarios())
    def test_simplified_algorithm_matches_engine(self, scenario):
        """Algorithm 1 where Lemma B.2 makes it Algorithm 3 exactly.

        The engine runs Algorithm 3.  On a fault-free run whose every
        cell the full kernel accepts, each loop exits at its last
        arrival, which is exactly when Algorithm 1 stops waiting.
        """
        scenario = dict(scenario, fault_plan=None)
        full = TrialStack([fast_simulation(scenario)])
        full.run(NUM_PULSES)
        assume(full.compaction_stats["fallback_cells"] == 0)
        self._replay(scenario, "simplified")


class TestCampaignDifferential:
    """Dynamic adjacency: the fast family under hypothesis-drawn churn."""

    @FAMILY_SETTINGS
    @given(data=st.data())
    def test_campaign_paths_agree(self, data):
        scenario = data.draw(scenarios())
        campaign = data.draw(
            campaigns(scenario["graph"].base, scenario["graph"].num_layers)
        )
        family = run_campaign_family(scenario, campaign)
        reference = family.pop("per_trial")
        scalar = family.pop("scalar")
        assert reference.churn_stats is not None
        assert reference.churn_stats["actions"] > 0
        for label, result in family.items():
            assert_results_equal(result, reference, exact=True, label=label)
            assert result.churn_stats == reference.churn_stats, label
        assert_results_equal(scalar, reference, exact=False, label="scalar")

        # The streamed twin folds the same planes the materialized run
        # stored, epoch swaps and all, over the seed edge layout.
        streamed = campaign_simulation(scenario, campaign).run(
            CAMPAIGN_PULSES, store_times=False
        )
        assert_streamed_matches_materialized(
            streamed, reference, scenario, label="streamed campaign"
        )


class TestCampaignEngineDifferential:
    """Churn-era fast output vs per-epoch engine stitching at 1e-9.

    Lemma B.1's recurrence couples layers only within a pulse, so the
    dynamic run equals, pulse for pulse, a static run on that pulse's
    instantaneous graph: replay the engine once per campaign epoch
    (epoch graph + epoch fault plan, same delays/clocks/layer 0) and
    take rows ``[start, end)`` of each replay as the reference.
    """

    def _engine_times_stitched(self, scenario, campaign):
        schedule = campaign.compile(
            CAMPAIGN_PULSES, base_plan=scenario["fault_plan"]
        )
        graph = scenario["graph"]
        out = np.empty((CAMPAIGN_PULSES, graph.num_layers, graph.width))
        for epoch in schedule.epochs:
            grid = GridSimulation(
                epoch.graph,
                scenario["params"],
                delay_model=scenario["delay_model"],
                clocks=dict(scenario["clocks"]),
                fault_plan=epoch.fault_plan,
                layer0=scenario["layer0"],
            )
            trace = grid.run(CAMPAIGN_PULSES)
            times = times_from_trace(trace, epoch.graph, CAMPAIGN_PULSES)
            out[epoch.start : epoch.end] = times[epoch.start : epoch.end]
        return out

    @ENGINE_SETTINGS
    @given(data=st.data())
    def test_engine_matches_campaign_fast(self, data):
        scenario = data.draw(scenarios())
        campaign = data.draw(
            campaigns(scenario["graph"].base, scenario["graph"].num_layers)
        )
        fast = campaign_simulation(scenario, campaign).run(CAMPAIGN_PULSES)
        event = self._engine_times_stitched(scenario, campaign)
        np.testing.assert_array_equal(
            np.isnan(event), np.isnan(fast.times),
            err_msg="engine/fast disagree on which cells pulsed under churn",
        )
        np.testing.assert_allclose(
            event, fast.times, rtol=0.0, atol=1e-9, equal_nan=True
        )

    @ENGINE_SETTINGS
    @given(data=st.data())
    def test_engine_matches_campaign_compacted_stack(self, data):
        """Transitivity under churn: engine vs the stacked epoch path."""
        scenario = data.draw(scenarios())
        campaign = data.draw(
            campaigns(scenario["graph"].base, scenario["graph"].num_layers)
        )
        depth = scenario["graph"].num_layers
        stacked = TrialStack(
            [
                campaign_simulation(scenario, campaign),
                _decoy(scenario, depth + 3, "full"),
            ],
        ).run(CAMPAIGN_PULSES)[0]
        event = self._engine_times_stitched(scenario, campaign)
        np.testing.assert_array_equal(np.isnan(event), np.isnan(stacked.times))
        np.testing.assert_allclose(
            event, stacked.times, rtol=0.0, atol=1e-9, equal_nan=True
        )


def test_deterministic_campaign_smoke():
    """One fixed churn cell through every path plus the stitched engine."""
    params = PARAMS_CHOICES[0]
    base = cycle_graph(6)
    graph = LayeredGraph(base, 3)
    clocks = uniform_random_rates(
        list(graph.nodes()), params.vartheta, rng_or_seed=21
    )
    scenario = {
        "graph": graph,
        "params": params,
        "delay_model": StaticDelayModel(params.d, params.u, seed=20),
        "layer0": AlternatingLayer0(params.Lambda, params.kappa),
        "clocks": clocks,
        "rates": {node: clock.rate for node, clock in clocks.items()},
        "fault_plan": FaultPlan.from_nodes({(4, 2): FixedOffsetFault(0.2)}),
    }
    campaign = ChaosCampaign(
        base,
        graph.num_layers,
        events=[
            NodeLeave(pulse=1, vertex=2),
            NodeJoin(pulse=3, vertex=2),
            EdgeFlap(pulse=2, edge=(4, 5)),
            NodeCrash(pulse=1, node=(0, 1)),
            NodeRecover(pulse=4, node=(0, 1)),
            RegionalOutage(pulse=3, center=0, radius=1, duration=1),
        ],
    )
    family = run_campaign_family(scenario, campaign)
    reference = family.pop("per_trial")
    scalar = family.pop("scalar")
    for label, result in family.items():
        assert_results_equal(result, reference, exact=True, label=label)
    assert_results_equal(scalar, reference, exact=False, label="scalar")
    event = TestCampaignEngineDifferential()._engine_times_stitched(
        scenario, campaign
    )
    np.testing.assert_array_equal(np.isnan(event), np.isnan(reference.times))
    np.testing.assert_allclose(
        event, reference.times, rtol=0.0, atol=1e-9, equal_nan=True
    )
    # The campaign run restores the seed state: the quiet tail after the
    # last event is bitwise identical to the plain static run's pulses.
    static = fast_simulation(scenario).run(CAMPAIGN_PULSES)
    np.testing.assert_array_equal(
        reference.times[4:], static.times[4:],
        err_msg="restored-seed pulses differ from the static run",
    )


#: Horizon of the pulse-block legs below: long enough that the default
#: rule picks blocks of more than one pulse on every stack here.
BLOCK_PULSES = 35


#: Counters that count (trial, pulse) work and so must not depend on
#: how the pulses were blocked.
BLOCK_INVARIANT_COUNTS = (
    "active_row_steps",
    "active_lane_steps",
    "fallback_cells",
    "fallback_batches",
)


def _block_legs(run):
    """``run()`` under the default blocks, one-pulse and whole-horizon ones.

    ``run`` builds fresh simulations and returns ``(stack, results)``;
    the default leg must actually block several pulses, and every leg
    must count the same row steps, cells and fallback work.
    """
    stack, default = run()
    stats = stack.compaction_stats
    assert stats["block_pulses"] > 1, stats
    with one_pulse_blocks():
        one_stack, one_pulse = run()
    assert one_stack.compaction_stats["block_pulses"] == 1
    with whole_horizon_blocks():
        whole_stack, whole = run()
    for other in (one_stack, whole_stack):
        for key in BLOCK_INVARIANT_COUNTS:
            assert other.compaction_stats[key] == stats[key], key
    return default, {"one_pulse_blocks": one_pulse, "whole_horizon": whole}


class TestPulseBlockDifferential:
    """Default pulse blocks against one-pulse and whole-horizon blocks.

    Every cell's arithmetic is elementwise, so the block a pulse runs in
    changes no value: results, fault sends, fallback accounting and the
    streamed folds are bitwise equal across block sizes.
    """

    def test_byzantine_fault_sends_match(self):
        from repro.experiments.thm13_random_faults import thm13_trials

        trials, _ = thm13_trials(6, [1, 2, 3, 4], num_pulses=32)

        def run():
            stack = TrialStack([trial.simulation() for trial in trials])
            return stack, stack.run(32)

        default, legs = _block_legs(run)
        behaviours = {
            type(plan.behavior(node)).__name__
            for plan in (trial.simulation().fault_plan for trial in trials)
            for node in plan
        }
        assert "ByzantineRandomFault" in behaviours, behaviours
        assert any(result.fault_sends for result in default)
        for label, results in legs.items():
            for index, (got, want) in enumerate(zip(results, default)):
                assert_results_equal(got, want, label=f"{label}[{index}]")
                assert got.fallback_cells == want.fallback_cells, label
                assert got.fallback_batches == want.fallback_batches, label

    def test_ragged_last_block_streams_bitwise(self):
        params = PARAMS_CHOICES[1]
        graph = LayeredGraph(cycle_graph(40), 4)
        scenario = {"graph": graph}

        def sims():
            return [
                FastSimulation(
                    graph,
                    params,
                    delay_model=StaticDelayModel(params.d, params.u, seed=seed),
                    clock_rates={
                        node: clock.rate
                        for node, clock in uniform_random_rates(
                            list(graph.nodes()), params.vartheta, rng_or_seed=seed
                        ).items()
                    },
                    layer0=JitteredLayer0(
                        params.Lambda, graph.width, params.kappa, seed=seed
                    ),
                )
                for seed in (3, 4)
            ]

        def run(**kwargs):
            stack = TrialStack(sims())
            return stack, stack.run(BLOCK_PULSES, **kwargs)

        default, legs = _block_legs(run)
        stack, streamed = run(store_times=False)
        stats = stack.compaction_stats
        # 35 pulses in blocks of 512 // (2 * 40) = 6: the last block
        # holds five pulses.
        assert (stats["block_pulses"], stats["pulse_blocks"]) == (6, 6)
        for label, results in legs.items():
            for got, want in zip(results, default):
                assert_results_equal(got, want, label=label)
        for got, want in zip(streamed, default):
            assert_streamed_matches_materialized(
                got, want, scenario, label="ragged streamed"
            )

    def test_varying_delays_and_callable_rates(self):
        params = PARAMS_CHOICES[0]
        graph = LayeredGraph(cycle_graph(5), 3)
        scenario = {"graph": graph}

        def rates(node, pulse):
            v, layer = node
            return 1.0 + params.u * ((3 * v + 5 * layer + 7 * pulse) % 11) / 1e3

        def run(**kwargs):
            stack = TrialStack(
                [
                    FastSimulation(
                        graph,
                        params,
                        delay_model=VaryingDelayModel(
                            params.d, params.u, max_step=0.002, seed=seed
                        ),
                        clock_rates=rates,
                        fault_plan=FaultPlan.from_nodes(
                            {(seed, 1): FixedOffsetFault(0.1)}
                        ),
                    )
                    for seed in (1, 2)
                ]
            )
            return stack, stack.run(BLOCK_PULSES, **kwargs)

        default, legs = _block_legs(run)
        for label, results in legs.items():
            for got, want in zip(results, default):
                assert_results_equal(got, want, label=label)
        _, streamed = run(store_times=False)
        for got, want in zip(streamed, default):
            assert_streamed_matches_materialized(
                got, want, scenario, label="varying streamed"
            )

    def test_dead_pulses_inside_a_live_row(self):
        """A trial dead in some pulses of a block keeps its row alive.

        Layer 1 of the wide trial falls silent from pulse 11 on, so its
        layer 2 never pulses from then and the trial is dead at layer 3
        from pulse 11 on, inside the one block the small plane's
        ``512 // (S * W)`` floor puts the whole horizon in (and in block
        ``(11, 12)`` on its own under one-pulse blocks).  Its dead cells
        must record nothing and stay out of the fallback, and those
        pulses' cells count only the lanes of the narrower live mate.
        """
        params = PARAMS_CHOICES[0]
        wide = LayeredGraph(cycle_graph(7), 5)
        silent = FaultPlan.from_nodes(
            {(v, 1): SilentFromFault(11) for v in range(wide.width)}
        )

        def run():
            stack = TrialStack(
                [
                    FastSimulation(
                        wide,
                        params,
                        delay_model=StaticDelayModel(params.d, params.u, seed=9),
                        fault_plan=silent,
                    ),
                    FastSimulation(
                        LayeredGraph(cycle_graph(5), 5),
                        params,
                        delay_model=StaticDelayModel(params.d, params.u, seed=8),
                    ),
                ]
            )
            return stack, stack.run(BLOCK_PULSES)

        default, legs = _block_legs(run)
        times = default[0].times
        assert not np.isnan(times[10, 3]).any()
        assert np.isnan(times[11:, 2:]).all()
        for label, results in legs.items():
            for got, want in zip(results, default):
                assert_results_equal(got, want, label=label)

    def test_default_blocks_split_at_mid_horizon_epochs(self):
        params = PARAMS_CHOICES[0]
        base = cycle_graph(6)
        graph = LayeredGraph(base, 3)
        campaign = ChaosCampaign(
            base,
            graph.num_layers,
            events=[
                NodeCrash(pulse=13, node=(1, 1)),
                NodeRecover(pulse=20, node=(1, 1)),
                EdgeFlap(pulse=27, edge=(2, 3), down_pulses=3),
            ],
        )
        scenario = {
            "graph": graph,
            "params": params,
            "delay_model": StaticDelayModel(params.d, params.u, seed=5),
            "layer0": PerfectLayer0(params.Lambda),
            "rates": None,
            "fault_plan": FaultPlan.from_nodes({(4, 0): FixedOffsetFault(0.2)}),
        }

        def run():
            stack = TrialStack([campaign_simulation(scenario, campaign)])
            return stack, stack.run(BLOCK_PULSES)

        stack, _ = run()
        boundaries = [13, 20, 27, 30]
        assert stack.run(BLOCK_PULSES)[0].churn_stats["boundaries"] == boundaries
        blocks = fast_batch_mod._pulse_blocks(
            BLOCK_PULSES, graph.num_layers, graph.width, boundaries
        )
        assert {k0 for k0, _ in blocks} >= set(boundaries)
        assert stack.compaction_stats["pulse_blocks"] == len(blocks)
        default, legs = _block_legs(run)
        for label, results in legs.items():
            assert_results_equal(results[0], default[0], label=label)


class TestRingDifferential:
    """Streamed two-layer rings against materialized runs, bitwise.

    A streamed stack keeps only the previous and the current layer of a
    pulse block and folds each (block, layer) step as it is written; the
    fold must equal the array reducers on the materialized run under
    one-pulse, default and whole-horizon blocks.  The default leg of
    each stack here holds several blocks of several pulses, so
    inter-layer pairs cross block boundaries inside the fold.
    """

    @staticmethod
    def _legs(build, num_pulses=BLOCK_PULSES, blocks=None):
        """Materialized default run vs streamed runs under every seam.

        ``blocks`` is the ``(block_pulses, pulse_blocks)`` the default
        streamed leg must report.
        """
        materialized = TrialStack(build()).run(num_pulses)
        for label, seam in (
            ("default", contextlib.nullcontext),
            ("one_pulse_blocks", one_pulse_blocks),
            ("whole_horizon", whole_horizon_blocks),
        ):
            with seam():
                stack = TrialStack(build())
                streamed = stack.run(num_pulses, store_times=False)
            stats = stack.compaction_stats
            if label == "default":
                assert stats["block_pulses"] > 1, stats
                assert stats["pulse_blocks"] > 1, stats
                if blocks is not None:
                    assert (stats["block_pulses"], stats["pulse_blocks"]) == blocks
            for index, (got, want) in enumerate(zip(streamed, materialized)):
                assert_streamed_matches_materialized(
                    got, want, {"graph": want.graph}, label=f"{label}[{index}]"
                )
        return materialized

    def test_ragged_last_block_with_faults(self):
        """Blocks of 6 over 35 pulses; the last holds five."""
        params = PARAMS_CHOICES[1]
        graph = LayeredGraph(cycle_graph(40), 4)

        def build():
            return [
                FastSimulation(
                    graph,
                    params,
                    delay_model=StaticDelayModel(params.d, params.u, seed=seed),
                    layer0=JitteredLayer0(
                        params.Lambda, graph.width, params.kappa, seed=seed
                    ),
                    fault_plan=FaultPlan.from_nodes(
                        {(seed, 1): FixedOffsetFault(0.3)}
                    ),
                )
                for seed in (5, 6)
            ]

        self._legs(build, blocks=(6, 6))

    def test_depth_skewed_stack(self):
        """Rows retire as the shallower trials run out of layers."""
        from repro.experiments.common import standard_config

        def build():
            sims = []
            for s, diameter in enumerate([6, 8, 10, 6, 8, 10]):
                config = standard_config(diameter, seed=s)
                sims.append(
                    FastSimulation(
                        config.graph,
                        config.params,
                        delay_model=config.delay_model,
                        clock_rates=config.clock_rates,
                    )
                )
            return sims

        self._legs(build)

    def test_thm13_dead_rows(self):
        """One trial's layer 2 falls silent from pulse 2: its deeper rows
        go dead, and the compacted steps skip them."""
        from repro.experiments.batch import BatchTrial
        from repro.experiments.thm13_random_faults import thm13_trials

        trials, _ = thm13_trials(6, [1, 2, 3], num_pulses=BLOCK_PULSES)
        plan = trials[2].fault_plan
        for vertex in range(trials[2].config.graph.width):
            plan = plan.with_fault((vertex, 2), SilentFromFault(2))
        trials[2] = BatchTrial(config=trials[2].config, fault_plan=plan)
        materialized = self._legs(lambda: [t.simulation() for t in trials])
        assert np.isnan(materialized[2].times[2:, 3:]).all()

    def test_campaign_epochs_cut_blocks(self):
        params = PARAMS_CHOICES[0]
        base = cycle_graph(6)
        graph = LayeredGraph(base, 3)
        campaign = ChaosCampaign(
            base,
            graph.num_layers,
            events=[
                NodeCrash(pulse=13, node=(1, 1)),
                NodeRecover(pulse=20, node=(1, 1)),
                EdgeFlap(pulse=27, edge=(2, 3), down_pulses=3),
            ],
        )
        scenario = {
            "graph": graph,
            "params": params,
            "delay_model": StaticDelayModel(params.d, params.u, seed=5),
            "layer0": PerfectLayer0(params.Lambda),
            "rates": None,
            "fault_plan": FaultPlan.from_nodes({(4, 0): FixedOffsetFault(0.2)}),
        }
        # Epoch entries at 13, 20, 27 and 30 cut the horizon into five
        # blocks.
        self._legs(
            lambda: [campaign_simulation(scenario, campaign)], blocks=(13, 5)
        )


def test_deterministic_scenario_smoke():
    """One fixed cell through every path (fails loudly without hypothesis)."""
    params = PARAMS_CHOICES[0]
    base = replicated_line(4)
    graph = LayeredGraph(base, 4)
    scenario = {
        "graph": graph,
        "params": params,
        "delay_model": StaticDelayModel(params.d, params.u, seed=11),
        "layer0": JitteredLayer0(
            params.Lambda, base.num_nodes, params.kappa / 2.0, seed=11
        ),
        "clocks": uniform_random_rates(
            list(graph.nodes()), params.vartheta, rng_or_seed=12
        ),
        "rates": None,
        "fault_plan": FaultPlan.from_nodes({(2, 1): CrashFault()}),
    }
    scenario["rates"] = {
        node: clock.rate for node, clock in scenario["clocks"].items()
    }
    family = run_fast_family(scenario)
    reference = family.pop("per_trial")
    scalar = family.pop("scalar")
    for label, result in family.items():
        assert_results_equal(result, reference, exact=True, label=label)
    assert_results_equal(scalar, reference, exact=False, label="scalar")
    event = times_from_trace(
        GridSimulation(
            graph,
            params,
            delay_model=scenario["delay_model"],
            clocks=dict(scenario["clocks"]),
            fault_plan=scenario["fault_plan"],
            layer0=scenario["layer0"],
        ).run(NUM_PULSES),
        graph,
        NUM_PULSES,
    )
    np.testing.assert_array_equal(np.isnan(event), np.isnan(reference.times))
    np.testing.assert_allclose(
        event, reference.times, rtol=0.0, atol=1e-9, equal_nan=True
    )
    # Downstream reducers see identical values through every path too.
    assert family["compacted_stack_deep_mate"].max_local_skew() == (
        pytest.approx(reference.max_local_skew(), abs=0.0)
    )
    # And the streamed twins fold the same statistics without the block.
    streaming = run_streaming_family(scenario)
    stream_scalar = streaming.pop("scalar")
    for label, result in streaming.items():
        assert_streamed_matches_materialized(
            result, reference, scenario, label=f"streamed {label}"
        )
    assert_streamed_matches_materialized(
        stream_scalar, scalar, scenario, label="streamed scalar"
    )
    # Streamed skew accessors on the result object serve from the folds.
    assert streaming["per_trial"].max_local_skew() == (
        pytest.approx(reference.max_local_skew(), abs=0.0)
    )


def test_campaign_permanent_leave_frees_lanes():
    """A vertex absent for the whole remaining horizon frees its lane.

    ``NodeLeave(vertex=5)`` below never rejoins, so from its pulse
    onward the campaign trial's rows run one lane narrower; the decoy
    mate is narrower *and* shallower, so depth and width compaction both
    engage.  Freeing the lane is bit-exact because a permanently absent
    vertex is degree-0 and statically ineligible -- the padded run only
    ever writes padding values into that column.
    """
    params = Parameters(d=1.0, u=0.05, vartheta=1.01, Lambda=2.5)
    base = cycle_graph(8)
    campaign = ChaosCampaign(
        base,
        3,
        [
            NodeLeave(pulse=1, vertex=5),
            NodeCrash(pulse=2, node=(1, 1)),
            NodeRecover(pulse=4, node=(1, 1)),
        ],
    )
    graph = LayeredGraph(base, 3)
    clocks = uniform_random_rates(
        list(graph.nodes()), params.vartheta, rng_or_seed=3
    )
    rates = {node: clock.rate for node, clock in clocks.items()}

    def sims():
        trial = FastSimulation(
            graph,
            params,
            delay_model=StaticDelayModel(params.d, params.u, seed=4),
            clock_rates=rates,
            layer0=PerfectLayer0(params.Lambda),
            campaign=campaign,
        )
        decoy = FastSimulation(
            LayeredGraph(cycle_graph(5), 2),
            params,
            delay_model=StaticDelayModel(params.d, params.u, seed=8),
            layer0=PerfectLayer0(params.Lambda),
        )
        return [trial, decoy]

    want = [sim.run(CAMPAIGN_PULSES + 1) for sim in sims()]
    stack = TrialStack(sims())
    got = stack.run(CAMPAIGN_PULSES + 1)
    for index, (got_one, want_one) in enumerate(zip(got, want)):
        assert_results_equal(
            got_one, want_one, exact=True, label=f"campaign lanes[{index}]"
        )
    stats = stack.compaction_stats
    assert stats["active_lane_steps"] < stats["padded_lane_steps"], stats
    # Streamed, the freed lanes and retired rows are NaN in each step's
    # ring slot, so the per-step fold still equals the array reducers.
    stack = TrialStack(sims())
    streamed = stack.run(CAMPAIGN_PULSES + 1, store_times=False)
    assert stack.compaction_stats == stats
    for index, (got_one, want_one) in enumerate(zip(streamed, want)):
        assert_streamed_matches_materialized(
            got_one,
            want_one,
            {"graph": want_one.graph},
            label=f"streamed campaign lanes[{index}]",
        )


def test_lane_compacted_fallback_maps_vertex_ids():
    """Fallback cells behind a lane hole replay their own vertices.

    ``NodeLeave(vertex=2)`` never rejoins, so once the narrow, shallow
    decoy retires the campaign trial's plane skips lane 2; the crash at
    ``(6, 1)`` then sends layer 2's vertices 5-7 -- compacted columns
    4-6 -- through the batched fallback, which must map the columns back
    to vertex ids.
    """
    params = Parameters(d=1.0, u=0.05, vartheta=1.01, Lambda=2.5)
    base = cycle_graph(8)
    campaign = ChaosCampaign(
        base,
        3,
        [NodeLeave(pulse=1, vertex=2), NodeCrash(pulse=2, node=(6, 1))],
    )

    def sims():
        trial = FastSimulation(
            LayeredGraph(base, 3),
            params,
            delay_model=StaticDelayModel(params.d, params.u, seed=4),
            layer0=PerfectLayer0(params.Lambda),
            campaign=campaign,
        )
        decoy = FastSimulation(
            LayeredGraph(cycle_graph(5), 2),
            params,
            delay_model=StaticDelayModel(params.d, params.u, seed=8),
            layer0=PerfectLayer0(params.Lambda),
        )
        return [trial, decoy]

    want = [sim.run(CAMPAIGN_PULSES) for sim in sims()]
    stack = TrialStack(sims())
    got = stack.run(CAMPAIGN_PULSES)
    for index, (got_one, want_one) in enumerate(zip(got, want)):
        assert_results_equal(
            got_one, want_one, exact=True, label=f"lane hole[{index}]"
        )
    stats = stack.compaction_stats
    assert stats["active_lane_steps"] < stats["padded_lane_steps"], stats
    assert stats["fallback_cells"] > 0, stats


#: Real arrival times on a 1/256 grid, or ``+inf`` (missing) about one
#: time in eight: distinct grid points stay distinct after any rate
#: product (their gap dwarfs an ulp), equal ones tie exactly, and the
#: spacing is fine enough for every correction branch and timeout.
ARRIVALS = st.integers(0, 72).map(lambda i: 1.0 + i / 256.0 if i < 64 else np.inf)

#: Per-cell parameter choices, including the kappa == 0 idealization.
REPLAY_PARAMS = PARAMS_CHOICES + (
    Parameters(d=1.0, u=0.0, vartheta=1.0, Lambda=2.0),
)


@st.composite
def event_rows(draw):
    """Synthetic fallback inputs: one row of reception times per cell.

    Column 0 is the own copy, the next ``num_nb`` columns the neighbor
    copies, the rest padding; a missing message is ``+inf``.  Parameters
    and the numeric policy knob are shared or one value per cell.
    """
    cells = draw(st.integers(1, 8))
    max_deg = draw(st.integers(0, 4))
    ev_time = np.full((cells, 1 + max_deg), np.inf)
    num_nb = np.zeros(cells, dtype=np.int64)
    for i in range(cells):
        num_nb[i] = draw(st.integers(0, max_deg))
        ev_time[i, 0] = draw(ARRIVALS)
        for j in range(num_nb[i]):
            ev_time[i, 1 + j] = draw(ARRIVALS)
    rates = np.array(
        [draw(st.sampled_from([1.0, 1.0004, 1.001])) for _ in range(cells)]
    )
    discretize = draw(st.booleans())
    stick = draw(st.booleans())
    if draw(st.booleans()):
        params = draw(st.sampled_from(REPLAY_PARAMS))
        policy = CorrectionPolicy(
            discretize, draw(st.sampled_from([1.0, 0.0, -1.0])), stick
        )
    else:
        cell_sims = [
            SimpleNamespace(
                params=draw(st.sampled_from(REPLAY_PARAMS)),
                policy=CorrectionPolicy(
                    discretize, draw(st.sampled_from([1.0, 0.0, -1.0])), stick
                ),
            )
            for _ in range(cells)
        ]
        every = np.arange(cells)
        params = _StackedParams(cell_sims).take(every, flat=True)
        policy = _StackedPolicy(cell_sims).take(every, flat=True)
    return ev_time, num_nb, rates, params, policy


def assert_replays_equal(ev_time, num_nb, rates, params, policy, simplified):
    """``_scalar_replay`` == ``_fallback_replay``, output by output, bitwise."""
    args = (ev_time, num_nb, rates, params, policy, simplified)
    names = ("pulses", "correction", "branches", "pulse_time", "effective", "h_own")
    got, want = _scalar_replay(*args), _fallback_replay(*args)
    for name, got_arr, want_arr in zip(names, got, want):
        assert got_arr.dtype == want_arr.dtype, name
        np.testing.assert_array_equal(got_arr, want_arr, err_msg=name)
    return got


class TestScalarReplayDifferential:
    """The per-cell scalar rule against the batched replay, cell by cell.

    Both resolve the same synthetic event rows -- exact own/neighbor
    ties, missing own copies (the via-``H_max`` branch), missing last
    neighbors, cells without neighbor predecessors, all-missing rows and
    per-cell parameter columns -- with no simulation around them.
    """

    @settings(max_examples=60, deadline=None)
    @given(rows=event_rows(), simplified=st.booleans())
    def test_scalar_matches_batched(self, rows, simplified):
        assert_replays_equal(*rows, simplified)

    def test_ties_and_exit_branches(self):
        """Exact ties exit once, after the whole tie; timeouts branch."""
        params = PARAMS_CHOICES[0]
        inf = np.inf
        ev_time = np.array([
            [1.5, 1.0, 1.5],  # own ties the last neighbor: normal exit
            [1.0, 1.0, 1.0],  # all three tie
            [inf, 1.0, 1.01],  # own missing: via H_max
            [1.0, 1.0, inf],  # last neighbor missing: low branch
            [1.6, 1.0, 1.01],  # own late past its timeout: via H_max
            [inf, inf, inf],  # nothing arrives: no pulse
            [inf, 1.0, inf],  # own and last neighbor missing: no pulse
        ])
        num_nb = np.full(len(ev_time), 2)
        rates = np.ones(len(ev_time))
        pulses, _, branches, pulse_time, _, _ = assert_replays_equal(
            ev_time, num_nb, rates, params, PAPER_POLICY, simplified=False
        )
        assert pulses.tolist() == [True] * 5 + [False] * 2
        via_max = BRANCH_CODES["via_max"]
        assert branches[0] != via_max and branches[1] != via_max
        assert branches.tolist()[2:] == [
            via_max, BRANCH_CODES["low"], via_max,
            BRANCH_CODES["none"], BRANCH_CODES["none"],
        ]
        # A tie exits at the tied arrival, with the own copy counted.
        assert pulse_time[0] >= 1.5 and pulse_time[1] >= 1.0

    def test_algorithm1_deadlock_rules(self):
        params = PARAMS_CHOICES[0]
        inf = np.inf
        ev_time = np.array([
            [1.0, 1.0, 1.01],  # everything arrived: pulses
            [inf, 1.0, 1.01],  # own copy missing: deadlock
            [1.0, 1.0, inf],  # a neighbor missing: deadlock
            [1.0, inf, inf],  # no neighbor predecessor at all: deadlock
        ])
        num_nb = np.array([2, 2, 2, 0])
        pulses, correction, branches, _, _, _ = assert_replays_equal(
            ev_time, num_nb, np.ones(4), params, PAPER_POLICY, simplified=True
        )
        assert pulses.tolist() == [True, False, False, False]
        assert np.isnan(correction[1:]).all()
        assert (branches[1:] == BRANCH_CODES["none"]).all()
