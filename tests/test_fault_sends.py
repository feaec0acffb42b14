"""Fault sends as arrays: bitwise against the per-message implementation.

Two layers are pinned, in the behavioural-comparison style of the
differential suite:

* every behaviour class's array-valued ``send_offsets`` and the
  ``send_time`` derived from it, against a per-message oracle kept here
  (the ``SeedSequence`` / ``Generator`` body and the closed forms each
  class used to evaluate once per message);
* the ``fault_sends`` of whole stacks -- a thm13 grid and a crash/recover
  chaos campaign -- against ``data/fault_sends.json``, recorded from the
  per-message recording (see ``fault_sends_grids.py``).
"""

import json
import pickle
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import fault_sends_grids
import repro.core.fast_batch as fast_batch_mod
from repro.core.fast_batch import TrialStack
from repro.experiments.thm13_random_faults import thm13_trials
from repro.faults import (
    AdversarialEarlyFault,
    AdversarialLateFault,
    ByzantineRandomFault,
    CrashFault,
    FaultContext,
    FixedOffsetFault,
    MutableFault,
    PerSuccessorOffsetFault,
    SilentFromFault,
)
from repro.faults.model import SendBatch, send_offsets

FIXTURE = Path(__file__).resolve().parent / "data" / "fault_sends.json"


def oracle_send_time(behavior, context, successor):
    """The per-message send time of every shipped behaviour."""
    t = context.correct_time
    if isinstance(behavior, CrashFault):
        return None
    if isinstance(behavior, SilentFromFault):
        return None if context.pulse >= behavior.start_pulse else t
    if isinstance(behavior, FixedOffsetFault):
        return t + behavior.offset
    if isinstance(behavior, PerSuccessorOffsetFault):
        offset = behavior.offsets.get(successor, 0.0)
        return None if offset is None else t + offset
    if isinstance(behavior, ByzantineRandomFault):
        v, layer = context.node
        sv, sl = successor
        entropy = [behavior.seed & 0xFFFFFFFF, v, layer, sv, sl, context.pulse]
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        return t + float(rng.uniform(-behavior.span, behavior.span))
    if isinstance(behavior, AdversarialEarlyFault):
        return t - behavior.lead_kappas * context.kappa
    if isinstance(behavior, AdversarialLateFault):
        return t + behavior.lag_kappas * context.kappa
    if isinstance(behavior, MutableFault):
        active = behavior.phases[0][1]
        for start, phase in behavior.phases:
            if context.pulse >= start:
                active = phase
        return oracle_send_time(active, context, successor)
    raise TypeError(type(behavior))


def bits(send):
    """A send time's exact bit pattern (None stays None)."""
    return None if send is None else float(send).hex()


vertex_ids = st.one_of(st.integers(0, 5), st.integers(0, 2**32 - 1))
layer_ids = st.integers(0, 6)
pulses = st.integers(0, 8)
times = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False), st.sampled_from([0.0, -0.0])
)
spans = st.floats(0.0, 2.0)


def plain_behaviors():
    successor_offsets = st.dictionaries(
        st.tuples(st.integers(0, 5), layer_ids),
        st.one_of(st.none(), st.floats(-1.0, 1.0)),
        max_size=4,
    )
    return st.one_of(
        st.builds(CrashFault),
        st.builds(SilentFromFault, pulses),
        st.builds(FixedOffsetFault, st.floats(-2.0, 2.0)),
        st.builds(PerSuccessorOffsetFault, successor_offsets),
        st.builds(
            ByzantineRandomFault, spans, st.integers(-(2**40), 2**40)
        ),
        st.builds(AdversarialEarlyFault, st.floats(0.0, 50.0)),
        st.builds(AdversarialLateFault, st.floats(0.0, 50.0)),
    )


@st.composite
def mutable_behaviors(draw):
    """Phase schedules that switch into Byzantine and SilentFrom."""
    count = draw(st.integers(1, 4))
    starts = [0] + sorted(draw(st.sets(st.integers(1, 8), min_size=count - 1, max_size=count - 1)))
    phases = [
        (
            start,
            draw(
                st.one_of(
                    plain_behaviors(),
                    st.builds(ByzantineRandomFault, spans, st.integers(0, 2**31)),
                    st.builds(SilentFromFault, pulses),
                )
            ),
        )
        for start in starts
    ]
    return MutableFault(phases)


behaviors = st.one_of(plain_behaviors(), mutable_behaviors())


@st.composite
def messages(draw):
    """``(behaviors, [(owner, context, successor)])`` of one batch."""
    faults = draw(st.lists(behaviors, min_size=1, max_size=6))
    batch = []
    for _ in range(draw(st.integers(1, 24))):
        node = (draw(vertex_ids), draw(layer_ids))
        successor = (draw(vertex_ids), node[1] + 1)
        context = FaultContext(
            node=node,
            pulse=draw(pulses),
            correct_time=draw(times),
            kappa=draw(st.floats(1e-3, 0.5)),
        )
        batch.append((draw(st.integers(0, len(faults) - 1)), context, successor))
    return faults, batch


class TestSendOffsets:
    @settings(max_examples=150)
    @given(messages())
    def test_array_offsets_match_per_message_oracle(self, drawn):
        faults, batch = drawn

        def column(values, dtype=np.int64):
            return np.array(values, dtype=dtype)

        sends = SendBatch(
            owner=column([owner for owner, _, _ in batch]),
            node=(
                column([c.node[0] for _, c, _ in batch]),
                column([c.node[1] for _, c, _ in batch]),
            ),
            successor=(
                column([s[0] for _, _, s in batch]),
                column([s[1] for _, _, s in batch]),
            ),
            pulse=column([c.pulse for _, c, _ in batch]),
            kappa=column([c.kappa for _, c, _ in batch], float),
        )
        offsets = send_offsets(faults, sends)
        assert offsets.shape == (len(batch),)
        for (owner, context, successor), offset in zip(batch, offsets.tolist()):
            want = oracle_send_time(faults[owner], context, successor)
            got = None if offset == np.inf else context.correct_time + offset
            assert bits(got) == bits(want), (faults[owner], context, successor)

    @settings(max_examples=150)
    @given(behaviors, vertex_ids, layer_ids, pulses, times, vertex_ids)
    def test_send_time_matches_per_message_oracle(
        self, behavior, v, layer, pulse, correct_time, sv
    ):
        context = FaultContext((v, layer), pulse, correct_time, 0.02)
        successor = (sv, layer + 1)
        want = oracle_send_time(behavior, context, successor)
        assert bits(behavior.send_time(context, successor)) == bits(want)

    def test_silent_from_on_both_sides_of_start(self):
        fault = SilentFromFault(start_pulse=3)
        for pulse, silent in ((2, False), (3, True), (4, True)):
            context = FaultContext((0, 1), pulse, -0.0, 0.02)
            send = fault.send_time(context, (0, 2))
            assert (send is None) is silent
            if not silent:
                assert bits(send) == bits(-0.0)

    def test_one_call_per_class(self, monkeypatch):
        calls = []
        for cls in (CrashFault, ByzantineRandomFault, AdversarialLateFault):
            original = cls.send_offsets.__func__

            def counting(cls, faults, sends, original=original):
                calls.append(cls)
                return original(cls, faults, sends)

            monkeypatch.setattr(cls, "send_offsets", classmethod(counting))
        faults = [
            CrashFault(),
            ByzantineRandomFault(0.5, seed=1),
            AdversarialLateFault(2.0),
            ByzantineRandomFault(0.1, seed=2),
            CrashFault(),
        ]
        size = 50
        owner = np.arange(size) % len(faults)
        index = np.arange(size, dtype=np.int64)
        send_offsets(
            faults,
            SendBatch(
                owner=owner,
                node=(index, index % 3),
                successor=(index + 1, index % 3 + 1),
                pulse=index % 4,
                kappa=np.full(size, 0.02),
            ),
        )
        assert sorted(c.__name__ for c in calls) == [
            "AdversarialLateFault",
            "ByzantineRandomFault",
            "CrashFault",
        ]


class TestRecordedFaultSends:
    """Whole-stack ``fault_sends`` equal the per-message recording."""

    @staticmethod
    def fixture(name):
        return json.loads(FIXTURE.read_text())[name]

    def test_thm13_grid(self):
        results = fault_sends_grids.thm13_results()
        want = self.fixture("thm13")
        assert any(want)
        assert [fault_sends_grids.encode(r.fault_sends) for r in results] == want

    def test_crash_recover_campaign_stack(self):
        results = fault_sends_grids.campaign_results()
        want = self.fixture("campaign")
        assert [fault_sends_grids.encode(r.fault_sends) for r in results] == want
        # Pickled results carry their own dict.
        copies = pickle.loads(pickle.dumps(results))
        assert [c.fault_sends for c in copies] == [r.fault_sends for r in results]

    def test_one_record_per_pulse_and_layer(self, monkeypatch):
        steps = []
        record = fast_batch_mod._StackRun.record_fault_sends

        def spy(run, k, layer, plane):
            steps.append((k, layer))
            return record(run, k, layer, plane)

        monkeypatch.setattr(fast_batch_mod._StackRun, "record_fault_sends", spy)
        fault_sends_grids.thm13_results()
        assert steps
        assert len(steps) == len(set(steps))

    @staticmethod
    def count_offset_calls(monkeypatch):
        """Count the stack's ``send_offsets`` calls (one per offset table)."""
        calls = []

        def counting(faults, sends):
            calls.append(sends.pulse.size)
            return send_offsets(faults, sends)

        monkeypatch.setattr(fast_batch_mod, "send_offsets", counting)
        return calls

    def test_dynamic_offsets_once_per_block(self, monkeypatch):
        """One call for the static offsets, then one per pulse block.

        Blocked steps record the sends pulse by pulse inside each layer,
        so offsets cached for one pulse at a time were recomputed at
        nearly every record; the block's table serves all of them.
        """
        calls = self.count_offset_calls(monkeypatch)
        trials, _ = thm13_trials(
            fault_sends_grids.THM13_DIAMETER,
            fault_sends_grids.THM13_SEEDS,
            num_pulses=fault_sends_grids.THM13_PULSES,
        )
        stack = TrialStack([trial.simulation() for trial in trials])
        stack_results = stack.run(fault_sends_grids.THM13_PULSES)
        stats = stack.compaction_stats
        assert stats["block_pulses"] > 1, stats
        assert len(calls) == 1 + stats["pulse_blocks"], calls
        assert [
            fault_sends_grids.encode(r.fault_sends) for r in stack_results
        ] == self.fixture("thm13")

    def test_dynamic_offsets_once_per_block_over_several_blocks(
        self, monkeypatch
    ):
        calls = self.count_offset_calls(monkeypatch)
        num_pulses = 16
        trials, _ = thm13_trials(
            fault_sends_grids.THM13_DIAMETER,
            fault_sends_grids.THM13_SEEDS,
            num_pulses=num_pulses,
        )
        stack = TrialStack([trial.simulation() for trial in trials])
        blocked = stack.run(num_pulses)
        stats = stack.compaction_stats
        assert stats["pulse_blocks"] > 1 and stats["block_pulses"] > 1, stats
        assert len(calls) == 1 + stats["pulse_blocks"], calls
        with monkeypatch.context() as patch:
            patch.setattr(
                fast_batch_mod,
                "_pulse_blocks",
                lambda num_pulses, num_layers, plane_cells, starts=(): [
                    (k, k + 1) for k in range(num_pulses)
                ],
            )
            one_pulse = TrialStack([trial.simulation() for trial in trials]).run(
                num_pulses
            )
        assert [r.fault_sends for r in blocked] == [r.fault_sends for r in one_pulse]
