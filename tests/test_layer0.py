"""Tests for repro.core.layer0: input pulse generation (Appendix A)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks import PiecewiseRateClock, uniform_random_rates
from repro.core.layer0 import (
    AlternatingLayer0,
    ChainLayer0,
    JitteredLayer0,
    PerfectLayer0,
    stacked_pulse_row,
    stacked_pulse_times,
)
from repro.delays import DelayModel, StaticDelayModel, VaryingDelayModel
from repro.params import Parameters
from repro.topology import cycle_graph, replicated_line

PARAMS = Parameters(d=1.0, u=0.01, vartheta=1.001, Lambda=2.0)


class TestPerfect:
    def test_pulse_times(self):
        s = PerfectLayer0(Lambda=2.0)
        assert s.pulse_time(0, 0) == 0.0
        assert s.pulse_time(5, 3) == 6.0

    def test_zero_local_skew(self):
        s = PerfectLayer0(Lambda=2.0)
        assert s.local_skew(replicated_line(4), pulses=3) == 0.0

    def test_rejects_negative_pulse(self):
        with pytest.raises(ValueError):
            PerfectLayer0(2.0).pulse_time(0, -1)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            PerfectLayer0(0.0)


class TestJittered:
    def test_jitter_bounded(self):
        s = JitteredLayer0(Lambda=2.0, num_vertices=20, jitter_bound=0.05, seed=1)
        for v in range(20):
            offset = s.pulse_time(v, 0)
            assert 0.0 <= offset <= 0.1  # base offset keeps times >= 0

    def test_static_across_pulses(self):
        s = JitteredLayer0(Lambda=2.0, num_vertices=5, jitter_bound=0.05, seed=1)
        j0 = s.pulse_time(3, 0)
        assert s.pulse_time(3, 4) == pytest.approx(j0 + 8.0)

    def test_local_skew_within_twice_bound(self):
        base = replicated_line(8)
        s = JitteredLayer0(2.0, base.num_nodes, jitter_bound=0.03, seed=2)
        assert s.local_skew(base, pulses=2) <= 0.06 + 1e-12

    def test_rejects_base_wider_than_its_jitter(self):
        base = replicated_line(4)
        s = JitteredLayer0(2.0, 3, jitter_bound=0.03)
        with pytest.raises(ValueError, match="3 jitter values .* 6 vertices"):
            s.pulse_times_array(base, 2)
        with pytest.raises(ValueError, match="3 jitter values .* 6 vertices"):
            stacked_pulse_times([PerfectLayer0(2.0), s], [base, base], range(2))


class TestAlternating:
    def test_zigzag_pattern(self):
        s = AlternatingLayer0(Lambda=2.0, amplitude=0.1)
        assert s.pulse_time(0, 0) == pytest.approx(0.2)
        assert s.pulse_time(1, 0) == pytest.approx(0.0)
        assert s.pulse_time(2, 1) == pytest.approx(2.2)

    def test_adjacent_offset_is_twice_amplitude(self):
        s = AlternatingLayer0(Lambda=2.0, amplitude=0.1)
        assert abs(s.pulse_time(0, 0) - s.pulse_time(1, 0)) == pytest.approx(0.2)


class TestChain:
    def _chain(self, length=8, seed=0, rates=True):
        order = list(range(length))
        delays = StaticDelayModel(PARAMS.d, PARAMS.u, seed=seed)
        clocks = (
            uniform_random_rates(order, PARAMS.vartheta, rng_or_seed=seed + 1)
            if rates
            else None
        )
        return ChainLayer0(PARAMS, order, delay_model=delays, clocks=clocks)

    def test_lemma_a1_envelope(self):
        chain = self._chain()
        for pos in range(8):
            for k in range(5):
                t = chain.chain_pulse_time(pos, k)
                low, high = chain.lemma_a1_envelope(pos, k)
                assert low - 1e-9 <= t <= high + 1e-9

    def test_adjacent_chain_skew_at_most_half_kappa(self):
        # Lemma A.1: pipelined-adjacent offsets bounded by kappa / 2.
        chain = self._chain(length=16, seed=3)
        for k in range(4):
            for pos in range(1, 16):
                a = chain.chain_pulse_time(pos - 1, k + 1)
                b = chain.chain_pulse_time(pos, k)
                assert abs(a - b) <= PARAMS.kappa / 2 + 1e-12

    def test_grid_reindexing_aligns_pulses(self):
        # Grid pulse k of every vertex lands near (k + P) * Lambda.
        chain = self._chain(length=8)
        for k in range(3):
            times = [chain.pulse_time(v, k) for v in range(8)]
            nominal = (k + 8) * PARAMS.Lambda
            assert all(nominal - 8 * PARAMS.kappa <= t <= nominal for t in times)

    def test_grid_adjacent_skew_small(self):
        chain = self._chain(length=12, seed=5)
        for k in range(3):
            times = [chain.pulse_time(v, k) for v in range(12)]
            for a, b in zip(times, times[1:]):
                assert abs(a - b) <= PARAMS.kappa / 2 + 1e-12

    def test_period_is_source_period(self):
        chain = self._chain()
        t0 = chain.pulse_time(3, 0)
        t1 = chain.pulse_time(3, 1)
        assert t1 - t0 == pytest.approx(PARAMS.Lambda)

    def test_rejects_unknown_vertex(self):
        chain = self._chain(length=4)
        with pytest.raises(ValueError):
            chain.pulse_time(99, 0)

    def test_rejects_duplicate_chain(self):
        with pytest.raises(ValueError):
            ChainLayer0(PARAMS, [0, 1, 1])

    @pytest.mark.parametrize("period", [0.0, -1.0])
    def test_rejects_non_positive_source_period(self, period):
        with pytest.raises(ValueError, match="source_period"):
            ChainLayer0(PARAMS, [0, 1], source_period=period)

    def test_source_period_defaults_to_lambda(self):
        assert ChainLayer0(PARAMS, [0, 1]).source_period == PARAMS.Lambda
        assert ChainLayer0(PARAMS, [0, 1], source_period=3.0).source_period == 3.0

    def test_rejects_varying_rate_clock(self):
        clock = PiecewiseRateClock([0.0, 1.0], [1.0, 1.001])
        chain = ChainLayer0(PARAMS, [0, 1], clocks={1: clock})
        with pytest.raises(ValueError, match="constant-rate"):
            chain.pulse_time(1, 0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_lemma_a1_envelope_property(self, seed):
        """Property: the Lemma A.1 envelope holds for any delay/rate draw."""
        chain = self._chain(length=10, seed=seed)
        for pos in (0, 4, 9):
            for k in (0, 3):
                t = chain.chain_pulse_time(pos, k)
                low, high = chain.lemma_a1_envelope(pos, k)
                assert low - 1e-9 <= t <= high + 1e-9

    def test_wide_chain_no_recursion_blowup(self):
        """Regression: a cold far-end query on a 5000-node chain used to
        recurse through every predecessor position and blow the interpreter
        recursion limit; the iterative fill must handle it."""
        order = list(range(5000))
        delays = StaticDelayModel(PARAMS.d, PARAMS.u, seed=0)
        chain = ChainLayer0(PARAMS, order, delay_model=delays)
        t = chain.chain_pulse_time(4999, 0)
        low, high = chain.lemma_a1_envelope(4999, 0)
        assert low - 1e-9 <= t <= high + 1e-9
        # Grid re-indexing at the chain head needs the deepest chain pulse.
        assert chain.pulse_time(0, 0) > 0.0


def _loop_times(schedule, base, pulses):
    """The pre-array reference: per-node, per-pulse ``pulse_time`` calls."""
    return np.array(
        [[schedule.pulse_time(v, k) for v in base.nodes()] for k in range(pulses)]
    ).reshape(pulses, base.num_nodes)


def _loop_local_skew(schedule, base, pulses):
    """The old O(pulses x edges) double-loop ``local_skew`` reference."""
    worst = 0.0
    for k in range(pulses):
        for v, w in base.edges:
            worst = max(
                worst, abs(schedule.pulse_time(v, k) - schedule.pulse_time(w, k))
            )
    return worst


class TestPulseTimesArray:
    """pulse_times_array must be bit-identical to pulse_time loops."""

    def _schedules(self, base):
        delays = StaticDelayModel(PARAMS.d, PARAMS.u, seed=2)
        clocks = uniform_random_rates(
            list(base.nodes()), PARAMS.vartheta, rng_or_seed=3
        )
        return [
            PerfectLayer0(PARAMS.Lambda),
            JitteredLayer0(PARAMS.Lambda, base.num_nodes, 0.05, seed=1),
            AlternatingLayer0(PARAMS.Lambda, 0.1),
            ChainLayer0(
                PARAMS, list(base.nodes()), delay_model=delays, clocks=clocks
            ),
        ]

    @pytest.mark.parametrize("pulses", [1, 4])
    def test_bit_identical_to_scalar_loop(self, pulses):
        base = replicated_line(8)
        for schedule in self._schedules(base):
            np.testing.assert_array_equal(
                schedule.pulse_times_array(base, pulses),
                _loop_times(schedule, base, pulses),
                err_msg=type(schedule).__name__,
            )

    def test_zero_pulses_empty_shape(self):
        base = replicated_line(4)
        assert PerfectLayer0(2.0).pulse_times_array(base, 0).shape == (
            0,
            base.num_nodes,
        )

    def test_rejects_negative_pulses(self):
        base = replicated_line(4)
        for schedule in (
            PerfectLayer0(2.0),
            AlternatingLayer0(2.0, 0.1),
            JitteredLayer0(2.0, base.num_nodes, 0.05),
        ):
            with pytest.raises(ValueError):
                schedule.pulse_times_array(base, -1)

    def test_chain_rejects_off_chain_vertices(self):
        chain = ChainLayer0(PARAMS, [0, 1, 2])
        with pytest.raises(ValueError, match="not on the chain"):
            chain.pulse_times_array(replicated_line(4), 2)

    def test_local_skew_matches_double_loop(self):
        base = replicated_line(8)
        for schedule in self._schedules(base):
            assert schedule.local_skew(base, 3) == pytest.approx(
                _loop_local_skew(schedule, base, 3), abs=0.0
            ), type(schedule).__name__

    def test_local_skew_zero_pulses(self):
        base = replicated_line(4)
        assert PerfectLayer0(2.0).local_skew(base, 0) == 0.0


class TestChainVectorizedFill:
    """The pulse-axis-vectorized chain fill == the scalar cached fill.

    Regression for the Chain layer-0 fill: a cold ``pulse_times_array``
    on a P-node chain used to walk O(P^2) per-entry Python iterations
    (~6 s at P = 5000); pulse-invariant models now advance the whole
    pulse axis per hop.  The fill must stay bit-identical to the
    per-entry cache the scalar ``pulse_time`` walks -- the vectorized
    sweep evaluates the same expressions in the same association --
    and must leave that cache alone.
    """

    def _chain(self, base, seed=0, rates=True):
        clocks = (
            uniform_random_rates(
                list(base.nodes()), PARAMS.vartheta, rng_or_seed=seed + 1
            )
            if rates
            else None
        )
        return ChainLayer0(
            PARAMS,
            list(base.nodes()),
            delay_model=StaticDelayModel(PARAMS.d, PARAMS.u, seed=seed),
            clocks=clocks,
        )

    @pytest.mark.parametrize("pulses", [1, 3])
    def test_bit_identical_to_cached_fill(self, pulses):
        base = replicated_line(120)
        chain = self._chain(base, seed=4)
        vectorized = stacked_pulse_times([chain], [base], range(pulses))[0]
        assert not any(chain._chain_times)
        cached = _loop_times(self._chain(base, seed=4), base, pulses)
        np.testing.assert_array_equal(vectorized, cached)

    def test_pulse_varying_model_fill_leaves_schedule_untouched(self):
        # A VaryingDelayModel with max_step=0 draws the same base delays
        # as StaticDelayModel from the same seed but is not declared
        # pulse-invariant, so the hop carry takes one delay per chain
        # pulse; both must agree bit for bit, and neither fill writes the
        # schedule's scalar cache.
        base = replicated_line(40)
        static = self._chain(base, seed=7, rates=False)
        varying = ChainLayer0(
            PARAMS,
            list(base.nodes()),
            delay_model=VaryingDelayModel(PARAMS.d, PARAMS.u, 0.0, seed=7),
        )
        np.testing.assert_array_equal(
            static.pulse_times_array(base, 3),
            varying.pulse_times_array(base, 3),
        )
        assert not any(varying._chain_times)

    def test_custom_pulse_varying_model_fill_matches_scalar_loop(self):
        # A model without its own ``pulse_delays`` is queried pulse by
        # pulse through the base class's default.
        class Ramp(DelayModel):
            def delay(self, edge, pulse=0):
                return self.d - self.u * ((edge[1][0] + pulse) % 5) / 4

        base = cycle_graph(9)
        chain = ChainLayer0(PARAMS, list(base.nodes()), delay_model=Ramp(PARAMS.d, PARAMS.u))
        for pulses in (1, 4):
            np.testing.assert_array_equal(
                chain.pulse_times_array(base, pulses), _loop_times(chain, base, pulses)
            )
        assert any(chain._chain_times)  # only the scalar loop fills it

    def test_five_thousand_node_chain_stacked_equals_per_trial(self):
        """The 5000-node acceptance cell: whole fill == block fill == scalar."""
        base = replicated_line(4998)
        assert base.num_nodes == 5000
        chain = self._chain(base, seed=0, rates=False)
        arr = chain.pulse_times_array(base, 3)
        block = stacked_pulse_times([chain], [base], range(1, 3))
        np.testing.assert_array_equal(block[0], arr[1:])
        # Scalar spot checks at both chain ends (cheap cache fills).
        probe = self._chain(base, seed=0, rates=False)
        for v in (0, 1, 4998, 4999):
            for k in (0, 2):
                assert arr[k, v] == probe.pulse_time(v, k)


FILL_CASES = (
    "perfect", "jittered", "alternating", "static_chain", "varying_chain",
    "mixed",
)


def _fill_case(name):
    """Fresh ``(schedules, bases)`` of one case: three trials of mixed
    widths, of one class (a chain on static or on pulse-varying delays)
    or of three classes."""
    bases = [replicated_line(3), cycle_graph(9), cycle_graph(6)]

    def chain(i, base, model):
        nodes = list(base.nodes())
        return ChainLayer0(
            PARAMS,
            nodes[::-1],
            delay_model=model,
            clocks=uniform_random_rates(nodes, PARAMS.vartheta, rng_or_seed=i),
            source_period=PARAMS.Lambda * 1.01,
        )

    makers = {
        "perfect": lambda i, b: PerfectLayer0(2.0 + 0.75 * i),
        "jittered": lambda i, b: JitteredLayer0(2.0, b.num_nodes, 0.05, seed=i),
        "alternating": lambda i, b: AlternatingLayer0(2.0, 0.1 * (i + 1)),
        "static_chain": lambda i, b: chain(
            i, b, StaticDelayModel(PARAMS.d, PARAMS.u, seed=i)
        ),
        "varying_chain": lambda i, b: chain(
            i, b, VaryingDelayModel(PARAMS.d, PARAMS.u, 0.002, seed=i)
        ),
    }
    mixed = ("perfect", "jittered", "varying_chain")
    return [
        makers[mixed[i] if name == "mixed" else name](i, base)
        for i, base in enumerate(bases)
    ], bases


FILL_PULSES = 7


class TestRangeFill:
    """Any range of grid pulses fills bit-identically to the whole horizon
    and to the scalar ``pulse_time`` loop, NaN past each trial's width."""

    @pytest.mark.parametrize("case", FILL_CASES)
    @pytest.mark.parametrize("k0, k1", [(0, 7), (0, 1), (2, 5), (6, 7), (3, 3)])
    def test_range_equals_whole_and_scalar(self, case, k0, k1):
        whole = stacked_pulse_times(*_fill_case(case), range(FILL_PULSES))
        # A cold schedule, so a cached fill starts from nothing.
        schedules, bases = _fill_case(case)
        block = stacked_pulse_times(schedules, bases, range(k0, k1))
        width = max(base.num_nodes for base in bases)
        assert block.shape == (len(schedules), k1 - k0, width)
        np.testing.assert_array_equal(block, whole[:, k0:k1])
        reference, _ = _fill_case(case)
        for s, (schedule, base) in enumerate(zip(reference, bases)):
            np.testing.assert_array_equal(
                block[s, :, : base.num_nodes],
                _loop_times(schedule, base, k1)[k0:],
            )
            assert np.isnan(block[s, :, base.num_nodes:]).all()

    @pytest.mark.parametrize("case", FILL_CASES)
    def test_blocks_into_out_rows(self, case):
        # Block by block into one reused buffer, the way a run fills its
        # ring: every cell is overwritten, padding included.
        schedules, bases = _fill_case(case)
        whole = stacked_pulse_times(*_fill_case(case), range(FILL_PULSES))
        ring = np.full((len(schedules), 3, 2, whole.shape[-1] + 1), -1.0)
        for k0 in range(0, FILL_PULSES, 3):
            pulses = range(k0, min(k0 + 3, FILL_PULSES))
            out = ring[:, : len(pulses), 0, : whole.shape[-1]]
            got = stacked_pulse_times(schedules, bases, pulses, out=out)
            assert np.shares_memory(got, ring)
            np.testing.assert_array_equal(out, whole[:, pulses.start : pulses.stop])
        assert (ring[:, :, 1] == -1.0).all() and (ring[..., -1] == -1.0).all()

    @pytest.mark.parametrize("case", FILL_CASES)
    def test_stacked_pulse_row(self, case):
        schedules, bases = _fill_case(case)
        whole = stacked_pulse_times(*_fill_case(case), range(FILL_PULSES))
        np.testing.assert_array_equal(
            stacked_pulse_row(schedules, bases, 4), whole[:, 4]
        )
        out = np.zeros((len(schedules), whole.shape[-1]))
        row = stacked_pulse_row(schedules, bases, 2, out=out)
        assert np.shares_memory(row, out)
        np.testing.assert_array_equal(out, whole[:, 2])

    def test_validation(self):
        schedules, bases = [PerfectLayer0(2.0)], [cycle_graph(3)]
        for pulses in (range(0, 4, 2), 3):
            with pytest.raises(ValueError, match="pulses"):
                stacked_pulse_times(schedules, bases, pulses)
        with pytest.raises(ValueError, match="shape"):
            stacked_pulse_times(schedules, bases, range(2), out=np.empty((1, 3, 3)))
        with pytest.raises(ValueError, match="shape"):
            stacked_pulse_times(schedules, bases, range(2), out=np.empty((1, 2, 2)))
        with pytest.raises(ValueError, match="pulses"):
            stacked_pulse_row(schedules, bases, -1)
        assert stacked_pulse_times([], [], range(2)).shape == (0, 2, 0)
