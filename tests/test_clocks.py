"""Tests for repro.clocks: hardware clock models and drift samplers."""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.clocks import (
    AffineClock,
    PiecewiseRateClock,
    constant_rates,
    slowly_varying_clock,
    uniform_random_rates,
)
from repro.clocks.drift import bounded_walk
from repro.experiments.cor15_variation import _DriftingRates


def reference_slowly_varying(vartheta, horizon, segment, fraction, rng):
    """:func:`slowly_varying_clock`'s rates, one scalar draw a segment."""
    spread = vartheta - 1.0
    rate = float(rng.uniform(1.0, vartheta))
    rates = [rate]
    for _ in range(max(1, int(np.ceil(horizon / segment))) - 1):
        step = float(rng.uniform(-1.0, 1.0)) * fraction * spread
        rate = min(max(rate + step, 1.0), vartheta)
        rates.append(rate)
    return rates


def reference_drift(seed, node, vartheta, step, length):
    """One node's drifting rates, one scalar draw per pulse."""
    v, layer = node
    rng = np.random.default_rng(np.random.SeedSequence([seed, v, layer]))
    rates = [float(rng.uniform(1.0, vartheta))]
    while len(rates) < length:
        delta = float(rng.uniform(-step, step))
        rates.append(min(max(rates[-1] + delta, 1.0), vartheta))
    return rates


class TestBoundedWalk:
    """The one clip-accumulate of every Corollary 1.5 walk."""

    @given(
        first=st.floats(-2.0, 3.0),
        steps=st.lists(st.floats(-1.0, 1.0), max_size=40),
        low=st.floats(-1.0, 1.0),
        width=st.floats(0.0, 2.0),
    )
    def test_matches_the_scalar_clip_loop(self, first, steps, low, width):
        high = low + width
        want = [first]
        for step in steps:
            want.append(min(max(want[-1] + step, low), high))
        got = bounded_walk(first, np.array(steps, dtype=float), low, high)
        assert not got.flags.writeable
        assert got.tobytes() == np.array(want, dtype=float).tobytes()


class TestDriftingRates:
    """The C15 driver's rates are bitwise :func:`reference_drift`."""

    NODES = [(0, 0), (5, 3), (2**33 + 1, 7)]

    @pytest.mark.parametrize("step", [0.0, 0.001, 0.02])
    def test_in_order_queries(self, step):
        rates = _DriftingRates(1.05, step, seed=47)
        for node in self.NODES:
            got = [rates(node, k) for k in range(70)]
            assert all(type(r) is float for r in got)
            want = reference_drift(47, node, 1.05, step, 70)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_out_of_order_and_repeated_queries(self):
        rates = _DriftingRates(1.1, 0.03, seed=3)
        want = {node: reference_drift(3, node, 1.1, 0.03, 200) for node in self.NODES}
        for k in [90, 0, 0, 199, 31, 17, 90, 1, 64, 63]:
            for node in self.NODES[::-1] if k % 2 else self.NODES:
                assert rates(node, k) == want[node][k]

    def test_pickle_depends_only_on_arguments(self):
        rates = _DriftingRates(1.1, 0.03, seed=3)
        fresh = pickle.dumps(rates)
        for k in range(40):
            rates((1, 2), k)
        assert pickle.dumps(rates) == fresh
        assert not any(
            isinstance(v, np.random.Generator) for v in vars(rates).values()
        )


class TestAffineClock:
    def test_identity_default(self):
        c = AffineClock()
        assert c.local_time(5.0) == 5.0
        assert c.real_time(5.0) == 5.0

    def test_rate_and_offset(self):
        c = AffineClock(rate=2.0, offset=1.0)
        assert c.local_time(3.0) == 7.0
        assert c.real_time(7.0) == 3.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            AffineClock(rate=0.0)

    def test_rate_bounds(self):
        assert AffineClock(rate=1.5).rate_bounds() == (1.5, 1.5)

    def test_elapsed_local(self):
        c = AffineClock(rate=1.25, offset=3.0)
        assert c.elapsed_local(2.0, 6.0) == pytest.approx(5.0)

    @given(
        rate=st.floats(min_value=0.5, max_value=3.0),
        offset=st.floats(min_value=-10, max_value=10),
        t=st.floats(min_value=0, max_value=1e6),
    )
    def test_inverse_roundtrip(self, rate, offset, t):
        c = AffineClock(rate=rate, offset=offset)
        assert c.real_time(c.local_time(t)) == pytest.approx(t, abs=1e-6)


class TestPiecewiseRateClock:
    def test_single_segment_matches_affine(self):
        c = PiecewiseRateClock([0.0], [1.5], offset=2.0)
        a = AffineClock(rate=1.5, offset=2.0)
        for t in (0.0, 1.0, 7.5):
            assert c.local_time(t) == pytest.approx(a.local_time(t))

    def test_two_segments(self):
        c = PiecewiseRateClock([0.0, 10.0], [1.0, 2.0])
        assert c.local_time(10.0) == pytest.approx(10.0)
        assert c.local_time(15.0) == pytest.approx(20.0)

    def test_inverse_roundtrip_across_segments(self):
        c = PiecewiseRateClock([0.0, 5.0, 12.0], [1.0, 1.5, 1.2])
        for t in (0.0, 3.0, 5.0, 8.0, 12.0, 20.0):
            assert c.real_time(c.local_time(t)) == pytest.approx(t)

    def test_monotone(self):
        c = PiecewiseRateClock([0.0, 1.0, 2.0], [1.0, 1.3, 1.1])
        times = [c.local_time(0.1 * i) for i in range(50)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_rate_bounds(self):
        c = PiecewiseRateClock([0.0, 1.0], [1.0, 1.4])
        assert c.rate_bounds() == (1.0, 1.4)

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseRateClock([1.0], [1.0])  # must start at 0
        with pytest.raises(ValueError):
            PiecewiseRateClock([0.0, 0.0], [1.0, 1.0])  # not increasing
        with pytest.raises(ValueError):
            PiecewiseRateClock([0.0], [0.0])  # nonpositive rate
        with pytest.raises(ValueError):
            PiecewiseRateClock([0.0, 1.0], [1.0])  # length mismatch

    def test_rejects_negative_queries(self):
        c = PiecewiseRateClock([0.0], [1.0], offset=1.0)
        with pytest.raises(ValueError):
            c.local_time(-1.0)
        with pytest.raises(ValueError):
            c.real_time(0.5)


class TestDriftSamplers:
    def test_constant_rates(self):
        clocks = constant_rates(["a", "b"], rate=1.2)
        assert clocks["a"].rate == 1.2
        assert clocks["b"].rate == 1.2

    def test_uniform_random_rates_within_bounds(self):
        clocks = uniform_random_rates(range(100), vartheta=1.01, rng_or_seed=3)
        for clock in clocks.values():
            assert 1.0 <= clock.rate <= 1.01
            assert clock.offset == 0.0

    def test_uniform_random_rates_deterministic(self):
        a = uniform_random_rates(range(10), 1.01, rng_or_seed=5)
        b = uniform_random_rates(range(10), 1.01, rng_or_seed=5)
        assert all(a[i].rate == b[i].rate for i in range(10))

    def test_uniform_random_rates_offsets(self):
        clocks = uniform_random_rates(
            range(50), 1.01, rng_or_seed=1, offset_span=3.0
        )
        offsets = [c.offset for c in clocks.values()]
        assert all(0.0 <= o <= 3.0 for o in offsets)
        assert max(offsets) > 0.0

    @pytest.mark.parametrize("offset_span", [0.0, 3.0])
    def test_uniform_random_rates_match_sequential_draws(self, offset_span):
        clocks = uniform_random_rates(
            range(300), 1.3, rng_or_seed=8, offset_span=offset_span
        )
        # Both reads of the lazy mapping: a lookup builds its AffineClock
        # from the drawn arrays, which bulk readers take as they are.
        looked_up = [(clocks[n].rate, clocks[n].offset) for n in range(300)]
        arrays = list(zip(clocks.rates.tolist(), clocks.offsets.tolist()))
        assert not clocks.rates.flags.writeable
        assert list(clocks) == list(range(300)) and len(clocks) == 300
        rng = np.random.default_rng(8)
        for node in range(300):
            rate = float(rng.uniform(1.0, 1.3))
            offset = (
                float(rng.uniform(0.0, offset_span)) if offset_span > 0 else 0.0
            )
            assert looked_up[node] == arrays[node] == (rate, offset)

    def test_standard_config_rates_golden(self):
        """Digest of the D=8 standard config's rates, recorded from the
        per-node sampler the bulk draw replaced."""
        from repro.experiments.common import standard_config

        config = standard_config(8, seed=0)
        rates = np.array([config.clock_rates[n] for n in config.graph.nodes()])
        assert hashlib.sha256(rates.tobytes()).hexdigest() == (
            "25ae35fd66d793e0e18cc19ec009c2afa4c18c45243a18360d921f5b87070961"
        )

    def test_standard_config_rate_view_iterates_in_node_order(self):
        from repro.experiments.common import standard_config

        config = standard_config(5, seed=3)
        view = config.clock_rates
        nodes = list(config.graph.nodes())
        assert list(view) == nodes
        assert len(view) == config.graph.num_nodes == len(nodes)
        assert list(view.values()) == [view[n] for n in nodes]
        assert view.plane.shape == (config.num_layers, config.graph.width)
        assert not view.plane.flags.writeable

    def test_uniform_random_rejects_bad_vartheta(self):
        with pytest.raises(ValueError):
            uniform_random_rates(range(3), 0.9)

    def test_slowly_varying_clock_bounds(self):
        c = slowly_varying_clock(
            vartheta=1.01,
            horizon=100.0,
            segment_duration=5.0,
            max_step_fraction=0.1,
            rng_or_seed=2,
        )
        low, high = c.rate_bounds()
        assert 1.0 <= low <= high <= 1.01

    def test_slowly_varying_clock_step_bound(self):
        c = slowly_varying_clock(
            vartheta=1.1,
            horizon=50.0,
            segment_duration=1.0,
            max_step_fraction=0.05,
            rng_or_seed=4,
        )
        rates = c._rates
        max_step = 0.05 * 0.1
        for r1, r2 in zip(rates, rates[1:]):
            assert abs(r2 - r1) <= max_step + 1e-12

    @pytest.mark.parametrize(
        "vartheta, horizon, segment, fraction",
        [(1.1, 50.0, 1.0, 0.05), (1.01, 7.5, 2.0, 1.0), (2, 3.0, 0.25, 3),
         (1.2, 1.0, 5.0, 0.5), (1.3, 40.0, 1.0, 0.0)],
    )
    def test_slowly_varying_clock_matches_scalar_walk(
        self, vartheta, horizon, segment, fraction
    ):
        for seed in range(5):
            c = slowly_varying_clock(vartheta, horizon, segment, fraction, seed)
            want = reference_slowly_varying(
                vartheta, horizon, segment, fraction, np.random.default_rng(seed)
            )
            assert all(type(r) is float for r in c._rates)
            assert np.array(c._rates).tobytes() == np.array(want, float).tobytes()

    def test_slowly_varying_clock_draws_from_a_given_generator(self):
        # A passed generator is advanced exactly as the scalar walk does.
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        c = slowly_varying_clock(1.05, 20.0, 1.0, 0.2, ours)
        want = reference_slowly_varying(1.05, 20.0, 1.0, 0.2, theirs)
        assert c._rates == want
        assert ours.random() == theirs.random()

    def test_slowly_varying_rejects_bad_args(self):
        with pytest.raises(ValueError):
            slowly_varying_clock(0.9, 10.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            slowly_varying_clock(1.01, 0.0, 1.0, 0.1)
