"""Tests for repro.clocks: hardware clock models and drift samplers."""

import hashlib

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

    def test_slowly_varying_rejects_bad_args(self):
        with pytest.raises(ValueError):
            slowly_varying_clock(0.9, 10.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            slowly_varying_clock(1.01, 0.0, 1.0, 0.1)
