"""Tests for repro.delays: delay model implementations."""

import hashlib
import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.delays import (
    AdversarialSplitDelays,
    StaticDelayModel,
    UniformDelayModel,
    VaryingDelayModel,
)
from repro.delays.models import _first_uniform

EDGE = ((0, 0), (1, 1))
OTHER = ((1, 0), (0, 1))


class TestUniform:
    def test_default_midpoint(self):
        m = UniformDelayModel(d=1.0, u=0.2)
        assert m.delay(EDGE) == pytest.approx(0.9)

    def test_explicit_value(self):
        m = UniformDelayModel(d=1.0, u=0.2, value=0.85)
        assert m.delay(EDGE) == 0.85

    def test_rejects_value_outside_range(self):
        with pytest.raises(ValueError):
            UniformDelayModel(d=1.0, u=0.1, value=0.5)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            UniformDelayModel(d=0.0, u=0.0)
        with pytest.raises(ValueError):
            UniformDelayModel(d=1.0, u=2.0)


class TestStatic:
    def test_within_bounds(self):
        m = StaticDelayModel(d=1.0, u=0.1, seed=0)
        for v in range(20):
            delay = m.delay(((v, 0), (v, 1)))
            assert 0.9 <= delay <= 1.0

    def test_static_across_pulses(self):
        m = StaticDelayModel(d=1.0, u=0.1, seed=0)
        assert m.delay(EDGE, 0) == m.delay(EDGE, 7)

    def test_query_order_independent(self):
        a = StaticDelayModel(d=1.0, u=0.1, seed=3)
        b = StaticDelayModel(d=1.0, u=0.1, seed=3)
        a.delay(EDGE)
        a.delay(OTHER)
        b.delay(OTHER)  # reversed order
        b.delay(EDGE)
        assert a.delay(EDGE) == b.delay(EDGE)
        assert a.delay(OTHER) == b.delay(OTHER)

    def test_seed_changes_delays(self):
        a = StaticDelayModel(d=1.0, u=0.1, seed=0)
        b = StaticDelayModel(d=1.0, u=0.1, seed=1)
        assert a.delay(EDGE) != b.delay(EDGE)

    def test_string_node_parts_supported(self):
        # Layer-0 chains key the source edge with a string vertex.
        m = StaticDelayModel(d=1.0, u=0.1, seed=0)
        delay = m.delay((("source", -1), (0, 0)))
        assert 0.9 <= delay <= 1.0



def reference_rng(seed, edge):
    """A fresh numpy generator seeded by ``seed`` and the edge's parts
    (ints as 32-bit words, other parts by the crc32 of their repr)."""
    words = [seed & 0xFFFFFFFF]
    for part in (edge[0][0], edge[0][1], edge[1][0], edge[1][1]):
        if isinstance(part, int):
            words.append(part & 0xFFFFFFFF)
        else:
            words.append(zlib.crc32(repr(part).encode()))
    return np.random.default_rng(np.random.SeedSequence(words))


def numpy_reference(seed, edge, d, u):
    """The per-edge draw the static model promises, built from numpy."""
    return reference_rng(seed, edge).uniform(d - u, d)


def reference_walk(seed, edge, d, u, max_step, length):
    """The first ``length`` delays of an edge's walk, one step at a time:
    one generator per edge, one scalar draw per step, each sum clipped
    to ``[d - u, d]`` by ``min(max(...))``."""
    rng = reference_rng(seed, edge)
    walk = [float(rng.uniform(d - u, d))]
    while len(walk) < length:
        step = float(rng.uniform(-max_step, max_step))
        walk.append(min(max(walk[-1] + step, d - u), d))
    return walk


class TestArrayEndpoints:
    """Array-valued endpoints return the whole block, bitwise per edge."""

    @pytest.mark.parametrize(
        "seed", [0, 7, 3608831833, 2**32 + 5, 2**40 + 12345, 2**63 - 1]
    )
    def test_static_block_matches_numpy_bitwise(self, seed):
        rng = np.random.default_rng(seed % 1000)
        n = 400
        v1 = rng.integers(-3, 2**34, n)
        l1 = rng.integers(-1, 3, n)  # layer words -1, 0, 1, 2
        v2 = rng.integers(0, 2**31, n)
        l2 = rng.integers(-1, 70, n)
        m = StaticDelayModel(d=1.0, u=0.01, seed=seed)
        block = m.delay(((v1, l1), (v2, l2)))
        want = np.array([
            numpy_reference(seed, ((int(a), int(b)), (int(c), int(e))), 1.0, 0.01)
            for a, b, c, e in zip(v1, l1, v2, l2)
        ])
        assert block.shape == (n,)
        assert block.tobytes() == want.tobytes()

    def test_string_parts_and_broadcast(self):
        m = StaticDelayModel(d=2.0, u=0.5, seed=11)
        targets = np.arange(40).reshape(5, 8)
        block = m.delay((("source", -1), (targets, 0)))
        want = np.array([
            numpy_reference(11, (("source", -1), (int(v), 0)), 2.0, 0.5)
            for v in targets.ravel()
        ]).reshape(5, 8)
        assert block.tobytes() == want.tobytes()

    def test_scalar_is_the_zero_d_case(self):
        m = StaticDelayModel(d=1.0, u=0.1, seed=2**33 + 1)
        v = np.arange(30)
        block = m.delay(((v, 4), (v + 1, 5)))
        scalars = [m.delay(((int(x), 4), (int(x) + 1, 5))) for x in v]
        assert all(type(x) is float for x in scalars)
        assert block.tobytes() == np.array(scalars).tobytes()
        edge = (("source", -1), (3, 0))
        assert m.delay(edge) == numpy_reference(2**33 + 1, edge, 1.0, 0.1)

    def test_rejects_non_integer_array_parts(self):
        m = StaticDelayModel(d=1.0, u=0.1, seed=0)
        with pytest.raises(TypeError):
            m.delay(((np.array([0.5]), 0), (np.array([1]), 1)))

    def test_uniform_block(self):
        m = UniformDelayModel(d=1.0, u=0.2, value=0.85)
        block = m.delay(((np.arange(6), 0), (np.arange(6), 1)))
        np.testing.assert_array_equal(block, np.full(6, 0.85))

    def test_golden_delay_table(self):
        """Digest of the D=8 standard config's delays, recorded from the
        per-edge numpy sampler the bulk path replaced."""
        from repro.experiments.common import standard_config

        config = standard_config(8, seed=0)
        graph = config.graph
        edges = []
        for v in range(graph.width):
            edges.append((("source", -1), (v, 0)))
            edges.extend(((w, 0), (v, 0)) for w in graph.base.neighbors(v))
        for node in graph.nodes():
            edges.extend((pred, node) for pred in graph.predecessors(node))
        values = np.array([config.delay_model.delay(e) for e in edges])
        assert len(edges) == 280
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "6554f016280362befd86238a9e10fb4d1686d93f1e204cbcd8a0259d3453d473"
        )


class TestFirstUniform:
    """``_first_uniform`` replays numpy's seeded draw for any entropy length."""

    @staticmethod
    def numpy_draw(words, low, high):
        rng = np.random.default_rng(np.random.SeedSequence(words))
        return rng.uniform(low, high)

    @given(
        words=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
        low=st.floats(-10.0, 10.0),
        width=st.floats(0.0, 10.0),
    )
    def test_scalar_words_match_numpy_bitwise(self, words, low, width):
        high = low + width
        assert _first_uniform(words, low, high) == self.numpy_draw(words, low, high)

    @pytest.mark.parametrize("count", range(1, 9))
    def test_array_words_match_numpy_bitwise(self, count):
        rng = np.random.default_rng(count)
        block = rng.integers(0, 2**32, size=(count, 64), dtype=np.uint64)
        block[:, 0] = 0
        block[:, 1] = 2**32 - 1
        block[::2, 2] = 0
        block[1::2, 2] = 2**32 - 1
        got = _first_uniform(list(block), -0.5, 1.5)
        want = [
            self.numpy_draw(column.tolist(), -0.5, 1.5) for column in block.T
        ]
        np.testing.assert_array_equal(got, want)
        # A scalar word mixed into a block broadcasts like the array.
        mixed = _first_uniform([7] + list(block[1:]), -0.5, 1.5)
        np.testing.assert_array_equal(
            mixed,
            [
                self.numpy_draw([7] + column.tolist()[1:], -0.5, 1.5)
                for column in block.T
            ],
        )


class TestAdversarial:
    def test_split(self):
        m = AdversarialSplitDelays(
            d=1.0, u=0.1, slow_edge=lambda e: e[0][0] == 0
        )
        assert m.delay(EDGE) == 1.0
        assert m.delay(OTHER) == 0.9


class TestVarying:
    def test_within_bounds_always(self):
        m = VaryingDelayModel(d=1.0, u=0.1, max_step=0.05, seed=0)
        for pulse in range(50):
            assert 0.9 <= m.delay(EDGE, pulse) <= 1.0

    def test_step_bound(self):
        m = VaryingDelayModel(d=1.0, u=0.2, max_step=0.01, seed=1)
        values = [m.delay(EDGE, k) for k in range(40)]
        for a, b in zip(values, values[1:]):
            assert abs(b - a) <= 0.01 + 1e-12

    def test_zero_step_is_static(self):
        m = VaryingDelayModel(d=1.0, u=0.1, max_step=0.0, seed=2)
        values = {m.delay(EDGE, k) for k in range(10)}
        assert len(values) == 1

    def test_deterministic_given_seed(self):
        a = VaryingDelayModel(d=1.0, u=0.1, max_step=0.02, seed=9)
        b = VaryingDelayModel(d=1.0, u=0.1, max_step=0.02, seed=9)
        assert [a.delay(EDGE, k) for k in range(10)] == [
            b.delay(EDGE, k) for k in range(10)
        ]

    def test_out_of_order_queries_consistent(self):
        a = VaryingDelayModel(d=1.0, u=0.1, max_step=0.02, seed=4)
        late_first = a.delay(EDGE, 9)
        b = VaryingDelayModel(d=1.0, u=0.1, max_step=0.02, seed=4)
        for k in range(10):
            b.delay(EDGE, k)
        assert late_first == b.delay(EDGE, 9)

    def test_rejects_negative_pulse(self):
        m = VaryingDelayModel(d=1.0, u=0.1, max_step=0.01)
        with pytest.raises(ValueError):
            m.delay(EDGE, -1)

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError):
            VaryingDelayModel(d=1.0, u=0.1, max_step=-0.1)


#: Edges with int parts (one past 32 bits) and a string source part.
WALK_EDGES = [EDGE, (("source", -1), (3, 0)), ((2**33 + 5, 2), (7, 3))]


class TestVaryingReference:
    """The replayed walk is bitwise the scalar walk of
    :func:`reference_walk`, whatever the order of the queries."""

    @pytest.mark.parametrize("max_step", [0.0, 0.004, 0.05])
    @pytest.mark.parametrize("edge", WALK_EDGES, ids=["ints", "source", "wide"])
    def test_in_order_queries(self, edge, max_step):
        m = VaryingDelayModel(d=1.0, u=0.1, max_step=max_step, seed=5)
        got = [m.delay(edge, k) for k in range(70)]
        want = reference_walk(5, edge, 1.0, 0.1, max_step, 70)
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_out_of_order_and_repeated_queries(self):
        m = VaryingDelayModel(d=2.0, u=0.5, max_step=0.2, seed=2**40 + 3)
        want = {
            edge: reference_walk(2**40 + 3, edge, 2.0, 0.5, 0.2, 301)
            for edge in WALK_EDGES
        }
        pulses = [40, 3, 3, 0, 129, 17, 129, 64, 1, 300, 0, 299, 16, 15]
        for k in pulses:
            for edge in WALK_EDGES[::-1] if k % 2 else WALK_EDGES:
                assert m.delay(edge, k) == want[edge][k]

    def test_pulse_delays_slice_the_walk(self):
        m = VaryingDelayModel(d=1.0, u=0.1, max_step=0.02, seed=8)
        want = np.array(reference_walk(8, EDGE, 1.0, 0.1, 0.02, 90))
        for pulses in (range(0, 0), range(5, 40), range(17, 18), range(0, 90)):
            got = m.pulse_delays(EDGE, pulses)
            assert got.tobytes() == want[pulses.start: pulses.stop].tobytes()

    def test_holds_no_generator(self):
        m = VaryingDelayModel(d=1.0, u=0.1, max_step=0.01, seed=1)
        for k in (0, 33, 5):
            m.delay(EDGE, k)
        values = list(vars(m).values()) + list(m._cache.values())
        assert not any(isinstance(v, np.random.Generator) for v in values)
        assert not any(w.flags.writeable for w in m._cache.values())


class TestPickleIsConstructorOnly:
    """A model pickles to the bytes of a fresh one, however it was used."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: StaticDelayModel(d=1.0, u=0.1, seed=3),
            lambda: VaryingDelayModel(d=1.0, u=0.1, max_step=0.01, seed=3),
        ],
        ids=["static", "varying"],
    )
    def test_queries_leave_the_pickle_unchanged(self, make):
        model = make()
        fresh = pickle.dumps(model)
        for k in range(20):
            for edge in WALK_EDGES:
                model.delay(edge, k)
        assert pickle.dumps(model) == fresh == pickle.dumps(make())
        copy = pickle.loads(fresh)
        assert [copy.delay(EDGE, k) for k in (19, 2)] == [
            model.delay(EDGE, k) for k in (19, 2)
        ]


@given(
    d=st.floats(min_value=0.1, max_value=10.0),
    u_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
    v=st.integers(min_value=0, max_value=1000),
    layer=st.integers(min_value=0, max_value=1000),
)
def test_static_delays_always_in_range(d, u_frac, seed, v, layer):
    """Property: every sampled delay lies in [d - u, d]."""
    u = d * u_frac
    m = StaticDelayModel(d=d, u=u, seed=seed)
    delay = m.delay(((v, layer), (v + 1, layer + 1)))
    assert d - u - 1e-12 <= delay <= d + 1e-12
