"""Streaming accumulators: numerical equivalence with one-shot NumPy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.assess import (
    AssessmentChunk,
    ClassEnergyStats,
    FixedVsRandomAccumulator,
    SelectionBitAccumulator,
    StreamingMoments,
)

CHUNK_SIZES = (1, 7, 64, 997, 4096)


def _stream(values: np.ndarray, chunk_size: int) -> StreamingMoments:
    moments = StreamingMoments()
    for start in range(0, values.shape[0], chunk_size):
        moments.update(values[start:start + chunk_size])
    return moments


@pytest.fixture(scope="module")
def noisy_values() -> np.ndarray:
    rng = np.random.default_rng(42)
    # Energy-like magnitudes with structure: lognormal around 1e-12.
    return 1e-12 * np.exp(rng.normal(0.0, 0.3, size=5000))


class TestStreamingMoments:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_matches_one_shot_numpy(self, noisy_values, chunk_size):
        moments = _stream(noisy_values, chunk_size)
        assert moments.count == noisy_values.shape[0]
        assert np.isclose(moments.mean, noisy_values.mean(), rtol=1e-10, atol=0.0)
        assert np.isclose(
            moments.variance, noisy_values.var(ddof=1), rtol=1e-10, atol=0.0
        )
        centred = noisy_values - noisy_values.mean()
        assert np.isclose(moments.m2, np.sum(centred**2), rtol=1e-10, atol=0.0)
        assert np.isclose(moments.m3, np.sum(centred**3), rtol=1e-8, atol=1e-45)
        assert np.isclose(moments.m4, np.sum(centred**4), rtol=1e-10, atol=0.0)
        assert moments.minimum == noisy_values.min()
        assert moments.maximum == noisy_values.max()

    def test_chunkings_agree_with_each_other(self, noisy_values):
        reference = _stream(noisy_values, noisy_values.shape[0])
        for chunk_size in CHUNK_SIZES:
            streamed = _stream(noisy_values, chunk_size)
            assert np.isclose(streamed.mean, reference.mean, rtol=1e-12)
            assert np.isclose(streamed.m2, reference.m2, rtol=1e-10)
            assert np.isclose(streamed.m4, reference.m4, rtol=1e-10)

    def test_merge_equals_single_accumulator(self, noisy_values):
        left = _stream(noisy_values[:1234], 100)
        right = _stream(noisy_values[1234:], 321)
        left.merge(right)
        whole = _stream(noisy_values, 1000)
        assert left.count == whole.count
        assert np.isclose(left.mean, whole.mean, rtol=1e-12)
        assert np.isclose(left.m2, whole.m2, rtol=1e-10)
        assert np.isclose(left.m4, whole.m4, rtol=1e-10)
        assert left.minimum == whole.minimum
        assert left.maximum == whole.maximum

    def test_empty_updates_are_ignored(self):
        moments = StreamingMoments()
        moments.update(np.array([]))
        assert moments.count == 0
        moments.update(np.array([2.0, 4.0]))
        moments.update(np.array([]))
        assert moments.count == 2
        assert moments.mean == 3.0

    def test_central_moments_and_figures_of_merit(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        moments = _stream(values, 2)
        assert np.isclose(moments.central_moment(2), values.var())
        assert moments.central_moment(1) == 0.0
        assert np.isclose(moments.nsd, values.std(ddof=1) / values.mean())
        assert np.isclose(moments.ned, (4.0 - 1.0) / 4.0)
        with pytest.raises(ValueError):
            moments.central_moment(5)

    def test_variance_needs_two_samples(self):
        moments = StreamingMoments()
        moments.update(np.array([1.0]))
        assert np.isnan(moments.variance)


class TestFixedVsRandomAccumulator:
    def test_splits_by_label(self, noisy_values):
        rng = np.random.default_rng(3)
        labels = rng.random(noisy_values.shape[0]) < 0.4
        accumulator = FixedVsRandomAccumulator()
        for start in range(0, noisy_values.shape[0], 512):
            stop = start + 512
            accumulator.update(noisy_values[start:stop], labels[start:stop])
        assert accumulator.fixed.count == int(labels.sum())
        assert accumulator.random.count == int((~labels).sum())
        assert accumulator.count == noisy_values.shape[0]
        assert np.isclose(
            accumulator.fixed.mean, noisy_values[labels].mean(), rtol=1e-10
        )
        assert np.isclose(
            accumulator.random.mean, noisy_values[~labels].mean(), rtol=1e-10
        )

    def test_mismatched_lengths_raise(self):
        accumulator = FixedVsRandomAccumulator()
        with pytest.raises(ValueError):
            accumulator.update(np.ones(3), np.array([True, False]))


class TestSelectionBitAccumulator:
    def test_per_bit_partitions(self):
        rng = np.random.default_rng(9)
        plaintexts = rng.integers(0, 16, size=1000)
        energies = rng.normal(1.0, 0.1, size=1000) + 0.05 * (plaintexts & 1)
        accumulator = SelectionBitAccumulator(bits=4)
        for start in range(0, 1000, 173):
            stop = start + 173
            accumulator.update(plaintexts[start:stop], energies[start:stop])
        for bit in range(4):
            ones = ((plaintexts >> bit) & 1).astype(bool)
            assert accumulator[bit].fixed.count == int(ones.sum())
            assert np.isclose(
                accumulator[bit].fixed.mean, energies[ones].mean(), rtol=1e-10
            )

    def test_selector_maps_intermediate_values(self):
        table = np.array([3, 0, 2, 1], dtype=np.int64)
        accumulator = SelectionBitAccumulator(
            bits=2, selector=lambda plaintexts: table[plaintexts]
        )
        plaintexts = np.array([0, 1, 2, 3, 0, 2])
        energies = np.arange(6, dtype=float)
        accumulator.update(plaintexts, energies)
        expected_bit0 = (table[plaintexts] & 1).astype(bool)
        assert accumulator[0].fixed.count == int(expected_bit0.sum())

    def test_validation(self):
        with pytest.raises(ValueError):
            SelectionBitAccumulator(bits=0)


class TestClassEnergyStats:
    def test_snapshot_and_no_verdict(self):
        rng = np.random.default_rng(21)
        energies = rng.normal(5.0, 0.5, size=400)
        labels = rng.random(400) < 0.5
        method = ClassEnergyStats()
        method.update(AssessmentChunk(np.zeros(400, dtype=np.int64), labels, energies))
        result = method.finalize()
        assert result.leaks is None  # descriptive, no pass/fail verdict
        assert np.isclose(result.fixed["mean"], energies[labels].mean(), rtol=1e-10)
        assert result.to_dict()["method"] == "stats"
        rows = result.summary_rows()
        assert len(rows) == 2 and rows[0][0] == "stats"


class TestMergeProperties:
    """Deterministic merge behaviour (the map-reduce backbone)."""

    def test_two_class_merge_matches_single_stream(self, noisy_values):
        labels = np.random.default_rng(7).random(noisy_values.shape[0]) < 0.4
        whole = FixedVsRandomAccumulator()
        whole.update(noisy_values, labels)
        left, right = FixedVsRandomAccumulator(), FixedVsRandomAccumulator()
        split = noisy_values.shape[0] // 3
        left.update(noisy_values[:split], labels[:split])
        right.update(noisy_values[split:], labels[split:])
        left.merge(right)
        for merged, reference in zip(left.classes(), whole.classes()):
            assert merged.count == reference.count
            assert np.isclose(merged.mean, reference.mean, rtol=1e-10, atol=0.0)
            assert np.isclose(merged.m2, reference.m2, rtol=1e-10, atol=0.0)

    def test_selection_bit_merge_requires_matching_widths(self):
        with pytest.raises(ValueError):
            SelectionBitAccumulator(bits=2).merge(SelectionBitAccumulator(bits=3))

    def test_merge_into_empty_accumulator_copies_state(self, noisy_values):
        source = StreamingMoments()
        source.update(noisy_values)
        target = StreamingMoments()
        target.merge(source)
        assert target.count == source.count
        assert target.mean == source.mean
        assert target.m4 == source.m4


# --------------------------------------------------------------------------
# Property-based: merge() is associative and order-insensitive over random
# shard splits -- the correctness backbone of the engine's map-reduce
# (`repro.engine.runner` merges per-shard accumulators in shard order, but
# any order must agree within float round-off).

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

PROPERTY_SETTINGS = dict(max_examples=60, deadline=None)


@st.composite
def sharded_values(draw):
    """Energy-like values plus a random partition into 1..5 shards."""
    count = draw(st.integers(min_value=4, max_value=200))
    scale = draw(st.sampled_from([1.0, 1e-12, 1e6]))
    values = draw(
        st.lists(
            st.floats(
                min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False
            ),
            min_size=count,
            max_size=count,
        )
    )
    values = scale * np.asarray(values, dtype=float)
    shard_count = draw(st.integers(min_value=1, max_value=5))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=count),
                min_size=shard_count - 1,
                max_size=shard_count - 1,
            )
        )
    )
    shards = np.split(values, cuts)
    order = draw(st.permutations(range(len(shards))))
    return values, shards, list(order)


def _merge_all(accumulators):
    total = StreamingMoments()
    for accumulator in accumulators:
        total.merge(accumulator)
    return total


def _roundoff_bounds(values, shard_count):
    """Round-off bounds on ``(mean, m2, m3, m4)`` of a merged accumulator.

    Take ``M = max|x|``, ``d_i = |x_i - mean|`` and ``S_q = sum(d_i**q)``.
    An accumulator (one-shot or reduced from ``shard_count`` shards) holds
    a mean within ``s = gamma * M`` of the exact one, with
    ``gamma = (ceil(log2 n) + 3 * shard_count + 1) * eps``: NumPy's
    pairwise mean rounds about ``log2 n`` times relative to ``M``, and
    each Pebay merge step a few times more.  Each central sum ``m_p`` is
    then a rounded sum of ``p``-th powers of deviations from that
    shifted centre.  Moving the centre by at most ``s`` moves
    ``sum((x - c)**p)`` by at most ``sum((d_i + s)**p - d_i**p)``, which
    is ``sum_{k=1..p} C(p, k) * s**k * S_{p-k}``, and rounding the powers
    and the sum adds at most ``gamma * sum((d_i + s)**p)``.

    The bound follows the data's own scale (it is homogeneous of degree
    ``p`` in the values), so it holds alike at the 1, 1e-12 and 1e6
    scales the strategy draws.  It keeps the centre-shift term because
    ``m3`` can cancel to exactly 0 while its round-off is of order
    ``eps * M * m2``, which exceeds ``eps * n * (m2 / n)**1.5`` whenever
    the mean is large against the spread.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    gamma = (math.ceil(math.log2(n)) + 3 * shard_count + 1) * np.finfo(float).eps
    shift = gamma * float(np.abs(values).max())
    deviations = np.abs(values - values.mean())
    bounds = [shift]
    for order in (2, 3, 4):
        centre_shift = sum(
            math.comb(order, k) * shift**k * float(np.sum(deviations ** (order - k)))
            for k in range(1, order + 1)
        )
        rounding = gamma * float(np.sum((deviations + shift) ** order))
        bounds.append(centre_shift + rounding)
    return bounds


def _assert_moments_agree(candidate, reference, values, shard_count):
    """Both accumulators lie within the round-off bound of the exact
    moments, so they differ by at most twice that bound."""
    bounds = _roundoff_bounds(values, shard_count)
    pairs = zip(
        ("mean", "m2", "m3", "m4"),
        (candidate.mean, candidate.m2, candidate.m3, candidate.m4),
        (reference.mean, reference.m2, reference.m3, reference.m4),
        bounds,
    )
    for name, got, expected, bound in pairs:
        assert abs(got - expected) <= 2.0 * bound, (name, got, expected, bound)


class TestMergeIsAssociativeAndOrderInsensitive:
    @given(sharded_values())
    @settings(**PROPERTY_SETTINGS)
    # m3 of [1, 1, 2, 2] is exactly 0, while the [1] + [1, 2, 2] reduce
    # gives -1.67e-16: the tolerance has to scale with the data.
    @example(case=(np.array([1.0, 1.0, 2.0, 2.0]), [np.array([1.0]), np.array([1.0, 2.0, 2.0])], [0, 1]))
    def test_random_shard_splits_reduce_to_the_one_shot_moments(self, case):
        values, shards, order = case
        reference = StreamingMoments()
        reference.update(values)

        per_shard = []
        for shard in shards:
            moments = StreamingMoments()
            moments.update(shard)
            per_shard.append(moments)

        # In-order reduce (what the engine does) ...
        in_order = _merge_all(per_shard)
        # ... a shuffled reduce (order-insensitivity) ...
        shuffled = _merge_all([per_shard[index] for index in order])
        # ... and a pairwise tree reduce (associativity).
        tree = [per_shard[index] for index in order]
        while len(tree) > 1:
            merged = StreamingMoments()
            merged.merge(tree[0])
            merged.merge(tree[1])
            tree = [merged] + tree[2:]
        tree_total = tree[0]

        for candidate in (in_order, shuffled, tree_total):
            assert candidate.count == reference.count
            _assert_moments_agree(candidate, reference, values, len(shards))
            assert candidate.minimum == reference.minimum
            assert candidate.maximum == reference.maximum

    @given(sharded_values())
    @settings(**PROPERTY_SETTINGS)
    def test_two_class_shard_merge_matches_single_accumulator(self, case):
        values, shards, order = case
        labels = (np.arange(values.shape[0]) % 3) == 0  # deterministic classes

        reference = FixedVsRandomAccumulator()
        reference.update(values, labels)

        per_shard = []
        start = 0
        for shard in shards:
            accumulator = FixedVsRandomAccumulator()
            accumulator.update(shard, labels[start:start + shard.shape[0]])
            per_shard.append(accumulator)
            start += shard.shape[0]

        total = FixedVsRandomAccumulator()
        for index in order:
            total.merge(per_shard[index])

        class_values = (values[labels], values[~labels])
        for merged, expected, members in zip(total.classes(), reference.classes(), class_values):
            assert merged.count == expected.count
            if expected.count:
                _assert_moments_agree(merged, expected, members, len(shards))
