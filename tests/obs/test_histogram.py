"""``obs.metrics.Histogram`` on its own: bucket edges, validation, reset."""

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, percentile_from_counts


class TestBucketEdges:
    @pytest.mark.parametrize(
        "value, bucket",
        [(-1.0, 0), (0.0, 0), (1.0, 0), (1.5, 1), (10.0, 1), (10.000001, 2), (1e9, 2)],
    )
    def test_upper_bounds_are_inclusive(self, value, bucket):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        histogram.observe(value)
        expected = [0, 0, 0]
        expected[bucket] = 1
        assert histogram.counts == expected

    def test_one_bucket_plus_overflow(self):
        histogram = Histogram("h", buckets=(5,))
        for value in (1, 5, 6):
            histogram.observe(value)
        assert histogram.counts == [2, 1]


class TestValidation:
    def test_needs_a_bucket(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("h", buckets=())

    @pytest.mark.parametrize("buckets", [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0, 2.0)])
    def test_buckets_must_strictly_increase(self, buckets):
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("h", buckets=buckets)

    def test_buckets_become_a_float_tuple(self):
        histogram = Histogram("h", buckets=[1, 2])
        assert histogram.buckets == (1.0, 2.0)
        assert all(type(bound) is float for bound in histogram.buckets)

    def test_default_buckets(self):
        histogram = Histogram("h")
        assert histogram.buckets == tuple(float(b) for b in DEFAULT_BUCKETS)
        assert len(histogram.counts) == len(DEFAULT_BUCKETS) + 1


class TestSummaries:
    def test_empty_mean_and_percentile_are_zero(self):
        histogram = Histogram("h", buckets=(1.0,))
        assert histogram.mean == 0.0
        assert histogram.percentile(50.0) == 0.0

    def test_sum_count_mean(self):
        histogram = Histogram("h", buckets=(1.0,))
        for value in (1, 2, 3):
            histogram.observe(value)
        assert (histogram.count, histogram.sum, histogram.mean) == (3, 6.0, 2.0)
        assert type(histogram.sum) is float

    @pytest.mark.parametrize("p", [0.0, 25.0, 50.0, 90.0, 100.0])
    def test_percentile_reads_its_counts(self, p):
        histogram = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 9.0):
            histogram.observe(value)
        assert histogram.percentile(p) == percentile_from_counts(
            histogram.buckets, histogram.counts, p
        )

    def test_reset_clears_counts_and_sums(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        histogram.observe(1.5)
        histogram._reset()
        assert (histogram.counts, histogram.sum, histogram.count) == ([0, 0, 0], 0.0, 0)
        assert histogram.buckets == (1.0, 2.0)
