"""Scheme-set statistics against closed forms and enumeration."""

import numpy as np
import pytest

from attnsearch.search import SyntheticLandscape, all_schemes, random_ratio_study
from attnsearch.stats import (aggregate_violin, connection_score,
                              pearson, pearson_pvalue_one_sided,
                              regression_slope)
from attnsearch.supernet import ConnectionScheme


class TestConnectionScore:
    def test_all_ones_set(self):
        score = connection_score([ConnectionScheme.ones(5)])
        np.testing.assert_array_equal(score, np.ones(5))

    def test_two_complementary_schemes(self):
        score = connection_score([ConnectionScheme.from_string("10"),
                                  ConnectionScheme.from_string("01")])
        np.testing.assert_allclose(score, [0.5, 0.5])

    def test_bernoulli_set_within_binomial_band(self):
        rng = np.random.default_rng(0)
        schemes = [ConnectionScheme((rng.random(54) < 0.5).astype(np.int64))
                   for _ in range(100)]
        score = connection_score(schemes)
        assert np.all(np.abs(score - 0.5) <= 0.15)

    def test_union_is_size_weighted_average(self):
        rng = np.random.default_rng(1)
        a = [ConnectionScheme((rng.random(6) < 0.3).astype(np.int64)) for _ in range(7)]
        b = [ConnectionScheme((rng.random(6) < 0.8).astype(np.int64)) for _ in range(13)]
        combined = connection_score(a + b)
        weighted = (7 * connection_score(a) + 13 * connection_score(b)) / 20
        np.testing.assert_allclose(combined, weighted, atol=1e-12)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            connection_score([ConnectionScheme.ones(3), ConnectionScheme.ones(4)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            connection_score([])


class TestRegressionSlope:
    def test_constant_scores_have_zero_slope(self):
        assert regression_slope(np.full(9, 0.4)) == 0.0

    def test_exact_line(self):
        m = 10
        scores = np.arange(m) / m
        assert abs(regression_slope(scores) - 1 / m) < 1e-12

    def test_translation_invariant(self):
        rng = np.random.default_rng(2)
        scores = rng.random(8)
        assert abs(regression_slope(scores) - regression_slope(scores + 3.7)) < 1e-12

    def test_equivariant_under_scaling(self):
        rng = np.random.default_rng(3)
        scores = rng.random(8)
        assert abs(regression_slope(2.5 * scores)
                   - 2.5 * regression_slope(scores)) < 1e-12

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            regression_slope([0.5])


class TestPearson:
    def test_positive_affine_gives_one(self):
        x = np.arange(10.0)
        assert abs(pearson(x, 2 * x + 1) - 1.0) < 1e-12

    def test_negation_gives_minus_one(self):
        x = np.linspace(-1, 3, 12)
        assert abs(pearson(x, -x) + 1.0) < 1e-12

    def test_invariant_under_positive_affine_maps(self):
        rng = np.random.default_rng(4)
        x, y = rng.random(15), rng.random(15)
        r = pearson(x, y)
        assert abs(pearson(3 * x + 2, y) - r) < 1e-12
        assert abs(pearson(x, 0.5 * y - 4) - r) < 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            pearson(np.ones(5), np.arange(5.0))

    def test_length_requirements(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [3.0, 4.0])

    def test_pvalue_monotone_in_r(self):
        ps = [pearson_pvalue_one_sided(r, 20) for r in (0.0, 0.3, 0.6, 0.9)]
        assert ps[0] == pytest.approx(0.5)
        assert all(a > b for a, b in zip(ps, ps[1:]))
        assert ps[-1] < 1e-3


class TestAggregateViolin:
    def test_single_row_collapses(self):
        out = aggregate_violin([{"ratio": 0.5, "accuracy": 0.7}])
        assert out[0.5] == (0.7, 0.7, 0.7)

    def test_three_values(self):
        rows = [{"ratio": 0.25, "accuracy": v} for v in (1.0, 2.0, 3.0)]
        assert aggregate_violin(rows)[0.25] == (3.0, 2.0, 1.0)

    def test_groups_sorted_by_ratio(self):
        rows = [{"ratio": r, "accuracy": r} for r in (0.75, 0.25, 0.5)]
        assert list(aggregate_violin(rows)) == [0.25, 0.5, 0.75]

    def test_exhaustive_group_maxima_match_bruteforce(self):
        land = SyntheticLandscape(8, seed=9)
        rows = random_ratio_study(land, 8, [0.25, 0.5, 0.75], 300,
                                  np.random.default_rng(10))
        summary = aggregate_violin(rows)
        by_ones = {2: [], 4: [], 6: []}
        for s in all_schemes(8):
            if s.ones_count in by_ones:
                by_ones[s.ones_count].append(land(s))
        for ratio, ones in ((0.25, 2), (0.5, 4), (0.75, 6)):
            assert summary[ratio][0] == max(by_ones[ones])
            assert summary[ratio][2] == min(by_ones[ones])
