"""Reward components: sparsity arithmetic, linear combination, novelty pair."""

import numpy as np
import pytest

from attnsearch.nncore import grad_check
from attnsearch.rewards import (RewardConfig, RNDPair, combined_reward,
                                reward_bundle, rnd_bonus, rnd_train_step,
                                sparsity_reward)
from attnsearch.supernet import ConnectionScheme

# iteration-0 scheme of a reference 54-block search trace (26 ones)
ITER0_SCHEME = "000110000001111101110010000001000110111110110110010011"


class TestSparsityReward:
    def test_zeros(self):
        assert sparsity_reward(ConnectionScheme.zeros(9)) == 1.0

    def test_ones(self):
        assert sparsity_reward(ConnectionScheme.ones(9)) == 0.0

    def test_reference_trace_iteration0_value(self):
        scheme = ConnectionScheme.from_string(ITER0_SCHEME)
        assert len(scheme) == 54 and scheme.ones_count == 26
        assert abs(sparsity_reward(scheme) - 0.52) <= 0.005

    def test_depends_only_on_ones_count(self):
        rng = np.random.default_rng(0)
        for ones in (0, 3, 7):
            vals = set()
            for _ in range(5):
                bits = np.zeros(10, dtype=np.int64)
                bits[rng.choice(10, ones, replace=False)] = 1
                vals.add(sparsity_reward(ConnectionScheme(bits)))
            assert len(vals) == 1


class TestCombinedReward:
    def test_sparsity_only(self):
        cfg = RewardConfig(1.0, 0.0, 0.0)
        assert combined_reward(cfg, 1.0, 0.33, 7.0) == 1.0

    def test_accuracy_only_passthrough(self):
        cfg = RewardConfig(0.0, 1.0, 0.0)
        assert combined_reward(cfg, 0.9, 0.733, 2.0) == 0.733

    def test_arithmetic_example(self):
        cfg = RewardConfig(0.5, 1.0, 0.1)
        assert abs(combined_reward(cfg, 0.52, 0.75, 0.2) - 1.03) < 1e-12

    def test_linear_with_lambda_partials(self):
        cfg = RewardConfig(0.3, 0.8, 0.05)
        base = combined_reward(cfg, 0.2, 0.5, 1.0)
        assert abs(combined_reward(cfg, 1.2, 0.5, 1.0) - base - 0.3) < 1e-12
        assert abs(combined_reward(cfg, 0.2, 1.5, 1.0) - base - 0.8) < 1e-12
        assert abs(combined_reward(cfg, 0.2, 0.5, 2.0) - base - 0.05) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            combined_reward(RewardConfig(), np.nan, 0.5, 0.0)

    def test_rejects_all_zero_coefficients(self):
        with pytest.raises(ValueError):
            RewardConfig(0.0, 0.0, 0.0)

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            RewardConfig(-0.1, 1.0, 0.0)


class TestRNDPair:
    def test_predictor_copied_from_target_gives_zero(self):
        pair = RNDPair(6, np.random.default_rng(1), target_hidden=16,
                       predictor_hidden=16)
        for dst, src in zip(pair.predictor.parameters(), pair.target.parameters()):
            dst.value[...] = src.value
        rng = np.random.default_rng(2)
        for _ in range(10):
            scheme = ConnectionScheme((rng.random(6) < 0.5).astype(np.int64))
            assert rnd_bonus(pair, scheme) == 0.0

    def test_bonus_nonnegative(self):
        pair = RNDPair(6, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        for _ in range(20):
            scheme = ConnectionScheme((rng.random(6) < 0.5).astype(np.int64))
            assert rnd_bonus(pair, scheme) >= 0.0

    def test_train_and_probe_separation(self):
        pair = RNDPair(8, np.random.default_rng(5))
        seen = ConnectionScheme([1, 0, 1, 1, 0, 0, 1, 0])
        unseen = ConnectionScheme([0, 1, 0, 0, 1, 1, 0, 1])
        before_seen, before_unseen = rnd_bonus(pair, seen), rnd_bonus(pair, unseen)
        for _ in range(200):
            rnd_train_step(pair, seen)
        assert rnd_bonus(pair, seen) <= before_seen / 10.0
        assert rnd_bonus(pair, unseen) > before_unseen / 2.0

    def test_training_curve_monotone_after_smoothing(self):
        pair = RNDPair(6, np.random.default_rng(6))
        scheme = ConnectionScheme([1, 1, 0, 0, 1, 0])
        losses = [rnd_train_step(pair, scheme) for _ in range(120)]
        smooth = np.convolve(losses, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(smooth) <= 1e-9)

    def test_zero_learning_rate_freezes_predictor(self):
        pair = RNDPair(6, np.random.default_rng(7), lr=1e-12)
        pair.opt = type(pair.opt)(1e-300, 0.0, 0.0)
        before = [p.value.copy() for p in pair.parameters()]
        rnd_train_step(pair, ConnectionScheme([1, 0, 0, 1, 1, 0]))
        for p, b in zip(pair.parameters(), before):
            np.testing.assert_allclose(p.value, b, atol=1e-250)

    def test_target_frozen_by_training(self):
        pair = RNDPair(6, np.random.default_rng(8))
        before = [p.value.copy() for p in pair.target.parameters()]
        for _ in range(50):
            rnd_train_step(pair, ConnectionScheme([0, 1, 1, 0, 0, 1]))
        for p, b in zip(pair.target.parameters(), before):
            np.testing.assert_array_equal(p.value, b)

    def test_prediction_gradient_matches_finite_differences(self):
        pair = RNDPair(5, np.random.default_rng(9))
        scheme = ConnectionScheme([1, 0, 1, 0, 1])

        class Objective:
            def parameters(self):
                return pair.parameters()

            def loss(self, _):
                t, p = pair._outputs(scheme, train=True)
                pair.predictor.backward(2.0 * (p - t))
                return float(((t - p) ** 2).sum())

        assert grad_check(Objective(), None, 1e-5) < 1e-5

    def test_fresh_pair_bonuses_are_exchangeable(self):
        # over fresh pairs, which of two fixed schemes scores higher is a coin flip
        s1 = ConnectionScheme([1, 1, 1, 0, 0, 0])
        s2 = ConnectionScheme([0, 0, 0, 1, 1, 1])
        wins = 0
        n = 200
        for seed in range(n):
            pair = RNDPair(6, np.random.default_rng(1000 + seed))
            wins += rnd_bonus(pair, s1) > rnd_bonus(pair, s2)
        sigma = np.sqrt(0.25 / n)
        assert abs(wins / n - 0.5) < 3 * sigma


class TestRewardBundle:
    def test_lambda_rnd_zero_leaves_component_empty(self):
        pair = RNDPair(4, np.random.default_rng(10))
        cfg = RewardConfig(0.5, 1.0, 0.0)
        bundle = reward_bundle(cfg, ConnectionScheme([1, 0, 0, 1]), 0.8, pair)
        assert bundle.g_rnd == 0.0
        assert abs(bundle.combined - (0.5 * 0.5 + 0.8)) < 1e-12

    def test_accuracy_only_reduction(self):
        cfg = RewardConfig(0.0, 1.0, 0.0)
        bundle = reward_bundle(cfg, ConnectionScheme([1, 1, 0, 0]), 0.66, None)
        assert bundle.combined == bundle.g_val == 0.66
