"""Controller behavior: sampling distribution, ascent directions, replay math."""

import math
import warnings

import numpy as np
import pytest

from attnsearch.controller import (ControllerState, RolloutTuple,
                                   controller_forward, mean_prob, ppo_gradient,
                                   ppo_update, realized_probabilities,
                                   reinforce_gradient, reinforce_update,
                                   sample_and_score)
from attnsearch.supernet import ConnectionScheme
from oracles import ppo_objective, reinforce_objective

# critical value of a chi-square(7) at alpha = 0.01
CHI2_7_99 = 18.475


def fresh_state(m=6, seed=0, **kw):
    return ControllerState(m, hidden=16, rng=np.random.default_rng(seed), **kw)


def randomized_state(m=6, seed=0, scale=0.4, **kw):
    st = fresh_state(m, seed, **kw)
    rng = np.random.default_rng(seed + 500)
    st.w2.value[:] = rng.standard_normal(st.w2.value.shape) * scale
    st.b2.value[:] = rng.standard_normal(m) * scale
    return st


def fd_gradients(state, objective, eps=1e-6):
    grads = []
    for prm in state.parameters():
        g = np.zeros_like(prm.value)
        flat, gf = prm.value.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = objective()
            flat[i] = orig - eps
            down = objective()
            flat[i] = orig
            gf[i] = (up - down) / (2 * eps)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = max(np.abs(n).max(), np.abs(a).max(), 1e-8)
        worst = max(worst, float(np.abs(a - n).max() / scale))
    return worst


class TestForward:
    def test_zero_output_layer_gives_exact_halves(self):
        st = fresh_state()
        np.testing.assert_array_equal(controller_forward(st), np.full(6, 0.5))

    def test_deterministic_between_updates(self):
        st = randomized_state()
        np.testing.assert_array_equal(controller_forward(st), controller_forward(st))

    def test_positive_reward_moves_probabilities_toward_scheme(self):
        st = fresh_state()
        scheme = ConnectionScheme([1, 0, 1, 1, 0, 0])
        p_before = controller_forward(st)
        reinforce_update(st, scheme, 1.0)
        p_after = controller_forward(st)
        moved = np.where(scheme.bits == 1, p_after > p_before, p_after < p_before)
        assert moved.all()


class TestSampling:
    def test_realized_probability_definition(self):
        p = np.full(4, 0.7)
        up = realized_probabilities(p, ConnectionScheme([1, 1, 1, 1]))
        down = realized_probabilities(p, ConnectionScheme([0, 0, 0, 0]))
        np.testing.assert_allclose(up, 0.7)
        np.testing.assert_allclose(down, 0.3)

    def test_outcome_probabilities_normalize(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.05, 0.95, 5)
        total = (realized_probabilities(p, ConnectionScheme(np.ones(5, dtype=int)))
                 + realized_probabilities(p, ConnectionScheme(np.zeros(5, dtype=int))))
        np.testing.assert_allclose(total, 1.0, atol=1e-15)

    def test_log_prob_is_true_sampling_probability(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.1, 0.9, 6)
        scheme, p_hat, log_prob = sample_and_score(p, rng)
        product = float(np.prod(np.where(scheme.bits == 1, p, 1 - p)))
        assert abs(np.exp(log_prob) - product) < 1e-12

    def test_uniform_sampling_chi_square(self):
        rng = np.random.default_rng(3)
        p = np.full(3, 0.5)
        counts = np.zeros(8)
        for _ in range(10000):
            scheme, _, _ = sample_and_score(p, rng)
            counts[int(scheme.to_string(), 2)] += 1
        expected = 10000 / 8
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < CHI2_7_99

    def test_rejects_degenerate_probabilities(self):
        with pytest.raises(ValueError):
            sample_and_score(np.array([0.0, 0.5]), np.random.default_rng(4))


class TestReinforce:
    def test_zero_reward_is_noop(self):
        st = randomized_state(seed=5)
        before = [p.value.copy() for p in st.parameters()]
        scheme, p_hat, _ = sample_and_score(controller_forward(st),
                                            np.random.default_rng(6))
        reinforce_update(st, scheme, 0.0)
        for p, b in zip(st.parameters(), before):
            np.testing.assert_array_equal(p.value, b)

    def test_positive_reward_increases_log_probability(self):
        st = randomized_state(seed=7, lr=1e-3)
        rng = np.random.default_rng(8)
        scheme, p_hat, _ = sample_and_score(controller_forward(st), rng)
        before = reinforce_objective(st, scheme, 1.0)
        reinforce_update(st, scheme, 1.0)
        assert reinforce_objective(st, scheme, 1.0) > before

    def test_small_step_raises_resample_probability(self):
        st = randomized_state(seed=9, lr=1e-2)
        rng = np.random.default_rng(10)
        scheme, p_hat, log_prob = sample_and_score(controller_forward(st), rng)
        reinforce_update(st, scheme, 0.7)
        p_new = realized_probabilities(controller_forward(st), scheme)
        assert float(np.log(p_new).sum()) > log_prob

    @pytest.mark.parametrize("bits", [[1], [1, 0, 1], [1, 0, 1, 1, 0, 0, 1]])
    def test_scheme_of_another_length_is_refused(self, bits):
        st = randomized_state(seed=21)
        before = [p.value.copy() for p in st.parameters()]
        with pytest.raises(ValueError, match=f"^a {len(bits)}-block scheme does not fit "
                                             "a 6-block controller$"):
            reinforce_update(st, ConnectionScheme(bits), 1.0)
        for p, b in zip(st.parameters(), before):
            np.testing.assert_array_equal(p.value, b)

    def test_gradient_matches_finite_differences(self):
        st = randomized_state(seed=11)
        rng = np.random.default_rng(12)
        scheme, _, _ = sample_and_score(controller_forward(st), rng)
        analytic = reinforce_gradient(st, scheme, 0.9)
        numeric = fd_gradients(st, lambda: reinforce_objective(st, scheme, 0.9))
        assert max_rel_err(analytic, numeric) < 1e-5


class TestPPO:
    def make_buffer(self, st, n, seed):
        rng = np.random.default_rng(seed)
        tuples = []
        for _ in range(n):
            p = controller_forward(st)
            scheme, _, _ = sample_and_score(p, rng)
            tuples.append(RolloutTuple(p.copy(), scheme, float(rng.random())))
        return tuples

    def test_ratio_one_equals_averaged_reinforce(self):
        st = randomized_state(seed=13, ratio_bounds=(0.0, math.inf))
        tuples = self.make_buffer(st, 6, 14)
        ppo = ppo_gradient(st, tuples)
        mean = [np.zeros_like(p.value) for p in st.parameters()]
        for t in tuples:
            for acc, g in zip(mean, reinforce_gradient(st, t.scheme, t.reward)):
                acc += g / len(tuples)
        for a, b in zip(ppo, mean):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_single_tuple_at_old_params_is_reinforce(self):
        st = randomized_state(seed=15, ratio_bounds=(0.0, math.inf))
        tuples = self.make_buffer(st, 1, 16)
        ppo = ppo_gradient(st, tuples)
        rf = reinforce_gradient(st, tuples[0].scheme, tuples[0].reward)
        for a, b in zip(ppo, rf):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_ratio_weighting_definition(self):
        # stored p_hat 0.3, current p 0.6, connected bit -> surrogate weight 2.0
        st = fresh_state(m=1, ratio_bounds=(0.0, math.inf))
        st.b2.value[:] = np.log(0.6 / 0.4)  # sigmoid^-1(0.6)
        scheme = ConnectionScheme([1])
        tup = RolloutTuple(np.array([0.3]), scheme, 1.0)
        assert abs(ppo_objective(st, [tup]) - 2.0) < 1e-12

    def test_gradient_matches_finite_differences_off_policy(self):
        st = randomized_state(seed=17, ratio_bounds=(0.0, math.inf))
        tuples = self.make_buffer(st, 5, 18)
        st.b2.value += 0.2  # move away from the rollout parameters
        analytic = ppo_gradient(st, tuples)
        numeric = fd_gradients(st, lambda: ppo_objective(st, tuples))
        assert max_rel_err(analytic, numeric) < 1e-5

    def test_clipped_ratios_zero_their_gradient(self):
        st = fresh_state(m=1, ratio_bounds=(0.5, 2.0))
        st.b2.value[:] = 3.0  # p ~ 0.95, stored 0.05 -> ratio ~ 19, clipped
        tup = RolloutTuple(np.array([0.05]), ConnectionScheme([1]), 1.0)
        grads = ppo_gradient(st, [tup])
        assert all(np.abs(g).max() == 0.0 for g in grads)

    @pytest.mark.parametrize("bounds", [(1.0, 2.0), (0.5, 1.0), (2.0, 0.5)])
    def test_ratio_bounds_must_bracket_one(self, bounds):
        # the current-parameter rollout's ratio of 1 must never be clipped
        with pytest.raises(ValueError, match="must bracket 1"):
            fresh_state(ratio_bounds=bounds)

    def test_empty_buffer_warns_and_keeps_params(self):
        st = randomized_state(seed=19)
        before = [p.value.copy() for p in st.parameters()]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ppo_update(st)
        assert any("empty" in str(w.message) for w in caught)
        for p, b in zip(st.parameters(), before):
            np.testing.assert_array_equal(p.value, b)

    def test_buffer_capacity_is_fifo(self):
        st = fresh_state(ppo_period=3)
        assert st.buffer.maxlen == 30
        for i in range(35):
            st.buffer.append(i)
        assert list(st.buffer)[0] == 5


class TestMeanProb:
    def test_all_ones(self):
        assert mean_prob(np.ones(7)) == 1.0

    def test_uniform_start_matches_half(self):
        # a fresh controller's realized probabilities are exactly 0.5
        st = fresh_state()
        p = controller_forward(st)
        p_hat = realized_probabilities(p, ConnectionScheme([1, 0, 1, 0, 0, 1]))
        assert mean_prob(p_hat) == 0.5

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(20)
        p_hat = rng.uniform(0.2, 0.9, 11)
        assert abs(mean_prob(p_hat) - sum(p_hat) / 11) < 1e-15
