"""Compute-core oracles: loop-based references, closed forms, finite differences."""

import itertools
import math

import numpy as np
import pytest

from attnsearch.nncore import (Conv2d, Dense, GlobalAvgPool, OptimizerConfig,
                               Parameter, ReLU, Sequential, Tanh, conv2d, dense,
                               global_avg_pool, grad_check, sgd_momentum_step,
                               softmax_cross_entropy,
                               softmax_cross_entropy_batch, tensor)


def conv_loop_oracle(x, k, stride, pad):
    """Six nested loops, straight from the cross-correlation definition."""
    c_in, h, w = x.shape
    c_out, _, ks, _ = k.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h_out = (h + 2 * pad - ks) // stride + 1
    w_out = (w + 2 * pad - ks) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for o, i, j in itertools.product(range(c_out), range(h_out), range(w_out)):
        acc = 0.0
        for c, a, b in itertools.product(range(c_in), range(ks), range(ks)):
            acc += k[o, c, a, b] * xp[c, i * stride + a, j * stride + b]
        out[o, i, j] = acc
    return out


class TestConv2d:
    def test_identity_kernel(self):
        x = np.arange(9.0).reshape(1, 3, 3)
        k = np.ones((1, 1, 1, 1))
        np.testing.assert_array_equal(conv2d(x, k, 1, 0), x)

    def test_zero_input(self):
        rng = np.random.default_rng(0)
        k = rng.standard_normal((3, 2, 3, 3))
        out = conv2d(np.zeros((2, 5, 5)), k, 1, 1)
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        np.testing.assert_allclose(conv2d(x, k, 1, 0), conv_loop_oracle(x, k, 1, 0),
                                   atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (2, 0), (3, 2)])
    def test_strides_and_padding(self, stride, pad):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 7, 7))
        k = rng.standard_normal((2, 3, 3, 3))
        np.testing.assert_allclose(conv2d(x, k, stride, pad),
                                   conv_loop_oracle(x, k, stride, pad), atol=1e-12)

    def test_channel_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 4, 4\).*\(1, 3, 3, 3\)"):
            conv2d(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)))

    def test_linear_in_input(self):
        rng = np.random.default_rng(3)
        k = rng.standard_normal((2, 2, 3, 3))
        x1 = rng.standard_normal((2, 6, 6))
        x2 = rng.standard_normal((2, 6, 6))
        a, b = 1.7, -0.4
        lhs = conv2d(a * x1 + b * x2, k, 1, 1)
        rhs = a * conv2d(x1, k, 1, 1) + b * conv2d(x2, k, 1, 1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestDense:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(dense(x, np.eye(3), np.zeros(3)), x)

    def test_zero_weight_returns_bias(self):
        b = np.array([4.0, 5.0])
        np.testing.assert_array_equal(dense(np.ones(3), np.zeros((2, 3)), b), b)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        x, w, b = rng.standard_normal(4), rng.standard_normal((3, 4)), rng.standard_normal(3)
        expected = np.array([b[i] + sum(w[i, j] * x[j] for j in range(4))
                             for i in range(3)])
        np.testing.assert_allclose(dense(x, w, b), expected, atol=1e-12)

    def test_shape_error(self):
        with pytest.raises(ValueError, match="nonconforming"):
            dense(np.zeros(3), np.zeros((2, 4)), np.zeros(2))

    def test_linear_in_input(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((3, 4))
        x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
        lhs = dense(2.0 * x1 - 3.0 * x2, w, np.zeros(3))
        rhs = 2.0 * dense(x1, w, np.zeros(3)) - 3.0 * dense(x2, w, np.zeros(3))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestGlobalAvgPool:
    def test_constant_channel(self):
        np.testing.assert_array_equal(global_avg_pool(np.full((2, 3, 3), 5.0)),
                                      np.array([5.0, 5.0]))

    def test_small_mean(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        np.testing.assert_allclose(global_avg_pool(x), [2.5])

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4, 4))
        expected = np.array([sum(x[c, i, j] for i in range(4) for j in range(4)) / 16
                             for c in range(3)])
        np.testing.assert_allclose(global_avg_pool(x), expected, atol=1e-12)

    def test_spatial_permutation_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 5))
        flat = x.reshape(2, -1)
        perm = rng.permutation(15)
        shuffled = flat[:, perm].reshape(2, 3, 5)
        np.testing.assert_allclose(global_avg_pool(x), global_avg_pool(shuffled),
                                   atol=1e-12)


# (layer factory, two input shapes); the shapes differ, so a layer that
# backpropagated through the wrong cache would be caught
REUSED_LAYERS = {
    "conv": (lambda rng: Conv2d(3, 2, 3, 1, 1, rng), [(2, 3, 5, 5), (1, 3, 4, 6)]),
    "dense": (lambda rng: Dense(4, 3, rng), [(2, 4), (3, 4)]),
    "relu": (lambda rng: ReLU(), [(2, 3, 5, 5), (1, 3, 4, 6)]),
    "tanh": (lambda rng: Tanh(), [(2, 3, 5, 5), (1, 3, 4, 6)]),
    "pool": (lambda rng: GlobalAvgPool(), [(2, 3, 5, 5), (1, 3, 4, 6)]),
}


class TestLayerReuse:
    """One layer object run twice before its backward passes, as a shared
    attention module's layers are: backward pops the caches in reverse."""

    @staticmethod
    def one_use(layer, x, dout):
        for p in layer.parameters():
            p.zero_grad()
        layer.forward(x, train=True)
        dx = layer.backward(dout)
        return dx, [p.grad.copy() for p in layer.parameters()]

    @pytest.mark.parametrize("name", sorted(REUSED_LAYERS))
    def test_two_forwards_then_two_backwards(self, name):
        make, shapes = REUSED_LAYERS[name]
        rng = np.random.default_rng(30)
        layer = make(rng)
        xs = [rng.standard_normal(shape) for shape in shapes]
        douts = [rng.standard_normal(layer.forward(x).shape) for x in xs]
        single = [self.one_use(layer, x, d) for x, d in zip(xs, douts)]
        for p in layer.parameters():
            p.zero_grad()
        for x in xs:
            layer.forward(x, train=True)
        dx_second = layer.backward(douts[1])
        dx_first = layer.backward(douts[0])
        np.testing.assert_array_equal(dx_first, single[0][0])
        np.testing.assert_array_equal(dx_second, single[1][0])
        for p, g_first, g_second in zip(layer.parameters(), single[0][1], single[1][1]):
            np.testing.assert_array_equal(p.grad, g_first + g_second)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, grad = softmax_cross_entropy(np.zeros(4), 2)
        assert abs(loss - math.log(4)) < 1e-12
        np.testing.assert_allclose(grad, [0.25, 0.25, -0.75, 0.25], atol=1e-12)

    def test_extreme_logits_high_precision(self):
        loss, grad = softmax_cross_entropy(np.array([10.0, -10.0]), 0)
        assert abs(loss - math.exp(-20.0)) < 1e-12
        assert np.abs(grad).max() < 1e-8

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy(np.zeros(3), 3)

    def test_grad_matches_central_differences(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal(5)
        _, grad = softmax_cross_entropy(logits, 1)
        h = 1e-5
        for i in range(5):
            lp = logits.copy(); lp[i] += h
            lm = logits.copy(); lm[i] -= h
            numeric = (softmax_cross_entropy(lp, 1)[0]
                       - softmax_cross_entropy(lm, 1)[0]) / (2 * h)
            assert abs(numeric - grad[i]) / max(abs(numeric), 1e-8) < 1e-6

    def test_batch_mean_consistency(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((3, 4))
        labels = np.array([0, 3, 1])
        loss, _ = softmax_cross_entropy_batch(logits, labels)
        singles = [softmax_cross_entropy(logits[i], labels[i])[0] for i in range(3)]
        assert abs(loss - np.mean(singles)) < 1e-12


class TestSgdMomentum:
    def test_plain_step(self):
        p = Parameter(np.array([0.0]))
        p.grad[:] = 1.0
        sgd_momentum_step([p], OptimizerConfig(0.1, 0.0, 0.0))
        np.testing.assert_allclose(p.value, [-0.1])
        assert p.grad[0] == 0.0

    def test_momentum_unrolls(self):
        p = Parameter(np.array([0.0]))
        cfg = OptimizerConfig(0.1, 0.9, 0.0)
        p.grad[:] = 2.0
        sgd_momentum_step([p], cfg)
        before = p.value.copy()
        p.grad[:] = 2.0
        sgd_momentum_step([p], cfg)
        second_displacement = p.value - before
        np.testing.assert_allclose(second_displacement, [-0.1 * 1.9 * 2.0], atol=1e-12)

    def test_quadratic_converges(self):
        p = Parameter(np.array([1.0]))
        cfg = OptimizerConfig(0.1, 0.9, 0.0)
        for _ in range(100):
            p.grad[:] = 2.0 * p.value  # d/dx of x^2
            sgd_momentum_step([p], cfg)
        assert abs(p.value[0]) < 0.1

    def test_momentum_zero_is_vanilla_gd(self):
        rng = np.random.default_rng(10)
        start = rng.standard_normal(4)
        p = Parameter(start.copy())
        manual = start.copy()
        for step in range(5):
            g = np.sin(manual) + step
            p.grad[:] = g
            sgd_momentum_step([p], OptimizerConfig(0.05, 0.0, 0.0))
            manual -= 0.05 * g
        np.testing.assert_allclose(p.value, manual, atol=1e-15)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(-0.1)
        with pytest.raises(ValueError):
            OptimizerConfig(0.1, momentum=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(0.1, weight_decay=-1e-4)


class TestTensorInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            tensor([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            tensor([np.inf])

    def test_float64_row_major(self):
        t = tensor([[1, 2], [3, 4]])
        assert t.dtype == np.float64 and t.flags["C_CONTIGUOUS"]


class _SequentialModel:
    """Adapter giving Sequential nets the parameters()/loss() protocol."""

    def __init__(self, net, label):
        self.net = net
        self.label = label

    def parameters(self):
        return self.net.parameters()

    def loss(self, x):
        logits = self.net.forward(x, train=True)
        loss, dlogits = softmax_cross_entropy_batch(logits, np.array([self.label]))
        self.net.backward(dlogits)
        return loss


class TestGradCheck:
    def test_linear_model_nearly_exact(self):
        rng = np.random.default_rng(11)
        net = Sequential(Dense(6, 3, rng))
        x = rng.standard_normal((1, 6))
        assert grad_check(_SequentialModel(net, 1), x) < 1e-7

    def test_two_layer_relu_net(self):
        rng = np.random.default_rng(12)
        net = Sequential(Dense(5, 8, rng), ReLU(), Dense(8, 3, rng))
        # keep pre-activations away from the kink by a margin >> epsilon
        x = rng.standard_normal((1, 5)) + 0.5
        pre = net.layers[0].forward(x)
        assert np.abs(pre).min() > 1e-4
        assert grad_check(_SequentialModel(net, 0), x, epsilon=1e-5) < 1e-5

    def test_conv_pool_net(self):
        rng = np.random.default_rng(13)
        net = Sequential(Conv2d(1, 3, 3, 1, 1, rng), ReLU(), GlobalAvgPool(),
                         Dense(3, 2, rng))
        x = rng.random((1, 1, 5, 5)) + 0.1
        assert grad_check(_SequentialModel(net, 1), x, epsilon=1e-5) < 1e-5

    def test_epsilon_must_be_positive(self):
        rng = np.random.default_rng(14)
        net = Sequential(Dense(2, 2, rng))
        with pytest.raises(ValueError):
            grad_check(_SequentialModel(net, 0), np.ones((1, 2)), epsilon=0.0)
