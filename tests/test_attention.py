"""Attention-module oracles: straight-line formula references and edge cases."""

import numpy as np
import pytest

from attnsearch.attention import (SEModule, SGEModule, channel_groups, recalibrate,
                                  se_attention, sge_attention)
from attnsearch.nncore import grad_check
from attnsearch.supernet import BackboneConfig


def se_reference(x, p):
    """Direct transcription: pool, two dense layers with ReLU, sigmoid."""
    c, h, w = x.shape
    pooled = np.array([x[ci].sum() / (h * w) for ci in range(c)])
    hidden = p.w1.value @ pooled + p.b1.value
    hidden[hidden < 0] = 0.0
    z = p.w2.value @ hidden + p.b2.value
    return 1.0 / (1.0 + np.exp(-z))


def sge_reference(x, p):
    """Direct transcription of the group-wise saliency mask."""
    c, h, w = x.shape
    mask = np.zeros_like(x)
    for gi, sl in enumerate(channel_groups(c, p.groups)):
        y = x[sl]
        g = y.mean(axis=(1, 2))
        sal = np.zeros((h, w))
        for i in range(h):
            for j in range(w):
                sal[i, j] = float(g @ y[:, i, j])
        mu = sal.mean()
        sigma = np.sqrt(((sal - mu) ** 2).mean())
        norm = (sal - mu) / (sigma + p.epsilon)
        gmask = 1.0 / (1.0 + np.exp(-(p.gamma.value[gi] * norm + p.beta.value[gi])))
        mask[sl] = gmask[None]
    return mask


class TestSEAttention:
    def test_zero_params_give_half(self):
        p = SEModule(8, 4, np.random.default_rng(0))
        for prm in p.parameters():
            prm.value[...] = 0.0
        mask = se_attention(np.random.default_rng(1).random((8, 3, 3)), p)
        np.testing.assert_allclose(mask, np.full(8, 0.5), atol=1e-15)

    def test_depends_only_on_channel_means(self):
        rng = np.random.default_rng(2)
        p = SEModule(4, 2, rng)
        x = rng.standard_normal((4, 3, 4))
        perm = rng.permutation(12)
        shuffled = x.reshape(4, -1)[:, perm].reshape(4, 3, 4)
        np.testing.assert_allclose(se_attention(x, p), se_attention(shuffled, p),
                                   atol=1e-12)

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(3)
        p = SEModule(8, 4, rng)
        x = rng.standard_normal((8, 5, 5))
        np.testing.assert_allclose(se_attention(x, p), se_reference(x, p), atol=1e-12)

    def test_mask_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        p = SEModule(6, 2, rng)
        for _ in range(20):
            mask = se_attention(rng.standard_normal((6, 4, 4)) * 3, p)
            assert np.all(mask > 0) and np.all(mask < 1)

    def test_channel_mismatch(self):
        p = SEModule(8, 4, np.random.default_rng(5))
        with pytest.raises(ValueError, match="channels"):
            se_attention(np.zeros((4, 3, 3)), p)

    def test_count_example(self):
        # C=8, r=4: 8*2*2 + 2 + 8 = 42
        cfg = BackboneConfig(stages=((1, 8),), input_shape=(1, 4, 4), classes=2,
                             sam="se", reduction=4)
        assert cfg.sam_cost(8, 16)[0] == 42
        assert SEModule(8, 4, np.random.default_rng(6)).param_count() == 42

    def test_reduction_too_large(self):
        with pytest.raises(ValueError, match="reduction"):
            SEModule(4, 8, np.random.default_rng(7))


class TestSGEAttention:
    def test_spatially_constant_input(self):
        p = SGEModule(4, 2)
        p.beta.value[:] = 0.7
        x = np.ones((4, 3, 3)) * 2.5
        mask = sge_attention(x, p)
        expected = 1.0 / (1.0 + np.exp(-0.7))
        np.testing.assert_allclose(mask, np.full((4, 3, 3), expected), atol=1e-12)

    def test_zero_gamma_ignores_input(self):
        rng = np.random.default_rng(8)
        p = SGEModule(4, 2)
        p.gamma.value[:] = 0.0
        p.beta.value[:] = -0.3
        mask = sge_attention(rng.standard_normal((4, 5, 5)), p)
        np.testing.assert_allclose(mask, 1.0 / (1.0 + np.exp(0.3)), atol=1e-12)

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(9)
        p = SGEModule(4, 2)
        p.gamma.value[:] = rng.standard_normal(2)
        p.beta.value[:] = rng.standard_normal(2)
        x = rng.standard_normal((4, 3, 3))
        np.testing.assert_allclose(sge_attention(x, p), sge_reference(x, p), atol=1e-12)

    def test_too_many_groups(self):
        with pytest.raises(ValueError, match="groups"):
            SGEModule(2, 5)

    def test_uneven_grouping_trailing_smaller(self):
        slices = channel_groups(10, 4)
        sizes = [s.stop - s.start for s in slices]
        assert sizes == [3, 3, 3, 1]

    def test_grouping_may_truncate(self):
        assert [s.stop - s.start for s in channel_groups(6, 4)] == [2, 2, 2]


class TestRecalibrate:
    def test_all_ones_mask_is_plain_residual(self):
        rng = np.random.default_rng(10)
        x, f = rng.standard_normal((3, 4, 4)), rng.standard_normal((3, 4, 4))
        np.testing.assert_array_equal(recalibrate(x, f, np.ones(3), 1), x + f)

    def test_zero_mask_suppresses_residual(self):
        rng = np.random.default_rng(11)
        x, f = rng.standard_normal((2, 3, 3)), rng.standard_normal((2, 3, 3))
        np.testing.assert_array_equal(recalibrate(x, f, np.zeros(2), 1), x)

    def test_disconnected_ignores_mask(self):
        rng = np.random.default_rng(12)
        x, f = rng.standard_normal((2, 3, 3)), rng.standard_normal((2, 3, 3))
        junk = rng.standard_normal(2)
        np.testing.assert_array_equal(recalibrate(x, f, junk, 0), x + f)

    def test_full_shape_mask(self):
        rng = np.random.default_rng(13)
        x, f = rng.standard_normal((2, 3, 3)), rng.standard_normal((2, 3, 3))
        mask = rng.random((2, 3, 3))
        np.testing.assert_allclose(recalibrate(x, f, mask, 1), x + mask * f, atol=1e-15)


class _MaskSum:
    """Scalar head over a batched attention module, for finite differences."""

    def __init__(self, module, weights):
        self.module = module
        self.weights = weights

    def parameters(self):
        return self.module.parameters()

    def loss(self, x):
        mask = self.module.forward(x, train=True)
        self.module.backward(self.weights)
        return float((mask * self.weights).sum())


class TestModuleBackward:
    def test_se_module_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        module = SEModule(6, 2, rng)
        x = rng.standard_normal((2, 6, 4, 4))
        weights = rng.standard_normal((2, 6, 1, 1))
        assert grad_check(_MaskSum(module, weights), x, 1e-5) < 1e-6

    def test_sge_module_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        module = SGEModule(6, 3)
        module.gamma.value[:] = rng.standard_normal(3)
        module.beta.value[:] = rng.standard_normal(3)
        x = rng.standard_normal((2, 6, 4, 4))
        weights = rng.standard_normal((2, 6, 4, 4))
        assert grad_check(_MaskSum(module, weights), x, 1e-5) < 1e-6
