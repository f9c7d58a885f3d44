"""Supernet contracts: gating semantics, weight sharing, accounting, checkpoints."""

import dataclasses
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnsearch import nncore
from attnsearch.attention import SEModule, se_attention
from attnsearch.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from attnsearch.data import Dataset, make_blob_dataset
from attnsearch.nncore import OptimizerConfig, grad_check
from attnsearch.supernet import (BackboneConfig, ConnectionScheme, ResidualBlock, SupernetState,
                                 base_flops, count_params, evaluate_scheme,
                                 extra_flops, flop_increment_pct, pretrain_supernet,
                                 sample_bernoulli_scheme, train_with_scheme)

CFG = BackboneConfig(stages=((2, 4), (2, 6)), input_shape=(1, 6, 6), classes=3,
                     sam="se", reduction=2)


def small_net(seed=0, cfg=CFG):
    return SupernetState(cfg, seed)


def small_batch(seed=100, n=4, cfg=CFG):
    rng = np.random.default_rng(seed)
    return rng.random((n, *cfg.input_shape))


def entry_convs(net):
    """Each stage's opening conv: the stem, then the stride-2 transitions."""
    return [layer for layer in net.layers if isinstance(layer, nncore.Conv2d)]


def plain_backbone_forward(net, x):
    """Independent gate-free forward: stem, residual blocks, transitions, head."""
    h, bi = x, 0
    for conv, (nblocks, _) in zip(entry_convs(net), net.config.stages):
        h = np.maximum(conv.forward(h), 0.0)
        for _ in range(int(nblocks)):
            blk = net.blocks[bi]
            f = blk.conv2.forward(np.maximum(blk.conv1.forward(h), 0.0))
            h = h + f
            bi += 1
    pooled = h.mean(axis=(2, 3))
    return pooled @ net.fc.weight.value.T + net.fc.bias.value


def full_sa_forward(net, x):
    """Independent all-connected forward; the mask path is recomputed per
    sample through the functional attention op."""
    h, bi = x, 0
    for conv, (nblocks, _) in zip(entry_convs(net), net.config.stages):
        h = np.maximum(conv.forward(h), 0.0)
        for _ in range(int(nblocks)):
            blk = net.blocks[bi]
            f = blk.conv2.forward(np.maximum(blk.conv1.forward(h), 0.0))
            masks = np.stack([se_attention(f[n], blk.sam)
                              for n in range(f.shape[0])])
            h = h + masks[:, :, None, None] * f
            bi += 1
    pooled = h.mean(axis=(2, 3))
    return pooled @ net.fc.weight.value.T + net.fc.bias.value


class TestForwardWithScheme:
    def test_zero_scheme_is_bare_backbone_bitwise(self):
        net = small_net()
        x = small_batch()
        got = net.forward(x, ConnectionScheme.zeros(4))
        np.testing.assert_array_equal(got, plain_backbone_forward(net, x))

    def test_ones_scheme_matches_independent_full_forward(self):
        net = small_net(1)
        x = small_batch(101)
        got = net.forward(x, ConnectionScheme.ones(4))
        np.testing.assert_allclose(got, full_sa_forward(net, x), atol=1e-12)

    def test_layers_are_one_forward_order_list(self):
        net = small_net()
        kinds = [type(layer).__name__ for layer in net.layers]
        assert kinds == ["Conv2d", "ReLU", "ResidualBlock", "ResidualBlock",
                         "Conv2d", "ReLU", "ResidualBlock", "ResidualBlock",
                         "GlobalAvgPool", "Dense"]
        assert [conv.stride for conv in entry_convs(net)] == [1, 2]
        assert [id(b) for b in net.blocks] == [id(net.layers[i]) for i in (2, 3, 6, 7)]
        assert net.fc is net.layers[-1]

    def test_length_mismatch(self):
        net = small_net()
        with pytest.raises(ValueError, match="length"):
            net.forward(small_batch(), ConnectionScheme.zeros(5))

    def test_bit_flip_only_changes_downstream(self):
        net = small_net(3)
        x = small_batch(103)

        def block_outputs(scheme):
            outs, h, bi = [], x, 0
            for conv, (nblocks, _) in zip(entry_convs(net), net.config.stages):
                h = np.maximum(conv.forward(h), 0.0)
                for _ in range(int(nblocks)):
                    h = net.blocks[bi].forward(h, int(scheme.bits[bi]))
                    outs.append(h.copy())
                    bi += 1
            return outs

        base = block_outputs(ConnectionScheme([1, 0, 0, 1]))
        flipped = block_outputs(ConnectionScheme([1, 0, 1, 1]))
        for i in range(2):  # upstream of the flipped bit: bit-identical
            np.testing.assert_array_equal(base[i], flipped[i])
        assert np.abs(base[2] - flipped[2]).max() > 0

    def test_evaluation_never_mutates(self):
        net = small_net(4)
        rng = np.random.default_rng(5)
        val = Dataset(rng.random((10, 1, 6, 6)), rng.integers(0, 3, 10))
        snapshot = [p.value.copy() for _, p in net.named_parameters()]
        a = evaluate_scheme(net, ConnectionScheme([1, 1, 0, 1]), val)
        evaluate_scheme(net, ConnectionScheme.zeros(4), val)
        b = evaluate_scheme(net, ConnectionScheme([1, 1, 0, 1]), val)
        assert a == b
        for (_, p), s in zip(net.named_parameters(), snapshot):
            np.testing.assert_array_equal(p.value, s)


class TestBernoulliSampler:
    def test_beta_one_always_ones(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            assert sample_bernoulli_scheme(1.0, 9, rng).ones_count == 9

    def test_beta_zero_always_zeros(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            assert sample_bernoulli_scheme(0.0, 9, rng).ones_count == 0

    def test_mean_ones_within_binomial_band(self):
        rng = np.random.default_rng(8)
        counts = [sample_bernoulli_scheme(0.5, 54, rng).ones_count
                  for _ in range(10000)]
        assert 26.3 <= np.mean(counts) <= 27.7

    def test_beta_out_of_range(self):
        with pytest.raises(ValueError):
            sample_bernoulli_scheme(1.5, 4, np.random.default_rng(9))


class TestSchemeSerialization:
    @given(st.lists(st.tuples(st.integers(0, 1), st.booleans()), min_size=1, max_size=64))
    def test_round_trip_identity(self, cells):
        # each bit may be followed by a space, as in per-stage groupings
        s = ConnectionScheme([bit for bit, _ in cells])
        spaced = "".join(f"{bit} " if space else str(bit) for bit, space in cells)
        again = ConnectionScheme.from_string(spaced)
        assert again == s and again.to_string() == s.to_string()
        assert hash(again) == hash(s)
        assert ConnectionScheme.from_string(s.to_string()) == s

    def test_parses_stage_separated_strings(self):
        s = ConnectionScheme.from_string("10 01 11")
        assert s.to_string() == "100111"

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            ConnectionScheme.from_string("10201")


class TestPretraining:
    def make_data(self, seed=11):
        return make_blob_dataset(3, 12, (1, 6, 6), 0.3, np.random.default_rng(seed))

    def test_beta_zero_leaves_sam_parameters_at_init(self):
        net = small_net(12)
        init = [p.value.copy() for sam in net.sam_modules() for p in sam.parameters()]
        pretrain_supernet(net, self.make_data(), 0.0, 25, 4,
                          OptimizerConfig(0.02, 0.9, 1e-3))
        after = [p.value for sam in net.sam_modules() for p in sam.parameters()]
        for a, b in zip(init, after):
            np.testing.assert_array_equal(a, b)

    def test_beta_one_matches_always_connected_loop(self):
        data = self.make_data()
        opt = OptimizerConfig(0.02, 0.9, 1e-3)
        net_a = small_net(13)
        pretrain_supernet(net_a, data, 1.0, 30, 4, opt)
        net_b = small_net(13)
        ones = ConnectionScheme.ones(4)
        for _ in range(30):
            idx = net_b.data_rng.integers(0, len(data), size=4)
            net_b.train_step(data.images[idx], data.labels[idx], ones, opt)
        for (_, pa), (_, pb) in zip(net_a.named_parameters(), net_b.named_parameters()):
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_empty_training_set(self):
        net = small_net(14)
        empty = Dataset(np.zeros((0, 1, 6, 6)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            pretrain_supernet(net, empty, 0.5, 5, 4, OptimizerConfig(0.02, 0.9, 1e-3))

    def test_untrained_accuracy_is_chance_level(self):
        rng = np.random.default_rng(15)
        accs = []
        for seed in range(8):
            net = small_net(200 + seed)
            val = Dataset(rng.random((60, 1, 6, 6)), rng.integers(0, 3, 60))
            accs.append(evaluate_scheme(net, ConnectionScheme.zeros(4), val))
        # 8*60 fresh-net predictions vs 3 classes: mean within 3 sigma
        sigma = np.sqrt((1 / 3) * (2 / 3) / (8 * 60))
        assert abs(np.mean(accs) - 1 / 3) < 3 * sigma + 0.05

    def test_gradient_isolation_is_exact(self):
        net = small_net(16)
        data = self.make_data(17)
        rng = np.random.default_rng(18)
        for _ in range(10):
            scheme = sample_bernoulli_scheme(0.5, 4, rng)
            idx = rng.integers(0, len(data), 4)
            for _, p in net.named_parameters():
                p.zero_grad()
            net.loss_and_grads(data.images[idx], data.labels[idx], scheme)
            for b, block in enumerate(net.blocks):
                grads = [np.abs(p.grad).max() for p in block.sam.parameters()]
                if scheme.bits[b]:
                    assert max(grads) > 0
                else:
                    assert max(grads) == 0.0


class TestSharedStage:
    def test_blocks_share_identical_storage(self):
        cfg = BackboneConfig(stages=((3, 4), (2, 6)), input_shape=(1, 6, 6),
                             classes=3, sam="se", sharing="per-stage", reduction=2)
        net = SupernetState(cfg, 20)
        assert net.blocks[0].sam is net.blocks[1].sam is net.blocks[2].sam
        assert net.blocks[3].sam is net.blocks[4].sam
        assert net.blocks[0].sam is not net.blocks[3].sam

    def test_shared_gradient_is_sum_of_tied_copies(self):
        cfg = BackboneConfig(stages=((2, 4),), input_shape=(1, 6, 6), classes=3,
                             sam="se", sharing="per-stage", reduction=2)
        net = SupernetState(cfg, 21)
        x = small_batch(22, cfg=cfg)
        y = np.array([0, 1, 2, 0])
        scheme = ConnectionScheme.ones(2)
        for _, p in net.named_parameters():
            p.zero_grad()
        net.loss_and_grads(x, y, scheme)
        analytic = [p.grad.copy() for p in net.blocks[0].sam.parameters()]
        # finite differences through the shared storage
        eps = 1e-6
        for p, g in zip(net.blocks[0].sam.parameters(), analytic):
            flat = p.value.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(0, flat.size, max(1, flat.size // 6)):
                orig = flat[i]
                flat[i] = orig + eps
                from attnsearch.nncore import softmax_cross_entropy_batch
                lp = softmax_cross_entropy_batch(net.forward(x, scheme), y)[0]
                flat[i] = orig - eps
                lm = softmax_cross_entropy_batch(net.forward(x, scheme), y)[0]
                flat[i] = orig
                numeric = (lp - lm) / (2 * eps)
                assert abs(numeric - gflat[i]) < 1e-4 * max(1.0, abs(numeric))


class _NetLoss:
    """Cross-entropy of a fixed batch under a fixed scheme, for grad_check."""

    def __init__(self, net, labels, scheme):
        self.net, self.labels, self.scheme = net, labels, scheme

    def parameters(self):
        return [p for _, p in self.net.named_parameters()]

    def loss(self, x):
        return self.net.loss_and_grads(x, self.labels, self.scheme)


class TestWholeNetGradient:
    @pytest.mark.parametrize("sam", ["se", "sge"])
    @pytest.mark.parametrize("sharing", ["per-block", "per-stage"])
    def test_loss_and_grads_match_finite_differences(self, sam, sharing):
        # at 3x3 inputs the SGE check reads ~3e-3 from finite-difference
        # curvature alone, so the input stays at 5x5
        cfg = BackboneConfig(stages=((2, 2), (1, 2)), input_shape=(1, 5, 5), classes=3,
                             sam=sam, sharing=sharing, reduction=2, groups=2)
        net = SupernetState(cfg, 50)
        rng = np.random.default_rng(51)
        if sam == "sge":
            for module in net.sam_modules():
                module.gamma.value[:] = rng.standard_normal(module.gamma.size)
                module.beta.value[:] = rng.standard_normal(module.beta.size)
        x = rng.standard_normal((2, 1, 5, 5))
        model = _NetLoss(net, np.array([0, 2]), ConnectionScheme.from_string("110"))
        assert grad_check(model, x, 1e-5) < 1e-4


class TestAccounting:
    def test_zero_scheme_has_no_extra(self):
        assert count_params(CFG, ConnectionScheme.zeros(4))[1] == 0

    def test_per_block_se_example(self):
        cfg = BackboneConfig(stages=((4, 8), (4, 8)), input_shape=(1, 8, 8),
                             classes=4, sam="se", reduction=4)
        _, extra = count_params(cfg, ConnectionScheme([1, 1, 1, 0, 0, 0, 0, 0]))
        assert extra == 3 * 42

    def test_counts_match_allocation(self):
        for sharing in ("per-block", "per-stage"):
            cfg = BackboneConfig(stages=((2, 4), (2, 6)), input_shape=(1, 6, 6),
                                 classes=3, sam="se", sharing=sharing, reduction=2)
            net = SupernetState(cfg, 23)
            backbone, extra = count_params(cfg, ConnectionScheme.ones(4))
            assert backbone == sum(p.size for name, p in net.named_parameters()
                                   if ".sam." not in name)
            assert extra == sum(p.size for sam in net.sam_modules()
                                for p in sam.parameters())

    def test_shared_mode_is_flat_within_stage(self):
        cfg = BackboneConfig(stages=((3, 4), (3, 6)), input_shape=(1, 6, 6),
                             classes=3, sam="se", sharing="per-stage", reduction=2)
        full = count_params(cfg, ConnectionScheme.ones(6))[1]
        sparse = count_params(cfg, ConnectionScheme([1, 0, 0, 0, 0, 1]))[1]
        assert sparse == full

    def test_monotone_in_bits(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            bits = (rng.random(4) < 0.5).astype(np.int64)
            scheme = ConnectionScheme(bits)
            extra = count_params(CFG, scheme)[1]
            off = np.flatnonzero(bits == 0)
            if len(off):
                more = bits.copy()
                more[off[0]] = 1
                assert count_params(CFG, ConnectionScheme(more))[1] > extra

    def test_se_flop_formula(self):
        cfg = BackboneConfig(stages=((1, 8),), input_shape=(1, 8, 8), classes=4,
                             sam="se", reduction=4)
        got = extra_flops(cfg, ConnectionScheme.ones(1))
        c, h, w, hidden = 8, 8, 8, 2
        assert got == 2 * c * hidden + hidden + c + c * h * w

    def test_flop_increment_zero_for_zero_scheme(self):
        assert flop_increment_pct(CFG, ConnectionScheme.zeros(4)) == 0.0

    def test_flop_increment_monotone(self):
        vals = [flop_increment_pct(CFG, s) for s in
                (ConnectionScheme.zeros(4), ConnectionScheme([1, 0, 0, 0]),
                 ConnectionScheme([1, 1, 0, 0]), ConnectionScheme.ones(4))]
        assert vals == sorted(vals) and vals[-1] > 0

    def test_base_flops_positive(self):
        assert base_flops(CFG) > 0

    @pytest.mark.parametrize("bits", ["11", "11110"])
    def test_scheme_length_must_match_the_blocks(self, bits):
        for cost in (count_params, extra_flops):
            with pytest.raises(ValueError, match=f"scheme length {len(bits)} does not match"):
                cost(CFG, ConnectionScheme.from_string(bits))

    @settings(deadline=None, max_examples=60)
    @given(sam=st.sampled_from(["se", "sge"]),
           sharing=st.sampled_from(["per-block", "per-stage"]),
           stages=st.lists(st.tuples(st.integers(1, 3), st.integers(2, 9)),
                           min_size=1, max_size=3),
           shape=st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9)),
           data=st.data())
    def test_costs_match_the_built_net(self, sam, sharing, stages, shape, data):
        narrowest = min(c for _, c in stages)
        cfg = BackboneConfig(stages=tuple(stages), input_shape=shape, classes=3, sam=sam,
                             sharing=sharing,
                             reduction=data.draw(st.integers(1, narrowest)),
                             groups=data.draw(st.integers(1, narrowest)))
        m = cfg.total_blocks
        scheme = ConnectionScheme(data.draw(st.lists(st.integers(0, 1), min_size=m,
                                                     max_size=m)))
        net = SupernetState(cfg, 3)
        backbone, extra = count_params(cfg, scheme)
        assert backbone == sum(p.size for name, p in net.named_parameters()
                               if ".sam." not in name)
        assert extra == sum(sam.param_count() for sam in net.sam_modules(scheme))
        # per-block reference: each connected block runs its module once on
        # the feature map a real forward hands it
        ops, x = 0, np.zeros((1, *shape))
        bits = iter(scheme.bits)
        for layer in net.layers:
            if not isinstance(layer, ResidualBlock):
                x = layer.forward(x)
                continue
            _, c, h, w = x.shape
            if next(bits):
                if isinstance(layer.sam, SEModule):  # two dense layers with biases
                    ops += layer.sam.param_count() + c * h * w
                else:  # saliency dots, per-group scale/shift, recalibration
                    ops += 2 * c * h * w + 2 * h * w * len(layer.sam.slices)
            x = layer.forward(x, 0)
        assert extra_flops(cfg, scheme) == ops

    @pytest.mark.parametrize("shape", [(1, 6, 6), (2, 7, 5)])
    def test_base_flops_counts_the_conv_macs_of_a_forward(self, monkeypatch, shape):
        cfg = BackboneConfig(stages=((2, 4), (1, 6), (1, 3)), input_shape=shape,
                             classes=3, sam="se", reduction=2)
        net = SupernetState(cfg, 5)
        conv_forward, macs = nncore._conv_forward, []

        def counted(x, kernel, bias, stride, pad):
            y, xp = conv_forward(x, kernel, bias, stride, pad)
            macs.append(y.size * kernel[0].size)  # c_in*k*k per output element
            return y, xp

        monkeypatch.setattr(nncore, "_conv_forward", counted)
        batch = 3
        net.forward(np.zeros((batch, *shape)), ConnectionScheme.ones(4))
        assert len(macs) == 1 + 2 + 2 * 4  # stem, transitions, two per block
        dense = cfg.classes * cfg.stage_channels[-1]
        assert sum(macs) == batch * (base_flops(cfg) - dense)

    @pytest.mark.parametrize("sam, checked, ignored",
                             [("se", "reduction", "groups"), ("sge", "groups", "reduction")])
    def test_only_the_attention_kind_in_use_is_checked(self, sam, checked, ignored):
        layout = dict(stages=((1, 4),), input_shape=(1, 4, 4), classes=2, sam=sam)
        assert getattr(BackboneConfig(**layout, **{ignored: 99}), ignored) == 99
        with pytest.raises(ValueError, match=rf"{checked} 5 must lie in \[1, 4\]"):
            BackboneConfig(**layout, **{checked: 5})


class TestCheckpoint:
    def test_round_trip_preserves_evaluation(self, tmp_path):
        net = small_net(31)
        data = make_blob_dataset(3, 10, (1, 6, 6), 0.3, np.random.default_rng(32))
        pretrain_supernet(net, data, 0.5, 10, 4, OptimizerConfig(0.02, 0.9, 1e-3))
        scheme = ConnectionScheme([1, 0, 1, 1])
        before = evaluate_scheme(net, scheme, data)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, "d" * 64)
        reloaded = small_net(999)  # different seed: all values overwritten
        load_checkpoint(path, reloaded, "d" * 64)
        assert evaluate_scheme(reloaded, scheme, data) == before
        assert reloaded.step_count == net.step_count

    def test_digest_mismatch_refused(self, tmp_path):
        net = small_net(33)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, "a" * 64)
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path, small_net(33), "b" * 64)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"hello world, definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path, small_net(34), "a" * 64)

    def test_every_truncation_and_trailing_byte_refused(self, tmp_path):
        tiny = BackboneConfig(stages=((1, 2), (1, 2)), input_shape=(1, 3, 3), classes=2,
                              sam="se", reduction=2)
        path = tmp_path / "tiny.ckpt"
        save_checkpoint(path, small_net(40, tiny), "e" * 64)
        blob = path.read_bytes()
        net = small_net(41, tiny)
        before = [p.value.copy() for _, p in net.named_parameters()]
        for bad in [blob[:cut] for cut in range(len(blob))] + [blob + b"\0"]:
            path.write_bytes(bad)
            with pytest.raises(CheckpointError) as info:
                load_checkpoint(path, net, "e" * 64)
            assert str(info.value).startswith(f"{path}: ")
        for b, (_, p) in zip(before, net.named_parameters()):
            np.testing.assert_array_equal(b, p.value)
        assert net.step_count == 0

    def test_duplicate_name_refused(self, tmp_path):
        from types import SimpleNamespace
        # same blob count and shapes as a valid file; one name written twice
        pairs = [("block0.conv1.bias" if name == "block0.conv2.bias" else name, p)
                 for name, p in small_net(42).named_parameters()]
        fake = SimpleNamespace(named_parameters=lambda: pairs, step_count=0)
        path = tmp_path / "dup.ckpt"
        save_checkpoint(path, fake, "e" * 64)
        with pytest.raises(CheckpointError, match="duplicate parameter 'block0.conv1.bias'"):
            load_checkpoint(path, small_net(42), "e" * 64)

    def test_version_1_header_refused(self, tmp_path):
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, small_net(47), "e" * 64)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 1)  # the version follows the 8-byte magic
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="unsupported version 1$"):
            load_checkpoint(path, small_net(47), "e" * 64)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_blob_refused(self, tmp_path, bad):
        saved = small_net(48)
        saved.step_count = 7
        dict(saved.named_parameters())["fc.bias"].value[1] = bad
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, saved, "e" * 64)
        net = small_net(49)
        before = [p.value.copy() for _, p in net.named_parameters()]
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path, net, "e" * 64)
        assert str(info.value) == f"{path}: fc.bias holds a non-finite value"
        for b, (_, p) in zip(before, net.named_parameters(), strict=True):
            np.testing.assert_array_equal(b, p.value)
        assert net.step_count == 0

    def test_byte_identical_across_reruns(self, tmp_path):
        data = make_blob_dataset(3, 10, (1, 6, 6), 0.3, np.random.default_rng(35))
        blobs = []
        for run in range(2):
            net = small_net(36)
            pretrain_supernet(net, data, 1.0, 8, 4, OptimizerConfig(0.02, 0.9, 1e-3))
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(path, net, "c" * 64)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


    @settings(deadline=None, max_examples=20)
    @given(sam=st.sampled_from(["se", "sge"]),
           sharing=st.sampled_from(["per-block", "per-stage"]),
           stages=st.lists(st.tuples(st.integers(1, 2), st.sampled_from([2, 4])),
                           min_size=1, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1), step_count=st.integers(0, 2 ** 64 - 1))
    def test_round_trip_property(self, sam, sharing, stages, seed, step_count):
        cfg = BackboneConfig(stages=tuple(stages), input_shape=(1, 4, 4), classes=2,
                             sam=sam, sharing=sharing, reduction=2, groups=2)
        net = small_net(seed, cfg)
        rng = np.random.default_rng(seed)
        for _, p in net.named_parameters():
            p.value[...] = rng.standard_normal(p.value.shape)
        net.step_count = step_count
        other = small_net(seed + 1, cfg)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.ckpt"), os.path.join(tmp, "b.ckpt")
            save_checkpoint(first, net, "f" * 64)
            load_checkpoint(first, other, "f" * 64)
            save_checkpoint(second, other, "f" * 64)
            with open(first, "rb") as fa, open(second, "rb") as fb:
                assert fa.read() == fb.read()
        for (na, pa), (nb, pb) in zip(net.named_parameters(), other.named_parameters(),
                                      strict=True):
            assert na == nb
            np.testing.assert_array_equal(pa.value, pb.value)
        assert other.step_count == step_count


# the literal checkpoint layout of a three-block, two-stage net; a change here
# breaks every saved checkpoint, and the active order fixes the clip norm's sum
LAYOUT = BackboneConfig(stages=((2, 2), (1, 2)), input_shape=(1, 5, 5), classes=2,
                        reduction=2, groups=2)
CONV_NAMES = [
    "stem.conv.kernel", "stem.conv.bias", "transition0.conv.kernel", "transition0.conv.bias",
    "block0.conv1.kernel", "block0.conv1.bias", "block0.conv2.kernel", "block0.conv2.bias",
    "block1.conv1.kernel", "block1.conv1.bias", "block1.conv2.kernel", "block1.conv2.bias",
    "block2.conv1.kernel", "block2.conv1.bias", "block2.conv2.kernel", "block2.conv2.bias",
]
SGE_STAGE_NAMES = ["stage0.sam.gamma", "stage0.sam.beta", "stage1.sam.gamma", "stage1.sam.beta"]
SE_BLOCK_NAMES = [
    "block0.sam.w1", "block0.sam.b1", "block0.sam.w2", "block0.sam.b2",
    "block1.sam.w1", "block1.sam.b1", "block1.sam.w2", "block1.sam.b2",
    "block2.sam.w1", "block2.sam.b1", "block2.sam.w2", "block2.sam.b2",
]


class TestParameterLayout:
    @pytest.mark.parametrize("sam, sharing, sam_names", [
        ("sge", "per-stage", SGE_STAGE_NAMES), ("se", "per-block", SE_BLOCK_NAMES)])
    def test_named_parameters_order(self, sam, sharing, sam_names):
        net = SupernetState(dataclasses.replace(LAYOUT, sam=sam, sharing=sharing), 0)
        assert [name for name, _ in net.named_parameters()] == \
            CONV_NAMES + sam_names + ["fc.weight", "fc.bias"]

    @pytest.mark.parametrize("sam, sharing, sam_names", [
        ("sge", "per-stage", SGE_STAGE_NAMES), ("se", "per-block", SE_BLOCK_NAMES[4:])])
    def test_active_parameters_order(self, sam, sharing, sam_names):
        # blocks 1 and 2 connected: one per stage
        net = SupernetState(dataclasses.replace(LAYOUT, sam=sam, sharing=sharing), 0)
        names = {id(p): name for name, p in net.named_parameters()}
        active = net.active_parameters(ConnectionScheme.from_string("011"))
        assert [names[id(p)] for p in active] == \
            CONV_NAMES + ["fc.weight", "fc.bias"] + sam_names


def reference_pretrain(net, train_set, beta, steps, batch_size, opt, lr_drop_step,
                       lr_drop_factor):
    """The masked pre-training loop written out step by step."""
    m, n = net.config.total_blocks, len(train_set)
    for step in range(steps):
        scheme = sample_bernoulli_scheme(beta, m, net.mask_rng)
        idx = net.data_rng.integers(0, n, size=batch_size)
        lr = opt.learning_rate * (lr_drop_factor if step >= lr_drop_step else 1.0)
        net.train_step(train_set.images[idx], train_set.labels[idx], scheme,
                       OptimizerConfig(lr, opt.momentum, opt.weight_decay))


def reference_fixed(net, train_set, scheme, steps, batch_size, opt, lr_drop_step,
                    lr_drop_factor):
    """The fixed-scheme training loop written out step by step."""
    n = len(train_set)
    for step in range(steps):
        idx = net.data_rng.integers(0, n, size=batch_size)
        lr = opt.learning_rate * (lr_drop_factor if step >= lr_drop_step else 1.0)
        net.train_step(train_set.images[idx], train_set.labels[idx], scheme,
                       OptimizerConfig(lr, opt.momentum, opt.weight_decay))


class TestTrainingLoopPinned:
    OPT = OptimizerConfig(0.05, 0.9, 1e-3)

    def assert_same_state(self, a, b):
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.value, pb.value)
            np.testing.assert_array_equal(pa.momentum, pb.momentum)
        assert a.step_count == b.step_count
        assert a.mask_rng.bit_generator.state == b.mask_rng.bit_generator.state
        assert a.data_rng.bit_generator.state == b.data_rng.bit_generator.state

    @pytest.mark.parametrize("sharing", ["per-block", "per-stage"])
    def test_pretrain_matches_reference(self, sharing):
        cfg = BackboneConfig(stages=((2, 4), (2, 6)), input_shape=(1, 6, 6), classes=3,
                             sam="se", reduction=2, sharing=sharing)
        data = make_blob_dataset(3, 12, (1, 6, 6), 0.3, np.random.default_rng(43))
        net, ref = small_net(44, cfg), small_net(44, cfg)
        pretrain_supernet(net, data, 0.5, 9, 4, self.OPT, 5, 0.1)
        reference_pretrain(ref, data, 0.5, 9, 4, self.OPT, 5, 0.1)
        self.assert_same_state(net, ref)

    def test_fixed_scheme_matches_reference(self):
        data = make_blob_dataset(3, 12, (1, 6, 6), 0.3, np.random.default_rng(45))
        scheme = ConnectionScheme([1, 0, 0, 1])
        net, ref = small_net(46), small_net(46)
        train_with_scheme(net, data, scheme, 9, 4, self.OPT, 5, 0.1)
        reference_fixed(ref, data, scheme, 9, 4, self.OPT, 5, 0.1)
        self.assert_same_state(net, ref)


class TestStandaloneTraining:
    def test_training_improves_over_chance(self):
        data = make_blob_dataset(3, 30, (1, 6, 6), 0.25, np.random.default_rng(37))
        net = small_net(38)
        scheme = ConnectionScheme([1, 0, 1, 0])
        before = evaluate_scheme(net, scheme, data)
        train_with_scheme(net, data, scheme, 120, 8, OptimizerConfig(0.02, 0.9, 1e-3))
        after = evaluate_scheme(net, scheme, data)
        assert after >= before + 0.2

    def test_separable_task_reaches_perfect_accuracy(self):
        from attnsearch.config import ExperimentConfig
        cfg = ExperimentConfig.from_dict({
            "seed": 1,
            "dataset": {"classes": 3, "noise": 0.03, "per_class": 30, "val_fraction": 0.3},
            "backbone": {"stages": [[2, 4], [2, 6]], "input_shape": [1, 6, 6],
                         "classes": 3, "reduction": 2},
        })
        train, val = cfg.build_dataset()
        net = cfg.build_supernet()
        scheme = ConnectionScheme([1, 0, 1, 0])
        train_with_scheme(net, train, scheme, 250, 8, OptimizerConfig(0.02, 0.9, 1e-3))
        assert evaluate_scheme(net, scheme, val) == 1.0


class TestMaskedPretrainingEndToEnd:
    def test_pretraining_lifts_accuracy_and_orders_extremes(self):
        from attnsearch.config import ExperimentConfig
        cfg = ExperimentConfig.from_dict({
            "seed": 0,
            "dataset": {"classes": 6, "noise": 0.40, "per_class": 80,
                        "val_fraction": 0.4},
            "backbone": {"stages": [[3, 8], [3, 16], [2, 32]],
                         "input_shape": [1, 8, 8], "classes": 6},
        })
        train, val = cfg.build_dataset()
        net = cfg.build_supernet()
        ones = ConnectionScheme.ones(8)
        before = evaluate_scheme(net, ones, val)
        pretrain_supernet(net, train, 0.5, 300, 16, OptimizerConfig(0.02, 0.9, 1e-3))
        after_full = evaluate_scheme(net, ones, val)
        after_plain = evaluate_scheme(net, ConnectionScheme.zeros(8), val)
        assert after_full >= before + 0.2
        assert after_full > after_plain
