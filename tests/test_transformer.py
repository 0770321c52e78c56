import numpy as np
import pytest

from dctm.errors import ConfigError, ShapeError
from dctm.layers import Arena, capture
from dctm.reference import attention_single_head_loop
from dctm.tensor import Tensor, xavier_uniform
from dctm.transformer import (
    EncoderDecoder,
    MultiHeadAttention,
    RegressionHead,
    TransformerSettings,
    positional_encoding,
)


def small_settings(**kw):
    base = dict(hidden=16, heads=4, encoder_layers=2, decoder_layers=2,
                ff_dim=32, dropout=0.0)
    base.update(kw)
    return TransformerSettings(**base)


class TestSettings:
    def test_defaults(self):
        cfg = TransformerSettings()
        assert (cfg.hidden, cfg.heads) == (128, 8)
        assert (cfg.encoder_layers, cfg.decoder_layers) == (4, 4)
        assert cfg.ff_dim == 512 and cfg.dropout == 0.1

    def test_head_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            TransformerSettings(hidden=10, heads=4)

    def test_dropout_range(self):
        with pytest.raises(ConfigError, match="dropout"):
            TransformerSettings(dropout=1.0)


class TestPositionalEncoding:
    def test_row_zero(self):
        pe = positional_encoding(4, 8)
        np.testing.assert_array_equal(pe[0], [0, 1, 0, 1, 0, 1, 0, 1])

    def test_known_entries(self):
        pe = positional_encoding(3, 4).astype(np.float64)
        assert pe[1, 0] == pytest.approx(np.sin(1.0), abs=1e-6)
        assert pe[1, 1] == pytest.approx(np.cos(1.0), abs=1e-6)
        assert pe[2, 2] == pytest.approx(np.sin(2.0 / 10000.0 ** (2 / 4)), abs=1e-6)

    def test_rows_distinct(self):
        pe = positional_encoding(64, 128)
        assert len({row.tobytes() for row in pe}) == 64

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            positional_encoding(4, 7)

    def test_deterministic(self):
        a = positional_encoding(16, 32)
        b = positional_encoding(16, 32)
        np.testing.assert_array_equal(a, b)


class TestMultiHeadAttention:
    def test_single_token_passes_through_value_path(self, rng):
        # T=1: softmax over one key is 1, so out = W_o(W_v x)
        mha = MultiHeadAttention(8, 2, rng)
        _scramble_zero_weights(mha, rng)  # w_out starts at zero by design
        x = Tensor(rng.standard_normal((1, 1, 8)).astype(np.float32))
        out = mha(x).data
        v = x.data @ mha.w_in.data[:, 16:] + mha.b_in.data[16:]
        want = v @ mha.w_out.data + mha.b_out.data
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_zero_query_gives_uniform_weights(self, rng):
        mha = MultiHeadAttention(8, 2, rng)
        Arena(mha.named_parameters())   # b_in is read-only until packed
        mha.w_in.data[:, :8] = 0.0
        mha.b_in.data[:8] = 0.0
        x = Tensor(rng.standard_normal((1, 5, 8)).astype(np.float32))
        with capture() as seen:
            mha(x)
        np.testing.assert_allclose(seen[mha], 1.0 / 5.0, atol=1e-7)

    def test_rows_sum_to_one(self, rng):
        mha = MultiHeadAttention(16, 4, rng)
        x = Tensor(rng.standard_normal((2, 7, 16)).astype(np.float32))
        with capture() as seen:
            mha(x)
        np.testing.assert_allclose(seen[mha].sum(axis=-1), 1.0, atol=1e-6)

    def test_matches_per_head_loop(self, rng):
        mha = MultiHeadAttention(8, 2, rng)
        _scramble_zero_weights(mha, rng)
        x = Tensor(rng.standard_normal((1, 6, 8)))
        out = mha(x).data

        q, k, v = (x.data @ mha.w_in.data[:, i * 8:(i + 1) * 8] + mha.b_in.data[i * 8:(i + 1) * 8]
                   for i in range(3))
        d = 4  # 8 hidden / 2 heads
        heads = [
            attention_single_head_loop(q[0, :, i * d:(i + 1) * d],
                                       k[0, :, i * d:(i + 1) * d],
                                       v[0, :, i * d:(i + 1) * d])
            for i in range(2)
        ]
        want = np.concatenate(heads, axis=-1) @ mha.w_out.data + mha.b_out.data
        np.testing.assert_allclose(out, want[None], atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_packed_projection_is_three_xavier_draws(self, seed):
        """``w_in``'s column blocks are three successive (D, D) Xavier draws,
        q then k then v: the values separate q, k and v weights would get."""
        mha = MultiHeadAttention(8, 2, np.random.default_rng(seed))
        draw = np.random.default_rng(seed)
        want = [xavier_uniform(draw, (8, 8)).data for _ in range(3)]
        assert mha.w_in.shape == (8, 24) and not mha._children
        for i in range(3):
            np.testing.assert_array_equal(mha.w_in.data[:, i * 8:(i + 1) * 8], want[i])
        assert [name for name, _ in mha.named_parameters()] == ["w_in", "b_in", "w_out", "b_out"]
        assert not (mha.b_in.data.any() or mha.w_out.data.any() or mha.b_out.data.any())

    def test_cross_attention_shapes(self, rng):
        mha = MultiHeadAttention(8, 2, rng)
        x = Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32))
        mem = Tensor(rng.standard_normal((2, 9, 8)).astype(np.float32))
        with capture() as seen:
            assert mha(x, memory=mem).shape == (2, 3, 8)
        assert seen[mha].shape == (2, 2, 3, 9)

    def test_exposes_nothing_outside_a_capture(self, rng):
        mha = MultiHeadAttention(8, 2, rng)
        x = Tensor(rng.standard_normal((1, 4, 8)).astype(np.float32))
        with capture() as seen:
            with capture() as inner:
                mha(x)
            mha(x)
        mha(x)
        assert list(inner) == [mha] and list(seen) == [mha]
        assert seen[mha] is not inner[mha]
        assert vars(mha).keys() == {"_params", "_children", "heads",
                                    "w_in", "b_in", "w_out", "b_out"}


def _scramble_zero_weights(module, rng):
    """Give zero-initialized projections random values.

    Residual output projections and the scoring head start at zero so the
    network opens as an identity map; tests that check the mixing math (or
    need the residual branches to carry signal) overwrite them first.
    """
    for _, p in module.named_parameters():
        if not np.any(p.data):
            p.data = (0.1 * rng.standard_normal(p.data.shape)).astype(p.data.dtype)
    return module


class TestEncoderDecoder:
    def test_forward_shape_and_range(self, rng):
        model = EncoderDecoder(small_settings(), rng)
        head = RegressionHead(16, rng)
        tokens = Tensor(rng.standard_normal((2, 10, 16)).astype(np.float32))
        scores = head(model(tokens, rng)).data
        assert scores.shape == (2, 10)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_permutation_equivariant_without_positions(self, rng):
        # no positional encoding and no dropout: permuting tokens permutes outputs
        cfg = small_settings(use_positional=False)
        model = EncoderDecoder(cfg, rng)
        x = rng.standard_normal((1, 6, 16))
        perm = np.array([3, 0, 5, 1, 4, 2])
        base = model(Tensor(x), rng).data
        shuffled = model(Tensor(x[:, perm]), rng).data
        np.testing.assert_allclose(shuffled, base[:, perm], atol=1e-9)

    def test_positions_break_equivariance(self, rng):
        model = EncoderDecoder(small_settings(), rng)
        x = rng.standard_normal((1, 6, 16))
        perm = np.array([3, 0, 5, 1, 4, 2])
        base = model(Tensor(x), rng).data
        shuffled = model(Tensor(x[:, perm]), rng).data
        assert np.abs(shuffled - base[:, perm]).max() > 1e-4

    def test_every_block_exposes_its_attention(self, rng):
        model = EncoderDecoder(small_settings(), rng)
        x = Tensor(rng.standard_normal((1, 5, 16)).astype(np.float32))
        with capture() as seen:
            model(x, rng)
        # 2 encoder self + 2 decoder self + 2 decoder cross
        blocks = ([layer.attn for layer in model.encoder]
                  + [a for layer in model.decoder for a in (layer.self_attn, layer.cross_attn)])
        assert list(seen) == blocks
        for m in seen.values():
            np.testing.assert_allclose(m.sum(axis=-1), 1.0, atol=1e-5)

    def test_wrong_feature_dim_raises(self, rng):
        model = EncoderDecoder(small_settings(), rng)
        with pytest.raises(ShapeError, match="16"):
            model(Tensor(np.zeros((1, 4, 12), dtype=np.float32)), rng)

    def test_dropout_only_in_training(self, rng):
        cfg = small_settings(dropout=0.5)
        model = EncoderDecoder(cfg, rng)
        # dropout hits the residual-branch outputs, which start at zero;
        # give them weight so masking is observable
        _scramble_zero_weights(model, rng)
        x = Tensor(rng.standard_normal((1, 8, 16)).astype(np.float32))
        a = model(x, np.random.default_rng(0), training=False).data
        b = model(x, np.random.default_rng(1), training=False).data
        np.testing.assert_array_equal(a, b)
        c = model(x, np.random.default_rng(0), training=True).data
        d = model(x, np.random.default_rng(1), training=True).data
        assert np.abs(c - d).max() > 1e-6

    def test_gradients_reach_every_parameter(self, rng):
        model = EncoderDecoder(small_settings(), rng)
        head = RegressionHead(16, rng)
        _scramble_zero_weights(model, rng)
        _scramble_zero_weights(head, rng)
        for _, p in list(model.named_parameters()) + list(head.named_parameters()):
            p.requires_grad = True
        x = Tensor(rng.standard_normal((1, 4, 16)).astype(np.float32))
        head(model(x, rng)).sum().backward()
        for name, p in list(model.named_parameters()) + list(head.named_parameters()):
            assert p.grad is not None, name
