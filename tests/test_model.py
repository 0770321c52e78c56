"""Assembled regressor: shapes, conv/fusion variants, introspection."""

import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import dctm.conv
import dctm.fusion
import dctm.transformer
from dctm.config import ConvConfig, DctmConfig, DataConfig, FusionConfig
from dctm.errors import ConfigError, ShapeError
from dctm.fusion import ConcatFusion, GatedFusion
from dctm.layers import Arena, LayerNorm, capture
from dctm.metrics import ccc_loss
from dctm.model import DctmModel, conv_specs
from dctm.optim import Adam
from dctm.tensor import _toposort, no_grad
from dctm.transformer import (DecoderLayer, EncoderLayer, FeedForward, MultiHeadAttention,
                              TransformerSettings)
from dctm.verify import probed

DIMS = {"head": 5, "pose": 7, "voice": 4}


def small_cfg(**kwargs) -> DctmConfig:
    base = dict(
        conv=ConvConfig(channels=8),
        transformer=TransformerSettings(hidden=16, heads=2, encoder_layers=1,
                                        decoder_layers=1, ff_dim=32, dropout=0.0),
    )
    base.update(kwargs)
    return DctmConfig(**base)


def batch(rng, B=2, W=20, dims=DIMS, modalities=None):
    names = modalities if modalities is not None else list(dims)
    return {m: rng.standard_normal((B, dims[m], W)).astype(np.float32) for m in names}


def scramble(model, rng):
    # residual output projections and the head start at zero; give them
    # weight when a test needs end-to-end signal flow
    for _, p in model.named_parameters():
        if not np.any(p.data):
            p.data[...] = 0.1 * rng.standard_normal(p.data.shape)


class TestForwardShapes:
    def test_default_architecture(self, rng):
        model = DctmModel(small_cfg(), DIMS, rng)
        out = model(batch(rng), rng)
        assert out.shape == (2, 20)
        assert out.data.min() > 0.0 and out.data.max() < 1.0

    def test_fresh_model_scores_half_everywhere(self, rng):
        # zero-initialized head => sigmoid(0) = 0.5 before any training
        model = DctmModel(small_cfg(), DIMS, rng)
        out = model(batch(rng), rng).data
        np.testing.assert_array_equal(out, 0.5)

    def test_conv_none_uses_raw_features(self, rng):
        cfg = small_cfg(conv=ConvConfig(kind="none"))
        model = DctmModel(cfg, DIMS, rng)
        assert model.stacks == {}
        assert model(batch(rng), rng).shape == (2, 20)

    @pytest.mark.parametrize("fusion", ["sa", "gmu"])
    @pytest.mark.parametrize("kind", ["dilated", "traditional", "none"])
    def test_eval_forward_needs_no_rng(self, rng, kind, fusion):
        # scoring passes rng=None: with dropout on, evaluation must draw nothing
        cfg = small_cfg(conv=ConvConfig(kind=kind, channels=8),
                        fusion=FusionConfig(kind=fusion),
                        transformer=TransformerSettings(hidden=16, heads=2, encoder_layers=1,
                                                        decoder_layers=1, ff_dim=32,
                                                        dropout=0.3))
        model = DctmModel(cfg, DIMS, rng)
        scramble(model, rng)
        feats = batch(rng)
        out = model(feats, None, training=False).data
        np.testing.assert_array_equal(out, model(feats, rng, training=False).data)
        with pytest.raises(AttributeError):
            model(feats, None, training=True)

    def test_gmu_fusion_forward(self, rng):
        cfg = small_cfg(fusion=FusionConfig(kind="gmu"))
        model = DctmModel(cfg, DIMS, rng)
        assert isinstance(model.fusion, GatedFusion)
        assert model(batch(rng), rng).shape == (2, 20)

    def test_modality_subset(self, rng):
        cfg = small_cfg(data=DataConfig(modalities=("voice",)))
        model = DctmModel(cfg, {"voice": 4}, rng)
        out = model(batch(rng, dims={"voice": 4}, modalities=["voice"]), rng)
        assert out.shape == (2, 20)

    def test_extra_feature_dims_ignored(self, rng):
        cfg = small_cfg(data=DataConfig(modalities=("voice",)))
        model = DctmModel(cfg, DIMS, rng)             # head/pose dims present but unused
        assert list(model.feature_dims) == ["voice"]


class TestErrors:
    def test_missing_feature_dim(self, rng):
        with pytest.raises(ConfigError, match="pose"):
            DctmModel(small_cfg(), {"head": 5, "voice": 4}, rng)

    def test_missing_modality_in_batch(self, rng):
        model = DctmModel(small_cfg(), DIMS, rng)
        feats = batch(rng)
        del feats["pose"]
        with pytest.raises(ShapeError, match="pose"):
            model(feats, rng)

    def test_wrong_channel_count(self, rng):
        model = DctmModel(small_cfg(), DIMS, rng)
        feats = batch(rng)
        feats["voice"] = feats["voice"][:, :2, :]
        with pytest.raises(ShapeError, match="voice"):
            model(feats, rng)


class TestReceptiveField:
    def test_dilated_default_is_41(self):
        assert small_cfg().conv.receptive_field() == 41

    def test_traditional_is_11(self):
        assert small_cfg(conv=ConvConfig(kind="traditional", channels=8)).conv.receptive_field() == 11

    def test_no_conv_is_1(self):
        assert small_cfg(conv=ConvConfig(kind="none")).conv.receptive_field() == 1

    def test_conv_specs_chain_channels(self):
        specs = conv_specs(small_cfg(), in_channels=5)
        assert [(s.in_channels, s.out_channels) for s in specs] == [(5, 8), (8, 8), (8, 8)]
        assert [s.kernel_size for s in specs] == [5, 5, 3]
        assert [s.dilation for s in specs] == [4, 4, 4]


class TestIntrospection:
    def test_gate_none_for_concat_fusion(self, rng):
        model = DctmModel(small_cfg(), DIMS, rng)
        assert isinstance(model.fusion, ConcatFusion)
        seen = model.inspect(batch(rng))
        assert seen.gate_toward_last_modality is None and seen.gates == []

    def test_gate_in_unit_interval_after_forward(self, rng):
        cfg = small_cfg(fusion=FusionConfig(kind="gmu"))
        model = DctmModel(cfg, DIMS, rng)
        seen = model.inspect(batch(rng))
        gate = seen.gate_toward_last_modality
        assert gate is not None and 0.0 <= gate <= 1.0
        assert [z.shape for z in seen.gates] == [(2, 20, 16)] * 2

    def test_attention_maps_after_forward(self, rng):
        model = DctmModel(small_cfg(), DIMS, rng)
        maps = model.inspect(batch(rng)).attention
        assert len(maps["encoder_self"]) == 1
        assert len(maps["decoder_self"]) == 1
        assert len(maps["decoder_cross"]) == 1
        for group in maps.values():
            for m in group:
                assert m.shape == (2, 2, 20, 20)
                np.testing.assert_allclose(m.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_inspect_returns_what_the_blocks_return(self, rng, monkeypatch, precision):
        # the maps are the arrays attention_block returns, and the gate helper
        # reads the top unit's z as mean(1 - z), bit for bit
        model = DctmModel(small_cfg(fusion=FusionConfig(kind="gmu"), precision=precision),
                          DIMS, rng)
        scramble(model, rng)
        x = batch(rng)
        with no_grad():
            plain = model(x, None).data
        returned = []

        def recording(fn):
            def wrapper(*args):
                out, weights = fn(*args)
                returned.append(weights)
                return out, weights
            return wrapper

        monkeypatch.setattr(dctm.transformer, "attention_block",
                            recording(dctm.transformer.attention_block))
        monkeypatch.setattr(dctm.fusion, "gated_unit", recording(dctm.fusion.gated_unit))
        seen = model.inspect(x)
        assert seen.scores.tobytes() == plain.tobytes()
        gates, maps = returned[:2], returned[2:]
        assert all(a is b for a, b in zip(seen.gates, gates)) and len(seen.gates) == 2
        assert [len(g) for g in seen.attention.values()] == [1, 1, 1]
        assert all(a is b for a, b in zip(
            seen.attention["encoder_self"] + seen.attention["decoder_self"]
            + seen.attention["decoder_cross"], [maps[0], maps[1], maps[2]]))
        assert seen.gate_toward_last_modality == float(np.mean(1.0 - gates[-1]))

    def test_inspect_restores_grad_mode_and_the_outer_capture(self, rng):
        model = DctmModel(small_cfg(fusion=FusionConfig(kind="gmu")), DIMS, rng)
        x = batch(rng)
        with capture() as outer:
            with pytest.raises(ShapeError):
                model.inspect({"head": x["head"]})
            model.inspect(x)
            assert outer == {}
            out = model(x, None)
        assert out._node is not None
        assert len(outer) == 2 + 3  # gates and attention maps of the plain forward
        # a capture sees only its own thread's forwards
        recorded = []
        worker = threading.Thread(target=lambda: recorded.append(model.inspect(x).gates))
        with capture() as seen:
            worker.start()
            worker.join()
        assert seen == {} and len(recorded[0]) == 2


class TestParameters:
    def test_constant_parameters_own_no_memory_until_packed(self):
        """`zeros` and `ones` parameters of a module outside an arena are
        read-only zero-stride views; an `Arena` binds each to a writable
        view of its buffer holding the same value."""
        norm, mha = LayerNorm(4), MultiHeadAttention(8, 2, None)
        params = list(norm.named_parameters()) + list(mha.named_parameters())
        for name, p in params:
            assert not p.data.flags.writeable and not p.data.flags.owndata, name
            assert not any(p.data.strides), name
        arena = Arena(params)
        for name, p in params:
            assert p.data.flags.writeable and p.data.base is arena.flat, name
        assert norm.gain.data.tolist() == [1.0] * 4 and not norm.bias.data.any()
        assert mha.w_in.shape == (8, 24) and not arena.flat[4:].any()

    def test_same_seed_same_parameters(self):
        a = DctmModel(small_cfg(), DIMS, np.random.default_rng(11))
        b = DctmModel(small_cfg(), DIMS, np.random.default_rng(11))
        pa, pb = list(a.named_parameters()), list(b.named_parameters())
        assert [n for n, _ in pa] == [n for n, _ in pb]
        for (_, x), (_, y) in zip(pa, pb):
            np.testing.assert_array_equal(x.data, y.data)

    def test_parameter_names_cover_components(self, rng):
        model = DctmModel(small_cfg(), DIMS, rng)
        names = [n for n, _ in model.named_parameters()]
        for prefix in ("conv_head.", "conv_pose.", "conv_voice.",
                       "fusion.", "core.", "head."):
            assert any(n.startswith(prefix) for n in names), prefix

    def test_gradients_reach_conv_stacks(self, rng):
        model = DctmModel(small_cfg(), DIMS, rng)
        scramble(model, rng)
        out = model(batch(rng), rng)
        probed(out, np.ones(out.shape, out.dtype)).backward()
        for name, p in model.named_parameters():
            if name.startswith("conv_"):
                assert p.grad is not None and np.any(p.grad), name

    def test_float64_precision_propagates(self, rng):
        model = DctmModel(small_cfg(precision="float64"), DIMS, rng)
        for name, p in model.named_parameters():
            assert p.data.dtype == np.float64, name
        out = model(batch(rng), rng)
        assert out.data.dtype == np.float64

    def test_precision_changes_only_the_cast(self):
        a = DctmModel(small_cfg(precision="float32"), DIMS, np.random.default_rng(11))
        b = DctmModel(small_cfg(precision="float64"), DIMS, np.random.default_rng(11))
        for (name, x), (_, y) in zip(a.named_parameters(), b.named_parameters()):
            assert x.data.dtype == np.float32, name
            assert x.data.tobytes() == y.data.astype(np.float32).tobytes(), name

    @pytest.mark.parametrize("fusion", ["sa", "gmu"])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_train_step_stays_in_configured_dtype(self, rng, precision, fusion):
        cfg = small_cfg(precision=precision, fusion=FusionConfig(kind=fusion))
        model = DctmModel(cfg, DIMS, rng)
        params = list(model.named_parameters())
        opt = Adam(model.arena, lr=1e-3)
        feats = {m: x.astype(cfg.dtype) for m, x in batch(rng).items()}
        loss = ccc_loss(model(feats, rng, training=True), rng.random((2, 20)))
        loss.backward()
        opt.step()
        assert loss.dtype == cfg.dtype
        for name, p in params:
            assert p.data.dtype == cfg.dtype, name
            assert p.grad is not None and p.grad.dtype == cfg.dtype, name
        for m, v in zip(opt.m, opt.v):
            assert m.dtype == cfg.dtype and v.dtype == cfg.dtype

    @pytest.mark.parametrize("fusion", ["sa", "gmu"])
    @pytest.mark.parametrize("kind", ["dilated", "traditional", "none"])
    def test_backward_skips_the_raw_feature_gradient(self, monkeypatch, kind, fusion):
        """The features take no gradient, so backward computes none for
        them: each stack scatters into its hidden layers' inputs only.
        ``tests/test_conv.py`` checks at the op level that the weight
        gradients are byte-identical to a pass that differentiates the
        features too."""
        cfg = small_cfg(conv=ConvConfig(kind=kind, channels=8),
                        fusion=FusionConfig(kind=fusion),
                        transformer=TransformerSettings(hidden=16, heads=2, encoder_layers=1,
                                                        decoder_layers=1, ff_dim=32,
                                                        dropout=0.1))
        calls = []
        real = dctm.conv._conv_input_grad

        def counting(*args):
            calls.append(args[0].shape)
            return real(*args)

        monkeypatch.setattr(dctm.conv, "_conv_input_grad", counting)
        model = DctmModel(cfg, DIMS, np.random.default_rng(4))
        scramble(model, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        ccc_loss(model(batch(rng), rng, training=True), rng.random((2, 20))).backward()
        layers = 0 if kind == "none" else len(cfg.conv.kernels)
        assert len(calls) == len(DIMS) * max(layers - 1, 0)
        assert all(p.grad is not None for _, p in model.named_parameters())


@pytest.mark.parametrize("fusion", ["sa", "gmu"])
def test_default_training_step_records_49_op_nodes(rng, fusion):
    """One default-architecture step is a fixed number of tape nodes, so a
    change that adds nodes edits this test on purpose. One conv stack per
    modality (3); the fusion, concat and projection or two gated units (2);
    the positional add (1); 4 per encoder layer (attention, norm,
    feed-forward, norm; 16) and 6 per decoder layer (24); the head's linear
    and sigmoid (2); the loss (1)."""
    cfg = DctmConfig(fusion=FusionConfig(kind=fusion))
    model = DctmModel(cfg, DIMS, rng)
    loss = ccc_loss(model(batch(rng, W=16), rng, training=True), rng.random((2, 16)))
    assert len(_toposort(loss)) == 49


@pytest.mark.parametrize("fusion", ["sa", "gmu"])
def test_branch_outputs_are_freed_at_the_forward_and_gradients_unchanged(fusion):
    """The tape keeps nodes, not tensors: once the residual norm has read an
    attention or feed-forward branch output, nothing references its array,
    so it is freed inside its layer's forward rather than at backward().
    Every parameter gradient is byte-identical to a pass that holds every
    branch output alive until after backward()."""
    cfg = small_cfg(fusion=FusionConfig(kind=fusion),
                    transformer=TransformerSettings(hidden=16, heads=2, encoder_layers=1,
                                                    decoder_layers=1, ff_dim=32, dropout=0.1))

    def spying(real, before, after):
        def call(self, *args, **kwargs):
            before()
            out = real(self, *args, **kwargs)
            after(out)
            return out
        return call

    grads = []
    for hold in (True, False):
        held, refs, dead_after_layer = [], [], []
        keep = held.append if hold else (lambda out: refs.append(weakref.ref(out.data)))
        with pytest.MonkeyPatch.context() as mp:
            for cls in (MultiHeadAttention, FeedForward):
                mp.setattr(cls, "__call__", spying(cls.__call__, lambda: None, keep))
            for cls in (EncoderLayer, DecoderLayer):
                mp.setattr(cls, "__call__", spying(
                    cls.__call__, refs.clear,
                    lambda out: dead_after_layer.append([r() is None for r in refs])))
            model = DctmModel(cfg, DIMS, np.random.default_rng(4))
            scramble(model, np.random.default_rng(5))
            rng = np.random.default_rng(6)
            loss = ccc_loss(model(batch(rng), rng, training=True), rng.random((2, 20)))
        loss.backward()
        grads.append({name: p.grad.tobytes() for name, p in model.named_parameters()})
        if not hold:
            # encoder: attention and feed-forward; decoder: two attentions and feed-forward
            assert dead_after_layer == [[True] * 2, [True] * 3]
    assert grads[0] == grads[1]


def test_training_forward_holds_no_packed_projection_copy():
    """The arrays a default-architecture float32 training forward leaves
    alive for its backward grow with the batch; the part that does not is
    under 1 MiB. Attention reads its packed q|k|v projection in place, so no
    block keeps a 192 KiB copy of it (2 MiB a forward) on the tape."""
    cfg = DctmConfig()
    model = DctmModel(cfg, DIMS, np.random.default_rng(0))
    rng = np.random.default_rng(1)

    def held(B):
        feats = {m: rng.standard_normal((B, d, cfg.data.window)).astype(np.float32)
                 for m, d in DIMS.items()}
        tracemalloc.start()
        try:
            out = model(feats, np.random.default_rng(2), training=True)   # noqa: F841
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    held(4)   # warm the positional table and other first-call caches
    at4, at8 = held(4), held(8)
    assert at8 > at4 > 0
    assert 2 * at4 - at8 < 2**20, (at4, at8)
