import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dctm.errors import ShapeError
from dctm.fusion import ConcatFusion, GatedFusion, GmuUnit
from dctm.layers import capture
from dctm.tensor import Tensor
from dctm.verify import probed


def stream(rng, b, c, t):
    """(B, T, C) tokens, as a conv stack returns them."""
    return Tensor(rng.standard_normal((b, t, c)).astype(np.float32))


class TestConcatFusion:
    def test_output_shape(self, rng):
        fuse = ConcatFusion([64, 64, 64], hidden=128, rng=rng)
        streams = [stream(rng, 2, 64, 32) for _ in range(3)]
        out = fuse(streams, ["head", "pose", "voice"])
        assert out.shape == (2, 32, 128)

    def test_zero_streams_give_bias_row(self, rng):
        fuse = ConcatFusion([4, 4], hidden=8, rng=rng)
        streams = [Tensor(np.zeros((1, 5, 4), dtype=np.float32)) for _ in range(2)]
        out = fuse(streams, ["a", "b"]).data
        np.testing.assert_allclose(out, np.broadcast_to(fuse.proj.bias.data, out.shape))

    def test_length_mismatch_names_modality(self, rng):
        fuse = ConcatFusion([4, 4], hidden=8, rng=rng)
        with pytest.raises(ShapeError, match="voice"):
            fuse([stream(rng, 1, 4, 10), stream(rng, 1, 4, 9)], ["head", "voice"])

    def test_concat_order_follows_argument_order(self, rng):
        # permuting the streams routes them through different weight columns
        fuse = ConcatFusion([2, 2], hidden=4, rng=rng)
        a, b = stream(rng, 1, 2, 3), stream(rng, 1, 2, 3)
        out_ab = fuse([a, b], ["a", "b"]).data
        out_ba = fuse([b, a], ["a", "b"]).data
        assert np.abs(out_ab - out_ba).max() > 1e-6


class TestGmuUnit:
    def test_saturated_gate_picks_first_input(self, rng):
        gmu = GmuUnit(3, 3, 4, rng)
        gmu.gate.bias.data = np.full(4, 20.0, dtype=np.float32)
        x1 = Tensor(rng.standard_normal((2, 5, 3)).astype(np.float32))
        x2 = Tensor(rng.standard_normal((2, 5, 3)).astype(np.float32))
        with capture() as seen:
            out = gmu.fuse(x1, x2, ("a", "b")).data
        h1 = np.tanh(x1.data @ gmu.transform1.weight.data + gmu.transform1.bias.data)
        np.testing.assert_allclose(out, h1, atol=1e-6)
        assert seen[gmu].min() > 0.999

    def test_saturated_gate_picks_second_input(self, rng):
        gmu = GmuUnit(3, 3, 4, rng)
        gmu.gate.bias.data = np.full(4, -20.0, dtype=np.float32)
        x1 = Tensor(rng.standard_normal((2, 5, 3)).astype(np.float32))
        x2 = Tensor(rng.standard_normal((2, 5, 3)).astype(np.float32))
        with capture() as seen:
            out = gmu.fuse(x1, x2, ("a", "b")).data
        h2 = np.tanh(x2.data @ gmu.transform2.weight.data + gmu.transform2.bias.data)
        np.testing.assert_allclose(out, h2, atol=1e-6)
        assert seen[gmu].max() < 0.001

    def test_hand_case_midpoint_gate(self):
        # 1-d unit with identity paths and zero gate weights: z = 1/2,
        # output = (tanh(x1) + tanh(x2)) / 2
        rng = np.random.default_rng(0)
        gmu = GmuUnit(1, 1, 1, rng)
        gmu.transform1.weight.data = np.ones((1, 1), dtype=np.float32)
        gmu.transform1.bias.data = np.zeros(1, dtype=np.float32)
        gmu.transform2.weight.data = np.ones((1, 1), dtype=np.float32)
        gmu.transform2.bias.data = np.zeros(1, dtype=np.float32)
        gmu.gate.weight.data = np.zeros((2, 1), dtype=np.float32)
        gmu.gate.bias.data = np.zeros(1, dtype=np.float32)
        x1 = Tensor(np.full((1, 1, 1), 3.0, dtype=np.float32))
        x2 = Tensor(np.full((1, 1, 1), -3.0, dtype=np.float32))
        with capture() as seen:
            out = gmu.fuse(x1, x2, ("a", "b")).item()
        want = 0.5 * (np.tanh(3.0) + np.tanh(-3.0))
        assert out == pytest.approx(want, abs=1e-6)
        assert seen[gmu][0, 0, 0] == pytest.approx(0.5, abs=1e-7)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_output_between_path_activations(self, seed):
        # convexity: every output coordinate lies between h1 and h2
        rng = np.random.default_rng(seed)
        gmu = GmuUnit(2, 2, 3, rng)
        x1 = Tensor(rng.standard_normal((1, 4, 2)).astype(np.float32))
        x2 = Tensor(rng.standard_normal((1, 4, 2)).astype(np.float32))
        out = gmu.fuse(x1, x2, ("a", "b")).data
        h1 = np.tanh(x1.data @ gmu.transform1.weight.data + gmu.transform1.bias.data)
        h2 = np.tanh(x2.data @ gmu.transform2.weight.data + gmu.transform2.bias.data)
        lo = np.minimum(h1, h2) - 1e-6
        hi = np.maximum(h1, h2) + 1e-6
        assert np.all(out >= lo) and np.all(out <= hi)

    def test_wrong_feature_dim_names_input(self, rng):
        gmu = GmuUnit(3, 4, 5, rng)
        x1 = Tensor(np.zeros((1, 2, 3), dtype=np.float32))
        bad = Tensor(np.zeros((1, 2, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="b"):
            gmu.fuse(x1, bad, ("a", "b"))


class TestGatedFusion:
    def test_output_shape_three_modalities(self, rng):
        fuse = GatedFusion([64, 64, 64], hidden=128, rng=rng)
        streams = [stream(rng, 2, 64, 16) for _ in range(3)]
        out = fuse(streams, ["head", "pose", "voice"])
        assert out.shape == (2, 16, 128)

    def test_single_modality_degenerate(self, rng):
        fuse = GatedFusion([8], hidden=16, rng=rng)
        out = fuse([stream(rng, 1, 8, 4)], ["voice"])
        assert out.shape == (1, 4, 16)
        assert len(fuse.units) == 0

    def test_hierarchy_is_left_fold(self, rng):
        # three modalities -> two units: (m0 (+) m1) (+) m2
        fuse = GatedFusion([4, 4, 4], hidden=8, rng=rng)
        assert len(fuse.units) == 2
        assert fuse.units[0].d1 == 4 and fuse.units[0].d2 == 4
        assert fuse.units[1].d1 == 8 and fuse.units[1].d2 == 4

    def test_top_gate_toward_last(self, rng):
        fuse = GatedFusion([4, 4, 4], hidden=8, rng=rng)
        fuse.units[1].gate.bias.data = np.full(8, -20.0, dtype=np.float32)
        streams = [stream(rng, 1, 4, 6) for _ in range(3)]
        with capture() as seen:
            fuse(streams, ["head", "pose", "voice"])
        assert list(seen) == list(fuse.units)
        assert fuse.top_gate_toward_last(seen) > 0.999

    def test_gate_stats_require_forward(self, rng):
        fuse = GatedFusion([4, 4], hidden=8, rng=rng)
        fuse([stream(rng, 1, 4, 6) for _ in range(2)], ["a", "b"])
        with capture() as seen:
            pass
        with pytest.raises(RuntimeError, match="forward"):
            fuse.top_gate_toward_last(seen)

    def test_gradients_reach_all_parameters(self, rng):
        fuse = GatedFusion([3, 3], hidden=4, rng=rng)
        for _, p in fuse.named_parameters():
            p.requires_grad = True
        streams = [stream(rng, 1, 3, 5) for _ in range(2)]
        out = fuse(streams, ["a", "b"])
        probed(out, np.ones(out.shape, out.dtype)).backward()
        for name, p in fuse.named_parameters():
            assert p.grad is not None, name
