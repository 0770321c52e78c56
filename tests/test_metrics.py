import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dctm.metrics import ccc, ccc_loss, magnitude_ccc
from dctm.reference import ccc_two_pass
from dctm.tensor import Tensor


class TestCcc:
    def test_worked_example_exact(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([2.0, 3.0, 4.0, 5.0])
        r = ccc(x, y)
        assert r.ccc == 2.5 / 3.5
        assert r.mean_x == 2.5 and r.mean_y == 3.5
        assert r.var_x == 1.25 and r.var_y == 1.25
        assert not r.degenerate

    def test_perfect_agreement(self):
        x = np.array([0.1, 0.4, 0.9, 0.3])
        assert ccc(x, x.copy()).ccc == pytest.approx(1.0, abs=1e-12)

    def test_perfect_reversal(self):
        r = ccc(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0]))
        assert r.ccc == pytest.approx(-1.0, abs=1e-12)

    def test_matches_two_pass_reference(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 50))
            x = rng.standard_normal(n)
            y = 0.5 * x + 0.3 * rng.standard_normal(n)
            assert ccc(x, y).ccc == pytest.approx(ccc_two_pass(x, y), abs=1e-12)

    def test_both_constant_equal_is_degenerate_zero(self):
        r = ccc(np.full(5, 0.7), np.full(5, 0.7))
        assert r.ccc == 0.0 and r.degenerate

    def test_one_sided_constant_is_degenerate(self):
        r = ccc(np.full(5, 0.3), np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
        assert r.degenerate
        assert r.pearson == 0.0
        assert abs(r.ccc) < 1.0

    def test_mask_selects_frames(self):
        x = np.array([1.0, 99.0, 2.0, 3.0, 99.0, 4.0])
        y = np.array([2.0, -5.0, 3.0, 4.0, 11.0, 5.0])
        mask = np.array([True, False, True, True, False, True])
        assert ccc(x, y, mask).ccc == 2.5 / 3.5
        assert ccc(x, y, mask).n == 4

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="2"):
            ccc(np.array([1.0]), np.array([1.0]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        a, b = ccc(x, y), ccc(y, x)
        assert a.ccc == pytest.approx(b.ccc, abs=1e-12)
        assert -1.0 - 1e-12 <= a.ccc <= 1.0 + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), shift=st.floats(0.1, 5.0))
    def test_mean_shift_attenuates(self, seed, shift):
        # ccc penalises location error: |ccc(x, y+c)| < |ccc(x, y)| when c != 0
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(20)
        y = x + 0.01 * rng.standard_normal(20)
        assert abs(ccc(x, y + shift).ccc) < abs(ccc(x, y).ccc)

    def test_scale_attenuates(self, rng):
        x = rng.standard_normal(40)
        assert ccc(x, 2.0 * x).ccc < ccc(x, x.copy()).ccc


class TestCccLoss:
    def test_coherence_with_metric(self, rng):
        # 1 - loss must equal the plain metric on each window
        pred = rng.random((3, 16))
        target = rng.random((3, 16))
        loss = ccc_loss(Tensor(pred), target).item()
        per_window = [ccc(pred[i], target[i]).ccc for i in range(3)]
        assert loss == pytest.approx(np.mean([1.0 - c for c in per_window]), abs=1e-10)

    def test_perfect_prediction_zero_loss(self, rng):
        y = rng.random((2, 8))
        assert ccc_loss(Tensor(y.copy()), y).item() == pytest.approx(0.0, abs=1e-12)

    def test_masked_padding_ignored(self, rng):
        y = rng.random((1, 10))
        pred = y.copy()
        pred[0, 7:] = 99.0
        y2 = y.copy()
        y2[0, 7:] = -3.0
        mask = np.zeros((1, 10), dtype=bool)
        mask[0, :7] = True
        assert ccc_loss(Tensor(pred), y2, mask).item() == pytest.approx(0.0, abs=1e-12)

    def test_loss_bounded_below_by_zero_minus_something(self, rng):
        # loss = 1 - ccc with ccc in [-1, 1], so loss in [0, 2]
        for _ in range(20):
            pred = rng.random((4, 6))
            target = rng.random((4, 6))
            v = ccc_loss(Tensor(pred), target).item()
            assert -1e-9 <= v <= 2.0 + 1e-9


class TestMagnitudeCcc:
    def test_norm_tracks_labels_perfectly(self):
        # features whose row norm equals the label give ccc 1
        labels = np.array([0.2, 0.5, 0.9, 0.4])
        feats = np.zeros((4, 3))
        feats[:, 0] = labels
        assert magnitude_ccc(feats, labels).ccc == pytest.approx(1.0, abs=1e-12)

    def test_constant_norm_degenerate(self):
        feats = np.ones((5, 2))
        labels = np.linspace(0.1, 0.9, 5)
        result = magnitude_ccc(feats, labels)
        assert result.ccc == 0.0 and result.degenerate

    def test_mask_applies(self, rng):
        labels = np.array([0.2, 0.5, 0.9, 0.4, 0.7])
        feats = np.zeros((5, 2))
        feats[:4, 0] = labels[:4]
        feats[4, 0] = -50.0
        mask = np.array([True, True, True, True, False])
        assert magnitude_ccc(feats, labels, mask).ccc == pytest.approx(1.0, abs=1e-12)
