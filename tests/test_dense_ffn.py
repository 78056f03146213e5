import numpy as np
import pytest

from moeforge.dense_ffn import DenseFfn, ffn_forward
from moeforge.tensor import Rng, ShapeError

SIGMOID_1 = 0.7310585786300049


def naive_ffn(w_up, w_gate, w_down, x):
    """Oracle written independently of DenseFfn: explicit loops per neuron."""
    d, d_h = w_up.shape
    h = np.zeros(d_h)
    for j in range(d_h):
        a = sum(x[i] * w_up[i, j] for i in range(d))
        b = sum(x[i] * w_gate[i, j] for i in range(d))
        h[j] = a * (b / (1.0 + np.exp(-b)))
    y = np.zeros(d)
    for i in range(d):
        y[i] = sum(h[j] * w_down[j, i] for j in range(d_h))
    return y, h


class TestForward:
    def test_zero_gate_annihilates(self):
        rng = Rng(1)
        ffn = DenseFfn(
            w_up=rng.normal_array((4, 6)),
            w_gate=np.zeros((4, 6)),
            w_down=rng.normal_array((6, 4)),
        )
        y, h = ffn_forward(ffn, rng.normal_array((3, 4)))
        assert np.array_equal(h, np.zeros((3, 6)))
        assert np.array_equal(y, np.zeros((3, 4)))

    def test_scalar_hand_evaluation(self):
        ffn = DenseFfn(w_up=[[1.0]], w_gate=[[1.0]], w_down=[[1.0]])
        y, h = ffn_forward(ffn, np.array([[1.0]]))
        assert abs(h[0, 0] - SIGMOID_1) < 1e-12
        assert abs(y[0, 0] - SIGMOID_1) < 1e-12

    def test_against_naive_oracle(self):
        rng = Rng(77)
        ffn = DenseFfn.random(4, 6, rng)
        xs = rng.normal_array((5, 4))
        y, h = ffn_forward(ffn, xs)
        for b, x in enumerate(xs):
            y_ref, h_ref = naive_ffn(ffn.w_up, ffn.w_gate, ffn.w_down, x)
            assert np.abs(y[b] - y_ref).max() < 1e-12
            assert np.abs(h[b] - h_ref).max() < 1e-12

    def test_shape_mismatch(self):
        ffn = DenseFfn.random(4, 6, Rng(0))
        with pytest.raises(ShapeError):
            ffn_forward(ffn, np.zeros((2, 5)))

    def test_down_projection_linearity(self):
        ffn = DenseFfn.random(4, 6, Rng(2))
        h1 = Rng(3).normal_array((6,))
        h2 = Rng(4).normal_array((6,))
        lhs = (h1 + h2) @ ffn.w_down
        rhs = h1 @ ffn.w_down + h2 @ ffn.w_down
        assert np.abs(lhs - rhs).max() < 1e-12
