import numpy as np
import pytest

from moeforge.tensor import Rng, sigmoid, softmax

from scalar_stream import swish

# sigma(1) to full float64 precision (reference: 1/(1+exp(-1)))
SIGMOID_1 = 0.7310585786300049


class TestSwish:
    def test_zero(self):
        assert swish(np.array([0.0]))[0] == 0.0

    def test_large_positive_asymptote(self):
        assert abs(swish(np.array([30.0]))[0] - 30.0) < 1e-9

    def test_one_matches_reference(self):
        assert abs(swish(np.array([1.0]))[0] - 1.0 * SIGMOID_1) < 1e-12

    def test_overflow_safe(self):
        z = np.array([-1000.0, 1000.0])
        out = swish(z)
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0
        assert out[1] == 1000.0

    def test_sigmoid_symmetry(self):
        z = Rng(3).normal_array((50,))
        assert np.abs(sigmoid(z) + sigmoid(-z) - 1.0).max() < 1e-12


def two_branch_sigmoid(z):
    """Oracle: 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestSigmoidOracle:
    EDGES = [0.0, 708.9, 745.2, 746.0, 5e-324, 1e308, np.inf]

    @pytest.mark.parametrize("scale", [1e-300, 1e-10, 1e-3, 1.0, 10.0, 100.0, 1e3, 1e5])
    def test_bitwise_equal_to_two_branch_form(self, scale):
        # pytest turns a RuntimeWarning (overflow, invalid) into an error
        edges = np.array(self.EDGES)
        z = np.concatenate([np.random.default_rng(11).standard_normal(10**5) * scale,
                            edges, -edges])
        assert np.array_equal(sigmoid(z).view(np.uint64), two_branch_sigmoid(z).view(np.uint64))

    def test_nan_gives_nan(self):
        out = sigmoid(np.array([np.nan, 1.0, -np.nan]))
        assert np.isnan(out[0]) and np.isnan(out[2]) and out[1] == SIGMOID_1

    def test_shape_kept(self):
        z = np.arange(-3.0, 3.0).reshape(2, 3)
        assert sigmoid(z).shape == (2, 3) and sigmoid(np.array(0.5)).shape == ()


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(np.array([2.5, 2.5, 2.5]))
        assert np.abs(out - 1.0 / 3.0).max() < 1e-12

    def test_mask(self):
        out = softmax(np.array([0.0, -np.inf]))
        assert out[0] == 1.0 and out[1] == 0.0

    def test_against_exp_sum_oracle(self):
        z = np.array([1.0, 2.0, 3.0])
        expected = np.exp(z) / np.exp(z).sum()
        assert np.abs(softmax(z) - expected).max() < 1e-12

    def test_all_masked_errors(self):
        with pytest.raises(ValueError):
            softmax(np.array([-np.inf, -np.inf]))

    def test_simplex_property(self):
        for seed in range(50):
            z = Rng(seed).normal_array((7,)) * 10
            p = softmax(z)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-12


class TestRng:
    def test_shuffle_is_permutation(self):
        rng = Rng(4)
        out = rng.shuffle(list(range(100)))
        assert sorted(out) == list(range(100))

    def test_normals_standardish(self):
        rng = Rng(11)
        vals = np.array([rng.normal_array(()) for _ in range(20_000)])
        assert abs(vals.mean()) < 0.03
        assert abs(vals.std() - 1.0) < 0.03
