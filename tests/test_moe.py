import numpy as np
import pytest

from moeforge.dense_ffn import DenseFfn, ffn_forward
from moeforge.moe import (
    GateNetwork,
    assemble_moe,
    balance_sums,
    cv_squared,
    moe_forward,
    route,
    softplus,
)
from moeforge.partition import split_independent_random
from moeforge.tensor import Rng, ShapeError, softmax
from moeforge.trainer import batch_loss_and_grads

from scalar_stream import swish


def naive_moe_output(layer, x):
    """Independently coded MoE forward for one token x (d,): noise-free
    gate, explicit sums."""
    logits = np.array(
        [sum(x[i] * layer.gate.w_g[i, e] for i in range(len(x)))
         for e in range(layer.n_experts)]
    )
    order = sorted(range(layer.n_experts), key=lambda i: (-logits[i], i))
    topk = sorted(order[: layer.gate.k])
    exps = np.exp(logits[topk] - max(logits[topk]))
    g = exps / exps.sum()
    y = np.zeros(layer.d)
    for w, i in zip(g, topk):
        ex = layer.experts[i]
        h = (x @ ex.w_up) * swish(x @ ex.w_gate)
        y += w * layer.scale_factor * (h @ ex.w_down)
    if layer.residual_expert is not None:
        r = layer.residual_expert
        y += ((x @ r.w_up) * swish(x @ r.w_gate)) @ r.w_down
    return y


def make_layer(d, d_h, n, k, seed, gate_init="random"):
    rng = Rng(seed)
    ffn = DenseFfn.random(d, d_h, rng)
    part = split_independent_random(d_h, n, rng)
    return ffn, assemble_moe(ffn, part, k=k, gate_init=gate_init, seed=seed)


def balance_cv2(probs, top):
    """(importance, load): the CV^2 of each of `balance_sums`."""
    importance, counts = balance_sums(np.asarray(probs, dtype=np.float64), np.asarray(top))
    return cv_squared(importance), cv_squared(counts)


class TestGateForward:
    def test_k_equals_n(self):
        rng = Rng(1)
        gate = GateNetwork(w_g=rng.normal_array((4, 2)), w_noise=np.zeros((4, 2)), k=2)
        x = rng.normal_array((3, 4))
        _, top, g = route(gate, x)
        assert top.tolist() == [[0, 1]] * 3
        assert np.abs(g - softmax(x @ gate.w_g)).max() < 1e-12

    def test_dominant_logit(self):
        w_g = np.zeros((3, 4))
        w_g[0, 2] = 100.0  # logit 2 dominates for x with positive first entry
        gate = GateNetwork(w_g=w_g, w_noise=np.zeros((3, 4)), k=1)
        _, top, g = route(gate, np.array([[1.0, 0.0, 0.0]]))
        assert top.tolist() == [[2]]
        assert g.tolist() == [[1.0]]

    def test_noise_reproducible(self):
        rng_w = Rng(2)
        gate = GateNetwork(
            w_g=rng_w.normal_array((4, 3)),
            w_noise=rng_w.normal_array((4, 3)),
            k=2,
            noise_enabled=True,
        )
        x = rng_w.normal_array((5, 4))
        _, k1, w1 = route(gate, x, Rng(99))
        _, k2, w2 = route(gate, x, Rng(99))
        assert np.array_equal(w1, w2)
        assert np.array_equal(k1, k2)

    def test_noise_requires_rng(self):
        gate = GateNetwork(
            w_g=np.zeros((2, 2)), w_noise=np.zeros((2, 2)), k=1, noise_enabled=True
        )
        with pytest.raises(ValueError):
            route(gate, np.zeros((1, 2)))

    def test_exactly_k_selected_and_simplex(self):
        for k in (1, 2, 4):
            for seed in range(25):
                rng = Rng(seed)
                gate = GateNetwork(
                    w_g=rng.normal_array((5, 6)),
                    w_noise=rng.normal_array((5, 6)),
                    k=k,
                    noise_enabled=True,
                )
                _, top, g = route(gate, rng.normal_array((4, 5)), Rng(seed))
                assert top.shape == g.shape == (4, k)
                assert np.all(np.diff(top, axis=1) > 0)  # k distinct, ascending
                assert np.all(g > 0)
                assert np.abs(g.sum(axis=1) - 1.0).max() <= 1e-12

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            GateNetwork(w_g=np.zeros((2, 2)), w_noise=np.zeros((2, 2)), k=3)


class TestMoeForward:
    def test_degenerate_single_expert_equals_dense(self):
        ffn, layer = make_layer(4, 8, n=1, k=1, seed=3, gate_init="zeros")
        x = Rng(4).normal_array((3, 4))
        y, top, g = moe_forward(layer, x)
        y_dense, _ = ffn_forward(ffn, x)
        assert layer.scale_factor == 1.0
        assert np.abs(y - y_dense).max() < 1e-12
        assert top.tolist() == [[0]] * 3
        assert g.tolist() == [[1.0]] * 3

    def test_zero_propagation(self):
        d, d_h = 3, 6
        ffn = DenseFfn(
            w_up=Rng(5).normal_array((d, d_h)),
            w_gate=np.zeros((d, d_h)),
            w_down=Rng(6).normal_array((d_h, d)),
        )
        part = split_independent_random(d_h, 2, Rng(7))
        layer = assemble_moe(ffn, part, k=1)
        y, _, _ = moe_forward(layer, Rng(8).normal_array((4, d)))
        assert np.array_equal(y, np.zeros((4, d)))

    def test_against_naive_oracle(self):
        _, layer = make_layer(5, 12, n=4, k=2, seed=9, gate_init="random")
        for seed in range(5):
            xs = Rng(100 + seed).normal_array((3, 5))
            y, _, _ = moe_forward(layer, xs)
            for b, x in enumerate(xs):
                assert np.abs(y[b] - naive_moe_output(layer, x)).max() < 1e-12

    def test_rescaling_identity(self):
        # k == N, gate forced uniform, scale 1: N * y == FFN(x)
        ffn, layer = make_layer(4, 8, n=4, k=4, seed=10, gate_init="zeros")
        x = Rng(11).normal_array((3, 4))
        y, _, _ = moe_forward(layer, x)
        y_dense, _ = ffn_forward(ffn, x)
        assert np.abs(4 * y - y_dense).max() <= 1e-9

    def test_deterministic_with_noise_off(self):
        _, layer = make_layer(4, 8, n=4, k=2, seed=12)
        x = Rng(13).normal_array((3, 4))
        y1, _, _ = moe_forward(layer, x)
        y2, _, _ = moe_forward(layer, x)
        assert np.array_equal(y1, y2)


class TestBalanceLoss:
    def test_uniform_routing_zero(self):
        top = (np.arange(8) % 4)[:, None]
        imp, load = balance_cv2(np.full((8, 4), 0.25), top)
        assert imp == 0.0
        assert load == 0.0

    def test_one_hot_cv_squared(self):
        # all T tokens on one expert of N=4: CV^2 = N - 1 = 3
        probs = np.zeros((10, 4))
        probs[:, 0] = 1.0
        imp, load = balance_cv2(probs, np.zeros((10, 1), dtype=int))
        assert imp == 3.0
        assert load == 3.0

    def test_importance_scale_invariance(self):
        probs = np.abs(Rng(14).normal_array((6, 4)))
        top = np.zeros((6, 1), dtype=int)
        imp1, _ = balance_cv2(probs, top)
        imp2, _ = balance_cv2(3.7 * probs, top)
        assert abs(imp1 - imp2) < 1e-12

    def test_empty_batch_errors(self):
        # an empty batch routes to nothing, so it has no balance loss
        ffn, layer = make_layer(4, 8, n=4, k=2, seed=15)
        with pytest.raises(ValueError, match="empty"):
            batch_loss_and_grads(layer, ffn, np.zeros((0, 4)), 0.01)


# The single-vector outputs each kernel gave before the batch became its
# only form; a (1, d) batch gives them again.
SINGLE_FORM = {
    "ffn_forward": [
        [-0.27746860050949057, -0.005531292260537984, 0.3914248886330162,
         -0.41359701980409064],
        [0.0915499503478822, 0.589447610370608, 0.1435207032069301,
         -0.05700762167379934, 0.0405632558537377, -0.1638784834176778,
         -0.19901944267457805, -0.17491257272386906],
    ],
    "moe_forward": [
        [-0.15997473266098905, 0.029851168949453118, 0.18839789153838943,
         -0.24960119865821723],
        [1, 2],
        [0.46649606088735507, 0.5335039391126449],
    ],
    "route": [
        [-2.7986179097649497, 1.570715758187788, 0.09589136839434705,
         0.7955660406903452],
        [1, 3],
        [0.06393271520812537, 0.9360672847918746],
    ],
}


def call_kernel(name, x):
    """`name` on x through the fixtures the pins above were made with."""
    ffn = DenseFfn.random(4, 8, Rng(30))
    if name == "ffn_forward":
        return ffn_forward(ffn, x)
    if name == "moe_forward":
        layer = assemble_moe(ffn, split_independent_random(8, 4, Rng(31)), k=2,
                             gate_init="random", seed=32)
        return moe_forward(layer, x)
    rng = Rng(33)
    gate = GateNetwork(w_g=rng.normal_array((4, 4)), w_noise=rng.normal_array((4, 4)),
                       k=2, noise_enabled=True)
    return route(gate, x, Rng(35))


@pytest.mark.parametrize("name", sorted(SINGLE_FORM))
def test_batch_is_the_only_form(name):
    x = Rng(34).normal_array((4,))
    with pytest.raises(ShapeError):
        call_kernel(name, x)
    got = call_kernel(name, x[None, :])
    assert len(got) == len(SINGLE_FORM[name])
    for out, pinned in zip(got, SINGLE_FORM[name]):
        assert out.shape == (1, len(pinned))
        assert out[0].tolist() == pinned


class TestAssemble:
    def test_table_configurations(self):
        # 4/16 and 2/8 both re-scale by 4.0
        _, layer_16 = make_layer(4, 16, n=16, k=4, seed=15)
        assert layer_16.scale_factor == 4.0
        _, layer_8 = make_layer(4, 8, n=8, k=2, seed=16)
        assert layer_8.scale_factor == 4.0

    def test_k_exceeds_n(self):
        ffn = DenseFfn.random(4, 8, Rng(17))
        part = split_independent_random(8, 2, Rng(18))
        with pytest.raises(ValueError):
            assemble_moe(ffn, part, k=3)

    def test_activated_parameter_ratio(self):
        # exact integer bookkeeping: activated expert params == (k/N) * dense
        ffn = DenseFfn.random(6, 16, Rng(19))
        dense_params = ffn.w_up.size + ffn.w_gate.size + ffn.w_down.size
        for n, k in ((16, 4), (8, 2), (4, 2)):
            part = split_independent_random(16, n, Rng(20))
            layer = assemble_moe(ffn, part, k=k)
            assert layer.activated_ffn_params() * n == dense_params * k
            assert layer.total_ffn_params() == dense_params

    def test_gate_inits(self):
        ffn = DenseFfn.random(4, 8, Rng(21))
        part = split_independent_random(8, 4, Rng(22))
        zeros = assemble_moe(ffn, part, k=2, gate_init="zeros")
        assert np.array_equal(zeros.gate.w_g, np.zeros((4, 4)))
        rand = assemble_moe(ffn, part, k=2, gate_init="random", seed=5)
        assert not np.array_equal(rand.gate.w_g, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            assemble_moe(ffn, part, k=2, gate_init="xavier")


class TestSoftplus:
    def test_matches_log1p_exp(self):
        z = np.array([-3.0, 0.0, 2.5])
        assert np.abs(softplus(z) - np.log1p(np.exp(z))).max() < 1e-12

    def test_no_overflow(self):
        out = softplus(np.array([800.0, -800.0]))
        assert out[0] == 800.0
        assert out[1] == 0.0
