import numpy as np
import pytest

from moeforge.dense_ffn import DenseFfn, ffn_forward
from moeforge.moe import (
    GateNetwork,
    TokenRouting,
    assemble_moe,
    balance_loss,
    gate_forward,
    moe_forward,
    softplus,
)
from moeforge.partition import split_independent_random
from moeforge.tensor import Rng, softmax, swish


def naive_moe_output(layer, x):
    """Independently coded MoE forward: noisy-free gate, explicit sums."""
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


class TestGateForward:
    def test_k_equals_n(self):
        rng = Rng(1)
        gate = GateNetwork(w_g=rng.normal_array((4, 2)), w_noise=np.zeros((4, 2)), k=2)
        x = rng.normal_array((4,))
        weights, topk = gate_forward(gate, x)
        assert topk == (0, 1)
        assert np.abs(weights - softmax(x @ gate.w_g)).max() < 1e-12

    def test_dominant_logit(self):
        w_g = np.zeros((3, 4))
        w_g[0, 2] = 100.0  # logit 2 dominates for x with positive first entry
        gate = GateNetwork(w_g=w_g, w_noise=np.zeros((3, 4)), k=1)
        weights, topk = gate_forward(gate, np.array([1.0, 0.0, 0.0]))
        assert topk == (2,)
        assert weights[2] == 1.0

    def test_noise_reproducible(self):
        rng_w = Rng(2)
        gate = GateNetwork(
            w_g=rng_w.normal_array((4, 3)),
            w_noise=rng_w.normal_array((4, 3)),
            k=2,
            noise_enabled=True,
        )
        x = rng_w.normal_array((4,))
        w1, k1 = gate_forward(gate, x, Rng(99))
        w2, k2 = gate_forward(gate, x, Rng(99))
        assert np.array_equal(w1, w2)
        assert k1 == k2

    def test_noise_requires_rng(self):
        gate = GateNetwork(
            w_g=np.zeros((2, 2)), w_noise=np.zeros((2, 2)), k=1, noise_enabled=True
        )
        with pytest.raises(ValueError):
            gate_forward(gate, np.zeros(2))

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
                weights, topk = gate_forward(gate, rng.normal_array((5,)), Rng(seed))
                assert len(topk) == k
                assert np.count_nonzero(weights) == k
                assert abs(sum(weights[i] for i in topk) - 1.0) <= 1e-12

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            GateNetwork(w_g=np.zeros((2, 2)), w_noise=np.zeros((2, 2)), k=3)


class TestMoeForward:
    def test_degenerate_single_expert_equals_dense(self):
        ffn, layer = make_layer(4, 8, n=1, k=1, seed=3, gate_init="zeros")
        x = Rng(4).normal_array((4,))
        y, routing = moe_forward(layer, x)
        y_dense, _ = ffn_forward(ffn, x)
        assert layer.scale_factor == 1.0
        assert np.abs(y - y_dense).max() < 1e-12
        assert routing.experts == (0,)

    def test_zero_propagation(self):
        d, d_h = 3, 6
        ffn = DenseFfn(
            w_up=Rng(5).normal_array((d, d_h)),
            w_gate=np.zeros((d, d_h)),
            w_down=Rng(6).normal_array((d_h, d)),
        )
        part = split_independent_random(d_h, 2, Rng(7))
        layer = assemble_moe(ffn, part, k=1)
        y, _ = moe_forward(layer, Rng(8).normal_array((d,)))
        assert np.array_equal(y, np.zeros(d))

    def test_against_naive_oracle(self):
        _, layer = make_layer(5, 12, n=4, k=2, seed=9, gate_init="random")
        for seed in range(5):
            x = Rng(100 + seed).normal_array((5,))
            y, _ = moe_forward(layer, x)
            assert np.abs(y - naive_moe_output(layer, x)).max() < 1e-12

    def test_rescaling_identity(self):
        # k == N, gate forced uniform, scale 1: N * y == FFN(x)
        ffn, layer = make_layer(4, 8, n=4, k=4, seed=10, gate_init="zeros")
        x = Rng(11).normal_array((4,))
        y, _ = moe_forward(layer, x)
        y_dense, _ = ffn_forward(ffn, x)
        assert np.abs(4 * y - y_dense).max() <= 1e-9

    def test_deterministic_with_noise_off(self):
        _, layer = make_layer(4, 8, n=4, k=2, seed=12)
        x = Rng(13).normal_array((4,))
        y1, _ = moe_forward(layer, x)
        y2, _ = moe_forward(layer, x)
        assert np.array_equal(y1, y2)


class TestBalanceLoss:
    def test_uniform_routing_zero(self):
        routing = [TokenRouting(experts=(i % 4,), weights=(1.0,)) for i in range(8)]
        probs = [np.full(4, 0.25) for _ in range(8)]
        imp, load = balance_loss(routing, probs)
        assert imp == 0.0
        assert load == 0.0

    def test_one_hot_cv_squared(self):
        # all T tokens on one expert of N=4: CV^2 = N - 1 = 3
        routing = [TokenRouting(experts=(0,), weights=(1.0,)) for _ in range(10)]
        probs = [np.array([1.0, 0.0, 0.0, 0.0]) for _ in range(10)]
        imp, load = balance_loss(routing, probs)
        assert imp == 3.0
        assert load == 3.0

    def test_importance_scale_invariance(self):
        rng = Rng(14)
        probs = [np.abs(rng.normal_array((4,))) for _ in range(6)]
        routing = [TokenRouting(experts=(0,), weights=(1.0,)) for _ in range(6)]
        imp1, _ = balance_loss(routing, probs)
        imp2, _ = balance_loss(routing, [3.7 * p for p in probs])
        assert abs(imp1 - imp2) < 1e-12

    def test_empty_batch_errors(self):
        with pytest.raises(ValueError):
            balance_loss([], [])


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
