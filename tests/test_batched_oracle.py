"""The batched trainer and MoE forward against per-token reference loops.

The oracle below is the token-at-a-time code the batched path replaced:
one Python iteration per token, top-k by a sorted() key with ties to the
lower index, outer-product gradient accumulation. Summation order differs
between the two, so results agree to 1e-12 relative, not bitwise.
"""

import numpy as np
import pytest

from moeforge.dense_ffn import DenseFfn
from moeforge.moe import assemble_moe, moe_forward
from moeforge.partition import split_independent_random, split_sharing_inter
from moeforge.tensor import Rng, sigmoid, softmax
from moeforge.trainer import batch_loss_and_grads, distill_mse

from scalar_stream import swish

RTOL = 1e-12


def swish_grad(z):
    s = sigmoid(z)
    return s * (1.0 + z * (1.0 - s))


def expert_forward(ex, x):
    return ((x @ ex.w_up) * swish(x @ ex.w_gate)) @ ex.w_down


def token_topk(logits, k):
    order = sorted(range(len(logits)), key=lambda i: (-logits[i], i))
    return tuple(sorted(order[:k]))


def cv2(v):
    """(std / mean)^2 with population variance."""
    return float(np.var(v) / np.mean(v) ** 2)


def oracle_moe_forward(layer, x):
    """One token, noise off: (y, selected experts, their weights, dense probs)."""
    logits = x @ layer.gate.w_g
    topk = token_topk(logits, layer.gate.k)
    g = softmax(logits[list(topk)])
    y = np.zeros(layer.d)
    for pos, i in enumerate(topk):
        y += g[pos] * layer.scale_factor * expert_forward(layer.experts[i], x)
    if layer.residual_expert is not None:
        y += expert_forward(layer.residual_expert, x)
    return y, topk, g, softmax(logits)


def oracle_loss_and_grads(layer, teacher, xs, balance_coeff):
    """Per-token loss and gradients: (total, flat grad list, topks, weights).
    The list is gate first, then each expert's and the residual's three."""
    n, scale, batch = layer.n_experts, layer.scale_factor, len(xs)
    g_up = [np.zeros_like(e.w_up) for e in layer.experts]
    g_gate = [np.zeros_like(e.w_gate) for e in layer.experts]
    g_down = [np.zeros_like(e.w_down) for e in layer.experts]
    g_wg = np.zeros_like(layer.gate.w_g)
    r = layer.residual_expert
    g_res = None if r is None else [np.zeros_like(w) for w in (r.w_up, r.w_gate, r.w_down)]

    mse_sum = 0.0
    importance, counts = np.zeros(n), np.zeros(n)
    probs, topks, weights = [], [], []
    for x in xs:
        target = expert_forward(teacher, x)
        logits = x @ layer.gate.w_g
        topk = token_topk(logits, layer.gate.k)
        g = softmax(logits[list(topk)])

        cache, y = {}, np.zeros(layer.d)
        for pos, i in enumerate(topk):
            ex = layer.experts[i]
            a, b = x @ ex.w_up, x @ ex.w_gate
            h = a * swish(b)
            out = h @ ex.w_down
            cache[i] = (a, b, h, out)
            y += g[pos] * scale * out
        if r is not None:
            ra, rb = x @ r.w_up, x @ r.w_gate
            rh = ra * swish(rb)
            y += rh @ r.w_down

        resid = y - target
        mse_sum += 0.5 * float(resid @ resid)
        dldy = resid / batch

        dgate_sel = np.zeros(len(topk))
        for pos, i in enumerate(topk):
            a, b, h, out = cache[i]
            de = g[pos] * scale * dldy
            g_down[i] += np.outer(h, de)
            dh = de @ layer.experts[i].w_down.T
            g_up[i] += np.outer(x, dh * swish(b))
            g_gate[i] += np.outer(x, dh * a * swish_grad(b))
            dgate_sel[pos] = scale * float(dldy @ out)
        if r is not None:
            g_res[2] += np.outer(rh, dldy)
            drh = dldy @ r.w_down.T
            g_res[0] += np.outer(x, drh * swish(rb))
            g_res[1] += np.outer(x, drh * ra * swish_grad(rb))

        dz = g * (dgate_sel - float(dgate_sel @ g))
        for pos, i in enumerate(topk):
            g_wg[:, i] += x * dz[pos]

        probs.append(softmax(logits))
        importance += probs[-1]
        for i in topk:
            counts[i] += 1
        topks.append(topk)
        weights.append(g)

    total = mse_sum / batch + balance_coeff * (cv2(importance) + cv2(counts))
    if balance_coeff != 0.0:
        mu = batch / n
        q = balance_coeff * (2.0 / n) * (importance - mu) / mu**2
        for x, p in zip(xs, probs):
            g_wg += np.outer(x, p * (q - float(q @ p)))

    flat = [g_wg] + [w for i in range(n) for w in (g_up[i], g_gate[i], g_down[i])]
    flat += g_res or []
    return total, flat, np.array(topks), np.array(weights)


def assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = np.abs(expected).max(initial=0.0)
    assert np.abs(actual - expected).max(initial=0.0) <= RTOL * scale


def random_layer(d, d_h, n, k, seed, gate_init="random"):
    rng = Rng(seed)
    teacher = DenseFfn.random(d, d_h, rng)
    part = split_independent_random(d_h, n, rng)
    return teacher, assemble_moe(teacher, part, k=k, gate_init=gate_init, seed=seed), rng


def residual_layer(seed):
    rng = Rng(seed)
    teacher = DenseFfn.random(16, 64, rng)
    base = np.abs(rng.normal_array((64,)))
    vecs = [base + 0.05 * np.abs(rng.normal_array((64,))) for _ in range(4)]
    part = split_sharing_inter(vecs, 16, residual_threshold=0.5)
    layer = assemble_moe(teacher, part, k=2, gate_init="random", seed=seed)
    assert layer.residual_expert is not None and layer.residual_expert.d_h > 0
    return teacher, layer, rng


def tied_layer(seed):
    """Experts 1 and 3 share a gate column, so their logits always tie."""
    teacher, layer, rng = random_layer(8, 32, 4, 2, seed)
    layer.gate.w_g[:, 3] = layer.gate.w_g[:, 1]
    return teacher, layer, rng


CASES = {
    "sharing_inter_residual": (lambda: residual_layer(1), 32, 0.01),
    "k_lt_n": (lambda: random_layer(12, 48, 8, 2, 2), 32, 0.01),
    "k_lt_n_no_balance": (lambda: random_layer(12, 48, 8, 3, 3), 32, 0.0),
    "zeros_gate_all_tied": (lambda: random_layer(8, 32, 4, 2, 4, "zeros"), 16, 0.01),
    "two_columns_tied": (lambda: tied_layer(5), 16, 0.01),
    "single_token": (lambda: random_layer(8, 32, 4, 2, 6), 1, 0.01),
    "empty_experts": (lambda: random_layer(8, 64, 8, 2, 7), 3, 0.01),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_loss_and_grads_matches_per_token_oracle(case):
    build, batch, coeff = CASES[case]
    teacher, layer, rng = build()
    xs = [rng.normal_array((layer.d,)) for _ in range(batch)]

    total, grads, stats = batch_loss_and_grads(layer, teacher, xs, coeff)
    ref_total, ref_grads, ref_top, ref_weights = oracle_loss_and_grads(
        layer, teacher, xs, coeff
    )
    assert abs(total - ref_total) <= RTOL * abs(ref_total)
    assert len(grads) == len(ref_grads)
    for actual, expected in zip(grads, ref_grads):
        assert_close(actual, expected)
    assert np.array_equal(stats["experts"], ref_top)
    assert_close(stats["weights"], ref_weights)
    assert np.array_equal(
        stats["counts"], np.bincount(ref_top.ravel(), minlength=layer.n_experts)
    )


def test_ties_go_to_the_lower_index():
    teacher, layer, rng = random_layer(8, 32, 4, 2, 4, "zeros")
    xs = [rng.normal_array((8,)) for _ in range(5)]
    _, _, stats = batch_loss_and_grads(layer, teacher, xs, 0.01)
    assert stats["experts"].tolist() == [[0, 1]] * 5

    teacher, layer, rng = tied_layer(5)
    xs = [rng.normal_array((8,)) for _ in range(16)]
    _, _, stats = batch_loss_and_grads(layer, teacher, xs, 0.01)
    has1 = (stats["experts"] == 1).any(axis=1)
    has3 = (stats["experts"] == 3).any(axis=1)
    assert not np.any(has3 & ~has1)
    assert np.any(has1 & ~has3)  # the tie decided a selection


def test_some_expert_gets_no_tokens():
    teacher, layer, rng = CASES["empty_experts"][0]()
    xs = [rng.normal_array((layer.d,)) for _ in range(CASES["empty_experts"][1])]
    _, grads, stats = batch_loss_and_grads(layer, teacher, xs, 0.01)
    empty = np.flatnonzero(stats["counts"] == 0)
    assert empty.size > 0
    for i in empty:
        d_up, _, d_down = grads[1 + 3 * i:4 + 3 * i]  # gate first, three per expert
        assert not d_up.any() and not d_down.any()


@pytest.mark.parametrize("case", sorted(CASES))
def test_moe_forward_matches_per_token_oracle(case):
    build, batch, _ = CASES[case]
    teacher, layer, rng = build()
    xs = np.array([rng.normal_array((layer.d,)) for _ in range(batch)])
    y, top, g = moe_forward(layer, xs)
    for b, x in enumerate(xs):
        ref_y, ref_top, ref_g, _ = oracle_moe_forward(layer, x)
        assert_close(y[b], ref_y)
        assert tuple(top[b]) == ref_top
        assert_close(g[b], ref_g)
        # a batch of one token takes the same path
        y1, top1, _ = moe_forward(layer, x[None, :])
        assert_close(y1[0], ref_y)
        assert tuple(top1[0]) == ref_top
    ref_mse = np.mean([
        0.5 * np.sum((oracle_moe_forward(layer, x)[0] - expert_forward(teacher, x)) ** 2)
        for x in xs
    ])
    assert abs(distill_mse(layer, teacher, xs) - ref_mse) <= RTOL * ref_mse
