"""Sparse mixture-of-experts layer: sliced SwiGLU experts, noisy top-k
gating, N/k output re-scaling, and coefficient-of-variation balance losses.
Every kernel takes a batch X (B, d) and returns (B, .) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense_ffn import DenseFfn, ExpertFfn, SwigluCache, swiglu_forward
from .partition import slice_expert, slice_experts
from .tensor import Rng, ShapeError, as_matrix, softmax, top_k_indices


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) without overflow."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


@dataclass
class GateNetwork:
    """Noisy top-k gate: clean logits x @ w_g, optional noise scaled by
    softplus(x @ w_noise)."""

    w_g: np.ndarray
    w_noise: np.ndarray
    k: int
    noise_enabled: bool = False

    def __post_init__(self):
        self.w_g = as_matrix(self.w_g)
        d, n = self.w_g.shape
        self.w_noise = as_matrix(self.w_noise, d, n)
        if not (1 <= self.k <= n):
            raise ValueError(f"k={self.k} must satisfy 1 <= k <= N={n}")

    @property
    def n_experts(self) -> int:
        return self.w_g.shape[1]


def route(
    gate: GateNetwork, x: np.ndarray, rng: Rng | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate a batch X (B, d), validating it: returns clean logits (B, N),
    the top-k set (B, k) and its softmax weights (B, k).

    Noisy logits: (x @ w_g)_i + eps_i * softplus((x @ w_noise)_i) with
    eps ~ N(0,1) drawn row by row when noise is enabled. Selection
    (`top_k_indices`) and the softmax weights use the noisy logits; the
    returned logits are the clean ones.
    """
    x = as_matrix(x, cols=gate.w_g.shape[0])
    logits = x @ gate.w_g
    noisy = logits
    if gate.noise_enabled:
        if rng is None:
            raise ValueError("noisy gate requires an rng")
        noisy = logits + rng.normal_array(logits.shape) * softplus(x @ gate.w_noise)
    top = top_k_indices(noisy, gate.k)
    return logits, top, softmax(np.take_along_axis(noisy, top, axis=-1))


@dataclass
class MoeLayer:
    """N experts + gate, outputs re-scaled by N/k; optional always-on
    residual expert (sharing_inter partitions)."""

    experts: list[ExpertFfn]
    gate: GateNetwork
    residual_expert: ExpertFfn | None = None

    def __post_init__(self):
        # the gate holds 1 <= k <= N, so this also rules out N = 0
        n = len(self.experts)
        if self.gate.n_experts != n:
            raise ShapeError(f"gate sized for {self.gate.n_experts} experts, layer has {n}")
        for ex in [*self.experts, self.residual_expert]:
            if ex is not None:
                MoeLayer.check_expert(self.gate, ex)

    @staticmethod
    def check_expert(gate: GateNetwork, ex: ExpertFfn) -> None:
        """Every expert, the residual one too, reads the gate's input."""
        if ex.d != gate.w_g.shape[0]:
            raise ShapeError(f"expert has d={ex.d}, the gate d={gate.w_g.shape[0]}")

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    @property
    def scale_factor(self) -> float:
        """N/k: compensates for the k of N experts that run per token."""
        return len(self.experts) / self.gate.k

    @property
    def d(self) -> int:
        return self.experts[0].d

    def parameters(self) -> list[np.ndarray]:
        """The live trainable arrays, in the trainer's gradient order: gate.w_g,
        then w_up, w_gate, w_down of each expert, then of the residual one."""
        experts = [ex for ex in [*self.experts, self.residual_expert] if ex is not None]
        return [self.gate.w_g] + [w for ex in experts for w in (ex.w_up, ex.w_gate, ex.w_down)]

    def activated_ffn_params(self) -> int:
        """Expert parameters touched per token (excludes gate, residual)."""
        return sum(self.experts[i].param_count() for i in range(self.gate.k))

    def total_ffn_params(self) -> int:
        return sum(e.param_count() for e in self.experts)


def dispatch(
    layer: MoeLayer, x: np.ndarray, top: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, list[tuple], SwigluCache | None]:
    """Grouped expert forward over a batch X (B, d) routed to `top` with
    weights `g` (both (B, k)): each expert runs once over the rows that
    selected it, and the residual expert once over every row.

    Returns Y (B, d), then per expert (rows, pos, out, cache) where
    top[rows, pos] is that expert and out its ungated output, then the
    residual expert's cache or None.
    """
    y = np.zeros_like(x)
    groups = []
    for i, ex in enumerate(layer.experts):
        rows, pos = np.nonzero(top == i)
        out, cache = swiglu_forward(x[rows], ex.w_up, ex.w_gate, ex.w_down)
        y[rows] += (g[rows, pos] * layer.scale_factor)[:, None] * out
        groups.append((rows, pos, out, cache))
    res_cache = None
    if layer.residual_expert is not None:
        r = layer.residual_expert
        res_out, res_cache = swiglu_forward(x, r.w_up, r.w_gate, r.w_down)
        y += res_out
    return y, groups, res_cache


def moe_forward(layer: MoeLayer, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Y (B, d) for a batch X (B, d), validating it, and its routing as
    `route` gives it: the top-k set (B, k) and its weights (B, k). Row b of
    Y is sum_{i in topk} G(x)_i * (N/k) * E_i(x) for x = X[b], plus the
    ungated, unscaled residual expert when present."""
    xs = as_matrix(x, cols=layer.d)
    _, top, g = route(layer.gate, xs)
    y, _, _ = dispatch(layer, xs, top, g)
    return y, top, g


def cv_squared(values: np.ndarray) -> float:
    """(std / mean)^2 with population variance; 0 for a single value."""
    v = np.asarray(values, dtype=np.float64)
    if v.size <= 1:
        return 0.0
    mean = v.mean()
    if mean == 0.0:
        return 0.0
    return float(v.var() / mean**2)


def balance_sums(probs: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-expert (N,) sums of the gate probabilities (B, N) and counts of
    the selected experts `top`: the CV^2 of each is a balance loss."""
    return probs.sum(axis=0), np.bincount(top.ravel(), minlength=probs.shape[1])


def assemble_moe(
    ffn: DenseFfn,
    partition,
    k: int,
    gate_init: str = "zeros",
    seed: int = 0,
) -> MoeLayer:
    """Slice experts per the partition and attach a fresh gate.

    gate_init "zeros" ties every logit, so at step 0 every token goes to
    experts 0..k-1 (a tie goes to the lower index) with weight 1/k each;
    "random" draws small gaussian gate weights from the given seed. The
    gate is built first, so a bad k fails before any expert is sliced.
    """
    n = partition.n
    if gate_init == "zeros":
        w_g = np.zeros((ffn.d, n))
    elif gate_init == "random":
        w_g = Rng(seed).normal_array((ffn.d, n), 0.1)
    else:
        raise ValueError(f"unknown gate_init {gate_init!r}")
    gate = GateNetwork(w_g=w_g, w_noise=np.zeros((ffn.d, n)), k=k)
    experts = slice_experts(ffn, partition.sets)
    residual = None
    if partition.shared_residual:
        residual = slice_expert(ffn, partition.shared_residual)
    return MoeLayer(experts=experts, gate=gate, residual_expert=residual)
