"""Distillation trainer: fit an MoE layer to its dense teacher with plain
SGD, analytic gradients, and a warmup + cosine learning-rate schedule.

The objective per batch is mean squared error against the teacher's FFN
output plus a balance penalty:

    L = mean_b 0.5 * ||moe(x_b) - ffn(x_b)||^2
        + balance_coeff * (importance_loss + load_loss)

Gradients flow through the expert SwiGLU slices and through the softmax
over the selected gate logits; the discrete top-k selection itself is
straight-through (no gradient). The load term uses hard counts and is
piecewise constant, so it contributes no gradient. The importance term is
the CV^2 of per-expert summed dense softmax probabilities and is smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dense_ffn import DenseFfn, ExpertFfn, ffn_forward, row_chunks, swiglu_backward
from .moe import GateNetwork, MoeLayer, balance_sums, cv_squared, dispatch, moe_forward, route
from .tensor import Rng, as_matrix, softmax


class DivergenceError(RuntimeError):
    """Loss became non-finite; carries the partial report."""

    def __init__(self, step: int, report: "TrainReport"):
        super().__init__(f"non-finite loss at step {step}")
        self.report = report


@dataclass(frozen=True)
class TrainConfig:
    """Trainer settings; batches cycle through `num_samples` inputs, by
    default the larger of batch_size and 64."""

    lr_max: float = 2e-4
    lr_final: float = 2e-5
    warmup_steps: int = 100
    total_steps: int = 500
    batch_size: int = 32
    balance_coeff: float = 0.01
    seed: int = 0
    num_samples: int | None = None

    def __post_init__(self):
        if self.num_samples is None and type(self.batch_size) is int:
            object.__setattr__(self, "num_samples", max(self.batch_size, 64))
        # exact types: a bool (JSON true/false) is an int subclass, not a count
        for name in ("warmup_steps", "total_steps", "batch_size", "seed", "num_samples"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer")
        for name in ("lr_max", "lr_final", "balance_coeff"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number")
        for name in ("total_steps", "batch_size", "num_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.lr_max < 0 or self.lr_final < 0:
            raise ValueError("learning rates must be nonnegative")
        if self.balance_coeff < 0:
            raise ValueError("balance_coeff must be nonnegative")
        if self.lr_final > self.lr_max:
            raise ValueError("lr_final must not exceed lr_max")
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError("warmup_steps must lie in [0, total_steps]")


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)
    importance_losses: list[float] = field(default_factory=list)
    load_losses: list[float] = field(default_factory=list)
    routing_entropies: list[float] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)
    final_mse: float = float("nan")

    def to_csv(self) -> str:
        lines = ["step,loss,importance_loss,load_loss,routing_entropy,lr"]
        for i in range(len(self.losses)):
            lines.append(
                f"{i},{self.losses[i]!r},{self.importance_losses[i]!r},"
                f"{self.load_losses[i]!r},{self.routing_entropies[i]!r},{self.lrs[i]!r}"
            )
        return "\n".join(lines) + "\n"


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to lr_max, then cosine decay to lr_final."""
    if step > cfg.total_steps:
        raise ValueError(f"step {step} beyond total_steps {cfg.total_steps}")
    if step <= cfg.warmup_steps:
        if cfg.warmup_steps == 0:
            return cfg.lr_max
        return cfg.lr_max * step / cfg.warmup_steps
    span = cfg.total_steps - cfg.warmup_steps
    t = (step - cfg.warmup_steps) / span
    return cfg.lr_final + (cfg.lr_max - cfg.lr_final) * 0.5 * (1.0 + math.cos(math.pi * t))


def batch_loss_and_grads(
    layer: MoeLayer,
    teacher: DenseFfn,
    xs,
    balance_coeff: float,
    *,
    target: np.ndarray | None = None,
) -> tuple[float, list[np.ndarray], dict]:
    """Exact loss and analytic gradients for one batch, the gradients in
    the order of `layer.parameters()`. The gate's noise must be off: `route`
    refuses a noisy gate without an rng. `target`, the teacher's (B, d)
    output on `xs`, is computed here when not given.

    `xs` is a list of (d,) inputs or a (B, d) array. Tokens are grouped by
    selected expert, so each expert runs one forward and one backward over
    its rows. stats carries the routing: "experts" and "weights" (B, k), the
    per-expert selection "counts" (n,) and the entropy of their shares.
    """
    x = as_matrix(xs, cols=layer.d)
    batch, n = x.shape[0], layer.n_experts
    scale = layer.scale_factor

    if target is None:
        target, _ = ffn_forward(teacher, x)
    logits, top, g = route(layer.gate, x)
    y, groups, res_cache = dispatch(layer, x, top, g)
    resid = y - target
    mse = 0.5 * float(np.einsum("bd,bd->", resid, resid)) / batch
    dldy = resid / batch

    expert_grads = []
    dgate_sel = np.zeros_like(g)
    for ex, (rows, pos, out, cache) in zip(layer.experts, groups):
        de = (g[rows, pos] * scale)[:, None] * dldy[rows]
        expert_grads += swiglu_backward(x[rows], de, ex.w_down, cache)
        dgate_sel[rows, pos] = scale * np.einsum("bd,bd->b", dldy[rows], out)
    if res_cache is not None:
        expert_grads += swiglu_backward(x, dldy, layer.residual_expert.w_down, res_cache)

    # softmax over the selected logits; selection is straight-through
    dz = np.zeros((batch, n))
    dz_sel = g * (dgate_sel - np.einsum("bk,bk->b", dgate_sel, g)[:, None])
    np.put_along_axis(dz, top, dz_sel, axis=1)

    probs = softmax(logits)
    importance, counts = balance_sums(probs, top)
    imp_loss, load_loss = cv_squared(importance), cv_squared(counts)
    if balance_coeff != 0.0:
        # CV^2 of per-expert summed dense probabilities; the per-expert
        # sums total `batch` exactly, so the mean is a constant batch/n.
        mu = batch / n
        q = balance_coeff * (2.0 / n) * (importance - mu) / mu**2
        dz += probs * (q - (probs @ q)[:, None])

    total = mse + balance_coeff * (imp_loss + load_loss)
    share = counts[counts > 0] / counts.sum()
    stats = {
        "mse": mse,
        "importance_loss": imp_loss,
        "load_loss": load_loss,
        "experts": top,
        "weights": g,
        "counts": counts,
        "routing_entropy": float(-(share * np.log(share)).sum()),
    }
    return total, [x.T @ dz] + expert_grads, stats


def _apply_sgd(layer: MoeLayer, grads: list[np.ndarray], lr: float) -> None:
    """In-place step on every trainable array."""
    for w, g in zip(layer.parameters(), grads):
        w -= lr * g


def distill_mse(layer: MoeLayer, teacher: DenseFfn, xs) -> float:
    """Mean 0.5 * ||moe(x) - ffn(x)||^2 over the given inputs (a list of
    (d,) vectors or a (B, d) array), noise off. Rows go through in
    `row_chunks` pieces, so memory does not grow with the number of inputs."""
    x = as_matrix(xs, cols=layer.d)
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged layer gives nan
        for chunk in row_chunks(x):
            y, _, _ = moe_forward(layer, chunk)
            t, _ = ffn_forward(teacher, chunk)
            total += 0.5 * float(np.einsum("bd,bd->", y - t, y - t))
    return total / len(x)


def train_distill(
    layer: MoeLayer,
    teacher: DenseFfn,
    data,
    cfg: TrainConfig,
) -> TrainReport:
    """SGD distillation of the teacher into the layer. `data` is a list of
    (d,) inputs or a (N, d) array; the batch cursor cycles through it in
    order, so runs are fully deterministic. The teacher runs once on each
    row the cursor reaches, before the first step."""
    if layer.d != teacher.d:
        raise ValueError("layer and teacher must share the model dimension d")
    data = as_matrix(data, cols=teacher.d)
    report = TrainReport()
    cursor = 0
    # overflow and invalid values are how divergence shows; the non-finite
    # loss check below reports it, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        reached = data[:cfg.batch_size * cfg.total_steps]
        targets = np.concatenate([ffn_forward(teacher, c)[0] for c in row_chunks(reached)])
        for step in range(cfg.total_steps):
            idx = (cursor + np.arange(cfg.batch_size)) % len(data)
            cursor = (cursor + cfg.batch_size) % len(data)

            loss, grads, stats = batch_loss_and_grads(
                layer, teacher, data[idx], cfg.balance_coeff, target=targets[idx]
            )
            lr = lr_at(step + 1, cfg)
            report.losses.append(loss)
            report.importance_losses.append(stats["importance_loss"])
            report.load_losses.append(stats["load_loss"])
            report.routing_entropies.append(stats["routing_entropy"])
            report.lrs.append(lr)
            if not math.isfinite(loss):
                raise DivergenceError(step, report)

            _apply_sgd(layer, grads, lr)

    report.final_mse = distill_mse(layer, teacher, data)
    return report


def random_init_like(layer: MoeLayer, rng: Rng) -> MoeLayer:
    """Fresh layer with identical shapes, residual expert included, but
    gaussian expert weights. Experts draw in order, then the residual."""
    def fresh(ex: ExpertFfn) -> ExpertFfn:
        w = DenseFfn.random(layer.d, ex.d_h, rng)
        return ExpertFfn(w.w_up, w.w_gate, w.w_down, source_indices=ex.source_indices)

    experts = [fresh(ex) for ex in layer.experts]
    residual = None if layer.residual_expert is None else fresh(layer.residual_expert)
    gate = GateNetwork(
        w_g=np.zeros_like(layer.gate.w_g),
        w_noise=np.zeros_like(layer.gate.w_noise),
        k=layer.gate.k,
    )
    return MoeLayer(experts=experts, gate=gate, residual_expert=residual)
