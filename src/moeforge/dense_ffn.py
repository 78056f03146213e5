"""Dense SwiGLU feed-forward layer: the teacher and the source of expert splits.

Forward: h = (x @ W_up) * swish(x @ W_gate), y = h @ W_down. Input x is a
row vector left-multiplying the weights, so "neuron j" means column j of
W_up/W_gate and row j of W_down. Every kernel takes a batch X (B, d) of B
such rows and returns (B, .) arrays: the teacher, experts and residual
expert run through `swiglu_forward` / `swiglu_backward`, and importance
scoring through `swiglu_hidden`, the part of the forward up to H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor import as_matrix, sigmoid

# Rows per piece when a pass over many inputs goes through in chunks, so its
# temporaries do not grow with the number of inputs.
EVAL_ROWS = 64


def row_chunks(x: np.ndarray) -> list[np.ndarray]:
    """Views of `x` along its first axis: as few pieces of at most EVAL_ROWS
    rows as will do, of even size (an empty `x` is one empty piece). A tail
    of one or two rows can take another BLAS kernel and round differently
    from one pass over all the rows; even pieces keep the same kernels."""
    return np.array_split(x, max(1, -(-len(x) // EVAL_ROWS)))


@dataclass(frozen=True)
class DenseFfn:
    """SwiGLU FFN weights: w_up (d, d_h), w_gate (d, d_h), w_down (d_h, d)."""

    w_up: np.ndarray
    w_gate: np.ndarray
    w_down: np.ndarray

    def __post_init__(self):
        w_up = as_matrix(self.w_up)
        d, d_h = w_up.shape
        if d < 1 or d_h < 1:
            raise ValueError("d and d_h must be at least 1")
        object.__setattr__(self, "w_up", w_up)
        object.__setattr__(self, "w_gate", as_matrix(self.w_gate, d, d_h))
        object.__setattr__(self, "w_down", as_matrix(self.w_down, d_h, d))

    @property
    def d(self) -> int:
        return self.w_up.shape[0]

    @property
    def d_h(self) -> int:
        return self.w_up.shape[1]

    @staticmethod
    def random(d: int, d_h: int, rng, scale: float | None = None) -> "DenseFfn":
        """Gaussian init scaled 1/sqrt(d) (1/sqrt(d_h) for the down projection)."""
        up_scale = scale if scale is not None else 1.0 / np.sqrt(d)
        down_scale = scale if scale is not None else 1.0 / np.sqrt(d_h)
        return DenseFfn(
            w_up=rng.normal_array((d, d_h), up_scale),
            w_gate=rng.normal_array((d, d_h), up_scale),
            w_down=rng.normal_array((d_h, d), down_scale),
        )


@dataclass(frozen=True)
class ExpertFfn(DenseFfn):
    """One expert: a SwiGLU slice of the dense FFN (d_h neurons) plus the
    dense neuron indices it was cut from."""

    source_indices: tuple[int, ...] = ()

    def param_count(self) -> int:
        return self.w_up.size + self.w_gate.size + self.w_down.size


class SwigluCache(NamedTuple):
    """Forward intermediates for a (B, d) batch, each (B, d_h)."""

    a: np.ndarray  # X @ W_up
    b: np.ndarray  # X @ W_gate
    s: np.ndarray  # sigmoid(b)
    sw: np.ndarray  # swish(b) = b * s
    h: np.ndarray  # swish(b) * a


def swiglu_hidden(x: np.ndarray, w_up: np.ndarray, w_gate: np.ndarray) -> SwigluCache:
    """H = X @ W_up * swish(X @ W_gate) for X (B, d), with the intermediates
    `swiglu_backward` needs. Inputs are not validated."""
    a = x @ w_up
    b = x @ w_gate
    s = sigmoid(b)
    sw = b * s
    return SwigluCache(a, b, s, sw, sw * a)


def swiglu_forward(
    x: np.ndarray, w_up: np.ndarray, w_gate: np.ndarray, w_down: np.ndarray
) -> tuple[np.ndarray, SwigluCache]:
    """Y = H @ W_down for X (B, d), with the `swiglu_hidden` cache."""
    cache = swiglu_hidden(x, w_up, w_gate)
    return cache.h @ w_down, cache


def swiglu_backward(
    x: np.ndarray, grad_y: np.ndarray, w_down: np.ndarray, cache: SwigluCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dW_up, dW_gate, dW_down) summed over the batch, given dL/dY (B, d).

    swish'(b) = sigmoid(b) * (1 + b * (1 - sigmoid(b))).
    """
    a, b, s, sw, h = cache
    grad_h = grad_y @ w_down.T
    d_up = x.T @ (grad_h * sw)
    d_gate = x.T @ (grad_h * a * (s * (1.0 + b * (1.0 - s))))
    return d_up, d_gate, h.T @ grad_y


def ffn_forward(ffn: DenseFfn, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Returns (Y, H), (B, d) and (B, d_h), for a batch X (B, d), validating
    the input: a single (d,) vector is a ShapeError, not a batch of one."""
    y, cache = swiglu_forward(as_matrix(x, cols=ffn.d), ffn.w_up, ffn.w_gate, ffn.w_down)
    return y, cache.h

