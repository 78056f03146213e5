"""Dense numeric kernel: float64 matrices, activations, and a reproducible RNG.

Matrices are plain numpy float64 arrays in row-major (C) order. The helpers
here enforce the shape contracts the rest of the package relies on and add
the overflow-safe scalar functions numpy does not ship in the exact form we
need (masked softmax, branch-safe sigmoid).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "as_matrix",
    "as_rows",
    "matmul",
    "sigmoid",
    "swish",
    "softmax",
    "top_k_indices",
    "Rng",
]

_MASK64 = (1 << 64) - 1


class ShapeError(ValueError):
    """Raised when operand dimensions are inconsistent."""


def as_matrix(a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate `a` as a finite float64 2-D array, optionally pinning its shape."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise ShapeError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ShapeError(f"expected {cols} cols, got {m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return np.ascontiguousarray(m)


def as_rows(x, cols: int) -> tuple[np.ndarray, bool]:
    """Validate `x` as one (cols,) vector or a (B, cols) batch of row vectors.

    Returns the (B, cols) batch and whether `x` was a single vector, which
    the batch treats as B=1.
    """
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    return as_matrix(a[None, :] if single else a, cols=cols), single


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul requires 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    return a @ b


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, overflow-safe for large |z|: 1 / (1 + e^-z) for
    z >= 0 and e^z / (1 + e^z) below, both from e = exp(-|z|) <= 1."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def swish(z: np.ndarray) -> np.ndarray:
    """Swish activation z * sigmoid(z) (the nonlinearity inside SwiGLU)."""
    z = np.asarray(z, dtype=np.float64)
    return z * sigmoid(z)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis, so a (B, n) batch is
    normalised row by row. -inf entries act as masks and map to 0.

    Raises ValueError if every entry of a row is masked or the input is empty.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("softmax of an empty vector")
    if np.any(np.isnan(z)) or np.any(z == np.inf):
        raise ValueError("softmax entries must be finite or -inf")
    m = np.max(z, axis=-1, keepdims=True)
    if np.any(m == -np.inf):
        raise ValueError("softmax with all entries masked")
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, in ascending
    order. Ties go to the lower index: a stable sort of the negated values
    keeps equal entries in index order."""
    return np.sort(np.argsort(-values, axis=-1, kind="stable")[..., :k], axis=-1)


def _splitmix64(x: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x, z ^ (z >> 31)


class Rng:
    """Deterministic 64-bit generator: splitmix64 seeding, xorshift64* stream.

    The stream is specified bit-exactly: the seed is run through one
    splitmix64 step to produce the initial nonzero state; each draw applies
    xorshift (12, 25, 27) and multiplies by 0x2545F4914F6CDD1D, returning
    the full 64-bit product. Identical seeds give identical streams.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        _, state = _splitmix64(self.seed)
        self._state = state if state != 0 else 0x9E3779B97F4A7C15
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def next_normal(self) -> float:
        """Standard normal via Box-Muller (spare value cached)."""
        if self._spare_normal is not None:
            z, self._spare_normal = self._spare_normal, None
            return z
        u1 = self.next_float()
        while u1 == 0.0:
            u1 = self.next_float()
        u2 = self.next_float()
        r = np.sqrt(-2.0 * np.log(u1))
        self._spare_normal = float(r * np.sin(2.0 * np.pi * u2))
        return float(r * np.cos(2.0 * np.pi * u2))

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % n

    def shuffle(self, items: list) -> list:
        """In-place Fisher-Yates shuffle; returns the list."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def normal_array(self, shape, scale: float = 1.0) -> np.ndarray:
        """Consecutive next_normal() draws in C order, times `scale`. Filled
        in place, so no per-draw Python list outlives the call."""
        n = int(np.prod(shape))
        draws = (self.next_normal() for _ in range(n))
        return np.fromiter(draws, np.float64, count=n).reshape(shape) * scale

    def choice_weighted(self, weights: np.ndarray) -> int:
        """Index drawn with probability proportional to `weights` (sum ~ 1)."""
        u = self.next_float() * float(np.sum(weights))
        acc = 0.0
        for i, w in enumerate(weights):
            acc += float(w)
            if u < acc:
                return i
        return len(weights) - 1
