"""Dense numeric kernel: float64 matrices, activations, and a reproducible RNG.

Matrices are plain numpy float64 arrays in row-major (C) order. The helpers
here enforce the shape contracts the rest of the package relies on and add
the overflow-safe scalar functions numpy does not ship in the exact form we
need (masked softmax, branch-free sigmoid).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
# splitmix64: the state increment and the two multipliers of the output mix
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# Bulk draws are made at most _BLOCK at a time, which bounds their temporaries
_BLOCK = 1 << 16


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


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, overflow-safe for large |z|: 1 / (1 + e^-z) for
    z >= 0 and e^z / (1 + e^z) below, with no branch: the numerator is
    exp(min(z, 0)) and the denominator 1 + exp(-|z|), neither above 2."""
    z = np.asarray(z, dtype=np.float64)
    out = np.minimum(z, 0.0, out=np.empty_like(z))  # out= keeps a 0-d input an array
    np.exp(out, out=out)
    e = np.abs(z, out=np.empty_like(z))
    np.exp(np.negative(e, out=e), out=e)
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


class Rng:
    """Deterministic 64-bit generator: the splitmix64 stream.

    The stream is specified bit-exactly. The state starts at seed mod 2**64.
    Each draw adds gamma = 0x9E3779B97F4A7C15 to the state and returns the
    mix z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31 of the new state, all mod 2**64.
    A uniform is (draw >> 11) * 2**-53. Normals are the Box-Muller pairs of
    consecutive uniforms (1 - u1, u2), and an odd count drops the sin half
    of its last pair. Draw i depends only on state + i * gamma, so a block
    of draws is one array expression and equals as many single draws.
    Identical seeds give identical streams.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = z = (self._state + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits: (next_u64() >> 11) * 2**-53."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

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
        """Standard normals in C order, times `scale`.

        Each consecutive pair of next_float() draws (u1, u2) gives the
        Box-Muller pair of (1 - u1, u2); 1 - u1 lies in (0, 1], so nothing
        is ever redrawn. An odd count drops the sin half of its last pair. The
        draws are made _BLOCK at a time, which bounds the temporaries.
        """
        n = int(np.prod(shape))
        out = np.empty(n + n % 2)
        for start in range(0, len(out), _BLOCK):
            pairs = out[start:start + _BLOCK]
            u = self._floats(len(pairs))
            r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
            theta = 2.0 * np.pi * u[1::2]
            pairs[0::2], pairs[1::2] = r * np.cos(theta), r * np.sin(theta)
        out = out[:n]
        out *= scale
        return out.reshape(shape)

    def _u64_block(self, count: int) -> np.ndarray:
        """The next `count` next_u64() outputs as uint64, advancing the state:
        the splitmix64 mix of state + gamma * [1, ..., count]."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX_A)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX_B)
        z ^= z >> np.uint64(31)
        return z

    def _floats(self, count: int) -> np.ndarray:
        """The next `count` next_float() values as float64."""
        u = (self._u64_block(count) >> np.uint64(11)).astype(np.float64)
        u *= 1.0 / (1 << 53)
        return u

    def choice_weighted(self, weights: np.ndarray, count: int | None = None):
        """Index drawn with probability proportional to `weights` (sum ~ 1).

        With `count`, an int array of `count` such draws from one block of
        the stream: the values and the state left behind are identical to
        `count` single draws, for nonnegative weights. `np.cumsum` adds in
        sequence like the running sum below, and the first edge above u is
        a right-sided search.
        """
        if count is None:
            u = self.next_float() * float(np.sum(weights))
            acc = 0.0
            for i, w in enumerate(weights):
                acc += float(w)
                if u < acc:
                    return i
            return len(weights) - 1
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0):
            raise ValueError("bulk weighted draws need nonnegative weights")
        edges, scale = np.cumsum(w), float(np.sum(weights))
        out = np.empty(count, dtype=np.intp)
        for start in range(0, count, _BLOCK):
            u = self._floats(min(count - start, _BLOCK))
            u *= scale
            out[start:start + len(u)] = np.searchsorted(edges, u, side="right")
        return np.minimum(out, len(w) - 1, out=out)
