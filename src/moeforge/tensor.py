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
    of its last pair. Draw i depends only on state + i * gamma, so every
    method takes its draws as blocks, each one array expression
    (`_u64_block`). Identical seeds give identical streams.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def shuffle(self, items: list) -> list:
        """In-place Fisher-Yates shuffle; returns the list.

        For i = n-1 down to 1 it swaps items i and j, with j uniform in
        [0, i] by rejection (no modulo bias): a draw x is kept if
        x <= 2**64-1 - 2**64 mod (i+1), and j = x mod (i+1). The draws come
        _BLOCK at a time; after a rejected draw the state moves to just past
        it and the rest are drawn again, so the items and the state left
        behind are those of one draw at a time.
        """
        i = len(items) - 1
        mask = np.uint64(_MASK64)
        while i > 0:
            bound = np.arange(i + 1, max(i + 1 - _BLOCK, 1), -1).astype(np.uint64)
            start = self._state
            x = self._u64_block(len(bound))
            ok = x <= mask - (mask % bound + np.uint64(1)) % bound
            kept = len(bound) if ok.all() else int(np.argmin(ok))
            if kept < len(bound):  # draw again from just past the rejected draw
                self._state = (start + (kept + 1) * _GAMMA) & _MASK64
            for j in (x[:kept] % bound[:kept]).tolist():
                items[i], items[j] = items[j], items[i]
                i -= 1
        return items

    def normal_array(self, shape, scale: float = 1.0) -> np.ndarray:
        """Standard normals in C order, times `scale`.

        Each consecutive pair of uniform draws (u1, u2) gives the
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
        """The next `count` draws as uint64, advancing the state: the
        splitmix64 mix of state + gamma * [1, ..., count]."""
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
        """The next `count` uniforms (draw >> 11) * 2**-53 as float64."""
        u = (self._u64_block(count) >> np.uint64(11)).astype(np.float64)
        u *= 1.0 / (1 << 53)
        return u

    def choice_weighted(self, weights: np.ndarray, count: int) -> np.ndarray:
        """An int array of `count` indices, each drawn with probability
        proportional to the nonnegative `weights` (sum ~ 1), one uniform each.

        Draw u is scaled by np.sum(weights), and its index is the first i
        whose running sum np.cumsum(weights)[i] exceeds it (a right-sided
        search), or the last index if none does.
        """
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0):
            raise ValueError("weighted draws need nonnegative weights")
        edges, scale = np.cumsum(w), float(np.sum(weights))
        out = np.empty(count, dtype=np.intp)
        for start in range(0, count, _BLOCK):
            u = self._floats(min(count - start, _BLOCK))
            u *= scale
            out[start:start + len(u)] = np.searchsorted(edges, u, side="right")
        return np.minimum(out, len(w) - 1, out=out)
