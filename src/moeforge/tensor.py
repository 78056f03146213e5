"""Dense numeric kernel: float64 matrices, activations, and a reproducible RNG.

Matrices are plain numpy float64 arrays in row-major (C) order. The helpers
here enforce the shape contracts the rest of the package relies on and add
the overflow-safe scalar functions numpy does not ship in the exact form we
need (masked softmax, branch-free sigmoid).
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_XS_MUL = 0x2545F4914F6CDD1D
# Block normal stream: up to _BLOCK draws at a time, from up to _LANES
# contiguous runs of the xorshift64* stream stepped together.
_BLOCK = 1 << 16
_LANES = 256


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


def _box_muller(u1, u2):
    """The (cos, sin) normal pair of Box-Muller for uniforms u1 in (0, 1)
    and u2 in [0, 1); scalars or arrays alike."""
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return r * np.cos(theta), r * np.sin(theta)


def _xorshift(x: np.ndarray) -> np.ndarray:
    """One xorshift (12, 25, 27) step of each uint64 state, in place."""
    x ^= x >> 12
    x ^= x << 25
    x ^= x >> 27
    return x


def _apply_gf2(cols: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The GF(2)-linear map whose image of bit i is cols[i], applied to each
    uint64 in x: the xor of one lookup per byte of x, in tables of the
    images of all 256 values of each byte, built by doubling over its bits."""
    table = np.zeros((8, 256), dtype=np.uint64)  # [byte][value]
    for i, image in enumerate(cols.reshape(8, 8).T):  # bit i of every byte
        table[:, 1 << i:2 << i] = table[:, :1 << i] ^ image[:, None]
    x_bytes = np.ascontiguousarray(x, dtype="<u8").view(np.uint8).reshape(-1, 8)
    out = table[0, x_bytes[:, 0]]
    for byte in range(1, 8):
        out ^= table[byte, x_bytes[:, byte]]
    return out


@functools.cache
def _lane_jumps(k: int) -> np.ndarray:
    """(_LANES, 64): row j holds the columns of the xorshift step to the
    power j * 2**k, the jump to lane j of a block of 2**k-draw lanes. A map
    applied to its own columns is squared; rows [2**a, 2**(a+1)) are rows
    [0, 2**a) after the jump of 2**(k+a) draws."""
    table = (np.uint64(1) << np.arange(64, dtype=np.uint64))[None, :]  # the identity
    jump = _xorshift(table[0].copy())
    for _ in range(k):
        jump = _apply_gf2(jump, jump)
    while len(table) < _LANES:
        table = np.concatenate([table, _apply_gf2(jump, table.reshape(-1)).reshape(table.shape)])
        jump = _apply_gf2(jump, jump)
    table.setflags(write=False)  # cached and shared by every Rng
    return table


def _splitmix64(x: int) -> int:
    """The output of one splitmix64 step from state x."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic 64-bit generator: splitmix64 seeding, xorshift64* stream.

    The stream is specified bit-exactly: the seed is run through one
    splitmix64 step to produce the initial nonzero state; each draw applies
    xorshift (12, 25, 27) and multiplies by 0x2545F4914F6CDD1D, returning
    the full 64-bit product. Identical seeds give identical streams.
    """

    def __init__(self, seed: int):
        state = _splitmix64(seed & _MASK64)
        self._state = state if state != 0 else 0x9E3779B97F4A7C15
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _XS_MUL) & _MASK64

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
        z, spare = _box_muller(u1, self.next_float())
        self._spare_normal = float(spare)
        return float(z)

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
        """Consecutive next_normal() draws in C order, times `scale`.

        The values and the generator state left behind, spare normal
        included, are bit-identical to drawing one next_normal() at a time;
        the stream is generated and transformed in blocks of numpy arrays.
        """
        n = int(np.prod(shape))
        out = np.empty(n)
        done = 0
        if n and self._spare_normal is not None:
            out[0], self._spare_normal = self._spare_normal, None
            done = 1
        while done < n:
            count = min(n - done, _BLOCK)
            if count == 1:  # the last value opens a pair; its sin half is the spare
                pair = np.empty(2)
                self._fill_pairs(pair)
                out[done], self._spare_normal = pair[0], float(pair[1])
                break
            count -= count % 2
            self._fill_pairs(out[done:done + count])
            done += count
        out *= scale
        return out.reshape(shape)

    def _fill_pairs(self, out: np.ndarray) -> None:
        """Fill `out` (even length, no spare pending) with Box-Muller pairs
        from the next len(out) draws of the stream."""
        start = self._state
        u = (self._u64_block(len(out)) >> 11).astype(np.float64)
        u *= 1.0 / (1 << 53)
        u1, u2 = u[0::2], u[1::2]
        if u1.all():
            out[0::2], out[1::2] = _box_muller(u1, u2)
            return
        # next_normal redraws a zero u1, which shifts every later pair
        self._state = start
        for i in range(len(out)):
            out[i] = self.next_normal()

    def _u64_block(self, count: int) -> np.ndarray:
        """The next `count` next_u64() outputs as uint64, advancing the state.

        The stream is cut into `lanes` contiguous runs of `steps` draws. Each
        run's start state is the current state under the run's jump-ahead
        map from `_lane_jumps`, and then all runs step together.
        """
        steps = 1 << (-(-count // _LANES) - 1).bit_length()
        lanes = -(-count // steps)
        bits = (np.uint64(self._state) >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        table = _lane_jumps(steps.bit_length() - 1)
        states = np.bitwise_xor.reduce(table[:lanes, bits.astype(bool)], axis=1)
        out = np.empty((lanes, steps), dtype=np.uint64)
        last_lane, last_step = divmod(count - 1, steps)
        mul = np.uint64(_XS_MUL)
        for t in range(steps):
            _xorshift(states)
            np.multiply(states, mul, out=out[:, t])
            if t == last_step:
                self._state = int(states[last_lane])
        return out.reshape(-1)[:count]

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
            u = (self._u64_block(min(count - start, _BLOCK)) >> 11).astype(np.float64)
            u *= 1.0 / (1 << 53)
            u *= scale
            out[start:start + len(u)] = np.searchsorted(edges, u, side="right")
        return np.minimum(out, len(w) - 1, out=out)
